"""The campaign ledger: append-only, schema-versioned JSONL.

One file accumulates every campaign a repo checkout has run: the first
line of each campaign is a header row (schema version, campaign seed,
cell count), followed by one row per executed cell.  Rows are canonical JSON — sorted keys,
fixed separators, no timestamps — so *the same campaign seed produces
a byte-identical ledger*, which is the property CI soaks and the
acceptance tests diff against.

Appending never rewrites: re-running a campaign adds a new
header + rows block, and readers see every historical block in order.

Off the coin path (docs/CENSUS.md, class ii); run by CI's campaign-soak
job.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

LEDGER_SCHEMA = 1


def _canonical(row: Dict[str, Any]) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


class CampaignLedger:
    """Writer for one campaign's block of an append-only JSONL ledger."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._header_written = False

    def write_header(self, campaign_seed: Optional[int], cells: int,
                     **extra: Any) -> None:
        header = {
            "ledger_schema": LEDGER_SCHEMA,
            "campaign_seed": campaign_seed,
            "cells": cells,
        }
        header.update(extra)
        with open(self.path, "a") as handle:
            handle.write(_canonical(header) + "\n")
        self._header_written = True

    def append(self, row: Dict[str, Any]) -> None:
        if not self._header_written:
            raise RuntimeError("write_header before appending rows")
        row = dict(row)
        row["ledger_schema"] = LEDGER_SCHEMA
        with open(self.path, "a") as handle:
            handle.write(_canonical(row) + "\n")


def read_ledger(path: str) -> Tuple[List[Dict], List[Dict]]:
    """``(headers, rows)`` across every campaign block in the file.

    Raises ``ValueError`` on unparseable lines or unknown schema
    versions — a truncated or hand-edited ledger should fail loudly,
    not report partial coverage.
    """
    headers: List[Dict] = []
    rows: List[Dict] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: not JSON ({exc})"
                ) from None
            schema = record.get("ledger_schema")
            if schema != LEDGER_SCHEMA:
                raise ValueError(
                    f"{path}:{lineno}: unsupported ledger schema "
                    f"{schema!r} (expected {LEDGER_SCHEMA})"
                )
            if "cell" in record:
                rows.append(record)
            else:
                headers.append(record)
    return headers, rows


def violated_rows(rows: List[Dict]) -> List[Dict]:
    """Rows whose cell did not come back clean."""
    return [row for row in rows if row.get("status") != "clean"]


__all__ = [
    "LEDGER_SCHEMA", "CampaignLedger", "read_ledger", "violated_rows",
]
