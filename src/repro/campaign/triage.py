"""Violation triage: cluster ledger rows by oracle + divergence signature.

A thousand-cell soak that trips forty times is not forty bugs — it is
usually one or two root causes fanned out across seeds.  Violation
signatures are seed-free by construction (see
:mod:`repro.campaign.oracle`), so grouping by ``(oracle, signature)``
collapses the fan-out: each :class:`TriageCluster` carries the count,
the affected cell ids, and one concrete example, ranked most-frequent
first.  The report is deterministic (sorted keys, no timestamps) like
every other campaign artifact.

Off the coin path (docs/CENSUS.md, class ii); run by CI's campaign-soak
job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Tuple


@dataclass
class TriageCluster:
    """All violations sharing one ``(oracle, signature)`` root cause."""

    oracle: str
    signature: str
    count: int = 0
    cells: List[str] = dataclass_field(default_factory=list)
    example_detail: str = ""
    example_cell: str = ""

    def to_dict(self) -> Dict:
        return {
            "oracle": self.oracle,
            "signature": self.signature,
            "count": self.count,
            "cells": self.cells,
            "example_cell": self.example_cell,
            "example_detail": self.example_detail,
        }


def triage(rows: List[Dict]) -> List[TriageCluster]:
    """Cluster every violation in the rows; most frequent cluster first."""
    clusters: Dict[Tuple[str, str], TriageCluster] = {}
    for row in rows:
        cell = row.get("cell", "?")
        for violation in row.get("violations", ()):
            key = (violation["oracle"], violation["signature"])
            cluster = clusters.get(key)
            if cluster is None:
                cluster = clusters[key] = TriageCluster(
                    oracle=key[0], signature=key[1],
                    example_detail=violation.get("detail", ""),
                    example_cell=cell,
                )
            cluster.count += 1
            if cell not in cluster.cells:
                cluster.cells.append(cell)
    return sorted(
        clusters.values(),
        key=lambda c: (-c.count, c.oracle, c.signature),
    )


def triage_table(clusters: List[TriageCluster]) -> str:
    if not clusters:
        return "no violations to triage"
    header = f"{'count':>5s} {'cells':>5s} {'oracle':10s} signature"
    lines = [header, "-" * len(header)]
    for cluster in clusters:
        lines.append(
            f"{cluster.count:5d} {len(cluster.cells):5d} "
            f"{cluster.oracle:10s} {cluster.signature}"
        )
        lines.append(f"      e.g. [{cluster.example_cell}] "
                     f"{cluster.example_detail}")
    return "\n".join(lines)


def triage_to_json(clusters: List[TriageCluster]) -> str:
    return json.dumps(
        {"triage_schema": 1,
         "clusters": [c.to_dict() for c in clusters]},
        indent=2, sort_keys=True,
    )


__all__ = ["TriageCluster", "triage", "triage_table", "triage_to_json"]
