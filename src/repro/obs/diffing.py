"""Cross-run differential analysis: per-phase × per-op delta tables.

One recorded run tells you where time went; two runs tell you what
*changed*.  This module reduces a recording — the JSONL span export
``--export jsonl`` writes (:func:`~repro.obs.export.to_jsonl`) — to one
canonical shape, a :class:`RunProfile`::

    {phase: {rounds, messages, bits, adds, muls, invs,
             interpolations, wall_s}}

and then diffs two of them.

Determinism is the contract
---------------------------
Every metric except ``wall_s`` is a *count* the simulator derives from
the seeds alone, so two runs of the same manifest produce identical
count tables and :meth:`ProfileDiff.is_empty` is guaranteed True —
wall-clock jitter is reported (``wall_s`` rows) but never decides
emptiness.  Conversely any nonzero count delta is a real behavioural
difference, not noise, which is what makes the attribution trustworthy.

Attribution
-----------
:meth:`ProfileDiff.attribution` prices the per-(phase, op) count deltas
under a :class:`~repro.obs.critical_path.CostModel` (default
:data:`DEFAULT_PRICING`, the microbenchmark-derived per-op seconds the
CLI documents for ``--op-cost``) and ranks them by share of the total
priced delta — the "clique-phase interpolations account for 78% of the
slowdown" line.  When the two runs' manifests differ in a semantic
field, the report says so up front: that diff is a configuration
change, not a regression.

Off the coin path (docs/CENSUS.md, class ii); run by CI's `repro diff
... --expect-empty` (observability smoke).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional

from repro.obs.critical_path import OP_KEYS, CostModel
from repro.obs.manifest import RunManifest

#: deterministic (seed-derived) per-phase metrics; these decide emptiness
COUNT_METRICS = ("rounds", "messages", "bits") + OP_KEYS
#: all per-phase metrics, wall-clock last (reported, never gating)
METRICS = COUNT_METRICS + ("wall_s",)

#: per-op seconds used to price attribution when no model is given
#: (the same figures the CLI's ``--op-cost`` help cites)
DEFAULT_PRICING = CostModel(add=1e-9, mul=2e-9, inv=5e-8,
                            interpolation=1e-6)

PhaseTable = Dict[str, Dict[str, float]]


def _empty_phase() -> Dict[str, float]:
    return {metric: 0 for metric in METRICS}


@dataclass
class RunProfile:
    """One run reduced to the canonical per-phase metric table."""

    phases: PhaseTable = dataclass_field(default_factory=dict)
    manifest: Optional[RunManifest] = None
    #: where this profile came from, for report headers
    source: str = ""

    def phase(self, name: str) -> Dict[str, float]:
        return self.phases.setdefault(name, _empty_phase())


def profile_from_jsonl(text: str, source: str = "jsonl") -> RunProfile:
    """Reduce a :func:`~repro.obs.export.to_jsonl` span export.

    The export carries the same spans a live recorder holds (phase spans
    included, attrs flattened into the span object), plus optional
    ``{"kind": "manifest"}`` and ``{"kind": "fault"}`` lines.
    """
    profile = RunProfile(source=source)
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("kind")
        if kind == "manifest":
            payload = {k: v for k, v in record.items() if k != "kind"}
            profile.manifest = RunManifest.from_dict(payload)
            continue
        if kind == "phase":
            row = profile.phase(record.get("phase", "other"))
            row["rounds"] += record.get("rounds", 0)
            row["messages"] += record.get("messages", 0)
            row["bits"] += record.get("bits", 0)
            row["wall_s"] += record.get("duration_s", 0.0)
        elif kind == "player":
            row = profile.phase(record.get("phase", "other"))
            for key in OP_KEYS:
                row[key] += record.get(key, 0)
    return profile


@dataclass(frozen=True)
class DiffRow:
    """One (phase, metric) delta between two profiles."""

    phase: str
    metric: str
    before: float
    after: float

    @property
    def delta(self) -> float:
        return self.after - self.before

    @property
    def ratio(self) -> Optional[float]:
        if self.before == 0:
            return None
        return self.after / self.before


@dataclass(frozen=True)
class Attribution:
    """One (phase, op) priced delta and its share of the total."""

    phase: str
    op: str
    delta: float
    seconds: float
    share: float  #: fraction of the total priced delta magnitude

    def describe(self) -> str:
        sign = "+" if self.delta >= 0 else ""
        return (f"{self.phase}-phase {self.op} {sign}{self.delta:g} "
                f"({self.seconds:+.6f}s priced, {self.share:.0%} of "
                "the delta)")


@dataclass
class ProfileDiff:
    """The per-phase × per-metric delta between two :class:`RunProfile`."""

    before: RunProfile
    after: RunProfile
    rows: List[DiffRow] = dataclass_field(default_factory=list)

    @property
    def manifest_changes(self) -> Dict[str, tuple]:
        if self.before.manifest is None or self.after.manifest is None:
            return {}
        return self.before.manifest.differences(self.after.manifest)

    def is_empty(self) -> bool:
        """True when every *deterministic* metric is unchanged.

        Wall-clock rows are excluded on purpose: two identically seeded
        runs always differ in jitter, never in counts.
        """
        return all(
            row.delta == 0 for row in self.rows
            if row.metric in COUNT_METRICS
        )

    def count_rows(self) -> List[DiffRow]:
        """The deterministic rows with a nonzero delta, largest first."""
        rows = [r for r in self.rows
                if r.metric in COUNT_METRICS and r.delta != 0]
        rows.sort(key=lambda r: (-abs(r.delta), r.phase, r.metric))
        return rows

    def attribution(self,
                    model: Optional[CostModel] = None) -> List[Attribution]:
        """Price the op-count deltas and rank by share of the total.

        ``model`` supplies per-op seconds (default
        :data:`DEFAULT_PRICING`); shares are computed over the summed
        *magnitudes* so offsetting deltas both show up.
        """
        model = model if model is not None else DEFAULT_PRICING
        weights = {"adds": model.add, "muls": model.mul, "invs": model.inv,
                   "interpolations": model.interpolation}
        priced = [
            (row, row.delta * weights[row.metric])
            for row in self.rows
            if row.metric in OP_KEYS and row.delta != 0
        ]
        total = sum(abs(seconds) for _row, seconds in priced)
        out = [
            Attribution(
                phase=row.phase, op=row.metric, delta=row.delta,
                seconds=seconds,
                share=(abs(seconds) / total) if total > 0 else 0.0,
            )
            for row, seconds in priced
        ]
        out.sort(key=lambda a: (-a.share, a.phase, a.op))
        return out

    def report(self, model: Optional[CostModel] = None,
               label_a: str = "before", label_b: str = "after") -> str:
        """The full human-readable attribution report."""
        lines: List[str] = []
        if self.before.manifest is not None:
            lines.append(f"{label_a}: {self.before.manifest.summary()}")
        if self.after.manifest is not None:
            lines.append(f"{label_b}: {self.after.manifest.summary()}")
        changes = self.manifest_changes
        if changes:
            changed = ", ".join(
                f"{field} {before!r} -> {after!r}"
                for field, (before, after) in sorted(changes.items())
            )
            lines.append(f"configuration change (not a regression): "
                         f"{changed}")
        if self.is_empty():
            lines.append("no deterministic deltas: the runs are "
                         "behaviourally identical")
            wall = [r for r in self.rows
                    if r.metric == "wall_s" and r.delta != 0]
            if wall:
                total = sum(r.delta for r in wall)
                lines.append(f"(wall-clock jitter only: {total:+.6f}s "
                             "across phases)")
            return "\n".join(lines)
        header = (f"{'phase':<12} {'metric':<16} {'before':>12} "
                  f"{'after':>12} {'delta':>12} {'ratio':>8}")
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.count_rows():
            ratio = f"{row.ratio:.2f}x" if row.ratio is not None else "new"
            lines.append(
                f"{row.phase:<12} {row.metric:<16} {row.before:>12g} "
                f"{row.after:>12g} {row.delta:>+12g} {ratio:>8}"
            )
        attribution = self.attribution(model)
        if attribution:
            lines.append("")
            lines.append("priced attribution (largest share first):")
            for entry in attribution:
                lines.append(f"  {entry.describe()}")
        return "\n".join(lines)


def diff_profiles(before: RunProfile, after: RunProfile) -> ProfileDiff:
    """Per-(phase, metric) delta table between two profiles."""
    result = ProfileDiff(before=before, after=after)
    phases = sorted(set(before.phases) | set(after.phases))
    for phase in phases:
        a = before.phases.get(phase, {})
        b = after.phases.get(phase, {})
        for metric in METRICS:
            result.rows.append(DiffRow(
                phase=phase, metric=metric,
                before=a.get(metric, 0), after=b.get(metric, 0),
            ))
    return result
