"""Coverage maps: which scenario-space cells have ever been exercised.

The coverage grid deliberately coarsens the full scenario space: two
cells that differ only in seeds exercise the *same* protocol surface,
so the grid key is ``(runtime, scheduler, adversary, fault-kind,
phase)`` — the axes that select code paths, not the axes that select
randomness.  A :class:`CoverageMap` aggregates per-cell outcomes into
that grid (runs / clean / violated / error counts plus the distinct
manifest fingerprints seen), and measures coverage as the fraction of a
*reachable universe* — computed statically from a
:class:`~repro.campaign.space.ScenarioSpace`, never from what happened
to run — that has at least one execution.

All three output formats (table, JSON, Prometheus exposition) iterate
the grid in sorted key order with no timestamps, so the same campaign
produces byte-identical reports: the contract CI diffs against.

Off the coin path (docs/CENSUS.md, class ii); run by CI's campaign-soak
job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Iterable, List, Set, Tuple

from repro.campaign.oracle import CLEAN, ERROR, VIOLATED, chain_kinds
from repro.campaign.space import ASYNC, Scenario, ScenarioSpace

#: grid axes, in key order
GRID_AXES = ("runtime", "scheduler", "adversary", "fault", "phase")

#: phases a cell of each runtime exercises (static prediction)
LOCKSTEP_PHASES = ("deal", "clique", "gradecast", "ba", "expose")
ASYNC_PHASES = ("expose",)

GridKey = Tuple[str, str, str, str, str]


def expected_phases(scenario: Scenario) -> Tuple[str, ...]:
    """The phases a cell is expected to light up, from its runtime alone."""
    return ASYNC_PHASES if scenario.runtime == ASYNC else LOCKSTEP_PHASES


def grid_keys(scenario: Scenario, phases: Iterable[str]) -> List[GridKey]:
    """The grid cells one scenario execution touches."""
    keys = []
    for fault in chain_kinds(scenario):
        for phase in phases:
            keys.append((scenario.runtime, scenario.scheduler,
                         scenario.adversary, fault, phase))
    return keys


def universe(space: ScenarioSpace) -> Set[GridKey]:
    """Every grid cell the space can reach — computed without running.

    Uses :func:`expected_phases` per enumerated scenario, so the
    denominator of the coverage percentage is a property of the space
    definition, not of which cells a budgeted sample happened to draw.
    """
    keys: Set[GridKey] = set()
    for scenario in space.enumerate():
        keys.update(grid_keys(scenario, expected_phases(scenario)))
    return keys


@dataclass
class GridStats:
    """Outcome tallies for one coverage-grid cell."""

    runs: int = 0
    clean: int = 0
    violated: int = 0
    errors: int = 0
    fingerprints: Set[str] = dataclass_field(default_factory=set)

    def status_label(self) -> str:
        if self.errors or self.violated:
            return VIOLATED if self.violated else ERROR
        return CLEAN if self.runs else "unexercised"


class CoverageMap:
    """Aggregates executed cells into the coverage grid."""

    def __init__(self) -> None:
        self.cells: Dict[GridKey, GridStats] = {}

    def record(self, scenario: Scenario, status: str,
               phases: Iterable[str], fingerprint: str) -> None:
        """Fold one executed cell in; ``phases`` is what actually ran.

        Falls back to the static phase prediction when the run left no
        phase evidence (e.g. it crashed before any round settled), so
        an errored cell still registers as exercised.
        """
        phase_list = [p for p in phases if p not in ("other", "idle")]
        if not phase_list:
            phase_list = list(expected_phases(scenario))
        for key in grid_keys(scenario, phase_list):
            stats = self.cells.setdefault(key, GridStats())
            stats.runs += 1
            if status == CLEAN:
                stats.clean += 1
            elif status == ERROR:
                stats.errors += 1
            else:
                stats.violated += 1
            stats.fingerprints.add(fingerprint)

    def record_row(self, row: Dict) -> None:
        """Fold one campaign-ledger row back in (``repro campaign report``)."""
        scenario = Scenario.from_dict(row["scenario"])
        self.record(scenario, row["status"],
                    row.get("measured", {}).get("phases", ()),
                    row.get("fingerprint", ""))

    # -- measurement -------------------------------------------------------
    def exercised(self) -> Set[GridKey]:
        return set(self.cells)

    def percentage(self, space: ScenarioSpace) -> float:
        reachable = universe(space)
        if not reachable:
            return 100.0
        hit = len(reachable & self.exercised())
        return 100.0 * hit / len(reachable)

    def status_counts(self) -> Dict[str, int]:
        counts = {CLEAN: 0, VIOLATED: 0, ERROR: 0}
        for stats in self.cells.values():
            counts[CLEAN] += stats.clean
            counts[VIOLATED] += stats.violated
            counts[ERROR] += stats.errors
        return counts

    # -- reports (all byte-deterministic) ----------------------------------
    def table(self, space: ScenarioSpace = None) -> str:
        header = (f"{'runtime':9s} {'scheduler':10s} {'adversary':12s} "
                  f"{'fault':10s} {'phase':10s} {'runs':>5s} {'clean':>6s} "
                  f"{'viol':>5s} {'err':>4s}")
        lines = [header, "-" * len(header)]
        for key in sorted(self.cells):
            stats = self.cells[key]
            runtime, scheduler, adversary, fault, phase = key
            lines.append(
                f"{runtime:9s} {scheduler:10s} {adversary:12s} "
                f"{fault:10s} {phase:10s} {stats.runs:5d} "
                f"{stats.clean:6d} {stats.violated:5d} {stats.errors:4d}"
            )
        if space is not None:
            reachable = universe(space)
            hit = len(reachable & self.exercised())
            lines.append("")
            lines.append(
                f"coverage: {hit}/{len(reachable)} reachable grid cells "
                f"({self.percentage(space):.1f}%)"
            )
        return "\n".join(lines)

    def to_dict(self, space: ScenarioSpace = None) -> Dict:
        grid = []
        for key in sorted(self.cells):
            stats = self.cells[key]
            entry = dict(zip(GRID_AXES, key))
            entry.update(
                runs=stats.runs, clean=stats.clean,
                violated=stats.violated, errors=stats.errors,
                fingerprints=sorted(stats.fingerprints),
                status=stats.status_label(),
            )
            grid.append(entry)
        out = {"coverage_schema": 1, "grid": grid,
               "counts": self.status_counts()}
        if space is not None:
            reachable = universe(space)
            out["universe"] = len(reachable)
            out["exercised"] = len(reachable & self.exercised())
            out["coverage_percent"] = round(self.percentage(space), 4)
        return out

    def to_json(self, space: ScenarioSpace = None) -> str:
        return json.dumps(self.to_dict(space), indent=2, sort_keys=True)

    def to_prometheus(self, space: ScenarioSpace = None) -> str:
        lines = [
            "# HELP repro_campaign_cells_total campaign cell outcomes",
            "# TYPE repro_campaign_cells_total gauge",
        ]
        for status, count in sorted(self.status_counts().items()):
            lines.append(
                f'repro_campaign_cells_total{{status="{status}"}} {count}'
            )
        lines += [
            "# HELP repro_campaign_grid_runs runs per coverage-grid cell",
            "# TYPE repro_campaign_grid_runs gauge",
        ]
        for key in sorted(self.cells):
            labels = ",".join(
                f'{axis}="{value}"' for axis, value in zip(GRID_AXES, key)
            )
            lines.append(
                f"repro_campaign_grid_runs{{{labels}}} "
                f"{self.cells[key].runs}"
            )
        if space is not None:
            lines += [
                "# HELP repro_campaign_coverage_percent scenario-space "
                "coverage",
                "# TYPE repro_campaign_coverage_percent gauge",
                f"repro_campaign_coverage_percent "
                f"{self.percentage(space):.4f}",
            ]
        return "\n".join(lines) + "\n"


__all__ = [
    "ASYNC_PHASES", "GRID_AXES", "LOCKSTEP_PHASES",
    "CoverageMap", "GridStats", "expected_phases", "grid_keys", "universe",
]
