"""Deterministic shrinking and self-contained repro artifacts.

When a cell trips the oracle, the scenario that tripped it is rarely
minimal — it may carry a larger batch, extra fault ops, more corrupt
players, and arbitrary seeds than the root cause needs.  The shrinker
runs greedy descent over :func:`~repro.campaign.space.shrink_reductions`
(halve M, drop fault ops left-to-right, drop corrupt players, zero the
seeds): a candidate is kept iff re-running it still trips one of the
original ``(oracle, signature)`` pairs.  Candidates are generated in a
fixed order from the current scenario alone and every re-run is
deterministic, so the same violated cell always shrinks to the same
minimal scenario in the same number of steps — the determinism contract
DESIGN.md §14 documents.

The result is dumped as a **repro artifact**: one JSON file holding the
minimal scenario, its manifest, the violations, and the minimal run's
full flight log.  :func:`check_artifact` re-runs the scenario and
verifies (a) the same oracle still trips and (b) the fresh flight log
diffs clean against the embedded one — so an artifact is a proof
object anyone can replay (``repro campaign replay``, or ``repro replay
--diff`` against the extracted log).

Off the coin path (docs/CENSUS.md, class ii); run by CI's campaign-soak
job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set, Tuple

from repro.campaign.driver import run_cell
from repro.campaign.oracle import CellOutcome
from repro.campaign.space import Scenario, shrink_reductions

ARTIFACT_SCHEMA = 1

SignatureSet = Set[Tuple[str, str]]


def _signatures(outcome: CellOutcome) -> SignatureSet:
    return {(v.oracle, v.signature) for v in outcome.violations}


@dataclass
class ShrinkResult:
    """The minimal scenario a violated cell reduced to."""

    original: Scenario
    minimal: Scenario
    outcome: CellOutcome  #: the minimal cell's outcome, flight log kept
    target: SignatureSet  #: the (oracle, signature) pairs preserved
    steps: int  #: candidate re-runs executed
    accepted: int  #: reductions that kept the violation


def shrink(
    scenario: Scenario,
    outcome: Optional[CellOutcome] = None,
    run: Callable[..., CellOutcome] = run_cell,
) -> ShrinkResult:
    """Greedily minimize ``scenario`` while the same oracle keeps tripping.

    ``outcome`` (when the caller already ran the cell) seeds the target
    signature set; otherwise the cell is run once first.  Raises
    ``ValueError`` on a clean cell — there is nothing to preserve.
    """
    current_outcome = (outcome if outcome is not None
                       and outcome.log_text is not None
                       else run(scenario, keep_log=True))
    target = _signatures(current_outcome)
    if not target:
        raise ValueError(
            f"cell {scenario.cell_id()} is clean; nothing to shrink"
        )
    current = scenario
    steps = accepted = 0
    progressed = True
    while progressed:
        progressed = False
        for candidate in shrink_reductions(current):
            steps += 1
            candidate_outcome = run(candidate, keep_log=True)
            if _signatures(candidate_outcome) & target:
                current, current_outcome = candidate, candidate_outcome
                accepted += 1
                progressed = True
                break
    return ShrinkResult(
        original=scenario, minimal=current, outcome=current_outcome,
        target=target, steps=steps, accepted=accepted,
    )


# -- artifacts ---------------------------------------------------------------

def artifact_dict(result: ShrinkResult) -> Dict:
    """The self-contained repro artifact for one shrunk violation."""
    from repro.obs.flight import field_from_spec

    outcome = result.outcome
    # capture the manifest against the live field (its spec carries the
    # backend), so the embedded manifest re-derives outcome.fingerprint
    manifest = result.minimal.manifest(
        field_from_spec(result.minimal.field)
    ).to_dict()
    return {
        "artifact_schema": ARTIFACT_SCHEMA,
        "cell": result.minimal.cell_id(),
        "scenario": result.minimal.to_dict(),
        "manifest": manifest,
        "fingerprint": outcome.fingerprint,
        "violations": [v.to_dict() for v in outcome.violations],
        "shrunk_from": {
            "cell": result.original.cell_id(),
            "scenario": result.original.to_dict(),
            "steps": result.steps,
            "accepted": result.accepted,
        },
        "flight_log": outcome.log_text,
    }


def write_artifact(path: str, result: ShrinkResult) -> Dict:
    data = artifact_dict(result)
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return data


def load_artifact(path: str) -> Dict:
    """Read an artifact; anything malformed in it is a ``ValueError``."""
    from repro.obs.flight import FlightLog

    with open(path) as handle:
        data = json.load(handle)
    schema = data.get("artifact_schema") if isinstance(data, dict) else None
    if schema != ARTIFACT_SCHEMA:
        raise ValueError(
            f"{path}: unsupported artifact schema {schema!r} "
            f"(expected {ARTIFACT_SCHEMA})"
        )
    if data.get("flight_log"):
        try:
            FlightLog.loads(data["flight_log"])
        except ValueError as error:
            raise ValueError(f"{path}: embedded flight log: {error}") from None
    return data


def check_artifact(
    data: Dict, run: Callable[..., CellOutcome] = run_cell
) -> Tuple[bool, str]:
    """Replay an artifact: does its scenario still trip its oracle?

    Returns ``(reproduced, detail)``.  Reproduction requires the same
    ``(oracle, signature)`` pair to trip *and* the fresh flight log to
    diff clean against the embedded one; either failure means the
    artifact has gone stale relative to the code under test — which is
    exactly what a bug fix should cause.
    """
    from repro.obs.flight import FlightLog, diff

    scenario = Scenario.from_dict(data["scenario"])
    expected = {(v["oracle"], v["signature"]) for v in data["violations"]}
    outcome = run(scenario, keep_log=True)
    got = _signatures(outcome)
    if not (got & expected):
        return False, (
            f"oracle no longer trips: expected one of {sorted(expected)}, "
            f"got {sorted(got) or 'clean'}"
        )
    embedded_text = data.get("flight_log")
    if embedded_text and outcome.log_text:
        divergence = diff(FlightLog.loads(embedded_text),
                          FlightLog.loads(outcome.log_text))
        if divergence is not None:
            return False, f"flight log diverged from artifact: {divergence}"
    tripped = sorted(got & expected)
    return True, (
        f"reproduced: {', '.join(f'{o}/{s}' for o, s in tripped)} "
        f"(flight log diff clean)"
    )


__all__ = [
    "ARTIFACT_SCHEMA", "ShrinkResult", "artifact_dict", "check_artifact",
    "load_artifact", "shrink", "write_artifact",
]
