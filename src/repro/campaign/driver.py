"""The campaign driver: one deterministic execution per scenario cell.

:func:`run_cell` is the contract everything else (shrinker, artifact
replay, CLI, tests) builds on: given a :class:`Scenario` it constructs
the full stack — field, scheduler, fresh :class:`FaultPlane`, protocol
context with a :class:`SpanRecorder` and a :class:`FlightRecorder` —
runs the coin protocol, and hands the artifacts to the oracle.  Same scenario ⇒ same outcome, same flight
log, byte for byte: the fault plane is rebuilt from its spec each run
(planes are stateful), every rng is derived from the scenario's seeds,
and nothing reads the clock.

Async cells are executed **twice** and the two flight logs diffed — the
cheapest possible whole-stack determinism oracle, and the reason the
driver (not the caller) owns re-running.

Off the coin path (docs/CENSUS.md, class ii); run by CI's campaign-soak
job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.campaign.adversaries import coin_gen_programs, expose_programs
from repro.campaign.coverage import CoverageMap
from repro.campaign.ledger import CampaignLedger
from repro.campaign.oracle import (
    CLEAN,
    ERROR,
    VIOLATED,
    CellArtifacts,
    CellOutcome,
    evaluate,
    exercised_phases,
)
from repro.campaign.space import ASYNC, Scenario
from repro.net.faults import FaultPlane
from repro.net.scheduler import PermutedDeliveryScheduler, RandomOrderScheduler
from repro.obs.flight import FlightRecorder, field_from_spec
from repro.obs.spans import SpanRecorder
from repro.protocols.context import ProtocolContext


def _make_scheduler(scenario: Scenario):
    if scenario.scheduler == "permuted":
        return PermutedDeliveryScheduler(seed=scenario.sched_seed)
    if scenario.scheduler == "random":
        return RandomOrderScheduler(seed=scenario.sched_seed)
    return None


def _make_context(scenario: Scenario, field) -> ProtocolContext:
    return ProtocolContext.create(
        field, scenario.n, scenario.t, seed=scenario.seed,
        scheduler=_make_scheduler(scenario),
        faults=(FaultPlane.from_spec(scenario.faults)
                if scenario.faults else None),
        recorder=SpanRecorder(),
    )


def _attach_flight(scenario: Scenario, ctx: ProtocolContext):
    recorder = FlightRecorder(
        n=ctx.n, t=ctx.t, field=ctx.field, seed=ctx.seed,
        manifest=scenario.manifest(ctx.field).to_dict(),
    )
    return recorder.attach(ctx)


def _run_lockstep(scenario: Scenario, artifacts: CellArtifacts) -> None:
    from repro.protocols.coin_gen.finalize import expose_coin, run_coin_gen

    ctx = _make_context(scenario, artifacts.field)
    flight = _attach_flight(scenario, ctx)
    artifacts.recorder = ctx.recorder
    outputs, _ = run_coin_gen(
        ctx, M=scenario.M, tag="cg",
        faulty_programs=coin_gen_programs(
            scenario.adversary, scenario.corrupt, scenario.n, scenario.seed
        ),
    )
    artifacts.coin_gen_outputs = outputs
    for h in range(scenario.M):
        results, _ = expose_coin(
            ctx, outputs=outputs, h=h,
            faulty_programs=expose_programs(
                scenario.adversary, scenario.corrupt, artifacts.field,
                scenario.n, outputs, h, scenario.seed,
            ),
        )
        artifacts.expose_results[h] = results
    artifacts.flight_log = flight.log()


def _run_async(scenario: Scenario, artifacts: Optional[CellArtifacts]):
    """One async execution; returns the flight log.

    When ``artifacts`` is None this is the determinism re-run: protocol
    work identical, only the flight log retained.
    """
    from repro.protocols.async_coin import run_async_coin

    field = (artifacts.field if artifacts is not None
             else field_from_spec(scenario.field))
    ctx = ProtocolContext.create(
        field, scenario.n, scenario.t, seed=scenario.seed,
        recorder=SpanRecorder(),
    )
    flight = _attach_flight(scenario, ctx)
    results: Dict[int, tuple] = {}
    for index in range(scenario.M):
        outputs, secret, _runtime = run_async_coin(
            ctx, coin_id=f"async-{index}",
            scheduler=RandomOrderScheduler(seed=scenario.sched_seed + index),
            faults=(FaultPlane.from_spec(scenario.faults)
                    if scenario.faults else None),
        )
        results[index] = (outputs, secret)
    if artifacts is not None:
        artifacts.recorder = ctx.recorder
        artifacts.async_results = results
        artifacts.flight_log = flight.log()
    return flight.log()


def run_cell(scenario: Scenario, keep_log: bool = False) -> CellOutcome:
    """Execute one cell and judge it; never raises on protocol failure.

    The flight log text rides along on every violated/errored cell (it
    is the repro artifact's payload) and, with ``keep_log``, on clean
    cells too.
    """
    field = field_from_spec(scenario.field)
    artifacts = CellArtifacts(scenario=scenario, field=field)
    try:
        if scenario.runtime == ASYNC:
            _run_async(scenario, artifacts)
            artifacts.rerun_log = _run_async(scenario, None)
        else:
            _run_lockstep(scenario, artifacts)
    except Exception as exc:  # judged, not propagated: errors are outcomes
        artifacts.error = exc
    violations = evaluate(artifacts)
    if artifacts.error is not None:
        status = ERROR
    else:
        status = VIOLATED if violations else CLEAN
    log = artifacts.flight_log
    measured = {
        "rounds": len(log.rounds) if log is not None else 0,
        "fault_events": len(log.faults) if log is not None else 0,
        "phases": exercised_phases(log),
    }
    return CellOutcome(
        scenario=scenario,
        status=status,
        violations=violations,
        fingerprint=scenario.manifest(field).fingerprint(),
        measured=measured,
        log_text=(log.dumps() if log is not None
                  and (keep_log or violations) else None),
    )


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    outcomes: List[CellOutcome]
    coverage: CoverageMap

    @property
    def violated(self) -> List[CellOutcome]:
        return [o for o in self.outcomes if o.status != CLEAN]

    def violation_count(self) -> int:
        return sum(len(o.violations) for o in self.outcomes)

    def status_counts(self) -> Dict[str, int]:
        counts = {CLEAN: 0, VIOLATED: 0, ERROR: 0}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts


def run_campaign(
    cells: Iterable[Scenario],
    ledger: Optional[CampaignLedger] = None,
    keep_logs: bool = False,
    progress: Optional[Callable[[CellOutcome], None]] = None,
) -> CampaignResult:
    """Run every cell, aggregate coverage, append each row to the ledger.

    Cells run in the given order and rows land in that order, so the
    same cell list against a fresh ledger file is byte-identical — the
    acceptance contract for CI soaks.
    """
    coverage = CoverageMap()
    outcomes: List[CellOutcome] = []
    for scenario in cells:
        outcome = run_cell(scenario, keep_log=keep_logs)
        outcomes.append(outcome)
        coverage.record(outcome.scenario, outcome.status,
                        outcome.measured.get("phases", ()),
                        outcome.fingerprint)
        if ledger is not None:
            ledger.append(outcome.to_row())
        if progress is not None:
            progress(outcome)
    return CampaignResult(outcomes=outcomes, coverage=coverage)


__all__ = ["CampaignResult", "run_campaign", "run_cell"]
