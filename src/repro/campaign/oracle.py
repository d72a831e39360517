"""The violation oracle: every auditor the repo has, pointed at one cell.

The campaign driver runs a cell and hands the artifacts (protocol
outputs, the flight log, the span recorder, any exception) to :func:`evaluate`, which composes the existing observers
into a single verdict:

* **coin** — honest players' exposed values must be unanimous and
  decodable (``≤ t`` interference can never break either, so any hit is
  a protocol bug, not an adversary success);
* **forensics** — :func:`~repro.obs.forensics.analyze_log` must accuse
  only players inside the cell's suspect set (soundness, every cell)
  and must implicate every corrupt player of a deterministically
  detectable adversary kind (completeness);
* **audit** — on clean lockstep cells the exact message/round
  conformance audits (:func:`~repro.obs.audit.audit_recorder`,
  :func:`~repro.obs.audit.audit_rounds`) must pass bit-exactly;
* **liveness** — fault-free async cells must pass
  :func:`~repro.obs.audit.audit_liveness`; faulted async cells must
  leave no *unexplained* stalls (both read off the flight log);
* **replay** — the flight log must round-trip through serialization
  diff-clean, and re-driving its expose rounds through the real decoder
  must reproduce the live honest values (lockstep); async cells are
  re-run from the same scenario and the two logs diffed (determinism);
* **exception** — any crash of the runtime stack is its own violation.

Violation *signatures* are seed-free by construction (kind and axis
names only, never player ids or values), so the triage report clusters
the same root cause across cells.

Off the coin path (docs/CENSUS.md, class ii); run by CI's campaign-soak
job.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Optional

from repro.campaign.adversaries import kind_for
from repro.campaign.space import HONEST, Scenario
from repro.net.faults import parse_fault_op
from repro.obs.phases import classify_tag

CLEAN = "clean"
VIOLATED = "violated"
ERROR = "error"


@dataclass(frozen=True)
class Violation:
    """One tripped oracle on one cell."""

    oracle: str  #: coin | forensics | audit | liveness | replay | exception
    signature: str  #: seed-free cluster key for triage
    detail: str  #: human specifics (may mention players/values)

    def to_dict(self) -> Dict[str, str]:
        return {"oracle": self.oracle, "signature": self.signature,
                "detail": self.detail}


@dataclass
class CellArtifacts:
    """Everything one executed cell left behind, for the oracle to judge."""

    scenario: Scenario
    field: Any = None
    recorder: Any = None
    flight_log: Any = None  #: FlightLog from the live run
    rerun_log: Any = None  #: FlightLog from an identical re-run (async)
    #: lockstep: per-coin {h: {pid: exposed Element or None}}
    expose_results: Dict[int, Dict[int, Any]] = dataclass_field(
        default_factory=dict)
    #: lockstep: run_coin_gen outputs {pid: CoinGenOutput}
    coin_gen_outputs: Dict[int, Any] = dataclass_field(default_factory=dict)
    #: async: per-coin {i: ({pid: value}, secret)}
    async_results: Dict[int, Any] = dataclass_field(default_factory=dict)
    error: Optional[BaseException] = None


@dataclass
class CellOutcome:
    """The ledger-ready verdict for one cell."""

    scenario: Scenario
    status: str  #: clean | violated | error
    violations: List[Violation]
    fingerprint: str
    measured: Dict[str, Any]
    log_text: Optional[str] = None  #: flight log JSONL, kept on violation

    def to_row(self) -> Dict[str, Any]:
        """One ledger row (deterministic: no wall-clock, sorted use only)."""
        return {
            "cell": self.scenario.cell_id(),
            "scenario": self.scenario.to_dict(),
            "status": self.status,
            "fingerprint": self.fingerprint,
            "measured": self.measured,
            "violations": [v.to_dict() for v in self.violations],
        }


def chain_kinds(scenario: Scenario) -> List[str]:
    """The fault kinds a cell's chain exercises (``["none"]`` when clean)."""
    kinds = sorted({parse_fault_op(op)["kind"] for op in scenario.faults})
    return kinds or ["none"]


def exercised_phases(flight_log) -> List[str]:
    """Protocol phases with at least one delivered message in the log."""
    phases = set()
    for event in flight_log.rounds if flight_log is not None else ():
        for _dst, _src, payload in event.deliveries:
            if isinstance(payload, tuple) and payload:
                phases.add(classify_tag(payload[0]))
    return sorted(phases)


def evaluate(artifacts: CellArtifacts) -> List[Violation]:
    """All tripped oracles for one cell, in stable oracle order."""
    violations: List[Violation] = []
    if artifacts.error is not None:
        violations.append(Violation(
            "exception", f"exception:{type(artifacts.error).__name__}",
            f"runtime stack raised: {artifacts.error!r}",
        ))
        return violations
    scenario = artifacts.scenario
    if scenario.runtime == "async":
        violations += _check_async_coins(artifacts)
        violations += _check_liveness(artifacts)
        violations += _check_rerun_determinism(artifacts)
    else:
        violations += _check_lockstep_coins(artifacts)
        violations += _check_forensics(artifacts)
        violations += _check_audits(artifacts)
        violations += _check_replay_decodes(artifacts)
    violations += _check_roundtrip(artifacts)
    return violations


# -- coin unanimity ---------------------------------------------------------

def _honest(scenario: Scenario) -> List[int]:
    suspects = scenario.suspects()
    return [pid for pid in range(1, scenario.n + 1) if pid not in suspects]


def _check_lockstep_coins(artifacts: CellArtifacts) -> List[Violation]:
    scenario, field = artifacts.scenario, artifacts.field
    honest = _honest(scenario)
    out: List[Violation] = []
    for pid in honest:
        output = artifacts.coin_gen_outputs.get(pid)
        if output is None or not output.success:
            out.append(Violation(
                "coin", "coin_gen_failure",
                f"honest player {pid} did not complete Coin-Gen",
            ))
            return out
    for h, results in sorted(artifacts.expose_results.items()):
        values = {pid: results.get(pid) for pid in honest}
        missing = sorted(pid for pid, v in values.items() if v is None)
        if missing:
            out.append(Violation(
                "coin", "coin_failure",
                f"coin {h}: honest players {missing} exposed no value",
            ))
            continue
        distinct = {field.to_int(v) for v in values.values()}
        if len(distinct) > 1:
            out.append(Violation(
                "coin", "coin_disagreement",
                f"coin {h}: honest players exposed {len(distinct)} "
                f"distinct values",
            ))
    return out


def _check_async_coins(artifacts: CellArtifacts) -> List[Violation]:
    scenario, field = artifacts.scenario, artifacts.field
    honest = _honest(scenario)
    out: List[Violation] = []
    for index, (outputs, secret) in sorted(artifacts.async_results.items()):
        missing = sorted(pid for pid in honest if pid not in outputs)
        if missing:
            out.append(Violation(
                "coin", "coin_failure",
                f"async coin {index}: honest players {missing} never "
                f"exposed",
            ))
            continue
        wrong = sorted(
            pid for pid in honest
            if field.to_int(outputs[pid]) != field.to_int(secret)
        )
        if wrong:
            out.append(Violation(
                "coin", "coin_disagreement",
                f"async coin {index}: players {wrong} decoded a value "
                f"other than the dealt secret",
            ))
    return out


# -- forensics soundness / completeness -------------------------------------

def _check_forensics(artifacts: CellArtifacts) -> List[Violation]:
    if artifacts.flight_log is None:
        return []
    from repro.obs.forensics import analyze_log

    scenario = artifacts.scenario
    report = analyze_log(artifacts.flight_log, field=artifacts.field,
                         t=scenario.t)
    implicated = set(report.corrupt_players())
    suspects = scenario.suspects()
    out: List[Violation] = []
    false_accused = sorted(implicated - suspects)
    if false_accused:
        out.append(Violation(
            "forensics",
            f"forensics_fp:adversary={scenario.adversary}",
            f"honest players {false_accused} accused "
            f"(implicated={sorted(implicated)}, "
            f"suspects={sorted(suspects)})",
        ))
    if scenario.adversary != HONEST and kind_for(scenario.adversary).detectable:
        missed = sorted(set(scenario.corrupt) - implicated)
        if missed:
            out.append(Violation(
                "forensics",
                f"forensics_fn:adversary={scenario.adversary}",
                f"corrupt players {missed} escaped accusation "
                f"(implicated={sorted(implicated)})",
            ))
    return out


# -- exact conformance audits (clean lockstep cells only) --------------------

def _check_audits(artifacts: CellArtifacts) -> List[Violation]:
    scenario = artifacts.scenario
    if scenario.adversary != HONEST or scenario.faults:
        return []  # deviations are expected under interference
    from repro.obs.audit import audit_recorder, audit_rounds

    out: List[Violation] = []
    for report in audit_recorder(artifacts.recorder):
        for check in report.checks:
            if not check.ok:
                out.append(Violation(
                    "audit",
                    f"audit:{report.protocol}/{check.phase}/{check.metric}",
                    f"{report.protocol} {check.phase} {check.metric}: "
                    f"expected {check.expected}, measured {check.measured}",
                ))
    for check in audit_rounds(artifacts.recorder):
        if not check.ok:
            out.append(Violation(
                "audit",
                f"audit_rounds:{check.protocol}",
                f"{check.protocol}: expected {check.expected} rounds, "
                f"measured {check.measured}",
            ))
    return out


# -- liveness (async) --------------------------------------------------------

def _check_liveness(artifacts: CellArtifacts) -> List[Violation]:
    log = artifacts.flight_log
    if log is None:
        return []
    from repro.obs.liveness import default_threshold, stalls

    scenario = artifacts.scenario
    threshold = default_threshold(scenario.n)
    out: List[Violation] = []
    if scenario.adversary == HONEST and not scenario.faults:
        from repro.obs.audit import audit_liveness

        report = audit_liveness(log, threshold)
        for check in report.checks:
            if not check.ok:
                out.append(Violation(
                    "liveness",
                    f"liveness:{check.phase}/{check.metric}",
                    f"{check.phase} {check.metric}: expected "
                    f"{check.expected}, measured {check.measured}",
                ))
    else:
        unexplained = [s for s in stalls(log, threshold)
                       if s.classification == "unexplained"]
        if unexplained:
            out.append(Violation(
                "liveness", "liveness:unexplained_stall",
                f"{len(unexplained)} stall(s) not attributable to the "
                f"injected faults",
            ))
    return out


# -- replay / determinism ----------------------------------------------------

def _check_roundtrip(artifacts: CellArtifacts) -> List[Violation]:
    if artifacts.flight_log is None:
        return []
    from repro.obs.flight import FlightLog, diff

    reloaded = FlightLog.loads(artifacts.flight_log.dumps())
    divergence = diff(artifacts.flight_log, reloaded)
    if divergence is not None:
        return [Violation(
            "replay", "replay:serialization_roundtrip",
            f"log != loads(dumps(log)): {divergence}",
        )]
    return []


def _check_replay_decodes(artifacts: CellArtifacts) -> List[Violation]:
    """Re-driven expose decodes must reproduce the live honest values."""
    if artifacts.flight_log is None or not artifacts.expose_results:
        return []
    from repro.obs.flight import replay

    scenario, field = artifacts.scenario, artifacts.field
    honest = set(_honest(scenario))
    decoded = replay(artifacts.flight_log, field=field,
                     t=scenario.t).decoded_values()
    by_coin: Dict[str, Dict[int, Any]] = {}
    for (_run, coin_id), receivers in decoded.items():
        by_coin.setdefault(coin_id, {}).update(receivers)
    out: List[Violation] = []
    for h, results in sorted(artifacts.expose_results.items()):
        replayed = by_coin.get(f"cg/c{h}", {})
        for pid in sorted(honest):
            live = results.get(pid)
            if pid not in replayed or live is None:
                continue  # coin oracle owns missing-value verdicts
            mine = replayed[pid]
            if mine is None or field.to_int(mine) != field.to_int(live):
                out.append(Violation(
                    "replay", "replay:decode_divergence",
                    f"coin {h}: replayed decode for player {pid} "
                    f"disagrees with the live exposure",
                ))
                break
    return out


def _check_rerun_determinism(artifacts: CellArtifacts) -> List[Violation]:
    if artifacts.flight_log is None or artifacts.rerun_log is None:
        return []
    from repro.obs.flight import diff

    divergence = diff(artifacts.flight_log, artifacts.rerun_log)
    if divergence is not None:
        return [Violation(
            "replay", "replay:rerun_divergence",
            f"same scenario, different log: {divergence}",
        )]
    return []


__all__ = [
    "CLEAN", "ERROR", "VIOLATED",
    "CellArtifacts", "CellOutcome", "Violation",
    "chain_kinds", "evaluate", "exercised_phases",
]
