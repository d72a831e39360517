"""Lemma-conformance auditor: live span tallies vs. paper predictions.

The exporters make a run *visible*; this module makes it *checkable*.
Given a :class:`~repro.obs.spans.SpanRecorder` holding a finished
execution, the auditor aggregates per-phase message and interpolation
tallies out of the recorded round/player spans and compares them against
the exact fault-free predictions in :mod:`repro.analysis.complexity`
(the per-phase renderings of Lemma 2/4/6, Corollary 1 and Theorem 2's
round accounting).

Two protocols are auditable exactly:

* ``coin_gen`` spans — per-phase unicast messages
  (:func:`~repro.analysis.complexity.coin_gen_phase_messages`) and
  per-player interpolations
  (:func:`~repro.analysis.complexity.coin_gen_phase_interpolations`),
  parameterized by the ``n``/``t``/``iterations`` attributes the runner
  stamps on the protocol span;
* ``expose`` spans — total messages ``|S| * n`` and one interpolation
  per exposed coin per player (Theorem 1), from the ``senders_total``
  and ``coins`` attributes.

On a fault-free run every check must match *exactly*; any deviation is
either injected faults (expected — the report says so, it does not
guess) or a cost regression in the implementation.

Off the coin path (docs/CENSUS.md, class ii); run by CI's `repro trace
--audit` (both backends, both runtimes) and `repro waits --audit`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import complexity, rounds as rounds_model
from repro.obs.liveness import stalls, wait_records
from repro.obs.phases import PHASES, messages_by_phase
from repro.obs.spans import Span, SpanRecorder


@dataclass(frozen=True)
class PhaseCheck:
    """One predicted-vs-measured comparison."""

    phase: str
    #: "messages" (per phase, whole network) or "interpolations"
    #: (per phase, busiest player)
    metric: str
    expected: int
    measured: int

    @property
    def deviation(self) -> int:
        return self.measured - self.expected

    @property
    def ok(self) -> bool:
        return self.measured == self.expected


@dataclass
class ConformanceReport:
    """All checks for one protocol span."""

    protocol: str
    params: Dict[str, Any]
    checks: List[PhaseCheck] = dataclass_field(default_factory=list)
    #: faults the recorder observed during this run (non-empty means
    #: deviations are expected, not a regression)
    faults: int = 0

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def max_abs_deviation(self) -> int:
        return max((abs(c.deviation) for c in self.checks), default=0)

    def table(self) -> str:
        """Human-readable fixed-width table for the CLI."""
        header = (
            f"{'phase':<10} {'metric':<15} {'expected':>9} "
            f"{'measured':>9} {'dev':>5}  "
        )
        lines = [header.rstrip()]
        lines.append("-" * len(header.rstrip()))
        for c in self.checks:
            mark = "ok" if c.ok else "DEVIATION"
            lines.append(
                f"{c.phase:<10} {c.metric:<15} {c.expected:>9} "
                f"{c.measured:>9} {c.deviation:>+5}  {mark}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# tally extraction from recorded spans
# ---------------------------------------------------------------------------

def _round_children(recorder: SpanRecorder, protocol: Span) -> List[Span]:
    return sorted(
        (s for s in recorder.spans
         if s.parent_id == protocol.span_id and s.kind == "round"),
        key=lambda s: s.t0,
    )


def measured_phase_messages(
    recorder: SpanRecorder, protocol: Span
) -> Dict[str, int]:
    """Per-phase delivered-message tallies under one protocol span.

    Each tag is attributed to *its own* phase (not the round's dominant
    phase), so e.g. the dealing round's share messages and any
    stragglers classify independently.  Tag tallies are taken pre-fault
    (the honest send-side cost, matching NetworkMetrics accounting).
    """
    totals: Dict[str, int] = {}
    for round_span in _round_children(recorder, protocol):
        for phase, count in messages_by_phase(
            round_span.attrs.get("tags", {})
        ).items():
            totals[phase] = totals.get(phase, 0) + count
    return totals


def measured_phase_interpolations(
    recorder: SpanRecorder, protocol: Span
) -> Dict[str, int]:
    """Per-phase interpolation count of the *busiest* player.

    Player-step spans carry the OpCounter delta of one generator step
    and inherit their round's phase label; summing per (phase, player)
    and taking the per-phase maximum yields the paper's "per player"
    figure.  Fault-free, all honest players tie.
    """
    per_player: Dict[Tuple[str, int], int] = {}
    for round_span in _round_children(recorder, protocol):
        for step in recorder.children(round_span):
            if step.kind != "player":
                continue
            key = (step.attrs.get("phase", "other"), step.attrs.get("player"))
            per_player[key] = per_player.get(key, 0) + step.attrs.get(
                "interpolations", 0
            )
    totals: Dict[str, int] = {}
    for (phase, _player), interps in per_player.items():
        totals[phase] = max(totals.get(phase, 0), interps)
    return totals


def _fault_count(recorder: SpanRecorder, protocol: Span) -> int:
    rounds = _round_children(recorder, protocol)
    if not rounds:
        return 0
    lo = min(r.attrs.get("round", 0) for r in rounds)
    hi = max(r.attrs.get("round", 0) for r in rounds)
    return sum(1 for f in recorder.faults if lo <= f.get("round", -1) <= hi)


# ---------------------------------------------------------------------------
# auditors
# ---------------------------------------------------------------------------

def audit_coin_gen(
    recorder: SpanRecorder, protocol: Optional[Span] = None
) -> ConformanceReport:
    """Audit one Coin-Gen protocol span against Theorem 2's accounting.

    ``protocol`` defaults to the first recorded span named ``coin_gen``.
    The span must carry ``n``, ``t``, and ``iterations`` attributes
    (stamped by :func:`repro.protocols.coin_gen.run_coin_gen`).
    """
    if protocol is None:
        candidates = [
            s for s in recorder.by_kind("protocol") if s.name == "coin_gen"
        ]
        if not candidates:
            raise ValueError("no coin_gen protocol span recorded")
        protocol = candidates[0]
    n = protocol.attrs["n"]
    t = protocol.attrs["t"]
    iterations = protocol.attrs.get("iterations", 1)

    expected_msgs = complexity.coin_gen_phase_messages(n, t, iterations)
    expected_interp = complexity.coin_gen_phase_interpolations(n, iterations)
    measured_msgs = measured_phase_messages(recorder, protocol)
    measured_interp = measured_phase_interpolations(recorder, protocol)

    report = ConformanceReport(
        protocol="coin_gen",
        params={"n": n, "t": t, "iterations": iterations},
        faults=_fault_count(recorder, protocol),
    )
    phases = [p for p in PHASES if p in expected_msgs or p in measured_msgs
              or p in measured_interp]
    for phase in phases:
        report.checks.append(PhaseCheck(
            phase, "messages",
            expected_msgs.get(phase, 0), measured_msgs.get(phase, 0),
        ))
        report.checks.append(PhaseCheck(
            phase, "interpolations",
            expected_interp.get(phase, 0), measured_interp.get(phase, 0),
        ))
    return report


def audit_expose(
    recorder: SpanRecorder, protocol: Span
) -> ConformanceReport:
    """Audit one Coin-Expose span: ``|S| * n`` messages, one decode per
    coin per player (Theorem 1)."""
    n = protocol.attrs["n"]
    coins = protocol.attrs.get("coins", 1)
    senders_total = protocol.attrs.get("senders_total", n * coins)

    measured_msgs = measured_phase_messages(recorder, protocol)
    measured_interp = measured_phase_interpolations(recorder, protocol)

    report = ConformanceReport(
        protocol="expose",
        params={"n": n, "coins": coins, "senders_total": senders_total},
        faults=_fault_count(recorder, protocol),
    )
    report.checks.append(PhaseCheck(
        "expose", "messages",
        complexity.expose_messages(senders_total, n),
        sum(measured_msgs.values()),
    ))
    report.checks.append(PhaseCheck(
        "expose", "interpolations",
        complexity.expose_interpolations(coins),
        sum(measured_interp.values()),
    ))
    return report


@dataclass(frozen=True)
class RoundsCheck:
    """Observed vs. predicted round count for one protocol span.

    ``measured`` counts *message-carrying* rounds (round spans with a
    non-zero ``messages`` tally) — the runtime's trailing drain round is
    empty and excluded, so fault-free the comparison is exact.  A crash
    or silence fault that empties a round shows up as a negative delta;
    the ``faults`` count says whether a deviation is expected.
    """

    protocol: str
    expected: int
    measured: int
    faults: int = 0

    @property
    def deviation(self) -> int:
        return self.measured - self.expected

    @property
    def ok(self) -> bool:
        return self.measured == self.expected


def audit_rounds(recorder: SpanRecorder) -> List[RoundsCheck]:
    """Observed round counts vs. the :mod:`repro.analysis.rounds` model.

    One check per protocol span whose name
    :func:`~repro.analysis.rounds.predicted_rounds` knows; spans of
    unknown protocols are skipped.  The ``t``/``iterations`` parameters
    come off the span's attributes (``t`` defaults to 0, matching
    ``expose`` spans that do not stamp it).
    """
    checks: List[RoundsCheck] = []
    for protocol in recorder.by_kind("protocol"):
        expected = rounds_model.predicted_rounds(
            protocol.name,
            t=protocol.attrs.get("t", 0),
            iterations=protocol.attrs.get("iterations", 1),
        )
        if expected is None:
            continue
        measured = sum(
            1 for round_span in _round_children(recorder, protocol)
            if round_span.attrs.get("messages", 0) > 0
        )
        checks.append(RoundsCheck(
            protocol=protocol.name, expected=expected, measured=measured,
            faults=_fault_count(recorder, protocol),
        ))
    return checks


_AUDITORS = {
    "coin_gen": audit_coin_gen,
    "expose": audit_expose,
}


def audit_recorder(recorder: SpanRecorder) -> List[ConformanceReport]:
    """Audit every auditable protocol span in the recorder, in order."""
    reports: List[ConformanceReport] = []
    for protocol in recorder.by_kind("protocol"):
        auditor = _AUDITORS.get(protocol.name)
        if auditor is not None:
            reports.append(auditor(recorder, protocol))
    return reports


def audit_liveness(log, threshold: Optional[int] = None) -> ConformanceReport:
    """Liveness conformance of a :class:`~repro.obs.flight.FlightLog`'s
    :func:`~repro.obs.liveness.wait_records`.

    Fault-free random-order runs must be stall-free and *quorum-exact*:

    * ``unfired_guards`` — every armed guard eventually fired (0
      expected; a positive count means a run ended with parked guards);
    * ``quorum_overshoot_fires`` — every fired guard had exactly its
      quorum of distinct matching senders at fire time (0 expected).
      This is an async-runtime invariant: the destination's guard is
      re-checked after every single delivery (a lookup in its inbox's
      tag index, never batched), so the firing delivery is precisely
      the quorum-completing one.  Lockstep recordings legitimately
      overshoot (a round delivers many matching payloads at once) —
      audit async recordings only.  Quorum-0 guards fire without
      senders and are excluded;
    * ``stalls`` — when a ``threshold`` is given, zero guards waited
      past it (:func:`~repro.obs.liveness.stalls`).

    Returns a :class:`ConformanceReport` (protocol ``"liveness"``) so
    the CLI renders and gates it exactly like the lemma audits.
    """
    records = wait_records(log)
    fired = [r for r in records if r.fired]
    overshoot = sum(
        1 for r in fired
        if r.quorum is not None and r.quorum > 0
        and len(r.senders) != r.quorum
    )
    checks = [
        PhaseCheck("liveness", "unfired_guards", 0,
                   len(records) - len(fired)),
        PhaseCheck("liveness", "quorum_overshoot_fires", 0, overshoot),
    ]
    params: Dict[str, Any] = {
        "waits": len(records), "runs": len(log.runs()),
    }
    if threshold is not None:
        checks.append(PhaseCheck("liveness", "stalls", 0,
                                 len(stalls(log, threshold))))
        params["threshold"] = threshold
    return ConformanceReport(protocol="liveness", params=params,
                             checks=checks)
