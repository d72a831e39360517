"""Liveness observatory: guard wait-state telemetry for the runtimes.

An asynchronous coin terminates when ``n - t`` quorums *arrive*, not
when a round boundary fires — so the liveness signals that matter are
"which guard is starving, who completed the quorum, how deep does the
in-flight pool run".  The runtimes publish exactly those on four bus
topics (``GUARD_ARMED`` / ``GUARD_PROGRESS`` / ``GUARD_FIRED`` /
``POOL``, see :mod:`repro.obs.bus`), strictly opt-in so unmonitored
runs stay byte-identical; this module holds the two subscribers that
turn the stream into answers:

* :class:`QuorumLatencyRecorder` — per :class:`~repro.net.guards.Wait`,
  the armed→fired logical-time delta and the **pivotal** sender (the
  distinct matching sender whose delivery completed the quorum).
  Pivotal counts are quorum-level straggler attribution: a player that
  is repeatedly last-in-quorum is the one slowing everyone down (the
  player to hand ``repro critpath --what-if``).
* :class:`StallWatchdog` — the *online* complement of the post-mortem
  ``RuntimeExhausted.stuck`` report: flags any guard waiting past a
  logical-time threshold, names the senders still missing from its
  quorum, and cross-references crash events from the
  :class:`~repro.net.faults.FaultPlane` to classify each stall as
  **crash-induced** (a missing sender is known crashed) vs.
  **unexplained** withholding (all missing senders are allegedly alive).

Logical time is the publishing runtime's clock: delivery count for
:class:`~repro.net.async_runtime.AsyncRuntime`, round number for the
lockstep runtime.  Both restart per run; the ``RUN`` topic delimits.

The conformance side lives in :func:`repro.obs.audit.audit_liveness`:
fault-free random-order runs must show zero stalls and every guard
firing at exactly its quorum count of distinct senders.

Off the coin path (docs/CENSUS.md, class ii); run by CI's `repro waits`
steps and `repro toss --watchdog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Set, Tuple

from repro.obs.bus import (
    FAULT,
    GUARD_ARMED,
    GUARD_FIRED,
    GUARD_PROGRESS,
    POOL,
    RUN,
    EventBus,
)


def default_threshold(n: int) -> int:
    """A generous default watchdog threshold for ``n`` players.

    A fault-free async coin exposure settles every guard within one
    all-to-all multicast — under ``n**2`` deliveries — so ``4 * n**2``
    logical ticks of waiting is far past anything an honest schedule
    produces while still small enough to fire long before
    ``max_deliveries`` exhausts.  Used by the conformance audit and by
    the CLI when ``--watchdog`` is given without a threshold.
    """
    return 4 * n * n


# ---------------------------------------------------------------------------
# quorum-latency attribution
# ---------------------------------------------------------------------------

@dataclass
class WaitRecord:
    """One armed guard's life: armed → (progress ...) → fired.

    ``senders`` is the ordered tuple of distinct matching senders at
    fire time; ``pivotal`` the quorum-completing one; times are the
    publishing runtime's logical clock (``fired_at is None`` while the
    guard is still parked, e.g. in a run that exhausted).
    """

    run: int
    pid: int
    tags: Tuple[str, ...]
    quorum: Optional[int]
    armed_at: int
    fired_at: Optional[int] = None
    senders: Tuple[int, ...] = ()
    #: (time, src) per *new* distinct matching sender, in arrival order
    arrivals: List[Tuple[int, int]] = dataclass_field(default_factory=list)
    pivotal: Optional[int] = None

    @property
    def fired(self) -> bool:
        return self.fired_at is not None

    @property
    def wait_time(self) -> Optional[int]:
        """Armed→fired logical-time delta (None while unfired)."""
        if self.fired_at is None:
            return None
        return self.fired_at - self.armed_at


class QuorumLatencyRecorder:
    """Bus subscriber turning liveness topics into per-wait records.

    Attach before the run (``recorder = QuorumLatencyRecorder().attach(bus)``);
    afterwards :meth:`waits` holds one :class:`WaitRecord` per armed
    guard, :meth:`pivotal_counts` the straggler attribution, and the
    pool gauges (:attr:`pool_peak`, :attr:`backlog_peak`) the in-flight
    depth peaks.  Works on both runtimes; on lockstep there are no
    ``POOL`` events.
    """

    def __init__(self) -> None:
        self.records: List[WaitRecord] = []
        #: channel -> max in-flight backlog ever observed
        self.backlog_peak: Dict[str, int] = {}
        self.pool_peak = 0
        self.run_count = 0
        self._open: Dict[int, WaitRecord] = {}

    # -- wiring --------------------------------------------------------------
    def attach(self, bus: EventBus) -> "QuorumLatencyRecorder":
        bus.subscribe(RUN, self._on_run)
        bus.subscribe(GUARD_ARMED, self._on_armed)
        bus.subscribe(GUARD_PROGRESS, self._on_progress)
        bus.subscribe(GUARD_FIRED, self._on_fired)
        bus.subscribe(POOL, self._on_pool)
        return self

    # -- topic handlers ------------------------------------------------------
    def _on_run(self, n: int) -> None:
        self.run_count += 1
        self._open = {}

    def _on_armed(self, time: int, pid: int, guard) -> None:
        record = WaitRecord(
            run=self.run_count, pid=pid, tags=tuple(guard.tags),
            quorum=getattr(guard, "quorum", None), armed_at=time,
        )
        self._open[pid] = record
        self.records.append(record)

    def _on_progress(self, time: int, pid: int, src: int,
                     count: int, quorum: int) -> None:
        record = self._open.get(pid)
        if record is None:
            return
        record.quorum = quorum
        known = {s for _, s in record.arrivals}
        if src not in known:
            record.arrivals.append((time, src))
            if record.pivotal is None and count >= quorum:
                record.pivotal = src

    def _on_fired(self, time: int, pid: int, guard, senders) -> None:
        record = self._open.pop(pid, None)
        if record is None:
            return
        record.fired_at = time
        record.senders = tuple(senders)
        if record.pivotal is None and record.arrivals:
            # no single progress event crossed the quorum (e.g. a
            # lockstep round delivering several matching payloads at
            # once): the last new matching sender completed it
            record.pivotal = record.arrivals[-1][1]

    def _on_pool(self, time: int, depth: int, backlog: Dict[str, int]) -> None:
        if depth > self.pool_peak:
            self.pool_peak = depth
        for channel, count in backlog.items():
            if count > self.backlog_peak.get(channel, 0):
                self.backlog_peak[channel] = count

    # -- derived views -------------------------------------------------------
    def waits(self) -> List[WaitRecord]:
        return list(self.records)

    def fired_records(self) -> List[WaitRecord]:
        return [r for r in self.records if r.fired]

    def pending_records(self) -> List[WaitRecord]:
        """Guards still parked when their run ended (or is ongoing)."""
        return [r for r in self.records if not r.fired]

    def latencies(self) -> List[int]:
        """Armed→fired logical-time deltas of every fired wait."""
        return [r.wait_time for r in self.records if r.fired]

    def mean_wait(self) -> float:
        waits = self.latencies()
        return sum(waits) / len(waits) if waits else 0.0

    def max_wait(self) -> int:
        return max(self.latencies(), default=0)

    def pivotal_counts(self) -> Dict[int, int]:
        """player -> number of waits it completed (straggler signal)."""
        counts: Dict[int, int] = {}
        for record in self.records:
            if record.pivotal is not None:
                counts[record.pivotal] = counts.get(record.pivotal, 0) + 1
        return counts

    def table(self) -> str:
        """Human-readable fixed-width wait table for the CLI."""
        header = (
            f"{'run':>3} {'pid':>3} {'tag':<18} {'quorum':>6} "
            f"{'armed':>6} {'fired':>6} {'wait':>5} {'pivotal':>7}"
        )
        lines = [header, "-" * len(header)]
        for r in self.records:
            tag = "/".join(r.tags)
            if len(tag) > 18:
                tag = tag[:15] + "..."
            fired = str(r.fired_at) if r.fired else "-"
            wait = str(r.wait_time) if r.fired else "-"
            pivotal = str(r.pivotal) if r.pivotal is not None else "-"
            quorum = str(r.quorum) if r.quorum is not None else "?"
            lines.append(
                f"{r.run:>3} {r.pid:>3} {tag:<18} {quorum:>6} "
                f"{r.armed_at:>6} {fired:>6} {wait:>5} {pivotal:>7}"
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# online stall watchdog
# ---------------------------------------------------------------------------

@dataclass
class Stall:
    """One guard flagged for waiting past the watchdog threshold.

    ``missing`` are the players that had not yet contributed a matching
    payload at detection time; ``crashed_missing`` the subset with an
    observed crash fault — non-empty classifies the stall as
    ``"crash"``, empty as ``"unexplained"`` (withholding by allegedly
    live players).  ``resolved_at`` is set if the guard later fired.
    """

    run: int
    pid: int
    tags: Tuple[str, ...]
    quorum: Optional[int]
    armed_at: int
    detected_at: int
    waited: int
    senders: Tuple[int, ...]
    missing: Tuple[int, ...]
    crashed_missing: Tuple[int, ...]
    classification: str
    resolved_at: Optional[int] = None


@dataclass
class _Arm:
    """Watchdog-side state of one currently parked guard."""

    tags: Tuple[str, ...]
    quorum: Optional[int]
    armed_at: int
    senders: Set[int] = dataclass_field(default_factory=set)
    stall: Optional[Stall] = None


class StallWatchdog:
    """Online stall detection over the liveness topics.

    Flags every guard that waits more than ``threshold`` logical ticks
    (default :func:`default_threshold`), names the missing senders, and
    classifies the stall by cross-referencing ``FAULT`` crash events:
    a stall with a known-crashed missing sender is ``"crash"``-induced,
    one whose missing senders are all allegedly alive is
    ``"unexplained"`` withholding.  One stall per armed wait, at first
    detection; if the guard later fires, ``resolved_at`` is filled in
    but the stall remains on record.

    The watchdog's clock advances with the liveness events themselves
    (armed/progress/fired and, on the async runtime, the per-tick
    ``POOL`` gauge) — it needs no access to runtime internals, so it
    can watch a live run or a re-published stream equally.  Complements
    the post-mortem ``RuntimeExhausted.stuck`` report: the watchdog
    sees stalls in runs that *eventually* terminate.
    """

    def __init__(self, n: int, threshold: Optional[int] = None) -> None:
        self.n = n
        self.threshold = (
            default_threshold(n) if threshold is None else threshold
        )
        self.stalls: List[Stall] = []
        self.crashed: Set[int] = set()
        self.run_count = 0
        self._open: Dict[int, _Arm] = {}
        self._now = 0

    # -- wiring --------------------------------------------------------------
    def attach(self, bus: EventBus) -> "StallWatchdog":
        bus.subscribe(RUN, self._on_run)
        bus.subscribe(FAULT, self._on_fault)
        bus.subscribe(GUARD_ARMED, self._on_armed)
        bus.subscribe(GUARD_PROGRESS, self._on_progress)
        bus.subscribe(GUARD_FIRED, self._on_fired)
        bus.subscribe(POOL, self._on_pool)
        return self

    # -- topic handlers ------------------------------------------------------
    def _on_run(self, n: int) -> None:
        self.run_count += 1
        self._open = {}
        self.crashed = set()
        self._now = 0

    def _on_fault(self, round_no: int, kind: str, src: int, dst: int) -> None:
        if kind == "crash":
            self.crashed.add(src)

    def _on_armed(self, time: int, pid: int, guard) -> None:
        self._open[pid] = _Arm(
            tags=tuple(guard.tags),
            quorum=getattr(guard, "quorum", None),
            armed_at=time,
        )
        self._advance(time)

    def _on_progress(self, time: int, pid: int, src: int,
                     count: int, quorum: int) -> None:
        arm = self._open.get(pid)
        if arm is not None:
            arm.senders.add(src)
            arm.quorum = quorum
        self._advance(time)

    def _on_fired(self, time: int, pid: int, guard, senders) -> None:
        arm = self._open.pop(pid, None)
        if arm is not None and arm.stall is not None:
            arm.stall.resolved_at = time
        self._advance(time)

    def _on_pool(self, time: int, depth: int, backlog: Dict[str, int]) -> None:
        self._advance(time)

    # -- detection -----------------------------------------------------------
    def _advance(self, time: int) -> None:
        if time > self._now:
            self._now = time
        now = self._now
        for pid, arm in self._open.items():
            if arm.stall is not None or now - arm.armed_at <= self.threshold:
                continue
            missing = tuple(
                p for p in range(1, self.n + 1) if p not in arm.senders
            )
            crashed_missing = tuple(
                sorted(set(missing) & self.crashed)
            )
            stall = Stall(
                run=self.run_count, pid=pid, tags=arm.tags,
                quorum=arm.quorum, armed_at=arm.armed_at, detected_at=now,
                waited=now - arm.armed_at,
                senders=tuple(sorted(arm.senders)), missing=missing,
                crashed_missing=crashed_missing,
                classification="crash" if crashed_missing else "unexplained",
            )
            arm.stall = stall
            self.stalls.append(stall)

    # -- derived views -------------------------------------------------------
    def crash_induced(self) -> List[Stall]:
        return [s for s in self.stalls if s.classification == "crash"]

    def unexplained(self) -> List[Stall]:
        return [s for s in self.stalls if s.classification == "unexplained"]

    def table(self) -> str:
        """Human-readable fixed-width stall table for the CLI."""
        if not self.stalls:
            return f"no stalls (threshold {self.threshold} logical ticks)"
        header = (
            f"{'run':>3} {'pid':>3} {'waited':>6} {'class':<11} "
            f"{'missing':<16} {'crashed':<10} {'resolved':>8}"
        )
        lines = [header, "-" * len(header)]
        for s in self.stalls:
            missing = ",".join(str(p) for p in s.missing) or "-"
            crashed = ",".join(str(p) for p in s.crashed_missing) or "-"
            resolved = str(s.resolved_at) if s.resolved_at is not None else "no"
            lines.append(
                f"{s.run:>3} {s.pid:>3} {s.waited:>6} {s.classification:<11} "
                f"{missing:<16} {crashed:<10} {resolved:>8}"
            )
        return "\n".join(lines)
