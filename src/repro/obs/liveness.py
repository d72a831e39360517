"""Liveness views: wait records and stalls, read off a flight log.

An asynchronous coin terminates when ``n - t`` quorums *arrive*, not
when a round boundary fires — so the liveness questions that matter are
"which guard is starving, who completed the quorum, is the missing
sender crashed or withholding".  A :class:`~repro.obs.flight.FlightLog`
answers them offline: besides deliveries and faults it records the two
guard facts deliveries cannot rebuild (a player parked on a guard, a
parked player woke), and everything here is a pure function of it:

* :func:`wait_records` — per armed guard, the armed→fired logical-time
  delta and the **pivotal** sender (the distinct matching sender whose
  delivery completed the quorum).  Pivotal counts are quorum-level
  straggler attribution: a player that is repeatedly last-in-quorum is
  the one slowing everyone down.
* :func:`stalls` — every guard that waited past a logical-time
  threshold, naming the senders still missing from its quorum and
  classifying it as **crash**-induced (a missing sender is known
  crashed) or **unexplained** withholding (all missing senders are
  allegedly alive).

A wait's arrivals, quorum, pivotal and fired senders come from the
deliveries the log holds after its ``armed`` line, replayed into the
player's cumulative inbox exactly as the runtime built it.  A stall is
declarative: a wait armed at ``a`` stalls iff its run's clock reached
``a + threshold + 1`` before the wait fired; its senders, quorum,
missing players and crash classification are read at that tick.
Logical time is the recording runtime's clock: delivery count on
:class:`~repro.net.async_runtime.AsyncRuntime`, round number on
lockstep.  :func:`repro.obs.audit.audit_liveness` is the conformance
side (fault-free: zero stalls, every guard quorum-exact).

Off the coin path (docs/CENSUS.md, class ii); run by CI's `repro waits`
steps and `repro toss --watchdog`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, List, Optional, Tuple

from repro.net.guards import AnyWait, IndexedInbox, Wait
from repro.obs.flight import FaultEvent, FlightLog, RoundEvent


def default_threshold(n: int) -> int:
    """A generous default stall threshold for ``n`` players.

    A fault-free async coin exposure settles every guard within one
    all-to-all multicast — under ``n**2`` deliveries — so ``4 * n**2``
    logical ticks of waiting is far past anything an honest schedule
    produces while still small enough to fire long before
    ``max_deliveries`` exhausts.  Used by the conformance audit and by
    ``repro waits`` when ``--watchdog`` is not given.
    """
    return 4 * n * n


@dataclass
class WaitRecord:
    """One armed guard's life: armed → fired.

    ``senders`` is the ordered tuple of distinct matching senders at
    fire time; ``pivotal`` the quorum-completing one; ``quorum`` that of
    the guard (of its closest branch at the last matching arrival, for
    an ``AnyWait``).  ``fired_at is None`` for a guard still parked when
    its run ended.
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
        return None if self.fired_at is None else self.fired_at - self.armed_at


@dataclass
class Stall:
    """One guard that waited past the threshold.

    ``missing`` are the players that had not contributed a matching
    payload since the guard was armed, at detection time;
    ``crashed_missing`` the subset with a crash fault by then —
    non-empty classifies the stall as ``"crash"``, empty as
    ``"unexplained"`` (withholding by allegedly live players).
    ``resolved_at`` is the fire, if the guard fired.
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
class _Parked:
    """A wait with its guard and every matching delivery while parked."""

    record: WaitRecord
    guard: object
    #: (time, src, quorum) per matching delivery after the arm
    progress: List[Tuple[int, int, int]]


def _replay(log: FlightLog):
    """Every wait of ``log`` in armed order, each run's crashes
    ``[(time, pid)]`` and each run's final clock."""
    waits: List[_Parked] = []
    crashes: Dict[int, List[Tuple[int, int]]] = {}
    clock: Dict[int, int] = {}
    inboxes: Dict[Tuple[int, int], IndexedInbox] = {}
    parked: Dict[Tuple[int, int], _Parked] = {}
    for event in log.events():
        run = event.run
        if isinstance(event, RoundEvent):
            clock[run] = max(clock.get(run, 0), event.round)
            for dst, src, payload in event.deliveries:
                inbox = inboxes.setdefault((run, dst), IndexedInbox())
                tag = inbox.deliver(src, payload)
                wait = parked.get((run, dst))
                if wait is None or tag not in wait.guard.tags:
                    continue
                count, quorum = wait.guard.progress(inbox)
                wait.progress.append((event.round, src, quorum))
                record = wait.record
                record.quorum = quorum
                if all(src != seen for _, seen in record.arrivals):
                    record.arrivals.append((event.round, src))
                    if record.pivotal is None and count >= quorum:
                        record.pivotal = src
        elif isinstance(event, FaultEvent):
            if event.kind == "crash":
                crashes.setdefault(run, []).append((event.round, event.src))
        elif event.waits:
            branches = [Wait(tags, quorum) for tags, quorum in event.waits]
            guard = branches[0] if len(branches) == 1 else AnyWait(branches)
            record = WaitRecord(
                run=run, pid=event.pid, tags=tuple(guard.tags),
                quorum=getattr(guard, "quorum", None), armed_at=event.round,
            )
            parked[run, event.pid] = _Parked(record, guard, [])
            waits.append(parked[run, event.pid])
        elif (run, event.pid) in parked:
            wait = parked.pop((run, event.pid))
            record = wait.record
            record.fired_at = event.round
            record.senders = wait.guard.matched_senders(
                inboxes.get((run, event.pid), {})
            )
            if record.pivotal is None and record.arrivals:
                # no single arrival crossed the quorum (a lockstep round
                # delivers several at once): the last new sender did
                record.pivotal = record.arrivals[-1][1]
    return waits, crashes, clock


def wait_records(log: FlightLog) -> List[WaitRecord]:
    """One :class:`WaitRecord` per ``armed`` line of ``log``, in order."""
    return [wait.record for wait in _replay(log)[0]]


def stalls(log: FlightLog, threshold: Optional[int] = None) -> List[Stall]:
    """Every wait of ``log`` that stalled past ``threshold`` ticks.

    ``threshold`` defaults to :func:`default_threshold` of the log's
    ``n``.  A wait armed at ``a`` stalls iff its run's clock reached
    ``a + threshold + 1`` and the wait had not fired before that tick.
    """
    if threshold is None:
        threshold = default_threshold(log.n)
    waits, crashes, clock = _replay(log)
    out: List[Stall] = []
    for wait in waits:
        record = wait.record
        due = record.armed_at + threshold + 1
        if clock.get(record.run, 0) < due or (
            record.fired and record.fired_at < due
        ):
            continue
        seen = [(src, quorum) for time, src, quorum in wait.progress
                if time <= due]
        senders = {src for src, _ in seen}
        missing = tuple(p for p in range(1, log.n + 1) if p not in senders)
        crashed = {pid for time, pid in crashes.get(record.run, ())
                   if time <= due}
        crashed_missing = tuple(sorted(set(missing) & crashed))
        out.append(Stall(
            run=record.run, pid=record.pid, tags=record.tags,
            quorum=seen[-1][1] if seen else getattr(wait.guard, "quorum", None),
            armed_at=record.armed_at, detected_at=due, waited=threshold + 1,
            senders=tuple(sorted(senders)), missing=missing,
            crashed_missing=crashed_missing,
            classification="crash" if crashed_missing else "unexplained",
            resolved_at=record.fired_at,
        ))
    return out


def pivotal_counts(records: List[WaitRecord]) -> Dict[int, int]:
    """player -> number of waits it completed (straggler signal)."""
    return dict(Counter(r.pivotal for r in records if r.pivotal is not None))


def wait_table(records: List[WaitRecord]) -> str:
    """Human-readable fixed-width wait table for the CLI."""
    header = (
        f"{'run':>3} {'pid':>3} {'tag':<18} {'quorum':>6} "
        f"{'armed':>6} {'fired':>6} {'wait':>5} {'pivotal':>7}"
    )
    lines = [header, "-" * len(header)]
    for r in records:
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


def stall_table(found: List[Stall], threshold: int) -> str:
    """Human-readable fixed-width stall table for the CLI."""
    if not found:
        return f"no stalls (threshold {threshold} logical ticks)"
    header = (
        f"{'run':>3} {'pid':>3} {'waited':>6} {'class':<11} "
        f"{'missing':<16} {'crashed':<10} {'resolved':>8}"
    )
    lines = [header, "-" * len(header)]
    for s in found:
        missing = ",".join(str(p) for p in s.missing) or "-"
        crashed = ",".join(str(p) for p in s.crashed_missing) or "-"
        resolved = str(s.resolved_at) if s.resolved_at is not None else "no"
        lines.append(
            f"{s.run:>3} {s.pid:>3} {s.waited:>6} {s.classification:<11} "
            f"{missing:<16} {crashed:<10} {resolved:>8}"
        )
    return "\n".join(lines)
