"""Event-driven asynchronous runtime: one message delivered at a time.

The async sibling of :class:`repro.net.simulator.SynchronousNetwork`
(see DESIGN.md §11).  Instead of lock-step rounds, an :class:`AsyncRuntime`
keeps a single pool of in-flight messages and repeatedly asks its
scheduler to :meth:`~repro.net.scheduler.Scheduler.choose` the next one
to deliver — the adversary picks the order, the runtime guarantees only
*eventual* delivery.  **Logical time is the delivery count**: the
makespan of a run is how many deliveries it took for every waited
player to finish.

Programs are the same generators the lockstep runtime runs, written in
the guarded style of :mod:`repro.net.guards`: each ``yield`` carries a
``Wait(tags, quorum)`` guard and the player sleeps until its cumulative
inbox satisfies it (e.g. an ``n - t`` quorum on an echo tag).  Inboxes
are *cumulative* — every payload delivered to the player so far — so a
woken body re-derives its state idempotently from full history.  A
plain (unguarded) yield means "wake me on any new delivery".  Rushing
is rejected: the async adversary already controls every delivery.

Fault semantics: ``crash(pid, r)`` stops the player from logical time
``r`` on (its in-flight messages still deliver); ``silence`` suppresses
sends emitted at matching times; edge rules are applied once per
message when it is first picked — ``drop`` discards it, ``duplicate``
re-enqueues a copy, ``delay(by=k)`` makes it ineligible for the next
``k`` logical ticks (an idle tick is inserted when only immature
messages remain).

Observability is the same direct calls as lockstep, with logical time
as the round index: each delivery is one
:meth:`~repro.obs.flight.FlightRecorder.on_round` call (the settled
delivery), so flight logs, replay/diff and the causal graph built from
a log work unchanged on async runs — one happens-before edge per
delivered message.  Whether a recorder is
attached is read once per run: a dark run builds no event at all.

One delivery costs constant work, whatever the run's history and pool
depth.  The pool is one ordered list and pool order *is* the schedule;
an entry is immature only after a ``delay`` rule fired on it, and while
none is the scheduler's pick indexes the list directly (the eligible
scan runs only on ticks that still hold a delayed message).  The pick
itself is arithmetic — :meth:`RandomOrderScheduler.choose
<repro.net.scheduler.RandomOrderScheduler.choose>` hashes ``(seed,
time)``; nothing is seeded inside the loop.  Every
cumulative inbox is an :class:`~repro.net.guards.IndexedInbox`, so the
woken player's guard re-check is a set lookup per tag, not a pass over
every payload it ever received; the run ends on a count of unfinished
waited players, and the per-tick crash sweep looks only at scheduled
crashes not yet in effect.  What remains per step, not per delivery, is
the copy of the cumulative inbox handed to the program.

A guarded program parking and waking goes to the same recorder's
:meth:`~repro.obs.flight.FlightRecorder.on_guard` with logical-time
stamps; :mod:`repro.obs.liveness` derives wait records and stalls from
the log.  Nothing else observes the loop from inside it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.fields.base import Field
from repro.net.faults import DELAY, DUPLICATE
from repro.net.guards import IndexedInbox
from repro.net.metrics import NetworkMetrics, payload_tag
from repro.net.runtime import Program, RuntimeBase
from repro.net.scheduler import RandomOrderScheduler, Scheduler
from repro.net.transport import ProtocolViolation
from repro.obs.phases import classify_tag


class AsyncRuntime(RuntimeBase):
    """Runs player programs under adversarial message-at-a-time delivery.

    The default scheduler is a
    :class:`~repro.net.scheduler.RandomOrderScheduler` with seed 0 —
    pass one with your own seed to sweep delivery schedules; the
    remaining keywords (``faults``, ``recorder``, ``flight``,
    ``allow_broadcast``, ``enforce_codec``) are
    :class:`~repro.net.runtime.RuntimeBase`'s.

    ``max_deliveries`` bounds the logical clock; exhausting it (or
    draining the in-flight pool with waited players still asleep)
    raises :class:`~repro.net.runtime.RuntimeExhausted` naming the
    stuck players and their awaited tags.

    After ``run()``, ``logical_time`` holds the final clock (deliveries
    plus idle ticks) and ``delivery_count`` the number of messages
    actually delivered.
    """

    def __init__(
        self,
        n: int,
        field: Optional[Field] = None,
        metrics: Optional[NetworkMetrics] = None,
        *,
        max_deliveries: int = 100_000,
        scheduler: Optional[Scheduler] = None,
        **layers,
    ):
        super().__init__(
            n, field, metrics,
            scheduler=scheduler or RandomOrderScheduler(), **layers,
        )
        self.max_deliveries = max_deliveries
        #: final logical clock of the last run (deliveries + idle ticks)
        self.logical_time = 0
        #: messages actually delivered in the last run
        self.delivery_count = 0

    # -- main loop -----------------------------------------------------------
    def run(
        self,
        programs: Dict[int, Program],
        wait_for: Optional[Iterable[int]] = None,
    ) -> Dict[int, Any]:
        """Run programs until every waited player finishes; {pid: output}.

        Same contract as the lockstep
        :meth:`~repro.net.simulator.SynchronousNetwork.run`: ``wait_for``
        limits termination to the honest subset, scheduled crashes are
        never waited for, unfinished generators are closed at the end.
        """
        if self.scheduler.rushing:
            raise ProtocolViolation(
                "rushing is a synchronous-round notion; the async "
                "scheduler already controls every delivery"
            )
        recorder = self.recorder
        recording = recorder.enabled
        if recording:
            # the "t=0" span covers run() setup plus priming so that
            # coverage() sees the whole call attributed to round spans
            prime_span = recorder.begin("t=0", "round", round=0)
        waited, crashing = self._begin_run(programs, wait_for)
        faults = self.faults
        #: scheduled crashes not yet in effect, in ``programs`` order —
        #: the only players a tick's crash sweep ever has to look at
        crash_pending = [pid for pid in programs if pid in crashing]
        #: waited players still running; the run ends when it hits zero
        unfinished = len(waited)
        outputs: Dict[int, Any] = {}
        done: Dict[int, bool] = {pid: False for pid in programs}
        cum: Dict[int, IndexedInbox] = {
            pid: IndexedInbox() for pid in programs
        }
        self._cum = cum
        #: payload count a player had last time it stepped — drives the
        #: "wake on anything new" semantics of unguarded yields
        seen: Dict[int, int] = {pid: 0 for pid in programs}
        #: in-flight messages: [dst, src, payload, ready_at,
        #: fault_processed] — ready_at gates delay-rule maturation.  Pool
        #: order is the schedule: the scheduler's pick indexes the
        #: eligible entries in this order.
        pending: List[list] = []
        #: entries with ready_at > clock at the last look.  Only a fired
        #: delay rule makes one, so while it is zero every entry is
        #: eligible and the pick indexes ``pending`` directly.
        immature = 0
        clock = 0
        steps = 0
        # one program may step several times per delivery (cascading
        # guards); bound total steps so a guard that re-fires without
        # making progress cannot spin forever
        step_budget = 4 * self.max_deliveries + 16 * self.n
        choose = self.scheduler.choose
        flight = self.flight
        self.delivery_count = 0
        self.logical_time = 0

        def crashed(pid: int, tick: int) -> bool:
            if pid not in crashing or not faults.is_crashed(pid, max(tick, 1)):
                return False
            if pid in crash_pending:
                self._note_fault(max(tick, 1), "crash", pid, 0)
                crash_pending.remove(pid)
            return True

        def step(pid: int, inbox, round_no: int):
            nonlocal unfinished
            sends = self._advance(
                pid, programs[pid], inbox, outputs, done, round_no=round_no
            )
            if done[pid] and pid in waited:
                unfinished -= 1
            return sends

        def emit(pid: int, sends, tick: int) -> None:
            pending.extend(
                [dst, pid, payload, tick, False]
                for dst, payload in self._emit(pid, sends, max(tick, 1))
            )

        def wake(pid: int, tick: int) -> None:
            nonlocal steps
            inbox_now = cum[pid]
            while not done[pid]:
                if crashed(pid, tick):
                    return
                guard = self._guards.get(pid)
                if guard is None:
                    if inbox_now.size <= seen[pid]:
                        return
                elif not guard.satisfied(inbox_now):
                    return
                inbox = self._wake_inbox(pid, tick)
                seen[pid] = inbox_now.size
                steps += 1
                if steps > step_budget:
                    raise self._exhausted(
                        waited, done,
                        f"exceeded {step_budget} program steps (a guard "
                        "keeps re-firing without the run finishing)",
                    )
                # the step consuming the delivery settled at time `tick`
                # is causal-graph node (tick + 1, pid) — record its op
                # delta there so async spans line up like lockstep rounds
                sends = step(pid, inbox, tick + 1)
                if sends:
                    emit(pid, sends, tick)
                if flight is not None:
                    self._note_armed(pid, tick, done)

        # priming: step every (non-crashed) program once at logical time
        # 0 to collect its initial sends and park its first guard.  The
        # ops land on causal-graph node (1, pid) — the node first sends
        # originate from — hence round_no=1.
        for pid in sorted(programs):
            if crashed(pid, 1):
                continue
            sends = step(pid, None, 1)
            if sends:
                emit(pid, sends, 0)
            if flight is not None:
                self._note_armed(pid, 0, done)
        for pid in sorted(programs):
            if not done[pid]:
                wake(pid, 0)  # a quorum-0 guard may already be satisfied
        if recording:
            # one "round" span per logical tick, each opened as the
            # previous one ends (the final, unused one is discarded
            # after the loop); the steps a delivery wakes are recorded
            # inside it, so an async run's spans nest exactly like
            # lockstep ones
            round_span = self._next_round_span(
                prime_span, clock + 1,
                phase=(
                    classify_tag(payload_tag(pending[0][2]))
                    if pending else "other"
                ),
                messages=len(pending),
            )

        while unfinished:
            if not pending:
                raise self._exhausted(
                    waited, done,
                    f"in-flight pool drained after {self.delivery_count} "
                    "deliveries with players still waiting",
                )
            if clock >= self.max_deliveries:
                raise self._exhausted(
                    waited, done,
                    f"exceeded max_deliveries={self.max_deliveries}",
                )
            if immature:
                eligible = [
                    i for i, entry in enumerate(pending) if entry[3] <= clock
                ]
                immature = len(pending) - len(eligible)
            else:
                eligible = pending
            if not eligible:
                clock += 1  # idle tick: only delayed traffic remains
                if recording:
                    round_span = self._next_round_span(
                        round_span, clock + 1, phase="other", messages=0
                    )
                continue
            tick = clock + 1  # 1-based time of the delivery being decided
            if crash_pending:
                # note crashes taking effect by this tick *before* the
                # tick's round is recorded — a flight log holds faults for
                # time r ahead of r's round event
                for pid in list(crash_pending):
                    crashed(pid, tick)
            pick = choose(clock, len(eligible)) % len(eligible)
            # ``eligible`` is the pool itself or a list of indices into it
            entry = pending.pop(pick if eligible is pending else eligible[pick])
            dst, src, payload, _ready, processed = entry
            rule = None
            if faults is not None and not processed:
                rule = faults.decide(tick, src, dst)
                if rule is not None:
                    self._note_fault(tick, rule.kind, src, dst)
            if rule is None:
                pass
            elif rule.kind == DUPLICATE:
                pending.append([dst, src, payload, clock, True])
            else:
                # dropped or delayed: the tick is spent without a delivery
                if rule.kind == DELAY:
                    entry[3] = tick + rule.delay
                    entry[4] = True
                    pending.append(entry)
                    immature += 1
                if recording:
                    round_span = self._next_round_span(
                        round_span, clock + 1, messages=0,
                        phase=classify_tag(payload_tag(payload)),
                    )
                continue
            clock += 1
            self.metrics.rounds += 1
            self.delivery_count += 1
            if flight is not None:
                flight.on_round(clock, [(dst, src, payload)])
            if dst in cum:
                cum[dst].deliver(src, payload)
                if not done[dst]:
                    wake(dst, clock)
            if recording:
                tag = payload_tag(payload)
                round_span = self._next_round_span(
                    round_span, clock + 1, phase=classify_tag(tag),
                    messages=1, src=src, dst=dst, tags={tag: 1},
                )

        if recording:
            recorder.discard(round_span)
        self.logical_time = clock
        self._end_run(programs, done)
        return outputs
