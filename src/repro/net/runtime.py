"""Protocol runtimes: generator programs over transport + scheduler + faults.

The execution stack (see DESIGN.md, "Runtime architecture"):

* :mod:`repro.net.transport` — what channels exist and what a ``Send``
  costs (metering, codec enforcement);
* :mod:`repro.net.scheduler` — who steps when (rushing) and in what
  order deliveries land;
* :mod:`repro.net.faults` — an optional fault plane that drops,
  duplicates, or delays edges and crashes/silences players;
* this module — the machinery shared by both sibling runtimes
  (:class:`RuntimeBase`) and the synchronous round loop
  (:class:`ProtocolRuntime`).  The event-driven sibling lives in
  :mod:`repro.net.async_runtime`.

Players are Python generators.  Each step a player *yields* a list of
:class:`~repro.net.transport.Send` instructions (optionally wrapped in a
:class:`~repro.net.guards.Guarded` batch carrying a wake-up guard) and
is *sent* back an inbox — a dict mapping source player id to the list of
payloads received from that source.  A generator's ``return`` value is
the player's protocol output.  This shape makes honest protocol code
read like the paper's per-player pseudocode, and makes a Byzantine
player just a different generator.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

from repro.fields.base import Field, OpCounter
from repro.net.faults import FaultPlane
from repro.net.guards import Guard, Guarded, IndexedInbox
from repro.net.metrics import NetworkMetrics, payload_tag
from repro.net.scheduler import LockstepScheduler, Scheduler
from repro.net.transport import (
    ProtocolViolation,
    Send,
    Transport,
    expansion_channels,
    make_transport,
)
from repro.obs.bus import (
    FAULT,
    GUARD_ARMED,
    GUARD_FIRED,
    GUARD_PROGRESS,
    ROUND,
    RUN,
    SENT,
    EventBus,
)
from repro.obs.phases import classify_tags
from repro.obs.spans import NULL_RECORDER

Payload = Any
Inbox = Dict[int, List[Payload]]
Program = Generator[List[Send], Inbox, Any]

_ZERO_OPS = OpCounter()


class RuntimeExhausted(ProtocolViolation):
    """A run hit its scheduling limit with waited players still unfinished.

    Raised when the lockstep runtime exhausts ``max_rounds`` (or proves no
    further progress is possible: no runnable player, no in-flight or
    delayed traffic) and when the async runtime exhausts
    ``max_deliveries`` or drains its pending pool with guarded players
    still asleep.  ``stuck`` maps each unfinished waited player to the
    tags its current guard is waiting on (empty tuple for plain
    round-batched programs).  Subclasses :class:`ProtocolViolation` so
    existing ``max_rounds`` handling keeps working.
    """

    def __init__(
        self,
        message: str,
        stuck: Optional[Dict[int, Tuple[str, ...]]] = None,
    ) -> None:
        super().__init__(message)
        self.stuck: Dict[int, Tuple[str, ...]] = dict(stuck or {})


class RuntimeBase:
    """Machinery shared by the lockstep and async runtimes.

    Owns the layer wiring (transport, scheduler, fault plane, event
    bus), the program table bookkeeping (guard state, cumulative
    inboxes), per-player :class:`~repro.fields.base.OpCounter`
    attribution, and SENT/ROUND/FAULT publication plumbing.  Subclasses
    provide ``run()``: :class:`ProtocolRuntime` steps every program once
    per synchronous round; :class:`~repro.net.async_runtime.AsyncRuntime`
    wakes a program whenever a delivery satisfies its guard.

    Parameters
    ----------
    n:
        Number of players, with ids ``1..n``.
    field:
        Optional field whose operation counter is attributed per player
        (snapshots around each program step).
    metrics:
        Optional pre-existing metrics object to accumulate into.
    transport:
        The channel layer; when omitted one is built over ``metrics``
        from ``allow_broadcast`` (whether the ideal broadcast channel
        exists — the Section 4 protocols set it to False, enforcing the
        paper's point-to-point-only model) and ``enforce_codec`` (round-
        trip every payload through :mod:`repro.net.codec`: unencodable
        payloads raise, and ``metrics.wire_bytes`` accumulates the exact
        wire byte count).
    scheduler:
        Stepping/delivery policy; defaults to :class:`LockstepScheduler`
        (the historical semantics, byte for byte).
    faults:
        Optional :class:`~repro.net.faults.FaultPlane` applied to every
        delivery and to the stepping loop.
    recorder:
        Optional span recorder (:class:`repro.obs.spans.SpanRecorder`).
        Defaults to the no-op :data:`repro.obs.spans.NULL_RECORDER`, in
        which case all instrumentation is skipped (zero cost).
    bus:
        Optional :class:`repro.obs.bus.EventBus`.  One is created per
        runtime if not given; subscribe to its ``"round"`` topic to
        watch settled deliveries ``(round_number, [(dst, src, payload)])``.
        The fault plane publishes ``"fault"`` events into it.
    """

    def __init__(
        self,
        n: int,
        field: Optional[Field] = None,
        metrics: Optional[NetworkMetrics] = None,
        transport: Optional[Transport] = None,
        scheduler: Optional[Scheduler] = None,
        faults: Optional[FaultPlane] = None,
        max_rounds: int = 100_000,
        recorder=None,
        bus: Optional[EventBus] = None,
        allow_broadcast: bool = True,
        enforce_codec: bool = False,
    ):
        if n < 1:
            raise ValueError("need at least one player")
        self.n = n
        self.field = field
        self.metrics = metrics or NetworkMetrics(
            element_bits=field.bit_length if field is not None else 1
        )
        self.transport = transport or make_transport(
            n, self.metrics,
            allow_broadcast=allow_broadcast,
            enforce_codec=enforce_codec,
        )
        self.scheduler = scheduler or LockstepScheduler()
        self.faults = faults
        self.max_rounds = max_rounds
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.bus = bus if bus is not None else EventBus()
        if self.recorder.enabled:
            self.bus.subscribe(FAULT, self.recorder.on_fault)
        if self.faults is not None:
            self.faults.bus = self.bus
        #: player-step spans of the in-flight round (phase backfilled)
        self._step_spans: List[Any] = []
        #: per-player guard state — see repro.net.guards.  ``_guard_mode``
        #: records the yield style fixed at a program's first yield (True
        #: = guarded / cumulative inboxes, False = plain round batches);
        #: ``_guards`` holds the guard of each guarded player's pending
        #: yield; ``_cum`` its cumulative inbox, tag-indexed as it grows
        #: so guard re-checks never rescan history.
        self._guards: Dict[int, Optional[Guard]] = {}
        self._guard_mode: Dict[int, bool] = {}
        self._cum: Dict[int, IndexedInbox] = defaultdict(IndexedInbox)

    # -- compatibility properties -------------------------------------------
    @property
    def rushing(self) -> frozenset:
        return self.scheduler.rushing

    @property
    def allow_broadcast(self) -> bool:
        return self.transport.broadcast_available

    # -- helpers -------------------------------------------------------------
    def _reset_guard_state(self) -> None:
        self._guards = {}
        self._guard_mode = {}
        self._cum = defaultdict(IndexedInbox)

    def _expand(self, src: int, sends: List[Send]) -> List[tuple]:
        """Validate and expand a program's sends into (dst, payload).

        Kept as a method (delegating to the transport) so tests and
        adversarial harnesses can interpose on it.
        """
        return self.transport.expand(src, sends)

    def _advance(self, pid: int, program: Program, inbox: Optional[Inbox],
                 outputs: Dict[int, Any], done: Dict[int, bool],
                 round_no: int = 0):
        """Step one program; returns its sends (or None when finished).

        ``inbox=None`` primes a not-yet-started generator with ``next``.
        A :class:`~repro.net.guards.Guarded` yield is unwrapped here: the
        guard is parked in ``_guards[pid]`` and the plain sends returned.
        When a recorder is attached and this is a real round (not a
        rushing registration step), the step is recorded as a "player"
        span carrying the player's op-count delta.
        """
        if done.get(pid):
            return None
        recorder = self.recorder
        recording = recorder.enabled and round_no > 0
        t0 = recorder.clock() if recording else 0.0
        before = self.field.counter.snapshot() if self.field is not None else None
        try:
            if inbox is None:
                sends = next(program)
            else:
                sends = program.send(inbox)
        except StopIteration as stop:
            done[pid] = True
            outputs[pid] = stop.value
            sends = None
        finally:
            delta = None
            if before is not None:
                delta = self.field.counter.delta(before)
                self.metrics.add_player_ops(pid, delta)
            if recording:
                ops = delta if delta is not None else _ZERO_OPS
                span = recorder.record(
                    f"player {pid}", "player", t0, recorder.clock(),
                    player=pid, round=round_no,
                    adds=ops.adds, muls=ops.muls, invs=ops.invs,
                    interpolations=ops.interpolations,
                )
                self._step_spans.append(span)
        if isinstance(sends, Guarded):
            if self._guard_mode.get(pid) is False:
                raise ProtocolViolation(
                    f"player {pid} yielded a guarded batch after a plain "
                    "one; a program fixes its yield style at its first yield"
                )
            self._guard_mode[pid] = True
            self._guards[pid] = sends.wait
            sends = list(sends.sends)
        elif sends is not None:
            if self._guard_mode.get(pid):
                # plain yield inside a guarded program: wake on anything
                self._guards[pid] = None
            else:
                self._guard_mode.setdefault(pid, False)
        return sends

    def _collect(self, pid: int, program: Program, inbox, round_no: int,
                 outputs, done, deliveries: List[tuple],
                 emissions: Optional[List[tuple]] = None) -> int:
        """Step one player and append its (dst, src, payload) deliveries.

        Returns 1 when the program was actually advanced (not crashed),
        0 otherwise — the runtime's no-progress detection counts these.
        When ``emissions`` is a list (a causality recorder subscribed to
        the ``"sent"`` topic), each delivery is also appended there as
        ``(dst, src, payload, channel)`` — pre-fault, pre-scheduler
        provenance in exact expansion order.
        """
        faults = self.faults
        if faults is not None and faults.is_crashed(pid, round_no):
            faults.note_player_fault(round_no, "crash", pid)
            return 0
        sends = self._advance(pid, program, inbox, outputs, done, round_no)
        if sends:
            if faults is not None and faults.is_silenced(pid, round_no):
                faults.note_player_fault(round_no, "silence", pid)
                return 1
            expanded = self._expand(pid, sends)
            deliveries.extend(
                (dst, pid, payload) for dst, payload in expanded
            )
            if emissions is not None:
                channels = expansion_channels(self.n, sends)
                if len(channels) != len(expanded):
                    # a test double replaced _expand; fall back to unknown
                    channels = ["?"] * len(expanded)
                emissions.extend(
                    (dst, pid, payload, channel)
                    for (dst, payload), channel in zip(expanded, channels)
                )
        return 1

    def _exhausted(self, waited, done, reason: str) -> RuntimeExhausted:
        """Build the :class:`RuntimeExhausted` for an out-of-budget run,
        naming each stuck player and the tags its guard still awaits."""
        stuck: Dict[int, Tuple[str, ...]] = {}
        for pid in sorted(waited):
            if done.get(pid):
                continue
            guard = self._guards.get(pid)
            stuck[pid] = tuple(guard.tags) if guard is not None else ()
        detail = "; ".join(
            f"player {pid} awaiting {'/'.join(tags)}" if tags
            else f"player {pid}"
            for pid, tags in stuck.items()
        )
        message = f"protocol did not terminate: {reason}"
        if detail:
            message += f" (stuck: {detail})"
        return RuntimeExhausted(message, stuck=stuck)


class ProtocolRuntime(RuntimeBase):
    """Runs ``n`` player programs in synchronous rounds over the stack.

    The lockstep sibling: every program steps once per round and round
    ``r``'s deliveries become round ``r+1``'s inboxes.  Plain programs
    keep the historical byte-for-byte semantics; guarded programs (see
    :mod:`repro.net.guards`) receive cumulative inboxes and are stepped
    in the first round whose traffic satisfies their guard — trivially
    "at the round boundary", which is what lets one protocol body drive
    both this runtime and the async one.  Guards are ignored for rushing
    players (rushing is already the strongest synchronous scheduling).

    See :class:`RuntimeBase` for the constructor parameters.
    """

    # -- main loop -------------------------------------------------------------
    def run(
        self,
        programs: Dict[int, Program],
        wait_for: Optional[Iterable[int]] = None,
    ) -> Dict[int, Any]:
        """Run programs to completion; returns {player_id: output}.

        ``programs`` maps player ids to generators.  Missing ids are
        treated as crashed-from-the-start players (they send nothing).
        ``wait_for`` limits termination to a subset of players (the honest
        ones) so that never-terminating adversary generators cannot stall
        the simulation; the others are closed when the run ends.  Players
        with a scheduled fault-plane crash are never waited for.
        """
        for pid in programs:
            if not 1 <= pid <= self.n:
                raise ValueError(f"program for unknown player {pid}")
        waited = set(programs) if wait_for is None else set(wait_for) & set(programs)
        if self.faults is not None:
            waited -= self.faults.crashed_players()
        # run-boundary marker: flight recorders sharing a context bus use
        # it to delimit protocol runs (round numbers restart per run)
        self.bus.publish(RUN, self.n)
        self._reset_guard_state()
        outputs: Dict[int, Any] = {}
        done: Dict[int, bool] = {pid: False for pid in programs}
        inboxes: Dict[int, Inbox] = {pid: {} for pid in programs}
        started = False
        round_no = 0

        # Rushing programs are primed at registration: their first yield is
        # a registration step whose sends are discarded, so that every real
        # round — including the first — can hand them a peek at the
        # in-flight honest traffic before they commit to their messages.
        rushers = [p for p in programs if p in self.scheduler.rushing]
        ordinary = [p for p in programs if p not in self.scheduler.rushing]
        for pid in rushers:
            self._advance(pid, programs[pid], None, outputs, done)

        recorder = self.recorder
        recording = recorder.enabled
        # liveness telemetry: strictly opt-in (like the "sent" topic) so
        # unmonitored runs stay byte-identical; lockstep stamps events
        # with the round number as logical time
        bus = self.bus
        lv_armed = bus.has_subscribers(GUARD_ARMED)
        lv_progress = bus.has_subscribers(GUARD_PROGRESS)
        lv_fired = bus.has_subscribers(GUARD_FIRED)
        # phase of the deliveries currently sitting in the inboxes — the
        # work a round does is attributed to the phase it is *consuming*
        inbox_phase: Optional[str] = None

        for _ in range(self.max_rounds):
            if all(done[pid] for pid in waited):
                break
            self.metrics.rounds += 1
            round_no += 1
            if recording:
                round_span = recorder.begin(
                    f"round {round_no}", "round", round=round_no
                )
                snap_unicast = self.metrics.unicast_messages
                snap_broadcast = self.metrics.broadcast_messages
                snap_bits = self.metrics.bits
                self._step_spans = []
            deliveries: List[tuple] = []  # (dst, src, payload)
            # provenance capture is strictly opt-in: the list exists only
            # while a causality recorder subscribes to the "sent" topic
            capturing = self.bus.has_subscribers(SENT)
            emissions: Optional[List[tuple]] = [] if capturing else None
            stepped = 0

            for pid in ordinary:
                if started and self._guard_mode.get(pid):
                    if done[pid]:
                        continue
                    guard = self._guards.get(pid)
                    cum = self._cum[pid]
                    if guard is not None and not guard.satisfied(cum):
                        continue  # still asleep this round
                    if lv_fired and guard is not None:
                        bus.publish(GUARD_FIRED, round_no, pid, guard,
                                    guard.matched_senders(cum))
                    inbox: Optional[Inbox] = {
                        src: list(msgs) for src, msgs in cum.items()
                    }
                else:
                    inbox = None if not started else inboxes[pid]
                advanced = self._collect(
                    pid, programs[pid], inbox,
                    round_no, outputs, done, deliveries, emissions,
                )
                stepped += advanced
                if lv_armed and advanced and not done[pid]:
                    armed = self._guards.get(pid)
                    if armed is not None and self._guard_mode.get(pid):
                        bus.publish(GUARD_ARMED, round_no, pid, armed)

            # rushing players peek at this round's traffic addressed to them
            for pid in rushers:
                if self.faults is not None and self.faults.is_crashed(
                    pid, round_no
                ):
                    continue
                peek: Inbox = {}
                for dst, src, payload in deliveries:
                    if dst == pid:
                        peek.setdefault(src, []).append(payload)
                inbox = dict(inboxes[pid])
                inbox["rush_peek"] = peek  # type: ignore[index]
                stepped += self._collect(
                    pid, programs[pid], inbox, round_no, outputs, done,
                    deliveries, emissions,
                )

            if capturing:
                # pre-fault emissions: the causality layer needs the true
                # origin round even when the fault plane delays delivery
                self.bus.publish(SENT, self.metrics.rounds, emissions)

            if recording:
                # tag tallies are taken pre-fault: they count what honest
                # code paid to send, matching the metrics accounting
                tag_counts: Dict[str, int] = {}
                for _dst, _src, payload in deliveries:
                    tag = payload_tag(payload)
                    tag_counts[tag] = tag_counts.get(tag, 0) + 1

            if self.faults is not None:
                deliveries = self.faults.apply(round_no, deliveries)
            deliveries = self.scheduler.arrange(round_no, deliveries)

            self.bus.publish(ROUND, self.metrics.rounds, deliveries)

            if recording:
                phase = (
                    inbox_phase if inbox_phase is not None
                    else classify_tags(tag_counts)
                )
                for step_span in self._step_spans:
                    step_span.set(phase=phase)
                recorder.end(
                    round_span,
                    phase=phase,
                    messages=(
                        self.metrics.unicast_messages - snap_unicast
                        + self.metrics.broadcast_messages - snap_broadcast
                    ),
                    unicast=self.metrics.unicast_messages - snap_unicast,
                    broadcast=self.metrics.broadcast_messages - snap_broadcast,
                    bits=self.metrics.bits - snap_bits,
                    tags=tag_counts,
                )
                if tag_counts:
                    inbox_phase = classify_tags(tag_counts)

            if (
                not deliveries
                and stepped == 0
                and not (
                    self.faults is not None
                    and self.faults.has_pending_delayed()
                )
            ):
                # nobody ran, nothing is in flight, nothing is delayed:
                # the remaining guards can never fire, so fail fast
                # instead of spinning to max_rounds
                raise self._exhausted(
                    waited, done,
                    f"no runnable player and no in-flight traffic at "
                    f"round {round_no}",
                )

            started = True
            inboxes = {pid: {} for pid in programs}
            for dst, src, payload in deliveries:
                if dst in inboxes:
                    inboxes[dst].setdefault(src, []).append(payload)
                    if self._guard_mode.get(dst):
                        cum = self._cum[dst]
                        tag = cum.deliver(src, payload)
                        if lv_progress and not done.get(dst, True):
                            guard = self._guards.get(dst)
                            if guard is not None and tag in guard.tags:
                                count, quorum = guard.progress(cum)
                                bus.publish(GUARD_PROGRESS, round_no,
                                            dst, src, count, quorum)
        else:
            raise self._exhausted(
                waited, done, f"exceeded max_rounds={self.max_rounds}"
            )
        for pid, program in programs.items():
            if not done.get(pid):
                program.close()
        return outputs
