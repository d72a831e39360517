"""Protocol runtimes: generator programs over transport + scheduler + faults.

The execution stack (see DESIGN.md, "Runtime architecture"):

* :mod:`repro.net.transport` — what channels exist and what a ``Send``
  costs (metering, codec enforcement);
* :mod:`repro.net.scheduler` — who steps when (rushing) and in what
  order deliveries land;
* :mod:`repro.net.faults` — an optional fault plane that drops,
  duplicates, or delays edges and crashes/silences players;
* this module — everything the two loops share (:class:`RuntimeBase`):
  run set-up and tear-down, stepping one program, turning its sends
  into deliveries, span hand-over, the out-of-budget error.  The loops
  themselves are scheduling policy and nothing else: lock-step rounds
  in :mod:`repro.net.simulator`, one delivery at a time in
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
from typing import (
    TYPE_CHECKING, Any, Dict, Generator, Iterable, List, Optional, Sequence,
    Set, Tuple,
)

from repro.fields.base import Field, OpCounter
from repro.net.faults import FaultPlane
from repro.net.guards import Guard, Guarded, IndexedInbox
from repro.net.metrics import NetworkMetrics
from repro.net.scheduler import Scheduler
from repro.net.transport import ProtocolViolation, Send, Transport
from repro.obs.spans import NULL_RECORDER

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.flight import FlightRecorder

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
    """Everything the lockstep and async runtimes share.

    Owns the layer wiring (transport, scheduler, fault plane, span and
    flight recorders), the program table bookkeeping (guard state,
    cumulative inboxes), per-player :class:`~repro.fields.base.OpCounter`
    attribution, and the plumbing every ``run()`` needs around its
    loop: :meth:`_begin_run` / :meth:`_end_run`, :meth:`_advance` (step
    one program), :meth:`_emit` (its sends as deliveries),
    :meth:`_note_fault`, :meth:`_end_round_span` and :meth:`_exhausted`.
    Subclasses provide
    ``run()`` — the scheduling policy:
    :class:`~repro.net.simulator.SynchronousNetwork` steps every program
    once per synchronous round;
    :class:`~repro.net.async_runtime.AsyncRuntime` wakes a program
    whenever a delivery satisfies its guard.

    Parameters
    ----------
    n:
        Number of players, with ids ``1..n``.
    field:
        Optional field whose operation counter is attributed per player
        (its four tallies read before and after each program step).
    metrics:
        Optional pre-existing metrics object to accumulate into.
    scheduler:
        Stepping/delivery policy; each runtime supplies its own default.
    faults:
        Optional :class:`~repro.net.faults.FaultPlane` applied to every
        delivery and to the stepping loop.
    recorder:
        Optional span recorder (:class:`repro.obs.spans.SpanRecorder`).
        Defaults to the no-op :data:`repro.obs.spans.NULL_RECORDER`, in
        which case all instrumentation is skipped (zero cost).
    flight:
        Optional :class:`repro.obs.flight.FlightRecorder`, called
        directly with every run marker, settled round, fault and guard
        event.  None (the default) is the dark path: one ``is not None``
        test per event site, and no event is built.
    allow_broadcast:
        Whether the ideal broadcast channel exists — the Section 4
        protocols set it to False, enforcing the paper's
        point-to-point-only model.
    enforce_codec:
        Round-trip every payload through :mod:`repro.net.codec`:
        unencodable payloads raise, and ``metrics.wire_bytes``
        accumulates the exact wire byte count.
    """

    def __init__(
        self,
        n: int,
        field: Optional[Field] = None,
        metrics: Optional[NetworkMetrics] = None,
        *,
        scheduler: Scheduler,
        faults: Optional[FaultPlane] = None,
        recorder=None,
        flight: Optional["FlightRecorder"] = None,
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
        self.transport = Transport(
            n, self.metrics,
            allow_broadcast=allow_broadcast,
            enforce_codec=enforce_codec,
        )
        self.scheduler = scheduler
        self.faults = faults
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.flight = flight
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

    # -- run set-up and tear-down -------------------------------------------
    def _begin_run(
        self, programs: Dict[int, Program], wait_for: Optional[Iterable[int]]
    ) -> Tuple[Set[int], Set[int]]:
        """Open one run; returns ``(waited, crashing)``.

        ``waited`` are the players whose termination ends the run:
        ``wait_for`` (everyone when None) minus ``crashing``, those with
        a scheduled fault-plane crash.  Hands an attached flight recorder
        the run marker (a recorder serving several runs delimits them by
        it: round numbers restart) and resets per-run state, the fault
        plane's included.
        """
        for pid in programs:
            if not 1 <= pid <= self.n:
                raise ValueError(f"program for unknown player {pid}")
        waited = (
            set(programs) if wait_for is None else set(wait_for) & set(programs)
        )
        crashing: Set[int] = set()
        if self.faults is not None:
            crashing = self.faults.crashed_players()
            self.faults.begin_run()
        if self.flight is not None:
            self.flight.on_run()
        self._guards = {}
        self._guard_mode = {}
        self._cum = defaultdict(IndexedInbox)
        self._step_spans = []
        return waited - crashing, crashing

    @staticmethod
    def _end_run(programs: Dict[int, Program], done: Dict[int, bool]) -> None:
        """Close every generator the run leaves unfinished."""
        for pid, program in programs.items():
            if not done.get(pid):
                program.close()

    # -- stepping and sending -----------------------------------------------
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
        counter = self.field.counter if self.field is not None else _ZERO_OPS
        adds, muls = counter.adds, counter.muls
        invs, interpolations = counter.invs, counter.interpolations
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
            # the step's op-count delta: the four tallies read before and
            # after, added to the player's running total in place
            adds, muls = counter.adds - adds, counter.muls - muls
            invs = counter.invs - invs
            interpolations = counter.interpolations - interpolations
            if counter is not _ZERO_OPS:
                player_ops = self.metrics.player_ops
                ops = player_ops.get(pid)
                if ops is None:
                    ops = player_ops[pid] = OpCounter()
                ops.adds += adds
                ops.muls += muls
                ops.invs += invs
                ops.interpolations += interpolations
            if recording:
                self._step_spans.append(recorder.record(
                    f"player {pid}", "player", t0, recorder.clock(),
                    player=pid, round=round_no,
                    adds=adds, muls=muls, invs=invs,
                    interpolations=interpolations,
                ))
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

    def _emit(self, pid: int, sends: List[Send],
              round_no: int) -> Sequence[tuple]:
        """One step's sends as ``(dst, payload)`` deliveries — none from
        a player silenced this round (noted as a ``"silence"`` fault)."""
        faults = self.faults
        if faults is not None and faults.is_silenced(pid, round_no):
            self._note_fault(round_no, "silence", pid, 0)
            return ()
        return self._expand(pid, sends)

    def _note_fault(self, round_no: int, kind: str, src: int,
                    dst: int) -> None:
        """Report one fault-plane intervention — the one place a fault is
        reported.  An edge rule that fired is ``(kind, src, dst)``; a
        suppressed player (``"crash"`` / ``"silence"``) is ``dst=0``,
        every destination.  Flight logs and forensics read these as
        direct evidence of the injected fault."""
        self.recorder.on_fault(round_no, kind, src, dst)
        if self.flight is not None:
            self.flight.on_fault(round_no, kind, src, dst)

    # -- guarded programs -----------------------------------------------------
    def _wake_inbox(self, pid: int, time: int) -> Inbox:
        """The inbox a waking guarded program is handed: a copy of its
        cumulative history (a parked guard's firing goes to the flight
        recorder)."""
        if self.flight is not None and self._guards.get(pid) is not None:
            self.flight.on_guard(time, pid)
        return {src: list(msgs) for src, msgs in self._cum[pid].items()}

    def _note_armed(self, pid: int, time: int, done: Dict[int, bool]) -> None:
        """Tell the flight recorder the guard ``pid`` just parked on
        (callers skip the call when no recorder is attached)."""
        guard = self._guards.get(pid)
        if guard is not None and not done[pid]:
            self.flight.on_guard(time, pid, guard)

    # -- spans ---------------------------------------------------------------
    def _end_round_span(self, round_span, **attrs: Any) -> None:
        """End ``round_span`` with ``attrs``, backfilling its phase onto
        the player steps recorded inside it."""
        for step_span in self._step_spans:
            step_span.set(phase=attrs["phase"])
        self._step_spans = []
        self.recorder.end(round_span, **attrs)

    def _next_round_span(self, round_span, next_round: int, **attrs: Any):
        """End ``round_span`` and open logical tick ``next_round``'s.

        The next span opens the instant the previous one ends — it is
        given the ended span's closing timestamp, so the recorder's own
        hand-over bookkeeping (about a microsecond, 4-5 % of a tick now
        that a pick is arithmetic) lands in the tick that follows, no
        wall time falls between round spans and ``coverage()``
        attributes the whole run.
        """
        self._end_round_span(round_span, **attrs)
        opened = self.recorder.begin(
            f"t={next_round}", "round", round=next_round
        )
        opened.span.t0 = round_span.span.t1
        return opened

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
