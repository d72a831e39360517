"""Lock-step synchronous network: the paper's model (Section 2).

:class:`SynchronousNetwork` is the lockstep runtime — the round loop
over the machinery :class:`repro.net.runtime.RuntimeBase` shares with
the async loop (that module's docstring lists the stack; see DESIGN.md,
"Runtime architecture").  The wire primitives (:class:`Send`,
:func:`unicast`, :func:`multicast`, :func:`broadcast`) are re-exported
here.

Fault model (paper Section 2):

* private channels — a player sees only payloads addressed to it;
* up to ``t`` arbitrarily faulty players — faulty programs may send
  different values to different players (equivocation) and go silent;
* optional *rushing* — a player registered as rushing receives, each
  round, the current round's honest traffic addressed to it *before*
  choosing its own messages (the strongest scheduling the synchronous
  model permits).  A rushing program's first ``yield`` is a registration
  step whose sends are discarded; every subsequent yield receives the
  usual inbox plus a ``"rush_peek"`` entry holding the in-flight traffic;
* an optional ideal broadcast channel (``Send(..., broadcast=True)``)
  which delivers one identical copy to every player — the Section 3
  protocols assume it, the Section 4 protocols never use it.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, Iterable, List, Optional

from repro.fields.base import Field
from repro.net.metrics import NetworkMetrics, payload_tag
from repro.net.runtime import Inbox, Payload, Program, RuntimeBase
from repro.net.scheduler import LockstepScheduler, Scheduler
from repro.net.transport import (  # noqa: F401  (re-exported wire primitives)
    ALL,
    ProtocolViolation,
    Send,
    broadcast,
    multicast,
    unicast,
)
from repro.obs.phases import classify_tags

__all__ = [
    "ALL",
    "Send",
    "unicast",
    "multicast",
    "broadcast",
    "ProtocolViolation",
    "Payload",
    "Inbox",
    "Program",
    "SynchronousNetwork",
]


class SynchronousNetwork(RuntimeBase):
    """Runs ``n`` player programs in lock-step rounds.

    Every program steps once per round and round ``r``'s deliveries
    become round ``r+1``'s inboxes.  Guarded programs (see
    :mod:`repro.net.guards`) receive cumulative inboxes and are stepped
    in the first round whose traffic satisfies their guard — trivially
    "at the round boundary", which is what lets one protocol body drive
    both this runtime and the async one.  Guards are ignored for rushing
    players (rushing is already the strongest synchronous scheduling).

    ``rushing`` lists player ids that receive the current round's
    traffic addressed to them before emitting their own messages
    (merged into the scheduler's rushing set); the default scheduler is
    :class:`LockstepScheduler`; ``max_rounds`` bounds the run.  The
    remaining keywords (``faults``, ``recorder``, ``flight``,
    ``allow_broadcast``, ``enforce_codec``) are :class:`RuntimeBase`'s.
    """

    def __init__(
        self,
        n: int,
        field: Optional[Field] = None,
        metrics: Optional[NetworkMetrics] = None,
        *,
        rushing: Iterable[int] = (),
        max_rounds: int = 100_000,
        scheduler: Optional[Scheduler] = None,
        **layers,
    ):
        if scheduler is None:
            scheduler = LockstepScheduler(rushing=rushing)
        elif rushing:
            # widen the rushing set on a per-network copy, so a scheduler
            # shared across runs (e.g. via ProtocolContext) is not mutated
            scheduler = copy.copy(scheduler)
            scheduler.rushing = scheduler.rushing | frozenset(rushing)
        super().__init__(n, field, metrics, scheduler=scheduler, **layers)
        self.max_rounds = max_rounds

    def _collect(self, pid: int, program: Program, inbox, round_no: int,
                 outputs, done, deliveries: List[tuple]) -> int:
        """Step one player and append its (dst, src, payload) deliveries.

        Returns 1 when the program was actually advanced (not crashed),
        0 otherwise — the no-progress detection counts these.
        """
        faults = self.faults
        if faults is not None and faults.is_crashed(pid, round_no):
            self._note_fault(round_no, "crash", pid, 0)
            return 0
        sends = self._advance(pid, program, inbox, outputs, done, round_no)
        if sends:
            deliveries += [
                (dst, pid, payload)
                for dst, payload in self._emit(pid, sends, round_no)
            ]
        return 1

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
        waited, _ = self._begin_run(programs, wait_for)
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
        flight = self.flight
        # phase of the deliveries currently sitting in the inboxes — the
        # work a round does is attributed to the phase it is *consuming*
        inbox_phase: Optional[str] = None

        for _ in range(self.max_rounds):
            if all(map(done.__getitem__, waited)):
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
            deliveries: List[tuple] = []  # (dst, src, payload)
            stepped = 0

            for pid in ordinary:
                if started and self._guard_mode.get(pid):
                    if done[pid]:
                        continue
                    guard = self._guards.get(pid)
                    if guard is not None and not guard.satisfied(
                        self._cum[pid]
                    ):
                        continue  # still asleep this round
                    # guard events are stamped with the round number
                    inbox: Optional[Inbox] = self._wake_inbox(pid, round_no)
                else:
                    inbox = None if not started else inboxes[pid]
                advanced = self._collect(
                    pid, programs[pid], inbox,
                    round_no, outputs, done, deliveries,
                )
                stepped += advanced
                if advanced and flight is not None:
                    self._note_armed(pid, round_no, done)

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
                    deliveries,
                )

            if recording:
                # tag tallies are taken pre-fault: they count what honest
                # code paid to send, matching the metrics accounting
                tag_counts: Dict[str, int] = {}
                for _dst, _src, payload in deliveries:
                    tag = payload_tag(payload)
                    tag_counts[tag] = tag_counts.get(tag, 0) + 1

            if self.faults is not None:
                deliveries = self.faults.apply(
                    round_no, deliveries, self._note_fault
                )
            deliveries = self.scheduler.arrange(round_no, deliveries)

            if flight is not None:
                flight.on_round(self.metrics.rounds, deliveries)

            if recording:
                self._end_round_span(
                    round_span,
                    phase=(
                        inbox_phase if inbox_phase is not None
                        else classify_tags(tag_counts)
                    ),
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
            in_guard_mode = [
                pid for pid, mode in self._guard_mode.items() if mode
            ]
            for dst, src, payload in deliveries:
                if dst in inboxes:
                    inbox = inboxes[dst]
                    if src in inbox:
                        inbox[src].append(payload)
                    else:
                        inbox[src] = [payload]
                    if dst in in_guard_mode:
                        self._cum[dst].deliver(src, payload)
        else:
            raise self._exhausted(
                waited, done, f"exceeded max_rounds={self.max_rounds}"
            )
        self._end_run(programs, done)
        return outputs
