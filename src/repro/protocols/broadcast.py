"""Byzantine broadcast from Grade-Cast + BA (substrate S10).

The Section 3 protocols *assume* a broadcast channel ("for Section 3 we
assume that a broadcast channel facility is in place; we will show in
Section 4 how this assumption can be replaced by point-to-point
communication").  The simulator provides that assumed channel as an
ideal primitive; this module provides the *realization* the paper
alludes to: a full broadcast protocol over point-to-point links, built
from the same substrates Coin-Gen uses.

Construction (classic gradecast-based reduction, n > 4t here because it
reuses phase-king BA):

1. the sender grade-casts its value;
2. every player runs BA with input 1 iff its confidence is 2;
3. if BA outputs 1, output the grade-cast value (common at every honest
   player by the gradecast soundness property), else output the default.

Guarantees: an honest sender's value is delivered identically to all
honest players (validity); for any sender, all honest players output the
same value (agreement).

Off the coin path (docs/CENSUS.md, class ii); run by claims row E17.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from repro.net.guards import Wait, guarded, wait_any
from repro.net.metrics import NetworkMetrics
from repro.net.simulator import multicast
from repro.obs.phases import register_tag_phase
from repro.protocols.ba import phase_king
from repro.protocols.common import filter_tag, plurality
from repro.protocols.context import ProtocolContext, run_players
from repro.protocols.gradecast import parallel_gradecast

# Bracha reliable-broadcast traffic is broadcast-substrate work, same
# pipeline stage as the gradecast echoes it generalizes
register_tag_phase("gradecast", suffix="/init")
register_tag_phase("gradecast", suffix="/ready")

#: returned when broadcast fails to establish a common value
DEFAULT = ("broadcast-default",)


def broadcast_program(
    n: int,
    t: int,
    me: int,
    sender: int,
    value: Any = None,
    tag: str = "bcast",
) -> Generator:
    """One player's side of Byzantine broadcast; returns the common value.

    ``value`` is meaningful only at the sender.  Requires ``n > 4t``
    (inherited from phase-king).
    """
    own = value if me == sender else ("no-value",)
    graded = yield from parallel_gradecast(n, t, me, own, tag + "/gc")
    received, confidence = graded[sender]
    ba_input = 1 if confidence == 2 else 0
    decision = yield from phase_king(n, t, me, ba_input, tag + "/ba")
    if decision == 1 and confidence >= 1:
        return received
    return DEFAULT


def reliable_broadcast_program(
    n: int,
    t: int,
    me: int,
    sender: int,
    value: Any = None,
    tag: str = "rbc",
) -> Generator:
    """Bracha-style reliable broadcast, written in the guarded style.

    The async-portable sibling of :func:`broadcast_program`: echo/ready
    quorums instead of round structure, so the same body runs under both
    the lockstep and the event-driven runtime (see
    :mod:`repro.net.guards`).  Requires ``n > 3t``.

    * the sender multicasts ``<tag>/init v``;
    * on the sender's init, multicast ``<tag>/echo v``;
    * on ``n - t`` echoes for ``v`` — or ``t + 1`` readies (the
      amplification step) — multicast ``<tag>/ready v``;
    * on ``n - t`` readies for ``v``, output ``v``.

    Guards wait on *tag counts* (distinct senders of a tag); the value
    thresholds are re-checked by the body against its cumulative inbox,
    and a wake that finds the tag count satisfied but no value at
    threshold re-arms the guard one sender higher — so a Byzantine
    equivocation can delay a wake but never spin it.

    With an honest sender and ≤ t crashed players, every live player
    outputs the sender's value under any delivery order; a crashed
    *sender* leaves the protocol (correctly) never terminating.
    """
    if n <= 3 * t:  # eager: raise at construction, not at first step
        raise ValueError("reliable broadcast needs n > 3t")
    return _reliable_broadcast(n, t, me, sender, value, tag)


def _reliable_broadcast(
    n: int, t: int, me: int, sender: int, value: Any, tag: str
) -> Generator:
    init_tag, echo_tag = tag + "/init", tag + "/echo"
    ready_tag = tag + "/ready"
    quorum = n - t

    def _next(tag_count: int, threshold: int) -> int:
        return threshold if tag_count < threshold else tag_count + 1

    sends = [multicast((init_tag, value))] if me == sender else []
    echoed = False
    readied = False
    inbox: Dict[Any, Any] = {}
    while True:
        inits = filter_tag(inbox, init_tag)
        if not echoed and sender in inits:
            sends.append(multicast((echo_tag, inits[sender])))
            echoed = True
        echoes = filter_tag(inbox, echo_tag)
        readies = filter_tag(inbox, ready_tag)
        echo_best = plurality(echoes)
        ready_best = plurality(readies)
        if not readied:
            if echo_best is not None and echo_best[1] >= quorum:
                sends.append(multicast((ready_tag, echo_best[0])))
                readied = True
            elif ready_best is not None and ready_best[1] >= t + 1:
                sends.append(multicast((ready_tag, ready_best[0])))
                readied = True
        if readied and ready_best is not None and ready_best[1] >= quorum:
            if sends:
                # flush this wake's emissions (my own ready may complete
                # someone else's quorum) before returning
                yield guarded(sends, tags=ready_tag, quorum=0)
            return ready_best[0]
        # re-arm: wait for whichever tag count could advance this state,
        # one past its current count when the threshold already fired
        if not echoed:
            wait = Wait((init_tag,), _next(len(inits), 1))
        elif not readied:
            wait = wait_any(
                Wait((echo_tag,), _next(len(echoes), quorum)),
                Wait((ready_tag,), _next(len(readies), t + 1)),
            )
        else:
            wait = Wait((ready_tag,), _next(len(readies), quorum))
        inbox = yield guarded(sends, wait=wait)
        sends = []


def run_reliable_broadcast(
    n: int,
    t: int,
    sender: int,
    value: Any,
    field=None,
    runtime=None,
    crashed=(),
    tag: str = "rbc",
) -> Dict[int, Any]:
    """Run one Bracha reliable broadcast; ``{pid: value}`` for live players.

    ``runtime`` is any :class:`~repro.net.runtime.RuntimeBase` — pass an
    :class:`~repro.net.async_runtime.AsyncRuntime` for adversarial
    delivery orders, or None for a default lockstep network.  ``crashed``
    players get no program at all (the simplest crash-from-start model;
    use a :class:`~repro.net.faults.FaultPlane` on the runtime for
    mid-run crashes).
    """
    if runtime is None:
        runtime = ProtocolContext(field, n, t).network()
    return run_players(
        runtime, n,
        lambda pid: reliable_broadcast_program(
            n, t, pid, sender, value if pid == sender else None, tag
        ),
        faulty=dict.fromkeys(crashed),
    )


def run_broadcast(
    n: int,
    t: int,
    sender: int,
    value: Any,
    field=None,
    faulty_programs: Optional[Dict[int, Generator]] = None,
    tag: str = "bcast",
) -> Tuple[Dict[int, Any], NetworkMetrics]:
    """Run one Byzantine broadcast over a point-to-point network."""
    return ProtocolContext(field, n, t).run(
        lambda pid: broadcast_program(
            n, t, pid, sender, value if pid == sender else None, tag
        ),
        faulty=faulty_programs, allow_broadcast=False,
    )
