"""Byzantine adversary framework.

The paper's adversary controls up to ``t`` players that "deviate
arbitrarily from the protocol, and even collude" (Section 2), and — for
the proactive setting of Section 1.2 — may *move* between protocol
executions ("intruders are allowed to move over time").

An :class:`Adversary` owns the corrupt set (possibly a schedule of sets),
a shared blackboard for collusion, and a program factory per corrupt
player.  Generic behaviours that apply to any protocol are provided here;
protocol-specific attacks (e.g. a cheating VSS dealer) live with their
protocols and in the test suite.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Sequence

from repro.net.simulator import ALL, Send

Program = Generator[List[Send], Dict[int, List[Any]], Any]
ProgramFactory = Callable[..., Program]


# ---------------------------------------------------------------------------
# generic faulty behaviours
# ---------------------------------------------------------------------------

def silent_program() -> Program:
    """A player that never sends anything (fail-silent forever)."""
    while True:
        yield []


def crash_program(crash_round: int, honest: Program) -> Program:
    """Follow ``honest`` behaviour, then crash at ``crash_round`` (1-based)."""
    rounds = 0
    inbox: Dict[int, List[Any]] = None  # type: ignore[assignment]
    try:
        sends = next(honest)
    except StopIteration:
        return
    while True:
        rounds += 1
        if rounds >= crash_round:
            while True:
                yield []
        inbox = yield sends
        try:
            sends = honest.send(inbox)
        except StopIteration:
            return


def echo_noise_program(n: int, rng: random.Random, noise_space: int = 1 << 16) -> Program:
    """Replays every received (tag, body) with random garbage bodies.

    Because honest sub-protocols filter inboxes by tag, this exercises the
    "arbitrary messages" part of the fault model without knowing any
    protocol's structure.  It learns a tag by receiving it, so its
    garbage is one round late: in a one-round protocol — Coin-Expose —
    it sends nothing anyone reads and amounts to a silent holder
    (``MobileAdversary(..., "noise")`` attacks Coin-Gen's clique, BA
    and in-stretch decodes, never an exposure's).
    """
    inbox: Dict[int, List[Any]] = yield []
    while True:
        sends: List[Send] = []
        seen_tags = []
        for payloads in inbox.values():
            for payload in payloads:
                if isinstance(payload, tuple) and len(payload) == 2:
                    seen_tags.append(payload[0])
        for tag in seen_tags[:4]:
            for dst in range(1, n + 1):
                sends.append(Send(dst, (tag, rng.randrange(noise_space))))
        inbox = yield sends


def equivocator_program(n: int, rng: random.Random, base: Program) -> Program:
    """Runs ``base`` but replaces each multicast with per-player garbage.

    Demonstrates equivocation: sending different values to different
    players where the protocol expects identical copies.
    """
    try:
        sends = next(base)
    except StopIteration:
        return
    while True:
        twisted: List[Send] = []
        for send in sends:
            if send.dst == ALL and not send.broadcast and isinstance(send.payload, tuple):
                tag, body = send.payload[0], send.payload[1:]
                for dst in range(1, n + 1):
                    mutated = (tag, rng.randrange(1 << 16)) if rng.random() < 0.5 \
                        else send.payload
                    twisted.append(Send(dst, mutated))
            else:
                twisted.append(send)
        inbox = yield twisted
        try:
            sends = base.send(inbox)
        except StopIteration:
            return


# ---------------------------------------------------------------------------
# the adversary object
# ---------------------------------------------------------------------------

class Adversary:
    """Owns the corrupt set and builds faulty programs.

    Parameters
    ----------
    corrupt:
        Player ids under adversarial control for the next execution.
    behaviour:
        ``"silent"``, ``"crash"``, ``"noise"``, or a custom factory
        ``f(player_id, n, blackboard, rng) -> Program``.
    rushing:
        Whether corrupt players should be registered as rushing with the
        simulator (they then see each round's incoming honest traffic
        before sending).
    seed:
        Seed for the adversary's own randomness.
    """

    def __init__(
        self,
        corrupt: Iterable[int],
        behaviour: Any = "silent",
        rushing: bool = False,
        seed: int = 0,
    ):
        self.corrupt = frozenset(corrupt)
        self.behaviour = behaviour
        self.rushing = rushing
        self.rng = random.Random(seed)
        #: shared mutable state for collusion between corrupt programs
        self.blackboard: Dict[str, Any] = {}

    def program(self, player_id: int, n: int) -> Optional[Program]:
        """Build the faulty program for one corrupt player."""
        if player_id not in self.corrupt:
            raise ValueError(f"player {player_id} is not corrupt")
        if callable(self.behaviour):
            return self.behaviour(player_id, n, self.blackboard, self.rng)
        if self.behaviour == "silent":
            return silent_program()
        if self.behaviour == "noise":
            return echo_noise_program(n, self.rng)
        raise ValueError(f"unknown behaviour {self.behaviour!r}")

    def programs(self, n: int) -> Dict[int, Program]:
        """Faulty programs for every corrupt player."""
        return {pid: self.program(pid, n) for pid in self.corrupt}


class MobileAdversary:
    """A proactive-security adversary whose corrupt set moves over time.

    Section 1.2: "one of the motivations and applications of our work is
    pro-active security ..., which deals with settings where intruders are
    allowed to move over time."  The corrupt set is fixed within one
    protocol execution (the paper assumes it fixed "for a constant number
    of rounds") and re-drawn between executions.
    """

    def __init__(self, n: int, t: int, behaviour: Any = "silent", seed: int = 0):
        self.n = n
        self.t = t
        self.behaviour = behaviour
        self.rng = random.Random(seed)
        self.history: List[frozenset] = []

    def next_epoch(self) -> Adversary:
        """Corrupt a fresh random subset of at most t players."""
        corrupt = frozenset(self.rng.sample(range(1, self.n + 1), self.t))
        self.history.append(corrupt)
        return Adversary(corrupt, self.behaviour, seed=self.rng.randrange(1 << 30))
