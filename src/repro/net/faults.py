"""Fault-injection plane: message and player faults over any scheduler.

The paper's guarantees are earned under ``t`` *arbitrary* faults — not
just the happy path.  The :class:`FaultPlane` layers concrete, scriptable
fault scenarios over any scheduler without touching protocol code:

* **per-edge message faults** — drop, duplicate, or delay-by-rounds any
  ``src -> dst`` traffic, optionally restricted to a set of rounds;
* **player faults** — crash (permanently stop stepping and sending at a
  chosen round) or silence (suppress sends for chosen rounds while the
  program keeps running).

Faults apply *after* transport metering: the tallies count what honest
code paid to transmit, and the plane decides what actually arrives.
Both runtimes ask :meth:`FaultPlane.decide` once per message; what a
delay means is the runtime's — :meth:`FaultPlane.apply` holds a round's
delayed deliveries until due (:meth:`FaultPlane.begin_run` empties them,
so a plane can serve run after run), the async loop re-pools them.  The
plane reports nothing itself: the runtime asking it notes every rule
that fired, and every player it suppresses, in
:meth:`~repro.net.runtime.RuntimeBase._note_fault`.

Soundness scope: the paper's synchronous model lets the adversary
interfere only with faulty players' traffic.  Injecting faults on edges
between *honest* players leaves the model (it simulates an unreliable
network the protocols were not designed for) — the regression suite
confines fault rules to at most ``t`` players, and so should you.

Example
-------
::

    plane = FaultPlane()
    plane.drop(src=3)                 # player 3's sends never arrive
    plane.duplicate(src=4, dst=1)     # 4 -> 1 messages arrive twice
    plane.delay(src=5, by=2)          # 5's sends arrive two rounds late
    plane.crash(6, at_round=2)        # 6 stops participating in round 2
    net = SynchronousNetwork(7, faults=plane, allow_broadcast=False)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.net.scheduler import RoutedDelivery

DROP = "drop"
DUPLICATE = "duplicate"
DELAY = "delay"
CRASH = "crash"
SILENCE = "silence"

#: every fault-op kind :func:`parse_fault_op` accepts
FAULT_KINDS = (DROP, DUPLICATE, DELAY, CRASH, SILENCE)

#: keys each kind accepts in an op spec (beyond ``kind`` itself)
_OP_KEYS = {
    DROP: {"src", "dst", "rounds"},
    DUPLICATE: {"src", "dst", "rounds"},
    DELAY: {"src", "dst", "by", "rounds"},
    CRASH: {"pid", "at"},
    SILENCE: {"pid", "rounds"},
}


def parse_fault_op(op: str) -> Dict[str, Any]:
    """Parse one fault-op spec string into a parameter dict.

    The grammar is ``kind`` or ``kind:key=value,key=value`` where keys
    are integers except ``rounds``, a ``+``-joined round list::

        "drop:src=7"  "delay:src=5,by=2"  "duplicate:src=4,dst=1"
        "crash:pid=6,at=2"  "silence:pid=3,rounds=3+4"

    The compact string form keeps whole fault chains hashable and
    JSON-trivial, which is what lets campaign scenarios carry them in
    manifests, ledgers, and repro artifacts.
    """
    kind, _, rest = op.partition(":")
    kind = kind.strip()
    if kind not in _OP_KEYS:
        raise ValueError(f"unknown fault kind {kind!r} in op {op!r}")
    params: Dict[str, Any] = {"kind": kind}
    if rest.strip():
        for part in rest.split(","):
            key, eq, value = part.partition("=")
            key = key.strip()
            if not eq or key not in _OP_KEYS[kind]:
                raise ValueError(f"bad parameter {part!r} in fault op {op!r}")
            if key == "rounds":
                params[key] = tuple(int(x) for x in value.split("+"))
            else:
                params[key] = int(value)
    return params


def fault_targets(ops: Sequence[str]) -> Set[int]:
    """Player ids a fault chain interferes with (its "suspect set").

    A rule's target is the player whose participation it corrupts: the
    source of an edge rule (its traffic is dropped / duplicated /
    delayed), the destination for destination-only edge rules (nothing
    reaches it), and the pid of a crash / silence.  The campaign driver
    uses this to keep sampled chains inside the paper's ``t``-fault
    model and to exclude targeted players from unanimity oracles.
    """
    targets: Set[int] = set()
    for op in ops:
        params = parse_fault_op(op)
        if params["kind"] in (CRASH, SILENCE):
            if "pid" in params:
                targets.add(params["pid"])
        elif params.get("src") is not None:
            targets.add(params["src"])
        elif params.get("dst") is not None:
            targets.add(params["dst"])
    return targets


@dataclass(frozen=True)
class EdgeRule:
    """One per-edge fault rule; ``None`` src/dst/rounds mean "any"."""

    kind: str
    src: Optional[int] = None
    dst: Optional[int] = None
    rounds: Optional[frozenset] = None
    delay: int = 0

    def matches(self, round_no: int, src: int, dst: int) -> bool:
        return (
            (self.src is None or self.src == src)
            and (self.dst is None or self.dst == dst)
            and (self.rounds is None or round_no in self.rounds)
        )


def _round_set(rounds: Optional[Iterable[int]]) -> Optional[frozenset]:
    return None if rounds is None else frozenset(rounds)


class FaultPlane:
    """Scriptable message/player faults, applied by the runtime each round.

    Rules are applied in registration order; the first matching rule
    decides a delivery's fate (drop / duplicate / delay).  Player crashes
    are tracked separately and also consulted by the runtime's stepping
    loop and termination check.  Beyond the delayed traffic of the run
    in flight, a plane holds nothing but its rules, so one plane can
    serve any number of runtimes.
    """

    def __init__(self) -> None:
        self.rules: List[EdgeRule] = []
        #: player id -> round from which the player is crashed
        self.crashes: Dict[int, int] = {}
        #: player id -> rounds in which its sends are suppressed
        self.silences: Dict[int, frozenset] = {}
        # delayed deliveries of the run in flight: due round -> deliveries
        self._delayed: Dict[int, List[RoutedDelivery]] = {}

    @classmethod
    def from_spec(cls, ops: Sequence[str]) -> "FaultPlane":
        """Build a fresh plane from a chain of op spec strings.

        Registration order follows the chain order, so first-match-wins
        semantics are exactly the chain's left-to-right order.
        """
        plane = cls()
        for op in ops:
            params = parse_fault_op(op)
            kind = params["kind"]
            if kind == DROP:
                plane.drop(params.get("src"), params.get("dst"),
                           params.get("rounds"))
            elif kind == DUPLICATE:
                plane.duplicate(params.get("src"), params.get("dst"),
                                params.get("rounds"))
            elif kind == DELAY:
                plane.delay(params.get("src"), params.get("dst"),
                            params.get("by", 1), params.get("rounds"))
            elif kind == CRASH:
                plane.crash(params["pid"], params.get("at", 1))
            elif kind == SILENCE:
                plane.silence(params["pid"], params.get("rounds", ()))
        return plane

    # -- rule registration (chainable) --------------------------------------
    def drop(
        self,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        rounds: Optional[Iterable[int]] = None,
    ) -> "FaultPlane":
        """Drop matching deliveries outright."""
        self.rules.append(EdgeRule(DROP, src, dst, _round_set(rounds)))
        return self

    def duplicate(
        self,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        rounds: Optional[Iterable[int]] = None,
    ) -> "FaultPlane":
        """Deliver matching messages twice in the same round."""
        self.rules.append(EdgeRule(DUPLICATE, src, dst, _round_set(rounds)))
        return self

    def delay(
        self,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        by: int = 1,
        rounds: Optional[Iterable[int]] = None,
    ) -> "FaultPlane":
        """Deliver matching messages ``by`` rounds later than scheduled."""
        if by < 1:
            raise ValueError("delay must be at least one round")
        self.rules.append(
            EdgeRule(DELAY, src, dst, _round_set(rounds), delay=by)
        )
        return self

    def crash(self, pid: int, at_round: int = 1) -> "FaultPlane":
        """Player ``pid`` stops stepping and sending from ``at_round`` on."""
        current = self.crashes.get(pid)
        self.crashes[pid] = at_round if current is None else min(current, at_round)
        return self

    def silence(self, pid: int, rounds: Iterable[int]) -> "FaultPlane":
        """Suppress ``pid``'s sends in ``rounds`` (program keeps stepping)."""
        previous = self.silences.get(pid, frozenset())
        self.silences[pid] = previous | frozenset(rounds)
        return self

    # -- runtime hooks -------------------------------------------------------
    def is_crashed(self, pid: int, round_no: int) -> bool:
        at = self.crashes.get(pid)
        return at is not None and round_no >= at

    def crashed_players(self) -> Set[int]:
        """Players with a scheduled crash (excluded from the wait set)."""
        return set(self.crashes)

    def is_silenced(self, pid: int, round_no: int) -> bool:
        return round_no in self.silences.get(pid, frozenset())

    def has_pending_delayed(self) -> bool:
        """Is any delayed delivery still waiting to mature?

        The runtimes consult this before declaring a quiet round truly
        stuck: a round with no traffic and no runnable player can still
        make progress if a ``delay`` rule holds matured-later messages.
        """
        return any(self._delayed.values())

    def begin_run(self) -> None:
        """Forget delayed traffic a previous run left pending.

        Called by the runtime as it opens a run: deliveries are
        keyed by due round and round numbers restart, so on a plane
        shared between runs (a ``ProtocolContext`` hands one to every
        network) anything kept would land in the next run's inboxes.
        """
        self._delayed.clear()

    def decide(self, round_no: int, src: int, dst: int) -> Optional[EdgeRule]:
        """The rule deciding one message's fate, or None to deliver it.

        The first matching rule in registration order wins.  Both
        runtimes ask this once per message and note the rule returned as
        a fault; what a rule then *means* is theirs (:meth:`apply` for
        rounds, the in-flight pool for the async loop).
        """
        for rule in self.rules:
            if rule.matches(round_no, src, dst):
                return rule
        return None

    def apply(
        self,
        round_no: int,
        deliveries: List[RoutedDelivery],
        note: Optional[Callable[[int, str, int, int], None]] = None,
    ) -> List[RoutedDelivery]:
        """Rewrite one round's deliveries; releases matured delayed traffic.

        ``note(round_no, kind, src, dst)`` is told of every rule that
        fires — the lockstep runtime passes its ``_note_fault``.
        """
        out: List[RoutedDelivery] = []
        for delivery in deliveries:
            dst, src, _payload = delivery
            rule = self.decide(round_no, src, dst)
            if rule is None:
                out.append(delivery)
                continue
            if note is not None:
                note(round_no, rule.kind, src, dst)
            if rule.kind == DUPLICATE:
                out.append(delivery)
                out.append(delivery)
            elif rule.kind == DELAY:
                self._delayed.setdefault(round_no + rule.delay, []).append(
                    delivery
                )
        out.extend(self._delayed.pop(round_no, []))
        return out
