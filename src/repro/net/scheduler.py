"""Scheduler layer: who steps when, and in what order messages land.

The middle layer of the protocol runtime (see DESIGN.md, "Runtime
architecture").  A scheduler owns two policies that the lock-step
simulator used to hard-code:

* **rushing** — which players see the current round's in-flight honest
  traffic addressed to them *before* committing to their own messages
  (the strongest scheduling the synchronous model permits).  Previously
  a ``rush_peek`` special case of the network; now plain scheduler
  configuration.
* **delivery arrangement** — the order in which a round's deliveries are
  folded into next-round inboxes.  Honest protocol code must not depend
  on it (messages within a round are concurrent); the
  :class:`PermutedDeliveryScheduler` exists to *prove* that, by feeding
  every run a seeded random arrival order.  The scheduler-equivalence
  property suite (``tests/test_scheduler_equivalence.py``) asserts that
  honest outputs and Lemma 2/4/6 op counts are identical under any
  arrangement.

Writing a new scheduler = subclassing :class:`Scheduler` and overriding
:meth:`Scheduler.arrange` (and, for adversarial schedules, ``rushing``).
The synchronous-round barrier itself lives in the runtime; a scheduler
cannot leak a message across the round boundary — use the fault plane's
``delay`` rules for that.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Tuple

from repro.net.transport import Payload

#: a routed delivery as the runtime tracks it: (dst, src, payload)
RoutedDelivery = Tuple[int, int, Payload]


class Scheduler:
    """Base scheduler: lock-step semantics, no rushing.

    Parameters
    ----------
    rushing:
        Player ids that receive the current round's traffic addressed to
        them before emitting their own messages.
    """

    def __init__(self, rushing: Iterable[int] = ()):
        self.rushing = frozenset(rushing)

    def arrange(
        self, round_no: int, deliveries: List[RoutedDelivery]
    ) -> List[RoutedDelivery]:
        """Order a round's deliveries before inbox assembly.

        The default preserves emission order (player id order, sends in
        yield order) — byte-for-byte the historical lock-step behaviour.
        """
        return deliveries

    def choose(self, time: int, count: int) -> int:
        """Async delivery pick: index of the next message to deliver.

        Called by :class:`~repro.net.async_runtime.AsyncRuntime` with
        the current logical time and the number of eligible pending
        messages; the returned index is which of them lands next.  The
        default is FIFO (oldest eligible message first), making every
        synchronous scheduler a valid — if boring — async schedule.
        """
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rush = f", rushing={sorted(self.rushing)}" if self.rushing else ""
        return f"{type(self).__name__}({rush.lstrip(', ')})"


class LockstepScheduler(Scheduler):
    """The historical semantics: deliveries land in emission order.

    ``SynchronousNetwork`` without a ``scheduler`` argument uses exactly
    this scheduler, so existing runs are reproduced byte for byte.
    """


class PermutedDeliveryScheduler(Scheduler):
    """Seeded random per-round delivery order.

    Each round's deliveries are shuffled by a :class:`random.Random`
    seeded from ``(seed, round)``, independently of the protocol's own
    randomness.  Honest synchronous protocols must be insensitive to
    this (all round-r messages are concurrent); any divergence from
    :class:`LockstepScheduler` outputs is a protocol bug.
    """

    def __init__(self, seed: int = 0, rushing: Iterable[int] = ()):
        super().__init__(rushing)
        self.seed = seed

    def arrange(
        self, round_no: int, deliveries: List[RoutedDelivery]
    ) -> List[RoutedDelivery]:
        arranged = list(deliveries)
        random.Random((self.seed * 1_000_003 + round_no) & 0x7FFFFFFF).shuffle(
            arranged
        )
        return arranged


class RandomOrderScheduler(Scheduler):
    """Seeded adversary-chooseable delivery order (the async adversary).

    Under :class:`~repro.net.async_runtime.AsyncRuntime`, every
    :meth:`choose` picks uniformly among the eligible in-flight
    messages — i.e. the full space of eventual-delivery schedules,
    reproducible from one seed (in the style of the SVSS simulation's
    ``RandomOrderSimulator``).  Both ``choose`` and ``arrange`` derive
    their generator *statelessly* from ``(seed, time)``, so a schedule
    never depends on how many picks other runs consumed.

    On the lockstep runtime the same scheduler degrades to a seeded
    per-round shuffle (a different stream than
    :class:`PermutedDeliveryScheduler`), which is what lets the
    scheduler-equivalence property suite run one protocol under all
    three schedulers unchanged.
    """

    def __init__(self, seed: int = 0, rushing: Iterable[int] = ()):
        super().__init__(rushing)
        self.seed = seed
        #: the one generator, reseeded before every use — never read
        #: across calls, so copies of a scheduler may share it
        self._random = random.Random()

    def _rng(self, time: int) -> random.Random:
        self._random.seed((self.seed * 2_000_003 + time * 7_919) & 0x7FFFFFFF)
        return self._random

    def choose(self, time: int, count: int) -> int:
        return self._rng(time).randrange(count) if count > 1 else 0

    def arrange(
        self, round_no: int, deliveries: List[RoutedDelivery]
    ) -> List[RoutedDelivery]:
        arranged = list(deliveries)
        self._rng(round_no).shuffle(arranged)
        return arranged
