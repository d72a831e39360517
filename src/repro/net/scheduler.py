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

_MASK64 = (1 << 64) - 1


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
    ``RandomOrderSimulator``).  The pick is a *pure function* of
    ``(seed, time, count)``: a 64-bit integer hash of ``seed`` and
    ``time`` (a splitmix64 finaliser) reduced into ``range(count)`` by
    multiply-shift.  No generator is seeded or advanced, so a schedule
    never depends on how many picks other runs consumed, on which copy
    of the scheduler is asked, or on the order of the questions — and a
    pick costs a handful of integer operations.

    :attr:`contract` names this mapping.  It is what a run's provenance
    records (:class:`~repro.obs.manifest.RunManifest` ``scheduler``):
    two async recordings are comparable delivery for delivery only when
    they name the same contract.  ``random-order/1``, the mapping of
    earlier releases, reseeded a Mersenne Twister from 31 bits of
    ``(seed, time)`` per pick; it is gone, not selectable.

    On the lockstep runtime the same scheduler degrades to a seeded
    per-round shuffle (a different stream than
    :class:`PermutedDeliveryScheduler`), which is what lets the
    scheduler-equivalence property suite run one protocol under all
    three schedulers unchanged.  A shuffle consumes a variable number
    of draws, so :meth:`arrange` keeps its Mersenne Twister, seeded from
    ``(seed, round)`` — one generator per *round*, not per message, and
    byte-identical to every earlier release.  An async run never
    shuffles, so it never makes one.
    """

    #: the seeded-schedule contract: which ``(seed, time) -> pick``
    #: mapping produced an async delivery order (DESIGN.md §11)
    contract = "random-order/2"

    def __init__(self, seed: int = 0, rushing: Iterable[int] = ()):
        super().__init__(rushing)
        self.seed = seed

    def choose(self, time: int, count: int) -> int:
        if count <= 1:
            return 0
        # time + 1: the finaliser fixes 0, which would make the default
        # scheduler's very first pick (seed 0, time 0) index 0 at any count
        x = (self.seed * 0x9E3779B97F4A7C15
             + (time + 1) * 0xD1B54A32D192ED03) & _MASK64
        x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((x ^ (x >> 31)) * count) >> 64

    def arrange(
        self, round_no: int, deliveries: List[RoutedDelivery]
    ) -> List[RoutedDelivery]:
        arranged = list(deliveries)
        random.Random(
            (self.seed * 2_000_003 + round_no * 7_919) & 0x7FFFFFFF
        ).shuffle(arranged)
        return arranged
