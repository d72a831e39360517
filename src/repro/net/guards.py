"""Guard-annotated yields: one protocol body, two runtimes.

The lockstep runtime hands every program a fresh inbox at every round
boundary; the async runtime delivers one message at a time and must know
*when a player has enough to act*.  A :class:`Wait` guard makes that
condition explicit protocol state instead of implicit round structure::

    inbox = yield guarded([multicast((tag + "/echo", v))],
                          tags=(tag + "/echo",), quorum=n - t)

reads "send my echo, then sleep until n-t distinct players have echoed".

Semantics shared by both runtimes
---------------------------------
* A program picks its yield style at its **first** yield: a
  :class:`Guarded` batch makes it a *guarded program*, a plain list of
  sends keeps the historical round-batched contract.  Mixing styles
  mid-program raises :class:`~repro.net.transport.ProtocolViolation`
  (a later plain yield inside a guarded program is allowed and means
  "wake me on anything new").
* A guarded program receives **cumulative** inboxes — every payload
  delivered to it since the run began, in ``{src: [payloads]}`` form —
  so a woken body re-derives its state idempotently from full history.
* The lockstep runtime satisfies guards trivially at round boundaries:
  a guarded player steps in the first round whose cumulative inbox
  satisfies its guard, which for quorum guards over honest traffic is
  the round after the quorum's messages were sent.  The async runtime
  re-checks the guard after every single delivery.  One body, two
  schedules, identical outputs (see ``tests/test_async_runtime.py``).

What a re-check costs
---------------------
Both runtimes keep a guarded player's cumulative inbox as an
:class:`IndexedInbox`: the same ``{src: [payloads]}`` dict, plus a
``tag -> {int senders}`` index and a payload count, both updated by
:meth:`IndexedInbox.deliver` at the moment a payload is appended (one
:func:`~repro.net.metrics.payload_tag` call per delivery, ever).  Every
guard predicate reads that index, so a re-check costs O(|tags|) set
lookups however long the run's history is.  A plain dict — what unit
tests and offline tools pass — is indexed on the fly by
:func:`indexed`, through the same ``deliver``; there is one
implementation of each predicate.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.net.metrics import payload_tag
from repro.net.transport import Send

Inbox = Dict[Any, List[Any]]


class IndexedInbox(dict):
    """A cumulative ``{src: [payloads]}`` inbox that indexes as it grows.

    Append through :meth:`deliver` only; ``senders_by_tag`` then maps
    every tag seen to the players that sent it and ``size`` is the total
    payload count.  An entry assigned directly (the lockstep
    ``rush_peek`` key) is not indexed, so it never counts as a sender.
    """

    __slots__ = ("senders_by_tag", "size")

    def __init__(self) -> None:
        super().__init__()
        self.senders_by_tag: Dict[str, Set[int]] = defaultdict(set)
        self.size = 0

    def deliver(self, src: int, payload: Any) -> str:
        """Append ``payload`` from player ``src``; returns its tag."""
        payloads = self.get(src)
        if payloads is None:
            payloads = self[src] = []
        payloads.append(payload)
        self.size += 1
        tag = payload_tag(payload)
        self.senders_by_tag[tag].add(src)
        return tag


def indexed(inbox: Inbox) -> IndexedInbox:
    """``inbox`` itself when a runtime built it, else an indexed copy."""
    if isinstance(inbox, IndexedInbox):
        return inbox
    index = IndexedInbox()
    for src, payloads in inbox.items():
        if isinstance(src, int):
            for payload in payloads:
                index.deliver(src, payload)
    return index


_NO_SENDERS: frozenset = frozenset()


@dataclass(frozen=True)
class Wait:
    """Sleep until ``quorum`` distinct senders have sent a matching tag.

    A sender counts once when at least one of its pending payloads has a
    :func:`~repro.net.metrics.payload_tag` in ``tags`` — matching the
    ``filter_tag`` convention protocol bodies use to read the inbox, so
    "the guard fired" implies "the body will see the quorum".
    """

    tags: Tuple[str, ...]
    quorum: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "tags", tuple(self.tags))
        if not self.tags:
            raise ValueError("a Wait needs at least one tag")
        if self.quorum < 0:
            raise ValueError("quorum must be non-negative")

    def _matched(self, inbox: Inbox) -> Set[int]:
        senders_by_tag = indexed(inbox).senders_by_tag
        if len(self.tags) == 1:
            return senders_by_tag.get(self.tags[0], _NO_SENDERS)
        return set().union(
            *(senders_by_tag.get(tag, _NO_SENDERS) for tag in self.tags)
        )

    def satisfied(self, inbox: Inbox) -> bool:
        return self.quorum == 0 or len(self._matched(inbox)) >= self.quorum

    def matched_senders(self, inbox: Inbox) -> Tuple[int, ...]:
        """Sorted distinct int senders with at least one matching payload."""
        return tuple(sorted(self._matched(inbox)))

    def progress(self, inbox: Inbox) -> Tuple[int, int]:
        """``(count, quorum)``: distinct matching senders so far vs. needed."""
        return len(self._matched(inbox)), self.quorum

    def missing_senders(self, inbox: Inbox, n: int) -> Tuple[int, ...]:
        """Players ``1..n`` that have not yet sent a matching payload."""
        matched = self._matched(inbox)
        return tuple(pid for pid in range(1, n + 1) if pid not in matched)


@dataclass(frozen=True)
class AnyWait:
    """Disjunction of :class:`Wait` guards: wake when any one fires."""

    waits: Tuple[Wait, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "waits", tuple(self.waits))
        if not self.waits:
            raise ValueError("an AnyWait needs at least one Wait")

    @property
    def tags(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for wait in self.waits:
            for tag in wait.tags:
                if tag not in seen:
                    seen.append(tag)
        return tuple(seen)

    def satisfied(self, inbox: Inbox) -> bool:
        return any(wait.satisfied(inbox) for wait in self.waits)

    def _closest(self, inbox: Inbox) -> Wait:
        """The branch nearest to firing (fewest senders still needed)."""
        return max(
            self.waits,
            key=lambda wait: wait.progress(inbox)[0] - wait.quorum,
        )

    def matched_senders(self, inbox: Inbox) -> Tuple[int, ...]:
        """Matched senders of the branch nearest to firing."""
        return self._closest(inbox).matched_senders(inbox)

    def progress(self, inbox: Inbox) -> Tuple[int, int]:
        """``(count, quorum)`` of the branch nearest to firing."""
        return self._closest(inbox).progress(inbox)

    def missing_senders(self, inbox: Inbox, n: int) -> Tuple[int, ...]:
        """Missing senders of the branch nearest to firing."""
        return self._closest(inbox).missing_senders(inbox, n)


Guard = Union[Wait, AnyWait]


def wait_any(*waits: Wait) -> AnyWait:
    """OR-combine guards: ``yield guarded(sends, wait=wait_any(a, b))``."""
    return AnyWait(tuple(waits))


@dataclass(frozen=True)
class Guarded:
    """One guarded yield: emit ``sends``, then sleep until ``wait`` fires.

    ``wait=None`` means "wake me on any new delivery" (async) / "step me
    next round" (lockstep).
    """

    sends: Tuple[Send, ...]
    wait: Optional[Guard] = None


def guarded(
    sends: Iterable[Send],
    tags: Union[str, Iterable[str]] = (),
    quorum: int = 1,
    wait: Optional[Guard] = None,
) -> Guarded:
    """Build a :class:`Guarded` yield from sends plus a tag quorum.

    Either pass ``tags`` (a tag or tuple of tags) and ``quorum``, or a
    ready-made ``wait`` guard; with neither, the program wakes on any
    new delivery.
    """
    if wait is None:
        tag_tuple = (tags,) if isinstance(tags, str) else tuple(tags)
        if tag_tuple:
            wait = Wait(tag_tuple, quorum)
    return Guarded(tuple(sends), wait)
