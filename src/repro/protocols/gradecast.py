"""Grade-Cast (Feldman-Micali [14]) — the graded broadcast of Fig. 5 step 7.

"Grade-Cast is the three level-outcome primitive ... the sender sends
his/her value to the rest of the players.  In the next round everybody
echoes, and this is followed by another round of echos.  Each player
outputs a value v, which is the view of the grade-casted message, and a
confidence value conf in {0, 1, 2} indicating how certain (s)he is that
the grade-cast was received by all players.  A confidence of 2 indicates
that all other honest players have seen the value v."

Guarantees for ``n >= 3t+1``:

* honest sender with value v: every honest player outputs (v, 2);
* if any honest player outputs (v, 2), every honest player outputs
  (v, grade >= 1) — in particular they all hold the same value v.

This module implements ``n`` *parallel* grade-casts (every player is the
sender of its own instance) in 3 rounds with merged echo messages.

Echoes by reference
-------------------
An echo body is a tuple with at most one entry per sender, in one of
two forms:

* ``(s, value)`` — "for sender s I hold (or, in the re-echo, support)
  ``value``";
* ``(s,)`` — "for sender s I hold the same value I multicast to you in
  round 1".

An honest echoer uses the second form whenever the value equals its own
proposal, and the first otherwise.  A receiver resolves ``(s,)`` from
echoer e to ``first[e]``, the round-1 value it got from e, and ignores
the entry if it has none.  The guarantees keep their proofs, for
``n >= 3t+1``, with no assumption beyond the fault model:

* *honest echoers count as before.*  An honest e multicasts its
  proposal in round 1, so ``first[e]`` is that proposal at every honest
  receiver, and each of e's references resolves to exactly the value e
  would have sent explicitly.  Every honest echo and re-echo therefore
  counts, at every honest receiver, for the same (sender, value) it
  would as an explicit entry;
* *faulty echoers gain nothing.*  A faulty e's reference resolves to a
  value e sent itself in round 1, which e could already echo
  explicitly, to the same receiver.  A body's entries count at most
  once per sender, whichever form they take.

Both properties above are statements about how many honest and faulty
echoes a value collects, so they carry over unchanged.

*Link faults.*  If e's round-1 message to j is dropped or delayed, e's
references do not resolve at j and j counts none of them.  The fault
model already counts a player with a faulty link toward t, so the
guarantees hold as stated: to j, such an e is one of the t.

Communication (Theorem 2)
-------------------------
Theorem 2 prices the clique distribution (Fig. 5 step 7) at "n^2
messages each of size ntk".  Honest Coin-Gen proposals agree (the same
clique, the same decoded polynomials), so in the common case every echo
entry is a sender id: the round-1 multicast is n^2 messages of one
proposal (n(t+3) elements when the clique is all n players), and each
echo round is n^2 messages of n ids, O(n^3) elements.  When an
adversary makes honest proposals differ, the echoes of the differing
values still carry the values, so the worst case is what it was with
value echoes: n^2 messages of n proposals per round.

Counting is by object, not by copy.  Each player maps its distinct
round-1 objects to one canonical equal object (its own proposal first),
hashing each once, so every reference resolves to one of a few
identities.  Echo entries are tallied under their value's identity and
equal-but-distinct values are merged once at the end; hashing and the
:func:`~repro.protocols.common.is_hashable` depth check run once per
distinct object instead of once per copy.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from repro.net.simulator import multicast
from repro.obs.phases import register_tag_phase
from repro.protocols.common import filter_tag, is_hashable

GradedValue = Tuple[Optional[Any], int]  # (value, confidence in {0,1,2})

# the three grade-cast rounds: value, echo, re-echo
register_tag_phase("gradecast", suffix="/v")
register_tag_phase("gradecast", suffix="/echo")
register_tag_phase("gradecast", suffix="/echo2")


def parallel_gradecast(
    n: int,
    t: int,
    me: int,
    my_value: Any,
    tag: str = "gc",
) -> Generator:
    """Run n simultaneous grade-casts; player ``j`` is sender of instance j.

    Returns ``{sender_id: (value, confidence)}`` for all n instances.
    ``my_value`` must be hashable (the wire convention's nested tuples
    are); values from other players are validated for hashability before
    any counting.
    """
    # id(value) -> (value, is_hashable(value)); holding the value keeps
    # its id from being reused while this call runs
    verdicts: Dict[int, Tuple[Any, bool]] = {}

    # Round 1: every sender multicasts its own value.
    inbox = yield [multicast((tag + "/v", my_value))]
    first: Dict[int, Any] = {
        src: val
        for src, val in filter_tag(inbox, tag + "/v").items()
        if _votable(val, verdicts)
    }
    # refs[e]: what a reference from echoer e resolves to — first[e]'s
    # canonical equal object, my_value for every value equal to it
    canon: Dict[Any, Any] = (
        {my_value: my_value} if _votable(my_value, verdicts) else {}
    )
    refs: Dict[int, Any] = {
        src: val if val is my_value else canon.setdefault(val, val)
        for src, val in first.items()
    }

    # Round 2: echo everything received, merged into one message.
    echo_body = tuple([
        (src,) if refs[src] is my_value else (src, val)
        for src, val in sorted(first.items())
    ])
    inbox = yield [multicast((tag + "/echo", echo_body))]
    # counts[sender][value] = number of distinct echoers
    counts = _tally(filter_tag(inbox, tag + "/echo"), n, refs, verdicts)

    # Round 3: re-echo values supported by >= n - t echoers.
    supported = tuple([
        (sender,) if value is my_value or value == my_value else (sender, value)
        for sender, value in sorted([
            (sender, value)
            for sender, per in counts.items()
            for value, count in per.items()
            if count >= n - t
        ])
    ])
    inbox = yield [multicast((tag + "/echo2", supported))]
    counts2 = _tally(filter_tag(inbox, tag + "/echo2"), n, refs, verdicts)

    # Grading.
    result: Dict[int, GradedValue] = {}
    for sender in range(1, n + 1):
        per = counts2.get(sender, {})
        graded: GradedValue = (None, 0)
        for value, count in per.items():
            if count >= n - t:
                graded = (value, 2)
                break
            if count >= t + 1 and graded[1] == 0:
                graded = (value, 1)
        result[sender] = graded
    return result


def _votable(value: Any, verdicts: Dict[int, Tuple[Any, bool]]) -> bool:
    """:func:`is_hashable`, asked once per distinct object."""
    verdict = verdicts.get(id(value))
    if verdict is None:
        verdict = verdicts[id(value)] = (value, is_hashable(value))
    return verdict[1]


def _tally(
    echoes: Dict[int, Any],
    n: int,
    refs: Dict[int, Any],
    verdicts: Dict[int, Tuple[Any, bool]],
) -> Dict[int, Dict[Any, int]]:
    """``{sender: {value: echoers}}`` over ``{echoer: body}`` received.

    A body counts if it is a tuple.  Each of its entries counts if it is
    the body's first counted entry for its sender, the sender is an int
    with ``1 <= sender <= n``, and it is either a
    ``(sender, hashable_value)`` pair or a reference ``(sender,)`` from
    an echoer in ``refs``, which counts for ``refs[echoer]``.  Entries
    are tallied by ``(sender, id(value))`` and the identity groups
    merged into value-keyed counts in first-occurrence order — the
    counts, and the order values reach a grade in, of tallying every
    copy by value, because one object is equal to itself.
    """
    copies: Dict[Tuple[int, int], int] = {}
    for echoer, body in echoes.items():
        if not isinstance(body, tuple):
            continue
        seen = set()
        for item in body:
            if not isinstance(item, tuple):
                continue
            size = len(item)
            if size == 2:
                sender, value = item
            elif size == 1:
                sender = item[0]
            else:
                continue
            if (
                not isinstance(sender, int)
                or isinstance(sender, bool)
                or not 1 <= sender <= n
                or sender in seen
            ):
                continue
            if size == 1:
                if echoer not in refs:
                    continue
                value = refs[echoer]
            else:
                # _votable, inlined: this loop runs n^2 times a round
                verdict = verdicts.get(id(value))
                if verdict is None:
                    verdict = verdicts[id(value)] = (value, is_hashable(value))
                if not verdict[1]:
                    continue
            seen.add(sender)
            key = (sender, id(value))
            copies[key] = copies.get(key, 0) + 1
    counts: Dict[int, Dict[Any, int]] = {}
    for (sender, identity), echoers in copies.items():
        per = counts.setdefault(sender, {})
        value = verdicts[identity][0]
        per[value] = per.get(value, 0) + echoers
    return counts
