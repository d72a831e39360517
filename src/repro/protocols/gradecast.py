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
sender of its own instance) in 3 rounds with merged echo messages, which
is what produces Theorem 2's "n^2 messages each of size ntk" accounting
for the clique-distribution step.

Counting is by object, not by copy.  The n echo bodies a player receives
hold the same n proposal objects over and over (the simulator delivers
references), so each echo entry is tallied under its value's identity
and equal-but-distinct values are merged once at the end; hashing and
the :func:`~repro.protocols.common.is_hashable` depth check run once per
distinct object instead of once per copy.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, Optional, Tuple

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

    # Round 2: echo everything received, merged into one message.
    echo_body = tuple(sorted(first.items()))
    inbox = yield [multicast((tag + "/echo", echo_body))]
    # counts[sender][value] = number of distinct echoers
    counts = _tally(filter_tag(inbox, tag + "/echo").values(), n, verdicts)

    # Round 3: re-echo values supported by >= n - t echoers.
    supported = tuple(
        sorted(
            (sender, value)
            for sender, per in counts.items()
            for value, count in per.items()
            if count >= n - t
        )
    )
    inbox = yield [multicast((tag + "/echo2", supported))]
    counts2 = _tally(filter_tag(inbox, tag + "/echo2").values(), n, verdicts)

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
    bodies: Iterable[Any], n: int, verdicts: Dict[int, Tuple[Any, bool]]
) -> Dict[int, Dict[Any, int]]:
    """``{sender: {value: echoers}}`` over the echo bodies received.

    A body counts if it is a tuple; each of its entries counts if it is a
    ``(sender_id, hashable_value)`` pair with ``1 <= sender_id <= n`` and
    is the body's first such entry for that sender.  Entries are tallied
    by ``(sender, id(value))`` and the identity groups merged into
    value-keyed counts in first-occurrence order — the counts, and the
    order values reach a grade in, of tallying every copy by value,
    because one object is equal to itself.
    """
    copies: Dict[Tuple[int, int], int] = {}
    for body in bodies:
        if not isinstance(body, tuple):
            continue
        seen = set()
        for item in body:
            if not (isinstance(item, tuple) and len(item) == 2):
                continue
            sender, value = item
            if (
                not isinstance(sender, int)
                or isinstance(sender, bool)
                or not 1 <= sender <= n
                or sender in seen
            ):
                continue
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
