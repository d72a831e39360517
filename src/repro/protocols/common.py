"""Shared plumbing for protocol programs.

Wire conventions
----------------
Every payload is a ``(tag, body)`` pair whose ``tag`` is a string unique to
one protocol phase (e.g. ``"coingen/nu"``).  Honest programs filter their
inbox by tag, so stray or malicious messages with foreign tags are simply
ignored — exactly the robustness the synchronous model requires.

Bodies consist only of ints, strings, and (nested) tuples, so they are
hashable (needed for vote counting) and meterable (see
:mod:`repro.net.metrics`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.fields.base import Element, Field


def filter_tag(inbox: Dict[Any, List[Any]], tag: str) -> Dict[int, Any]:
    """Extract ``{src: body}`` for the first payload per source matching ``tag``."""
    out: Dict[int, Any] = {}
    for src, payloads in inbox.items():
        if not isinstance(src, int):
            continue  # e.g. the simulator's rush_peek entry
        for payload in payloads:
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == tag
            ):
                out[src] = payload[1]
                break
    return out


def valid_element(field: Field, value: Any) -> bool:
    """Is ``value`` a well-formed element of ``field``?

    Faulty players may send arbitrary objects; honest code validates every
    field element before using it.  Membership is exact on type (see
    :func:`repro.fields.base.exact_ints_below`): a ``bool``, float,
    ``Fraction``, numpy scalar or ``int`` subclass in range is *not* an
    element, whatever it compares equal to.
    """
    return value in field


def valid_element_tuple(field: Field, value: Any, length: int) -> bool:
    """Is ``value`` a tuple of exactly ``length`` valid field elements?

    The same rule as :func:`valid_element` on every entry, asked once of
    the whole tuple (:meth:`Field.contains_all`) — a dealer's share tuple
    is M+1 wide and every player validates n of them per stretch.
    """
    return (
        isinstance(value, tuple)
        and len(value) == length
        and field.contains_all(value)
    )


#: deepest tuple nesting a vote may have.  Honest votes nest at most 4
#: deep (a Coin-Gen proposal); ``hash`` of a tuple recurses in C with no
#: guard, so a faulty player's value nested ~10^5 deep would crash the
#: interpreter.
MAX_VOTE_DEPTH = 64


def is_hashable(value: Any) -> bool:
    """Can ``value`` be used as a vote/counting key?

    Tuple nesting is measured first, one level at a time with an explicit
    frontier of the tuples at that depth: past :data:`MAX_VOTE_DEPTH` the
    value is not a vote and is never hashed.
    """
    level = [value] if isinstance(value, tuple) else []
    for _ in range(MAX_VOTE_DEPTH):
        if not level:
            break
        level = [sub for node in level for sub in node if isinstance(sub, tuple)]
    if level:
        return False
    try:
        hash(value)
    except (TypeError, RecursionError):
        return False
    return True


def plurality(votes: Dict[int, Any]) -> Optional[Tuple[Any, int]]:
    """The most frequent hashable vote value and its count (ties broken
    deterministically by repr), or None when there are no valid votes."""
    counts: Dict[Any, int] = {}
    for value in votes.values():
        if is_hashable(value):
            counts[value] = counts.get(value, 0) + 1
    if not counts:
        return None
    best = max(counts.items(), key=lambda item: (item[1], repr(item[0])))
    return best
