"""Tag -> protocol-phase registry.

Every message a protocol sends carries a string tag (see
:func:`repro.net.metrics.payload_tag`).  Protocol modules register which
phase of the Fig. 5 pipeline their tags belong to — ``deal`` (share
distribution), ``clique`` (the combination-vector announcements that
feed the consistency graph), ``gradecast``, ``ba`` (leader
election's Byzantine agreement), and ``expose`` (Coin-Expose rounds,
including batching challenges and leader coins).  The registry lives
here so the observability layer never hardcodes protocol knowledge;
each protocol module declares its own tags at import time.

Rules are matched in order: exact tag, prefix, substring, suffix.
Unknown tags classify as ``"other"``; a round with no messages is
``"idle"``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: canonical phase names, in pipeline order (used for stable reporting)
PHASES = ("deal", "clique", "gradecast", "ba", "expose", "other", "idle")

#: phases whose messages carry *per-receiver* secret values (shares), so
#: sending different payloads to different receivers is protocol-legal.
#: Every other pipeline phase is multicast-identical: announcing different
#: values to different players there is equivocation (the behaviour the
#: paper's consistency graph exists to catch).
UNICAST_PHASES = frozenset({"deal"})

#: the strictly ordered part of the Fig. 5 pipeline.  "expose" rounds
#: interleave freely (challenges, leader coins, batch reveals), so they
#: carry no ordering constraint; within one protocol run the remaining
#: phases only ever advance.
PIPELINE_STAGES = {"deal": 0, "clique": 1, "gradecast": 2, "ba": 3}


def phase_stage(phase: str) -> Optional[int]:
    """Position of ``phase`` in the strictly ordered pipeline (or None)."""
    return PIPELINE_STAGES.get(phase)

_EXACT: Dict[str, str] = {}
_PREFIX: List[Tuple[str, str]] = []
_CONTAINS: List[Tuple[str, str]] = []
_SUFFIX: List[Tuple[str, str]] = []


def register_tag_phase(
    phase: str,
    exact: Optional[str] = None,
    prefix: Optional[str] = None,
    contains: Optional[str] = None,
    suffix: Optional[str] = None,
) -> None:
    """Register one tag-matching rule for ``phase``.

    Registration is idempotent: re-registering an identical rule (as
    happens when several protocol modules share a tag convention) is a
    no-op, but re-registering the same pattern for a *different* phase
    raises — tags must classify unambiguously.
    """
    rules = [(exact, _EXACT), (prefix, _PREFIX), (contains, _CONTAINS),
             (suffix, _SUFFIX)]
    if sum(pattern is not None for pattern, _ in rules) != 1:
        raise ValueError("register exactly one of exact/prefix/contains/suffix")
    if exact is not None:
        existing = _EXACT.get(exact)
        if existing is not None and existing != phase:
            raise ValueError(f"tag {exact!r} already maps to {existing!r}")
        _EXACT[exact] = phase
        return
    for pattern, table in rules[1:]:
        if pattern is None:
            continue
        for seen_pattern, seen_phase in table:
            if seen_pattern == pattern:
                if seen_phase != phase:
                    raise ValueError(
                        f"pattern {pattern!r} already maps to {seen_phase!r}"
                    )
                return
        table.append((pattern, phase))


def classify_tag(tag: str) -> str:
    """The phase a message tag belongs to (``"other"`` if unregistered)."""
    hit = _EXACT.get(tag)
    if hit is not None:
        return hit
    for pattern, phase in _PREFIX:
        if tag.startswith(pattern):
            return phase
    for pattern, phase in _CONTAINS:
        if pattern in tag:
            return phase
    for pattern, phase in _SUFFIX:
        if tag.endswith(pattern):
            return phase
    return "other"


def classify_tags(tag_counts: Dict[str, int]) -> str:
    """The dominant phase of one round's delivered tags.

    Rounds are phase-homogeneous in the synchronous protocols; when a
    round genuinely mixes phases the phase carrying the most messages
    wins (ties broken by pipeline order).
    """
    if not tag_counts:
        return "idle"
    totals: Dict[str, int] = {}
    for tag, count in tag_counts.items():
        phase = classify_tag(tag)
        totals[phase] = totals.get(phase, 0) + count
    order = {phase: index for index, phase in enumerate(PHASES)}
    return max(totals, key=lambda p: (totals[p], -order.get(p, len(order))))


def messages_by_phase(tag_counts: Dict[str, int]) -> Dict[str, int]:
    """Aggregate a ``{tag: count}`` table into ``{phase: count}``."""
    out: Dict[str, int] = {}
    for tag, count in tag_counts.items():
        phase = classify_tag(tag)
        out[phase] = out.get(phase, 0) + count
    return out
