"""Exponential Information Gathering (EIG) Byzantine agreement.

The phase-king protocol in :mod:`repro.protocols.ba` is cheap but needs
``n > 4t``.  The Section 3 model only guarantees ``n >= 3t+1``, so for
completeness this module provides the classic EIG consensus (Pease-
Shostak-Lamport lineage, as in Attiya & Welch), which is optimal in
resilience: correct for ``n > 3t`` in ``t+1`` rounds, at the price of
messages that grow as O(n^t) — perfectly fine for the small ``t`` of a
committee, and exactly the trade the paper's era textbooks describe.

Each player maintains a tree of labels (sequences of distinct player
ids).  In round ``r`` it relays every depth-``r-1`` entry it holds; an
entry ``tree[pi + (j,)]`` records "j said that tree_j[pi] was v".  After
``t+1`` rounds the tree is resolved bottom-up by majority (with a
default), and all honest players provably resolve the root identically.

Off the coin path (docs/CENSUS.md, class ii); run by claims row E17.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.net.simulator import multicast
from repro.protocols.common import filter_tag
from repro.protocols.context import ProtocolContext

Label = Tuple[int, ...]

#: value used when a relayed entry is missing or malformed
DEFAULT_BIT = 0


def _valid_bit(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value in (0, 1)


def eig_program(
    n: int,
    t: int,
    me: int,
    value: int,
    tag: str = "eig",
) -> Generator:
    """One player's side of EIG consensus on a bit; ``n > 3t`` required."""
    if n <= 3 * t:
        raise ValueError(f"EIG requires n > 3t (n={n}, t={t})")
    my_value = 1 if value else 0

    # tree[label] = value; labels are tuples of distinct player ids whose
    # last element is the player that reported the value.
    tree: Dict[Label, int] = {}

    # Round 1: everybody reports its own input (label = (sender,)).
    inbox = yield [multicast((tag + "/r1", my_value))]
    for src, body in filter_tag(inbox, tag + "/r1").items():
        tree[(src,)] = body if _valid_bit(body) else DEFAULT_BIT
    for pid in range(1, n + 1):
        tree.setdefault((pid,), DEFAULT_BIT)

    # Rounds 2..t+1: relay the previous round's layer.
    for depth in range(1, t + 1):
        layer = tuple(
            (label, val) for label, val in sorted(tree.items())
            if len(label) == depth and me not in label
        )
        inbox = yield [multicast((f"{tag}/r{depth + 1}", layer))]
        reports = filter_tag(inbox, f"{tag}/r{depth + 1}")
        for src, body in reports.items():
            for label, val in _parse_layer(body, n, depth):
                if src in label or src == label[-1]:
                    # src may only relay others' claims about labels not
                    # already containing src; extend with src
                    continue
                tree[label + (src,)] = val if _valid_bit(val) else DEFAULT_BIT
        # fill gaps with the default so resolution is total
        _complete_layer(tree, n, depth + 1, me)

    return _resolve(tree, (), n, t)


def _parse_layer(body, n: int, depth: int):
    """Validate a relayed layer: tuple of ((ids...), bit) pairs."""
    if not isinstance(body, tuple):
        return
    seen = set()
    for item in body:
        if not (isinstance(item, tuple) and len(item) == 2):
            continue
        label, val = item
        if (
            isinstance(label, tuple)
            and len(label) == depth
            and all(
                isinstance(x, int)
                and not isinstance(x, bool)
                and 1 <= x <= n
                for x in label
            )
            and len(set(label)) == depth
            and label not in seen
        ):
            seen.add(label)
            yield label, val


def _complete_layer(tree: Dict[Label, int], n: int, depth: int, me: int) -> None:
    """Ensure every well-formed label of ``depth`` has an entry."""
    def extend(prefix: Label):
        if len(prefix) == depth:
            tree.setdefault(prefix, DEFAULT_BIT)
            return
        for pid in range(1, n + 1):
            if pid not in prefix:
                extend(prefix + (pid,))

    extend(())


def _resolve(tree: Dict[Label, int], label: Label, n: int, t: int) -> int:
    """Bottom-up majority resolution of the EIG tree."""
    if len(label) == t + 1:
        return tree.get(label, DEFAULT_BIT)
    votes = [0, 0]
    for pid in range(1, n + 1):
        if pid not in label:
            votes[_resolve(tree, label + (pid,), n, t)] += 1
    if not label:
        # root: plain majority over first-level resolutions
        return 1 if votes[1] > votes[0] else 0
    return 1 if votes[1] > votes[0] else 0


def run_eig(
    n: int,
    t: int,
    inputs: Dict[int, int],
    faulty: Optional[Dict[int, Generator]] = None,
    tag: str = "eig",
):
    """Standalone EIG runner; returns (decisions, metrics)."""
    faulty = faulty or {}
    outputs, metrics = ProtocolContext(None, n, t).run(
        lambda pid: eig_program(n, t, pid, inputs[pid], tag),
        faulty=faulty, allow_broadcast=False,
    )
    honest = {pid: out for pid, out in outputs.items() if pid not in faulty}
    return honest, metrics
