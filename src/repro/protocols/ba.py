"""Deterministic Byzantine agreement: the phase-king protocol.

Fig. 5 step 10 runs "any BA protocol"; the paper assumes "for simplicity
... that deterministic BA is carried out".  We implement the phase-king
protocol (Berman-Garay-Perry): ``t+1`` phases of two rounds each, plain
point-to-point messages, no broadcast channel needed.

The two-round variant implemented here is correct for ``n > 4t`` (the
constant-fraction regime of Section 4, where ``n >= 6t+1``, satisfies
this with room to spare):

* **validity** — if every honest player starts with ``b`` they decide ``b``;
* **agreement** — all honest players decide the same bit;
* **termination** — exactly ``2(t+1)`` rounds.

Why n > 4t suffices: if some honest player keeps its own majority value
(multiplicity >= n - t), then at least ``n - 2t`` honest players voted for
it, so every player — including the phase king — counted at least
``n - 2t > n/2 + t`` votes... i.e. the king's majority agrees, and players
adopting the king's value coincide with players keeping their own.
A phase whose king is honest therefore ends with all honest players
holding the same bit, and that bit then persists.  With ``t+1`` phases,
some king is honest.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.net.simulator import multicast
from repro.protocols.context import ProtocolContext
from repro.obs.phases import register_tag_phase
from repro.protocols.common import filter_tag

# phase-king rounds: all-to-all votes, then the king's announcement
register_tag_phase("ba", suffix="/vote")
register_tag_phase("ba", suffix="/king")


def _valid_bit(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value in (0, 1)


def phase_king(
    n: int,
    t: int,
    me: int,
    value: int,
    tag: str = "ba",
) -> Generator:
    """One player's side of phase-king BA on a bit; returns the decision.

    ``value`` is this player's input bit.  Requires ``n > 4t``.
    """
    if n <= 4 * t:
        raise ValueError(f"phase king requires n > 4t (n={n}, t={t})")
    pref = 1 if value else 0

    for phase in range(1, t + 2):
        # Round 1: universal exchange of preferences.
        inbox = yield [multicast((f"{tag}/p{phase}/vote", pref))]
        votes = filter_tag(inbox, f"{tag}/p{phase}/vote")
        ones = sum(1 for v in votes.values() if _valid_bit(v) and v == 1)
        zeros = sum(1 for v in votes.values() if _valid_bit(v) and v == 0)
        majority = 1 if ones > zeros else 0
        multiplicity = max(ones, zeros)

        # Round 2: the phase king (player id == phase) announces its majority.
        king = phase
        sends = []
        if me == king:
            sends = [multicast((f"{tag}/p{phase}/king", majority))]
        inbox = yield sends
        king_value = filter_tag(inbox, f"{tag}/p{phase}/king").get(king)
        if not _valid_bit(king_value):
            king_value = 0
        pref = majority if multiplicity >= n - t else king_value

    return pref


def run_phase_king(n, t, inputs: Dict[int, int], field=None, faulty=None,
                   tag="ba"):
    """Standalone runner for tests/benches; returns (decisions, metrics)."""
    return ProtocolContext(field, n, t).run(
        lambda pid: phase_king(n, t, pid, inputs[pid], tag),
        faulty=faulty, allow_broadcast=False,
    )
