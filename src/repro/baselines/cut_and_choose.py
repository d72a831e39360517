"""Cut-and-choose VSS — the Chaum-Crepeau-Damgard [9] style baseline.

Section 3.1: "The method presented in [9] is a cut-and-choose protocol.
Roughly speaking, the dealer who shared the secret is asked to share k
additional polynomials g_1(x),...,g_k(x).  For each j, the players decide
whether to reconstruct g_j(x) or f(x)+g_j(x), and check if the
reconstructed polynomial is of degree <= t.  Thus, in this approach k
polynomial interpolations are computed in order to achieve a probability
of error less than 1/2^k."

If the dealt shares do not lie on a degree-t polynomial, then for every j
at most one of ``g_j`` and ``f + g_j`` can have degree <= t, so each
challenge bit catches the dealer with probability 1/2 and the total error
is 2^-k_challenges.  Computation: k interpolations per player (vs 2 for
Protocol VSS); communication: k broadcast values per player (vs 1).

Off the coin path (docs/CENSUS.md, class ii); run by claims row E5.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro.fields.base import Element, Field
from repro.net.metrics import NetworkMetrics
from repro.net.simulator import broadcast, unicast
from repro.poly.lagrange import interpolate
from repro.poly.polynomial import Polynomial
from repro.sharing.shamir import ShamirScheme
from repro.protocols.coin_expose import CoinShare, coin_expose, make_dealer_coin
from repro.protocols.common import filter_tag, valid_element, valid_element_tuple
from repro.protocols.context import ProtocolContext


@dataclass(frozen=True)
class CutAndChooseResult:
    accepted: bool


def cut_and_choose_program(
    field: Field,
    n: int,
    t: int,
    me: int,
    dealer: int,
    alpha: Optional[Element],
    coin: CoinShare,
    challenges: int,
    companion_table=None,
    tag: str = "ccvss",
) -> Generator:
    """One player's side of cut-and-choose VSS with ``challenges`` rounds.

    The challenge bits come from one exposed k-ary coin (its low
    ``challenges`` bits), mirroring how the paper's own protocols source
    randomness.
    """
    scheme = ShamirScheme(field, n, t)

    # Round 1: dealer shares the k companion polynomials.
    sends = []
    if me == dealer:
        if companion_table is None:
            raise ValueError("dealer must supply the companion share table")
        sends = [
            unicast(j, (tag + "/g", tuple(companion_table[j])))
            for j in range(1, n + 1)
        ]
    inbox = yield sends
    raw = filter_tag(inbox, tag + "/g").get(dealer)
    betas = raw if valid_element_tuple(field, raw, challenges) else None

    # Round 2: expose the challenge coin -> k challenge bits.
    value = yield from coin_expose(field, me, coin)

    # Round 3: for each challenge j broadcast g_j(i) or f(i)+g_j(i).
    sends = []
    bits = None
    if value is not None:
        bits = [(field.to_int(value) >> j) & 1 for j in range(challenges)]
        if alpha is not None and betas is not None:
            opened = tuple(
                betas[j] if bits[j] == 0 else field.add(alpha, betas[j])
                for j in range(challenges)
            )
            sends = [broadcast((tag + "/open", opened))]
    inbox = yield sends
    if bits is None:
        return CutAndChooseResult(False)
    votes = {
        src: vec
        for src, vec in filter_tag(inbox, tag + "/open").items()
        if valid_element_tuple(field, vec, challenges)
    }
    if len(votes) < n:
        return CutAndChooseResult(False)

    # One interpolation per challenge (the cost the paper criticizes).
    for j in range(challenges):
        pts = [(scheme.point(src), votes[src][j]) for src in sorted(votes)]
        poly = interpolate(field, pts)
        if poly.degree > t:
            return CutAndChooseResult(False)
    return CutAndChooseResult(True)


def run_cut_and_choose_vss(
    field: Field,
    n: int,
    t: int,
    challenges: int = 16,
    seed: int = 0,
    cheat_shares: Optional[Dict[int, Element]] = None,
    cheat_offsets: Optional[Dict[int, Element]] = None,
    cheat_companion_shares: Optional[Dict[int, Dict[int, Element]]] = None,
    cheat_companion_offsets: Optional[Dict[int, Dict[int, Element]]] = None,
) -> Tuple[Dict[int, CutAndChooseResult], NetworkMetrics]:
    """Run the cut-and-choose baseline end to end.

    ``challenges`` plays the role of the soundness parameter k (error
    2^-challenges).  ``cheat_shares`` corrupts the dealing as in
    :func:`repro.protocols.vss.run_vss`; ``cheat_companion_shares`` maps
    a challenge index to per-player overrides of the companion shares,
    letting a cheating dealer craft companions that compensate for a bad
    ``f`` (it then survives a challenge exactly when it guesses that
    challenge's bit).
    """
    rng = random.Random(seed)
    scheme = ShamirScheme(field, n, t)
    _, shares = scheme.deal(field.random(rng), rng)
    alphas = {s.player_id: s.value for s in shares}
    if cheat_shares:
        alphas.update(cheat_shares)
    if cheat_offsets:
        for pid, offset in cheat_offsets.items():
            alphas[pid] = field.add(alphas[pid], offset)
    g_polys = [Polynomial.random(field, t, rng) for _ in range(challenges)]
    companion_values = {
        j: {pid: g_polys[j](scheme.point(pid)) for pid in range(1, n + 1)}
        for j in range(challenges)
    }
    if cheat_companion_shares:
        for j, overrides in cheat_companion_shares.items():
            companion_values[j].update(overrides)
    if cheat_companion_offsets:
        for j, offsets in cheat_companion_offsets.items():
            for pid, offset in offsets.items():
                companion_values[j][pid] = field.add(
                    companion_values[j][pid], offset
                )
    companion_table = {
        pid: tuple(companion_values[j][pid] for j in range(challenges))
        for pid in range(1, n + 1)
    }
    _, coin_shares = make_dealer_coin(field, n, t, "ccvss-challenge", rng)

    return ProtocolContext(field, n, t).run(
        lambda pid: cut_and_choose_program(
            field, n, t, pid, 1, alphas[pid], coin_shares[pid], challenges,
            companion_table=companion_table if pid == 1 else None,
        )
    )
