"""Protocol VSS (Fig. 2): verify a single Shamir sharing.

Broadcast-channel model, ``n >= 3t+1`` (Section 3).  Players hold shares
``alpha_i = f(i)`` previously distributed by the dealer.  The dealer then
shares a companion random polynomial ``g``; a secret k-ary coin is exposed
as the challenge scalar ``r``; every player broadcasts
``nu_i = alpha_i + r * beta_i``; everyone interpolates F through the
``nu``'s and accepts iff ``deg(F) <= t``.

Soundness (Lemma 1): a dealer whose shares do NOT lie on a degree-t
polynomial is accepted with probability at most 1/p, because it must have
fixed ``g``'s offending coefficient to ``-a_j / r`` before ``r`` was
exposed.  Privacy: ``nu_i`` reveals only ``f(i) + r g(i)``, masked by the
one-time companion ``g``.

Cost (Lemma 2): n + (k log k) + 1 additions and 2 interpolations per
player; 2 rounds; n messages of size k per round (broadcast counted once).

Two acceptance modes are provided:

* ``robust=False`` — the figure verbatim: interpolate through *all* n
  broadcast values.  A single faulty player can then veto an honest
  dealer by broadcasting garbage (the paper notes players "can only check
  that at most n-t of the shares satisfy the requirements" without care).
* ``robust=True`` — accept iff a degree-t polynomial matches at least
  ``n - t`` broadcast values (Berlekamp-Welch), the criterion Fig. 4
  adopts; an honest dealer is then always accepted.

Off the coin path (docs/CENSUS.md, class ii); run by claims rows E1, E2
and E5, and `examples/batch_vss_audit.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro.fields.base import Element, Field
from repro.poly.berlekamp_welch import DecodingError, berlekamp_welch
from repro.poly.lagrange import interpolate
from repro.poly.polynomial import Polynomial
from repro.net.simulator import Send, broadcast, unicast
from repro.net.metrics import NetworkMetrics
from repro.sharing.shamir import ShamirScheme
from repro.protocols.coin_expose import CoinShare, coin_expose, make_dealer_coin
from repro.protocols.context import as_context
from repro.protocols.common import filter_tag, valid_element


@dataclass(frozen=True)
class VSSResult:
    """A player's verdict on the dealer's sharing."""

    accepted: bool
    challenge: Optional[Element]  # the exposed coin r (None if expose failed)


def vss_program(
    field: Field,
    n: int,
    t: int,
    me: int,
    dealer: int,
    alpha: Optional[Element],
    coin: CoinShare,
    g_poly: Optional[Polynomial] = None,
    tag: str = "vss",
    robust: bool = False,
) -> Generator:
    """One player's side of Protocol VSS.

    ``alpha`` is the share of ``f`` this player already holds (the
    protocol's "given"); the dealer additionally passes its companion
    polynomial ``g_poly``.
    """
    scheme = ShamirScheme(field, n, t)

    # Step 1: the dealer shares the companion polynomial g.
    sends = []
    if me == dealer:
        if g_poly is None:
            raise ValueError("dealer must supply the companion polynomial g")
        sends = [
            unicast(j, (tag + "/g", g_poly(scheme.point(j))))
            for j in range(1, n + 1)
        ]
    inbox = yield sends
    beta = filter_tag(inbox, tag + "/g").get(dealer)
    if not valid_element(field, beta):
        beta = None

    # Step 2: expose the secret k-ary coin -> challenge r.
    r = yield from coin_expose(field, me, coin)

    # Step 3: broadcast nu_i = alpha_i + r * beta_i.
    sends = []
    if r is not None and alpha is not None and beta is not None:
        nu = field.add(alpha, field.mul(r, beta))
        sends = [broadcast((tag + "/nu", nu))]
    inbox = yield sends
    if r is None:
        return VSSResult(False, None)
    votes = filter_tag(inbox, tag + "/nu")
    points = [
        (scheme.point(j), votes[j])
        for j in range(1, n + 1)
        if j in votes and valid_element(field, votes[j])
    ]

    # Step 4: interpolate F through the broadcast values and check degree.
    accepted = _check_degree(field, points, t, n, robust)
    return VSSResult(accepted, r)


def _check_degree(field, points, t, n, robust) -> bool:
    if robust:
        if len(points) < n - t:
            return False
        try:
            _, good = berlekamp_welch(field, points, t)
        except DecodingError:
            return False
        return len(good) >= n - t
    if len(points) < n:
        return False
    poly = interpolate(field, points)
    return poly.degree <= t


# ---------------------------------------------------------------------------
# whole-protocol runner (builds the network, deals f, runs VSS)
# ---------------------------------------------------------------------------

def run_vss(
    field,
    n: Optional[int] = None,
    t: Optional[int] = None,
    dealer: int = 1,
    secret: Optional[Element] = None,
    seed: int = 0,
    cheat_shares: Optional[Dict[int, Element]] = None,
    cheat_offsets: Optional[Dict[int, Element]] = None,
    cheat_g: Optional[Polynomial] = None,
    robust: bool = False,
    faulty_programs: Optional[Dict[int, Generator]] = None,
) -> Tuple[Dict[int, VSSResult], NetworkMetrics]:
    """Run Protocol VSS end to end on a fresh synchronous network.

    ``cheat_shares`` overrides individual players' alpha values, modelling
    a dealer whose dealing does not lie on a degree-t polynomial;
    ``cheat_offsets`` adds per-player offsets instead (Lemma 1's optimal
    cheater adds ``d * i^(t+1)`` and crafts ``cheat_g`` to cancel it for
    one guessed challenge value); ``cheat_g`` substitutes the dealer's
    companion polynomial.  Returns per-player results and metrics.
    """
    ctx = as_context(field, n, t, seed=seed)
    field, n, t, rng = ctx.field, ctx.n, ctx.t, ctx.rng
    scheme = ShamirScheme(field, n, t)
    if secret is None:
        secret = field.random(rng)
    _, shares = scheme.deal(secret, rng)
    alphas = {s.player_id: s.value for s in shares}
    if cheat_shares:
        alphas.update(cheat_shares)
    if cheat_offsets:
        for pid, offset in cheat_offsets.items():
            alphas[pid] = field.add(alphas[pid], offset)
    g_poly = cheat_g if cheat_g is not None else Polynomial.random(field, t, rng)
    _, coin_shares = make_dealer_coin(field, n, t, "vss-challenge", rng)

    return ctx.run(
        lambda pid: vss_program(
            field, n, t, pid, dealer, alphas[pid], coin_shares[pid],
            g_poly=g_poly if pid == dealer else None,
            robust=robust,
        ),
        faulty=faulty_programs,
    )
