"""Protocol Batch-VSS (Fig. 3): verify M sharings with one interpolation.

Broadcast-channel model, ``n >= 3t+1`` (Section 3.2).  Player ``P_i``
holds shares ``alpha_i1 .. alpha_iM`` of M dealings.  A secret coin is
exposed as the scalar ``r``; each player broadcasts the Horner combination
``nu_i = r^M alpha_iM + ... + r alpha_i1``; everyone interpolates a single
polynomial F through the ``nu``'s and accepts iff ``deg(F) <= t``.

Soundness (Lemma 3): if any dealing has degree > t, acceptance requires
``r`` to be a root of a fixed degree-M polynomial, so the error is at
most M/p.  Cost (Lemma 4): 2 M k log k additions and 2 interpolations per
player, two rounds of n messages, 2nk bits total — i.e. amortized
``O(1)`` communication per verified secret (Corollary 1).

Privacy note (see DESIGN.md Section 5): the interpolated F reveals the
combination ``sum_j r^j f_j(0)`` of the secrets.  When the secrets must
stay private, set ``blinding=True`` in the runner: the dealer appends one
extra random dealing that one-time-pads the combination, at O(1) extra
cost — the batch analogue of Fig. 2's companion polynomial ``g``.

``Batch-VSS(l)`` (the partial-acceptance variant the paper defines after
Fig. 3) is exposed through the ``accept_subset`` parameter: accept when a
degree-t polynomial fits the values of at least ``l`` given players.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, Sequence, Tuple

from repro.fields.base import Element, Field
from repro.poly.barycentric import interpolate_cached
from repro.poly.berlekamp_welch import DecodingError, berlekamp_welch
from repro.poly.polynomial import Polynomial, horner_batch
from repro.net.metrics import NetworkMetrics
from repro.net.simulator import broadcast
from repro.obs.phases import register_tag_phase

register_tag_phase("clique", suffix="/nu")
from repro.sharing.shamir import ShamirScheme
from repro.protocols.coin_expose import CoinShare, coin_expose, make_dealer_coin
from repro.protocols.context import as_context
from repro.protocols.common import filter_tag, valid_element


@dataclass(frozen=True)
class BatchVSSResult:
    """A player's verdict on the dealer's M sharings."""

    accepted: bool
    challenge: Optional[Element]


def batch_vss_program(
    field: Field,
    n: int,
    t: int,
    me: int,
    alphas: Sequence[Element],
    coin: CoinShare,
    tag: str = "batchvss",
    accept_subset: Optional[Sequence[int]] = None,
) -> Generator:
    """One player's side of Protocol Batch-VSS.

    ``alphas`` are this player's shares of the M dealings (already held).
    With ``accept_subset`` (a list of player ids of length ``l``), runs
    the Batch-VSS(l) variant: accept iff a degree-t polynomial fits the
    broadcast values of those players.
    """
    scheme = ShamirScheme(field, n, t)

    # Step 1: expose the secret k-ary coin -> challenge r.
    r = yield from coin_expose(field, me, coin)

    # Step 2+3: Horner-combine own shares and broadcast.
    sends = []
    if r is not None and alphas is not None:
        nu = horner_batch(field, list(alphas), r)
        sends = [broadcast((tag + "/nu", nu))]
    inbox = yield sends
    if r is None:
        return BatchVSSResult(False, None)
    votes = filter_tag(inbox, tag + "/nu")
    points = {
        j: votes[j]
        for j in range(1, n + 1)
        if j in votes and valid_element(field, votes[j])
    }

    # Step 4: single interpolation, degree check.
    if accept_subset is not None:
        subset_pts = [
            (scheme.point(j), points[j]) for j in accept_subset if j in points
        ]
        if len(subset_pts) < len(accept_subset):
            return BatchVSSResult(False, r)
        accepted = _fits_degree(field, subset_pts, t)
    else:
        if len(points) < n:
            return BatchVSSResult(False, r)
        all_pts = [(scheme.point(j), v) for j, v in sorted(points.items())]
        # cached barycentric build over the fixed point set {1..n}: zero
        # inversions after the first batch verified in this field
        poly = interpolate_cached(field, all_pts)
        accepted = poly.degree <= t
    return BatchVSSResult(accepted, r)


def _fits_degree(field, pts, t) -> bool:
    if len(pts) <= t + 1:
        return True
    try:
        _, good = berlekamp_welch(field, pts, t, max_errors=0)
    except DecodingError:
        return False
    return len(good) == len(pts)


# ---------------------------------------------------------------------------
# whole-protocol runner
# ---------------------------------------------------------------------------

def run_batch_vss(
    field,
    n: Optional[int] = None,
    t: Optional[int] = None,
    M: int = 1,
    seed: int = 0,
    cheat_dealings: Optional[Dict[int, Dict[int, Element]]] = None,
    cheat_offsets: Optional[Dict[int, Dict[int, Element]]] = None,
    blinding: bool = False,
    accept_subset: Optional[Sequence[int]] = None,
    faulty_programs: Optional[Dict[int, Generator]] = None,
) -> Tuple[Dict[int, BatchVSSResult], NetworkMetrics]:
    """Run Protocol Batch-VSS over M fresh dealings.

    ``cheat_dealings`` maps a dealing index (0-based) to per-player share
    overrides, modelling dealings that do not lie on degree-t polynomials.
    ``cheat_offsets`` instead *adds* per-player offsets to the honest
    shares — this is how Lemma 3's optimal cheater is built: offsets of
    the form ``c_idx * i^(t+1)`` give the combined polynomial an x^(t+1)
    coefficient ``sum_idx r^(idx+1) c_idx``, which the cheater can arrange
    to have up to M roots.  With ``blinding=True``, an extra random
    dealing is appended to mask the combination of secrets (see module
    docstring).
    """
    ctx = as_context(field, n, t, seed=seed)
    field, n, t, rng = ctx.field, ctx.n, ctx.t, ctx.rng
    scheme = ShamirScheme(field, n, t)
    total = M + (1 if blinding else 0)
    share_table: Dict[int, list] = {pid: [] for pid in range(1, n + 1)}
    _, share_lists = scheme.deal_random_many(total, rng)
    for idx in range(total):
        values = {s.player_id: s.value for s in share_lists[idx]}
        if cheat_dealings and idx in cheat_dealings:
            values.update(cheat_dealings[idx])
        if cheat_offsets and idx in cheat_offsets:
            for pid, offset in cheat_offsets[idx].items():
                values[pid] = field.add(values[pid], offset)
        for pid in range(1, n + 1):
            share_table[pid].append(values[pid])

    _, coin_shares = make_dealer_coin(field, n, t, "batchvss-challenge", rng)
    return ctx.run(
        lambda pid: batch_vss_program(
            field, n, t, pid, share_table[pid], coin_shares[pid],
            accept_subset=accept_subset,
        ),
        faulty=faulty_programs, span="batch_vss", n=n, t=t, M=M,
    )
