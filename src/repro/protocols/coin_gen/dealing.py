"""Coin-Gen dealing phase: n parallel verified dealings (Fig. 5 steps 1-5).

Every player acts as a Bit-Gen dealer in parallel; all instances reuse
one exposed challenge coin r ("using the same coin r for all
invocations", saving n-1 interpolations).  Step numbering follows Fig. 5:

1.  every player deals ``total`` degree-t polynomials — drawn as
    coefficient columns, evaluated at all n points in one Horner sweep
    whose per-recipient slices are the tuples sent (Bit-Gen step 1);
2.  a seed coin is exposed as the batching challenge r (one coin, or one
    per dealer in the ``shared_challenge=False`` ablation);
3.  every player announces the vector of Horner combinations (one per
    dealer, all from one power basis of r), n^2 messages of size nk
    (Theorem 2);
4-5. every Bit-Gen instance is locally decoded with Berlekamp-Welch
    (Fig. 4 steps 4-5).

The phase's outcome is a :class:`DealingState` — the local view that the
agreement phase (:mod:`repro.protocols.coin_gen.agreement`) reconciles
into a common clique.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.fields.base import Element, Field
from repro.obs.phases import register_tag_phase
from repro.poly.polynomial import (
    Polynomial,
    evaluate_columns,
    horner_batch,
    horner_batch_many,
)
from repro.net.simulator import multicast, unicast
from repro.sharing.shamir import ShamirScheme
from repro.protocols.bit_gen import decode_batched_many
from repro.protocols.coin_expose import CoinShare, coin_expose_many
from repro.protocols.common import filter_tag, valid_element, valid_element_tuple

# share distribution ("<tag>/sh") and combination-vector announcements
# ("<tag>/nu") — the same suffix convention Bit-Gen and Batch-VSS use
register_tag_phase("deal", suffix="/sh")
register_tag_phase("clique", suffix="/nu")


@dataclass
class DealingState:
    """One player's local view after the dealing phase (Fig. 5 steps 1-5)."""

    ok: bool
    #: seed coins consumed so far (the batching challenge(s))
    seed_coins_used: int = 0
    #: the exposed batching challenge(s); [0] is the shared one
    challenges: List[Optional[Element]] = dataclass_field(default_factory=list)
    #: raw share tuples received from each dealer (validated)
    shares_from: Dict[int, Tuple[Element, ...]] = dataclass_field(
        default_factory=dict
    )
    #: the combination vector this player announced ("missing" markers kept)
    nu_mine: List[object] = dataclass_field(default_factory=list)
    #: combination vectors received from each announcer
    nu_recv: Dict[int, tuple] = dataclass_field(default_factory=dict)
    #: per-dealer decoded batched polynomial (None = the paper's "bot")
    decoded: Dict[int, Optional[Polynomial]] = dataclass_field(
        default_factory=dict
    )
    #: evaluation point of every player id
    points: Dict[int, Element] = dataclass_field(default_factory=dict)


def random_vanishing(field: Field, t: int, rng, vanish_at=None) -> Polynomial:
    """A uniform degree-<=t polynomial, optionally vanishing at a point.

    ``vanish_at=None`` -> unconstrained; zero -> zero constant term;
    other point x0 -> (x - x0) * q(x) with q uniform of degree t-1.
    """
    if vanish_at is None or vanish_at == field.zero:
        return Polynomial.random(field, t, rng, constant=vanish_at)
    q = Polynomial.random(field, t - 1, rng)
    return Polynomial(field, [field.neg(vanish_at), field.one]) * q


def dealt_columns(
    field: Field, t: int, total: int, rng, vanish_at=None
) -> List[List[Element]]:
    """``total`` successive :func:`random_vanishing` draws as coefficient
    columns (``columns[i][g]``: the ``x^i`` coefficient of the g-th) —
    the same polynomials, ``rng`` left in the same state."""
    if vanish_at is None or vanish_at == field.zero:
        draws = field.random_many(rng, total * (t + 1))
        columns = [draws[i::t + 1] for i in range(t + 1)]
        if vanish_at is not None:
            columns[0] = [field.zero] * total
        return columns
    # (x - x0) * q(x) is metered polynomial arithmetic, not a draw
    polys = [random_vanishing(field, t, rng, vanish_at) for _ in range(total)]
    return [[p.coefficient(i) for p in polys] for i in range(t + 1)]


def verified_dealing(
    field: Field,
    n: int,
    t: int,
    me: int,
    total: int,
    seed_coins: Sequence[CoinShare],
    rng,
    tag: str,
    shared_challenge: bool = True,
    vanish_at: Optional[Element] = None,
) -> Generator:
    """Generator for Fig. 5 steps 1-5; returns a :class:`DealingState`.

    With ``vanish_at`` set, the dealt polynomials must vanish at that
    point (share-refresh mode: the origin; share-recovery mode: the
    recovering player's point) — and so must every decoded instance, or
    it is rejected as a cheat (evaded with probability <= total/p,
    Lemma 3).
    """
    scheme = ShamirScheme(field, n, t)
    points = {j: scheme.point(j) for j in range(1, n + 1)}
    num_challenges = 1 if shared_challenge else n

    # ---- Step 1: every player deals its polynomials (Bit-Gen step 1):
    # one sweep over all of them at all n points, sliced per recipient.
    per_recipient = evaluate_columns(
        field,
        dealt_columns(field, t, total, rng, vanish_at),
        [points[j] for j in range(1, n + 1)],
    )
    sends = [
        unicast(j, (tag + "/sh", tuple(values)))
        for j, values in enumerate(per_recipient, 1)
    ]
    inbox = yield sends
    raw = filter_tag(inbox, tag + "/sh")
    shares_from: Dict[int, Tuple[Element, ...]] = {
        j: raw[j] for j in raw if valid_element_tuple(field, raw[j], total)
    }

    # ---- Step 2: expose the batching challenge(s).
    challenges = yield from coin_expose_many(
        field, me, list(seed_coins[:num_challenges])
    )
    if any(c is None for c in challenges):
        # A seed coin failed to decode; with valid seeds this cannot
        # happen, and when it does every honest player sees the same
        # failure (Coin-Expose unanimity) and aborts together.
        return DealingState(
            False, seed_coins_used=num_challenges, challenges=challenges
        )

    # ---- Step 3: announce the vector of Horner combinations (one per
    # dealer), n^2 messages of size nk (Theorem 2).
    # With the shared challenge (the paper's default) every present
    # dealer's combination uses the same r, so the Horner chains batch
    # into one wide dot against the shared power basis r^1..r^M.
    nu_mine: List[object] = ["missing"] * n
    present = sorted(shares_from)
    if shared_challenge:
        combos = horner_batch_many(
            field, [shares_from[j] for j in present], challenges[0]
        )
    else:
        combos = [
            horner_batch(field, shares_from[j], challenges[j - 1])
            for j in present
        ]
    for j, combo in zip(present, combos):
        nu_mine[j - 1] = combo
    inbox = yield [multicast((tag + "/nu", tuple(nu_mine)))]
    nu_recv: Dict[int, tuple] = {
        src: body
        for src, body in filter_tag(inbox, tag + "/nu").items()
        if isinstance(body, tuple) and len(body) == n
    }

    # ---- Steps 4-5: local decoding of every Bit-Gen instance.  The n
    # per-dealer decodes are independent, so their optimistic candidates
    # are verified in one bulk sweep.
    point_sets = [
        [
            (points[src], vec[j - 1])
            for src, vec in sorted(nu_recv.items())
            if valid_element(field, vec[j - 1])
        ]
        for j in range(1, n + 1)
    ]
    decoded: Dict[int, Optional[Polynomial]] = {}
    for j, poly in enumerate(decode_batched_many(field, point_sets, t, n), 1):
        if (
            poly is not None
            and vanish_at is not None
            and poly(vanish_at) != field.zero
        ):
            # the dealing must combine to zero at the protected point; a
            # cheat evades this with probability <= total/p (Lemma 3)
            poly = None
        decoded[j] = poly

    return DealingState(
        True,
        seed_coins_used=num_challenges,
        challenges=challenges,
        shares_from=shares_from,
        nu_mine=nu_mine,
        nu_recv=nu_recv,
        decoded=decoded,
        points=points,
    )
