"""Protocol Bit-Gen (Fig. 4): verified dealing of M sealed secrets.

Point-to-point model, ``n >= 6t+1`` (Section 4) — no broadcast channel.
The dealer Shamir-shares M polynomials; a secret coin is exposed as the
batching scalar ``r``; every player sends its Horner combination ``nu_i``
to everyone; each player collects the set S of announced combinations and
Berlekamp-Welch-decodes a polynomial F of degree <= t fitting at least
``n - t`` of them, outputting ``(F, S)`` on success and ``(bot, S)``
otherwise.

Because there is no broadcast, "each player can only reach a local
decision" — two honest players may hold different S sets (a faulty player
may equivocate its nu).  Coin-Gen (Fig. 5) reconciles these local views.

Cost (Lemma 6): ``M t k log k + 2 M k log k`` additions and 2
interpolations per player; 3 rounds; ``n M k + 2 n^2 k`` bits.

Privacy (see DESIGN.md Section 5): the decoded F(0) publishes the
combination ``sum_h r^h f_h(0)`` of the dealt secrets, which would make
the last coin of a batch predictable from the earlier ones.  With
``blinding=True`` (the default) the dealer deals ``M+1`` polynomials and
the extra one — never individually exposed — one-time-pads the
combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro.fields.base import Element, Field
from repro.poly.berlekamp_welch import (
    DecodingError,
    berlekamp_welch,
    decode_past_first_head,
    max_correctable_errors,
    optimistic_candidate,
    outside_mismatches,
)
from repro.poly.lagrange import _require_distinct
from repro.poly.polynomial import Polynomial, evaluate_polys, horner_batch
from repro.net.metrics import NetworkMetrics
from repro.net.simulator import multicast, unicast
from repro.obs.phases import register_tag_phase
from repro.sharing.shamir import ShamirScheme

register_tag_phase("deal", suffix="/sh")
register_tag_phase("clique", suffix="/nu")
from repro.protocols.coin_expose import CoinShare, coin_expose, make_dealer_coin
from repro.protocols.context import as_context
from repro.protocols.common import filter_tag, valid_element, valid_element_tuple


@dataclass
class BitGenOutput:
    """A player's local outcome of one Bit-Gen instance."""

    #: the batched verification polynomial F, or None for the paper's "bot"
    poly: Optional[Polynomial]
    #: S — the set of announced combinations this player received
    share_set: Dict[int, Element]
    #: the raw share tuple received from the dealer (None if missing/invalid)
    my_shares: Optional[Tuple[Element, ...]]
    #: the exposed batching scalar r
    challenge: Optional[Element]

    @property
    def accepted(self) -> bool:
        return self.poly is not None


def decode_batched(field: Field, points, t: int, n: int) -> Optional[Polynomial]:
    """Fig. 4 step 5: a degree-<=t polynomial fitting >= n-t of the points.

    Such a polynomial is unique when it exists: two candidates would agree
    on >= 2(n-t) - n = n - 2t > t points.
    """
    if len(points) < n - t:
        return None
    max_errors = len(points) - (n - t)
    try:
        poly, good = berlekamp_welch(field, points, t, max_errors)
    except DecodingError:
        return None
    if len(good) < n - t:
        return None
    return poly


def decode_batched_many(field: Field, point_sets, t: int, n: int):
    """:func:`decode_batched` over many independent point sets at once.

    Result- and op-count-identical to decoding each set in turn, but the
    optimistic Berlekamp-Welch candidates of every set are verified in a
    single bulk evaluation sweep (grouped by shared evaluation points),
    so vectorized field backends see one wide kernel instead of many
    short ones.  A set whose candidate fails the match count — a wrong
    announcement among its first ``t + 1`` senders — finishes through
    :func:`~repro.poly.berlekamp_welch.decode_past_first_head`: the
    next disjoint heads first, the key-equation decode only when every
    head tried holds a wrong point or the dealing really is corrupted.
    """
    results: list = [None] * len(point_sets)
    head = t + 1
    by_xs: Dict[tuple, list] = {}  # abscissas -> [(index, ys, candidate)]
    for idx, pts in enumerate(point_sets):
        pts = list(pts)
        if len(pts) < n - t:
            continue
        xs = [x for x, _ in pts]
        ys = [y for _, y in pts]
        _require_distinct(xs)
        field.counter.interpolations += 1
        candidate = optimistic_candidate(field, xs, ys, 0, head)
        by_xs.setdefault(tuple(xs), []).append((idx, ys, candidate))
    for xs, entries in by_xs.items():
        xs = list(xs)
        polys = [Polynomial(field, candidate) for _, _, candidate in entries]
        rows = evaluate_polys(field, polys, xs[head:])
        max_errors = min(
            len(xs) - (n - t), max_correctable_errors(len(xs), t)
        )
        for (idx, ys, _), poly, values in zip(entries, polys, rows):
            wrong = outside_mismatches(values, ys, 0, head)
            if len(wrong) > max_errors:
                # corrupted head: same fall-through as berlekamp_welch
                # (later heads, then the key equation), without
                # re-paying the optimistic attempt
                try:
                    coeffs, wrong = decode_past_first_head(
                        field, xs, ys, t, max_errors
                    )
                except DecodingError:
                    continue
                poly = Polynomial(field, coeffs)
            if len(xs) - len(wrong) >= n - t:
                results[idx] = poly
    return results


def bit_gen_program(
    field: Field,
    n: int,
    t: int,
    me: int,
    dealer: int,
    M: int,
    coin: CoinShare,
    dealer_polys=None,
    tag: str = "bitgen",
    blinding: bool = True,
) -> Generator:
    """One player's side of Protocol Bit-Gen (single dealer).

    The dealer passes ``dealer_polys`` — its list of ``M`` (+1 when
    blinding) degree-t dealing polynomials.
    """
    scheme = ShamirScheme(field, n, t)
    total = M + (1 if blinding else 0)

    # Step 1: dealer distributes all share tuples.  Each polynomial is
    # evaluated at all n points in one shared-Horner sweep.
    sends = []
    if me == dealer:
        if dealer_polys is None or len(dealer_polys) != total:
            raise ValueError(f"dealer must supply {total} polynomials")
        all_points = [scheme.point(j) for j in range(1, n + 1)]
        rows = evaluate_polys(field, dealer_polys, all_points)
        sends = [
            unicast(j, (tag + "/sh", tuple(row[j - 1] for row in rows)))
            for j in range(1, n + 1)
        ]
    inbox = yield sends
    raw = filter_tag(inbox, tag + "/sh").get(dealer)
    my_shares = raw if valid_element_tuple(field, raw, total) else None

    # Step 2: expose the secret k-ary coin -> batching scalar r.
    r = yield from coin_expose(field, me, coin)

    # Step 3: Horner-combine and announce point-to-point.
    sends = []
    if r is not None and my_shares is not None:
        nu = horner_batch(field, list(my_shares), r)
        sends = [multicast((tag + "/nu", nu))]
    inbox = yield sends
    if r is None:
        return BitGenOutput(None, {}, my_shares, None)

    # Step 4: S <- the announced combinations received.
    share_set = {
        src: value
        for src, value in filter_tag(inbox, tag + "/nu").items()
        if valid_element(field, value)
    }

    # Step 5: Berlekamp-Welch interpolation through S.
    points = [
        (scheme.point(src), value) for src, value in sorted(share_set.items())
    ]
    poly = decode_batched(field, points, t, n)
    return BitGenOutput(poly, share_set, my_shares, r)


def run_bit_gen(
    field,
    n: Optional[int] = None,
    t: Optional[int] = None,
    M: int = 1,
    dealer: int = 1,
    seed: int = 0,
    blinding: bool = True,
    cheat_polys=None,
    faulty_programs: Optional[Dict[int, Generator]] = None,
) -> Tuple[Dict[int, BitGenOutput], NetworkMetrics]:
    """Run one Bit-Gen instance end to end (point-to-point network).

    Accepts ``(field, n, t, ...)`` or a ready
    :class:`~repro.protocols.context.ProtocolContext` as first
    argument.  ``cheat_polys`` lets a test substitute the
    dealer's polynomials (e.g. degree > t) to exercise Lemma 5's
    soundness bound.
    """
    ctx = as_context(field, n, t, seed=seed)
    field, n, t, rng = ctx.field, ctx.n, ctx.t, ctx.rng
    total = M + (1 if blinding else 0)
    polys = cheat_polys
    if polys is None:
        polys = [Polynomial.random(field, t, rng) for _ in range(total)]
    _, coin_shares = make_dealer_coin(field, n, t, "bitgen-challenge", rng)

    return ctx.run(
        lambda pid: bit_gen_program(
            field, n, t, pid, dealer, M, coin_shares[pid],
            dealer_polys=polys if pid == dealer else None,
            blinding=blinding,
        ),
        faulty=faulty_programs, allow_broadcast=False,
        span="bit_gen", n=n, t=t, M=M, dealer=dealer,
    )
