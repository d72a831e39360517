"""From-scratch shared coin generation — the baseline Coin-Gen beats.

Section 4: "A straightforward way to generate a coin would be to
interpolate a number of polynomials which at least equals the number of
the faults to be tolerated.  Coins generated this way, however, would
still be highly expensive.  In this section we show how to achieve this
with just one polynomial interpolation."

The baseline here is deliberately *optimistic* for the competition: t+1
dealers each Shamir-share a fresh random secret; at expose time every
player announces its share of each dealing, each dealing is
Berlekamp-Welch-decoded separately (t+1 interpolations per player per
coin), and the coin is the sum of the t+1 secrets.  We charge nothing for
dealing verification, which any real from-scratch protocol (e.g.
Feldman-Micali [14]: O(n^4 log^2 n) computation, O(n^5) messages) must
add on top.  Even so, the D-PRBG's single interpolation per coin wins —
that is experiment E10.

Off the coin path (docs/CENSUS.md, class ii); run by claims rows E10 and
E15.
"""

from __future__ import annotations

import random
from typing import Dict, Generator, Optional, Tuple

from repro.fields.base import Element, Field
from repro.net.metrics import NetworkMetrics
from repro.net.simulator import multicast, unicast
from repro.sharing.shamir import ShamirScheme
from repro.poly.berlekamp_welch import DecodingError, berlekamp_welch
from repro.protocols.common import filter_tag, valid_element, valid_element_tuple
from repro.protocols.context import ProtocolContext


def from_scratch_program(
    field: Field,
    n: int,
    t: int,
    me: int,
    rng: Optional[random.Random],
    tag: str = "fs",
) -> Generator:
    """One player's side of one from-scratch coin.

    Players 1..t+1 act as dealers.  Round 1: deal; round 2: everyone
    announces its share vector; each dealing is decoded separately.
    Returns the coin value (sum of the t+1 secrets) or None.
    """
    scheme = ShamirScheme(field, n, t)
    dealers = list(range(1, t + 2))

    # Round 1: dealers deal.
    sends = []
    if me in dealers:
        poly = scheme.share_polynomial(field.random(rng), rng)
        sends = [
            unicast(j, (tag + "/sh", poly(scheme.point(j))))
            for j in range(1, n + 1)
        ]
    inbox = yield sends
    got = filter_tag(inbox, tag + "/sh")
    my_shares = tuple(
        got.get(d) if valid_element(field, got.get(d)) else field.zero
        for d in dealers
    )

    # Round 2: announce the share vector; decode each dealing separately.
    inbox = yield [multicast((tag + "/open", my_shares))]
    announced = {
        src: vec
        for src, vec in filter_tag(inbox, tag + "/open").items()
        if valid_element_tuple(field, vec, len(dealers))
    }
    total = field.zero
    for index, dealer in enumerate(dealers):
        pts = [
            (scheme.point(src), vec[index])
            for src, vec in sorted(announced.items())
        ]
        if len(pts) < 3 * t + 1:
            return None
        try:
            poly, good = berlekamp_welch(field, pts, t, max_errors=t)
        except DecodingError:
            return None
        if len(good) < len(pts) - t:
            return None
        total = field.add(total, poly(field.zero))
    return total


def run_from_scratch_coin(
    field: Field,
    n: int,
    t: int,
    seed: int = 0,
    faulty_programs: Optional[Dict[int, Generator]] = None,
) -> Tuple[Dict[int, Optional[Element]], NetworkMetrics]:
    """Generate and immediately expose one from-scratch coin."""
    return ProtocolContext(field, n, t).run(
        lambda pid: from_scratch_program(
            field, n, t, pid, random.Random(seed * 65_537 + pid)
        ),
        faulty=faulty_programs, allow_broadcast=False,
    )
