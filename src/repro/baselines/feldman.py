"""Feldman VSS [12] — the discrete-log baseline.

Section 3.1: "Feldman's protocol depends on the unproven assumption of
the hardness of the discrete log problem.  After defining the polynomial
(a la Shamir) and computing all the private shares f(i) of the players,
the dealer generates public information which aids in the verification.
A consequence of this is that both the dealer and the players have to
carry out t exponentiations (i.e., t log p multiplications)."

Here: the dealer works over Z_q (q | p-1) and publishes commitments
``c_j = g^{a_j} mod p`` to each coefficient of the sharing polynomial;
player ``i`` accepts iff ``g^{share_i} = prod_j c_j^{i^j} (mod p)``.
Exponentiations are performed by explicit square-and-multiply through the
field object so that the multiplication counts the paper compares against
are metered, not estimated.

The protocol is non-interactive (no challenge coin) and its soundness is
*computational* rather than the paper's unconditional 1/p.

Off the coin path (docs/CENSUS.md, class ii); run by claims row E5.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from repro.fields.gfp import GFp
from repro.fields.irreducible import is_prime
from repro.net.metrics import NetworkMetrics
from repro.net.simulator import broadcast
from repro.protocols.common import filter_tag
from repro.protocols.context import ProtocolContext


@dataclass(frozen=True)
class FeldmanResult:
    accepted: bool


@dataclass(frozen=True)
class FeldmanGroup:
    """A Schnorr group: p prime, q prime dividing p-1, g of order q."""

    p: int
    q: int
    g: int

    @classmethod
    def generate(cls, q_bits: int = 32, seed: int = 0) -> "FeldmanGroup":
        """A (toy-sized) group: find q prime, p = m*q + 1 prime, g order q."""
        rng = random.Random(seed)
        while True:
            q = rng.getrandbits(q_bits) | (1 << (q_bits - 1)) | 1
            if not is_prime(q):
                continue
            for m in range(2, 2000, 2):
                p = m * q + 1
                if is_prime(p):
                    break
            else:
                continue
            for h in range(2, 100):
                g = pow(h, (p - 1) // q, p)
                if g != 1:
                    return cls(p, q, g)


def _metered_pow(group_field: GFp, base: int, exponent: int) -> int:
    """Square-and-multiply through the field so multiplications are counted."""
    result = group_field.one
    b = base % group_field.p
    e = exponent
    while e:
        if e & 1:
            result = group_field.mul(result, b)
        b = group_field.mul(b, b)
        e >>= 1
    return result


def feldman_program(
    group: FeldmanGroup,
    group_field: GFp,
    n: int,
    t: int,
    me: int,
    dealer: int,
    share: Optional[int],
    coefficients=None,
    tag: str = "feldman",
) -> Generator:
    """One player's side of Feldman VSS.

    The dealer passes its polynomial ``coefficients`` (over Z_q); each
    player holds its ``share`` = f(me) mod q.
    """
    # Round 1: dealer broadcasts the coefficient commitments.
    sends = []
    if me == dealer:
        if coefficients is None or len(coefficients) != t + 1:
            raise ValueError("dealer must supply t+1 coefficients")
        commitments = tuple(
            _metered_pow(group_field, group.g, a) for a in coefficients
        )
        sends = [broadcast((tag + "/commit", commitments))]
    inbox = yield sends
    commitments = filter_tag(inbox, tag + "/commit").get(dealer)
    if (
        not isinstance(commitments, tuple)
        or len(commitments) != t + 1
        or not all(isinstance(c, int) and 0 < c < group.p for c in commitments)
    ):
        return FeldmanResult(False)
    if share is None:
        return FeldmanResult(False)

    # Verification: g^share == prod_j c_j^(i^j) mod p.
    lhs = _metered_pow(group_field, group.g, share)
    rhs = group_field.one
    exponent = 1
    for c in commitments:
        rhs = group_field.mul(rhs, _metered_pow(group_field, c, exponent))
        exponent = exponent * me % group.q
    return FeldmanResult(lhs == rhs)


def run_feldman_vss(
    n: int,
    t: int,
    q_bits: int = 32,
    seed: int = 0,
    cheat_shares: Optional[Dict[int, int]] = None,
) -> Tuple[Dict[int, FeldmanResult], NetworkMetrics]:
    """Run Feldman VSS end to end over a fresh Schnorr group."""
    rng = random.Random(seed)
    group = FeldmanGroup.generate(q_bits, seed)
    group_field = GFp(group.p)
    coefficients = [rng.randrange(group.q) for _ in range(t + 1)]
    shares = {
        pid: sum(a * pow(pid, j, group.q) for j, a in enumerate(coefficients))
        % group.q
        for pid in range(1, n + 1)
    }
    if cheat_shares:
        shares.update(cheat_shares)

    return ProtocolContext(group_field, n, t).run(
        lambda pid: feldman_program(
            group, group_field, n, t, pid, 1, shares[pid],
            coefficients=coefficients if pid == 1 else None,
        )
    )
