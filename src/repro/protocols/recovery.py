"""Share recovery: re-provision a player that lost its coin shares.

In the proactive setting (Section 1.2), a player that was corrupted
during a batch holds no shares of that batch's coins once the intruder
moves on.  Refresh (``repro.protocols.refresh``) makes *old* shares
useless; this protocol gives the recovered player *new* ones — without
revealing the coin to anyone, including the helpers.

Construction (standard proactive-recovery idea, built from the same
verified-dealing machinery as Coin-Gen):

1. every player deals, per coin ``h``, a degree-t polynomial ``z_h``
   vanishing at the recovering player's point ``x_0`` (plus a blinder),
   verified and reconciled via :func:`dealing_agreement_program` with
   ``vanish_at=x_0``;
2. every self-verified helper ``j`` sends the recovering player the
   masked value ``m_j = share_j + sum_{k in C_l} z_{k,h}(j)``;
3. the masked values lie on ``f_h + Z_h`` — a *fresh uniformly random*
   degree-t polynomial conditioned only on agreeing with ``f_h`` at
   ``x_0`` — so the recovering player Berlekamp-Welch-decodes it and
   evaluates at ``x_0`` to get exactly its lost share ``f_h(x_0)``,
   while learning nothing about ``f_h(0)``.

Like refresh, recovery targets coins whose sender set is all n players.

Off the coin path (docs/CENSUS.md, class ii); run by claims row E16 and
`examples/proactive_maintenance.py`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.fields.base import Element, Field
from repro.net.metrics import NetworkMetrics
from repro.net.simulator import unicast
from repro.poly.berlekamp_welch import DecodingError, berlekamp_welch
from repro.protocols.coin_expose import CoinShare
from repro.protocols.coin_gen import DealingAgreement, dealing_agreement_program
from repro.protocols.common import filter_tag, valid_element_tuple
from repro.sharing.shamir import ShamirScheme
from repro.protocols.context import as_context


@dataclass
class RecoveryOutput:
    """A player's local outcome of one recovery run."""

    success: bool
    #: at the recovering player: its recovered coin shares; elsewhere: the
    #: unchanged input shares
    coins: List[CoinShare] = dataclass_field(default_factory=list)
    clique: Tuple[int, ...] = ()
    iterations: int = 0
    seed_coins_used: int = 0


def recovery_program(
    field: Field,
    n: int,
    t: int,
    me: int,
    recovering: int,
    coins: Sequence[CoinShare],
    seed_coins: Sequence[CoinShare],
    rng: random.Random,
    tag: str = "recover",
    blinding: bool = True,
) -> Generator:
    """One player's side of the share-recovery protocol.

    ``recovering`` is the player being re-provisioned (a protocol
    parameter all players agree on); ``coins`` are this player's shares
    of the affected coins (the recovering player passes its — possibly
    value-less — CoinShare handles so it knows ids and metadata).
    """
    everyone = frozenset(range(1, n + 1))
    for coin in coins:
        if coin.senders != everyone:
            raise ValueError(
                f"recovery requires full-holder coins; {coin.coin_id} is "
                f"held by {sorted(coin.senders)}"
            )
    scheme = ShamirScheme(field, n, t)
    x0 = scheme.point(recovering)
    H = len(coins)
    total = H + (1 if blinding else 0)

    agreement: DealingAgreement = yield from dealing_agreement_program(
        field, n, t, me, total, seed_coins, rng, tag,
        vanish_at=x0,
    )
    if not agreement.success:
        return RecoveryOutput(
            False,
            iterations=agreement.iterations,
            seed_coins_used=agreement.seed_coins_used,
        )

    # ---- masked-share round: helpers -> recovering player (private).
    sends = []
    if (
        me != recovering
        and agreement.self_ok
        and all(coin.my_value is not None for coin in coins)
    ):
        masked = []
        for h, coin in enumerate(coins):
            value = coin.my_value
            for k in agreement.clique:
                value = field.add(value, agreement.shares_from[k][h])
            masked.append(value)
        sends = [unicast(recovering, (tag + "/mask", tuple(masked)))]
    inbox = yield sends

    if me != recovering:
        return RecoveryOutput(
            True,
            coins=list(coins),
            clique=agreement.clique,
            iterations=agreement.iterations,
            seed_coins_used=agreement.seed_coins_used,
        )

    # ---- recovering player: decode each masked polynomial at x0.
    received = {
        src: body
        for src, body in filter_tag(inbox, tag + "/mask").items()
        if valid_element_tuple(field, body, H)
    }
    recovered: List[CoinShare] = []
    ok = True
    for h, coin in enumerate(coins):
        pts = [
            (scheme.point(src), vec[h]) for src, vec in sorted(received.items())
        ]
        value = _decode_at(field, pts, t, x0)
        if value is None:
            ok = False
            recovered.append(coin)
        else:
            recovered.append(
                CoinShare(coin.coin_id, coin.senders, coin.t, value)
            )
    return RecoveryOutput(
        ok,
        coins=recovered,
        clique=agreement.clique,
        iterations=agreement.iterations,
        seed_coins_used=agreement.seed_coins_used,
    )


def _decode_at(field: Field, points, t: int, x0) -> Optional[Element]:
    """Robust decode with the Coin-Expose acceptance rule, evaluated at x0."""
    n_valid = len(points)
    threshold = max(2 * t + 1, n_valid - t) if t > 0 else n_valid
    if n_valid == 0 or n_valid < threshold:
        return None
    try:
        poly, good = berlekamp_welch(field, points, t, n_valid - threshold)
    except DecodingError:
        return None
    if len(good) < threshold:
        return None
    return poly(x0)


def run_recovery(
    field,
    n: Optional[int] = None,
    t: Optional[int] = None,
    recovering: int = 1,
    coin_table: Optional[Dict[int, List[CoinShare]]] = None,
    seed: int = 0,
    max_iterations: Optional[int] = None,
    faulty_programs: Optional[Dict[int, Generator]] = None,
    tag: str = "recover",
) -> Tuple[Dict[int, RecoveryOutput], NetworkMetrics]:
    """Run one recovery for ``recovering`` over ``coin_table``.

    Accepts ``(field, n, t, ...)`` or a ready
    :class:`~repro.protocols.context.ProtocolContext` as first argument.
    """
    from repro.protocols.coin_gen import make_seed_coins

    if coin_table is None:
        raise TypeError("run_recovery requires a coin_table")
    ctx = as_context(field, n, t, seed=seed)
    field, n, t, rng = ctx.field, ctx.n, ctx.t, ctx.rng
    if max_iterations is None:
        max_iterations = 2 * t + 4
    seed_coins = make_seed_coins(
        field, n, t, 1 + max_iterations, rng, prefix=f"{tag}-seed"
    )

    return ctx.run(
        lambda pid: recovery_program(
            field, n, t, pid, recovering, coin_table[pid], seed_coins[pid],
            ctx.player_rng(pid), tag=tag,
        ),
        faulty=faulty_programs, allow_broadcast=False,
    )
