"""Proactive share refresh (Herzberg-Jarecki-Krawczyk-Yung [16] style).

The paper motivates its design with proactive security: "intruders are
allowed to move over time" (Section 1.2).  A mobile adversary that
corrupts player A in epoch 1 and player B in epoch 2 eventually collects
``> t`` shares of a long-lived sealed coin — unless the shares are
*refreshed* between epochs so that old shares become useless.

Refresh = every player deals a batch of degree-t polynomials with a
**zero** constant term (one per coin being refreshed, plus a blinder);
the dealings are verified and reconciled with exactly the Coin-Gen
machinery (batch check under an exposed challenge, consistency graph,
Gavril clique, grade-cast, leader election, BA) with one extra predicate:
the batched polynomial must vanish at the origin, so the refresh cannot
alter the coins' values.  Each holder then adds the agreed clique's
zero-shares to its coin share:

    new_share_i = old_share_i + sum_{k in C_l} z_{k,h}(i)

The coin's polynomial becomes ``f + sum z`` — same secret, freshly
random — and shares recorded before the refresh no longer combine with
shares recorded after it.

Scope: refresh targets coins whose qualified sender set is *all players*
(trusted-dealer seeds, or coins re-shared to everyone); for a generated
coin held by a 4t+1 clique, the intersection of old holders with a fresh
clique can drop below the 2t+1 good senders reconstruction needs, so the
protocol refuses such inputs rather than silently weakening them.

Off the coin path (docs/CENSUS.md, class ii); run by claims row E16 and
`examples/proactive_maintenance.py`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.fields.base import Element, Field
from repro.net.metrics import NetworkMetrics
from repro.protocols.coin_expose import CoinShare
from repro.protocols.coin_gen import DealingAgreement, dealing_agreement_program
from repro.protocols.context import as_context


@dataclass
class RefreshOutput:
    """A player's local outcome of one refresh run."""

    success: bool
    #: the refreshed shares, same coin ids, re-randomized values
    coins: List[CoinShare] = dataclass_field(default_factory=list)
    #: the commonly agreed refresh clique
    clique: Tuple[int, ...] = ()
    iterations: int = 0
    seed_coins_used: int = 0
    self_ok: bool = False


def refresh_program(
    field: Field,
    n: int,
    t: int,
    me: int,
    coins: Sequence[CoinShare],
    seed_coins: Sequence[CoinShare],
    rng: random.Random,
    tag: str = "refresh",
    blinding: bool = True,
) -> Generator:
    """One player's side of the proactive refresh protocol.

    ``coins`` are this player's shares of the sealed coins to refresh
    (their ``senders`` must be all n players); ``seed_coins`` supply the
    challenge + leader-election randomness exactly as in Coin-Gen.
    """
    everyone = frozenset(range(1, n + 1))
    for coin in coins:
        if coin.senders != everyone:
            raise ValueError(
                f"refresh requires full-holder coins; {coin.coin_id} is "
                f"held by {sorted(coin.senders)}"
            )
    H = len(coins)
    total = H + (1 if blinding else 0)

    agreement: DealingAgreement = yield from dealing_agreement_program(
        field, n, t, me, total, seed_coins, rng, tag,
        vanish_at=field.zero,
    )
    if not agreement.success:
        return RefreshOutput(
            False,
            iterations=agreement.iterations,
            seed_coins_used=agreement.seed_coins_used,
        )

    refreshed: List[CoinShare] = []
    for h, coin in enumerate(coins):
        new_value: Optional[Element] = None
        if agreement.self_ok and coin.my_value is not None:
            new_value = coin.my_value
            for k in agreement.clique:
                new_value = field.add(
                    new_value, agreement.shares_from[k][h]
                )
        refreshed.append(
            CoinShare(
                f"{coin.coin_id}@{tag}",
                coin.senders,
                coin.t,
                new_value,
            )
        )
    return RefreshOutput(
        True,
        coins=refreshed,
        clique=agreement.clique,
        iterations=agreement.iterations,
        seed_coins_used=agreement.seed_coins_used,
        self_ok=agreement.self_ok,
    )


def run_refresh(
    field,
    n: Optional[int] = None,
    t: Optional[int] = None,
    coin_table: Optional[Dict[int, List[CoinShare]]] = None,
    seed: int = 0,
    max_iterations: Optional[int] = None,
    faulty_programs: Optional[Dict[int, Generator]] = None,
    tag: str = "refresh",
) -> Tuple[Dict[int, RefreshOutput], NetworkMetrics]:
    """Run one refresh over ``coin_table`` ({player: its coin shares}).

    Fresh trusted-dealer seed coins drive the challenge/leader draws (in
    a bootstrapped system these come from the previous batch instead).
    Accepts ``(field, n, t, ...)`` or a ready
    :class:`~repro.protocols.context.ProtocolContext` as first argument.
    """
    from repro.protocols.coin_gen import make_seed_coins

    if coin_table is None:
        raise TypeError("run_refresh requires a coin_table")
    ctx = as_context(field, n, t, seed=seed)
    field, n, t, rng = ctx.field, ctx.n, ctx.t, ctx.rng
    if max_iterations is None:
        max_iterations = 2 * t + 4
    seed_coins = make_seed_coins(
        field, n, t, 1 + max_iterations, rng, prefix=f"{tag}-seed"
    )

    return ctx.run(
        lambda pid: refresh_program(
            field, n, t, pid, coin_table[pid], seed_coins[pid],
            ctx.player_rng(pid), tag=tag,
        ),
        faulty=faulty_programs, allow_broadcast=False,
    )
