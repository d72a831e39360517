"""Coin-Gen finalization and whole-protocol runners (Fig. 5 step 12).

On success the h-th coin is the sealed value ``sum_{k in C_l} f_{k,h}(0)``
(at least one clique dealer is honest, so the sum is uniform and secret);
a player's coin share is the corresponding sum of its raw shares (all M
formed by one :meth:`Field.sum_columns` over the clique's tuples), which it
will only send at expose time if its own shares passed the consistency
check against the agreed polynomials (self-verification — see DESIGN.md
Section 5 for why this, plus Coin-Expose's robust acceptance rule, yields
unanimity without a common 3t+1 sender set).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from typing import (
    Callable, Dict, Generator, List, Optional, Sequence, Tuple,
)

from repro.fields.base import Element, Field
from repro.net.metrics import NetworkMetrics
from repro.poly.polynomial import Polynomial
from repro.protocols.coin_expose import (
    CoinShare,
    coin_expose,
    make_dealer_coin,
)
from repro.protocols.coin_gen.agreement import dealing_agreement_program
from repro.protocols.context import ProtocolContext, as_context


@dataclass
class CoinGenOutput:
    """A player's local outcome of one Coin-Gen run."""

    success: bool
    #: the commonly agreed clique C_l (empty tuple on failure)
    clique: Tuple[int, ...] = ()
    #: this player's shares of the M generated sealed coins
    coins: List[CoinShare] = dataclass_field(default_factory=list)
    #: number of leader-election/BA iterations executed (Lemma 8)
    iterations: int = 0
    #: seed coins consumed (challenges + leader elections)
    seed_coins_used: int = 0
    #: the exposed batching challenge(s)
    challenge: Optional[Element] = None
    #: whether this player's own shares verified (it will send at expose)
    self_ok: bool = False
    #: the agreed (public) batched polynomials per clique dealer — common
    #: knowledge after the grade-cast; retained for analysis and tests
    public_polys: Dict[int, "Polynomial"] = dataclass_field(default_factory=dict)


def coin_gen_program(
    field: Field,
    n: int,
    t: int,
    me: int,
    M: int,
    seed_coins: Sequence[CoinShare],
    rng: random.Random,
    tag: str = "cg",
    blinding: bool = True,
    shared_challenge: bool = True,
) -> Generator:
    """One player's side of Protocol Coin-Gen.

    ``seed_coins`` supplies the secret k-ary coins the protocol consumes:
    the first 1 (or n when ``shared_challenge=False``) as batching
    challenges, the rest one per leader-election iteration.  ``tag`` must
    be unique per run — it namespaces the generated coins' identifiers.
    """
    total = M + (1 if blinding else 0)
    agreement = yield from dealing_agreement_program(
        field, n, t, me, total, seed_coins, rng, tag,
        shared_challenge=shared_challenge,
    )
    if not agreement.success:
        return CoinGenOutput(
            False,
            iterations=agreement.iterations,
            seed_coins_used=agreement.seed_coins_used,
        )

    # ---- Step 12: each player's share of coin h is the sum of its raw
    # shares from the clique dealers (sealed value sum_{k in C_l} f_{k,h}(0)).
    members = frozenset(agreement.clique)
    sigmas: Sequence[Optional[Element]] = [None] * M
    if agreement.self_ok:
        sigmas = field.sum_columns(
            [agreement.shares_from[k][:M] for k in agreement.clique]
        )
    coins = [
        CoinShare(f"{tag}/c{h}", members, t, sigma)
        for h, sigma in enumerate(sigmas)
    ]
    return CoinGenOutput(
        True,
        clique=agreement.clique,
        coins=coins,
        iterations=agreement.iterations,
        seed_coins_used=agreement.seed_coins_used,
        challenge=agreement.challenge,
        self_ok=agreement.self_ok,
        public_polys=agreement.polys,
    )


# ---------------------------------------------------------------------------
# whole-protocol runners
# ---------------------------------------------------------------------------

def make_seed_coins(
    field: Field, n: int, t: int, count: int, rng, prefix: str = "seed"
) -> Dict[int, List[CoinShare]]:
    """Trusted-dealer seed coins for bootstrapping: {player: [CoinShare]}.

    "The initial set of coins can be obtained from a trusted third party,
    as in the case of Rabin [17]" (Section 1.2).
    """
    per_player: Dict[int, List[CoinShare]] = {
        pid: [] for pid in range(1, n + 1)
    }
    for index in range(count):
        _, shares = make_dealer_coin(field, n, t, f"{prefix}{index}", rng)
        for pid, share in shares.items():
            per_player[pid].append(share)
    return per_player


def run_coin_gen_players(
    ctx: ProtocolContext,
    M: int,
    seed_shares: Callable[[int], Sequence[CoinShare]],
    player_rng: Callable[[int], random.Random],
    tag: str,
    blinding: bool = True,
    shared_challenge: bool = True,
    faulty: Optional[Dict[int, object]] = None,
    rushing=(),
) -> Tuple[Dict[int, CoinGenOutput], NetworkMetrics]:
    """One Coin-Gen execution under ``ctx``, whoever supplies the seed.

    ``seed_shares(pid)`` and ``player_rng(pid)`` give an honest player
    its seed-coin shares and generator, asked in pid order (see
    :func:`~repro.protocols.context.run_players`, also for ``faulty``).
    The ``coin_gen`` protocol span carries the iteration count and
    verdict of the first honest output.
    """
    faulty = faulty or {}
    with ctx.recorder.span("coin_gen", "protocol",
                           n=ctx.n, t=ctx.t, M=M) as span:
        outputs, metrics = ctx.run(
            lambda pid: coin_gen_program(
                ctx.field, ctx.n, ctx.t, pid, M,
                seed_shares(pid), player_rng(pid),
                tag=tag, blinding=blinding,
                shared_challenge=shared_challenge,
            ),
            faulty=faulty, allow_broadcast=False, rushing=rushing,
        )
        if ctx.recorder.enabled:
            sample = next(
                (outputs[pid] for pid in sorted(outputs)
                 if pid not in faulty and outputs[pid]), None
            )
            span.set(
                iterations=sample.iterations if sample else 0,
                success=bool(sample and sample.success),
            )
    return outputs, metrics


def run_coin_gen(
    field,
    n: Optional[int] = None,
    t: Optional[int] = None,
    M: int = 1,
    seed: int = 0,
    max_iterations: Optional[int] = None,
    blinding: bool = True,
    shared_challenge: bool = True,
    faulty_programs: Optional[Dict[int, Generator]] = None,
    tag: str = "cg",
) -> Tuple[Dict[int, CoinGenOutput], NetworkMetrics]:
    """Run Coin-Gen end to end with fresh trusted-dealer seed coins.

    Accepts ``(field, n, t, ...)`` or a ready :class:`ProtocolContext`
    as first argument, whose scheduler, fault plane, and recorder are
    wired through.  Returns per-player outputs and network metrics.
    Faulty players are supplied as complete replacement programs, as
    None for crashed-from-the-start, or as a *factory* wrapping the
    player's honest program (see
    :func:`~repro.protocols.context.run_players`).
    """
    ctx = as_context(field, n, t, seed=seed)
    if max_iterations is None:
        max_iterations = 2 * ctx.t + 4
    num_challenges = 1 if shared_challenge else ctx.n
    seed_coins = make_seed_coins(
        ctx.field, ctx.n, ctx.t, num_challenges + max_iterations, ctx.rng,
        prefix=f"{tag}-seed",
    )
    return run_coin_gen_players(
        ctx, M, seed_coins.__getitem__, ctx.player_rng, tag,
        blinding=blinding, shared_challenge=shared_challenge,
        faulty=faulty_programs,
    )


def expose_coin(
    field,
    n: Optional[int] = None,
    outputs: Optional[Dict[int, CoinGenOutput]] = None,
    h: int = 0,
    t: Optional[int] = None,
    faulty_programs: Optional[Dict[int, Generator]] = None,
) -> Tuple[Dict[int, Optional[Element]], NetworkMetrics]:
    """Run Coin-Expose (Fig. 6) for the h-th coin of a Coin-Gen result.

    Players whose Coin-Gen failed hold no share and take no part.
    """
    ctx = as_context(field, n, t)
    if outputs is None:
        raise TypeError("expose_coin requires the Coin-Gen outputs")
    faulty_programs = faulty_programs or {}

    def share_of(pid: int) -> Optional[CoinShare]:
        out = outputs.get(pid)  # a faulty player's output may be anything
        return out.coins[h] if out is not None and out.success else None

    # how many honest programs will actually send (self-selected senders)
    honest_shares = (
        (pid, share_of(pid)) for pid in range(1, ctx.n + 1)
        if pid not in faulty_programs
    )
    senders_total = sum(
        1 for pid, share in honest_shares
        if share is not None
        and pid in share.senders and share.my_value is not None
    )

    def make_program(pid: int):
        share = share_of(pid)
        return None if share is None else coin_expose(ctx.field, pid, share)

    return ctx.run(
        make_program, faulty=faulty_programs, allow_broadcast=False,
        span="expose", n=ctx.n, coins=1, senders_total=senders_total,
    )
