"""Coin-Gen finalization and whole-protocol runners (Fig. 5 step 12).

On success the h-th coin is the sealed value ``sum_{k in C_l} f_{k,h}(0)``
(at least one clique dealer is honest, so the sum is uniform and secret);
a player's coin share is the corresponding sum of its raw shares, which it
will only send at expose time if its own shares passed the consistency
check against the agreed polynomials (self-verification — see DESIGN.md
Section 5 for why this, plus Coin-Expose's robust acceptance rule, yields
unanimity without a common 3t+1 sender set).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

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
    coins: List[CoinShare] = []
    members = frozenset(agreement.clique)
    for h in range(M):
        sigma: Optional[Element] = None
        if agreement.self_ok:
            sigma = field.zero
            for k in agreement.clique:
                sigma = field.add(sigma, agreement.shares_from[k][h])
        coins.append(CoinShare(f"{tag}/c{h}", members, t, sigma))
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
    context: Optional[ProtocolContext] = None,
) -> Tuple[Dict[int, CoinGenOutput], NetworkMetrics]:
    """Run Coin-Gen end to end with fresh trusted-dealer seed coins.

    Accepts either the legacy ``(field, n, t, ...)`` convention or a
    ready :class:`ProtocolContext` (as ``field`` or via ``context=``),
    whose scheduler, fault plane, and recorder are wired through.  Returns
    per-player outputs and network metrics.  Faulty players are supplied
    as complete replacement programs, as None for crashed-from-the-start,
    or as a *factory* — a callable receiving the player's honest program
    and returning the program to run instead.  The factory form is how
    wrapping adversaries (equivocators, crash-at-round-r) get the
    player's dealt seed-coin shares without re-deriving them.
    """
    ctx = context if context is not None else as_context(field, n, t, seed=seed)
    if max_iterations is None:
        max_iterations = 2 * ctx.t + 4
    num_challenges = 1 if shared_challenge else ctx.n
    seed_coins = make_seed_coins(
        ctx.field, ctx.n, ctx.t, num_challenges + max_iterations, ctx.rng,
        prefix=f"{tag}-seed",
    )

    network = ctx.network(allow_broadcast=False)
    programs = {}
    faulty_programs = faulty_programs or {}
    for pid in range(1, ctx.n + 1):
        honest_program = None
        if pid not in faulty_programs or callable(faulty_programs.get(pid)):
            honest_program = coin_gen_program(
                ctx.field,
                ctx.n,
                ctx.t,
                pid,
                M,
                seed_coins[pid],
                ctx.player_rng(pid),
                tag=tag,
                blinding=blinding,
                shared_challenge=shared_challenge,
            )
        if pid in faulty_programs:
            supplied = faulty_programs[pid]
            if supplied is None:
                continue
            # factory form: wrap the player's honest program
            programs[pid] = (
                supplied(honest_program) if callable(supplied) else supplied
            )
            continue
        programs[pid] = honest_program
    honest = [pid for pid in programs if pid not in faulty_programs]
    with ctx.recorder.span("coin_gen", "protocol",
                           n=ctx.n, t=ctx.t, M=M) as span:
        outputs = network.run(programs, wait_for=honest)
        if ctx.recorder.enabled:
            sample = next(
                (outputs[pid] for pid in honest if outputs.get(pid)), None
            )
            span.set(
                iterations=sample.iterations if sample else 0,
                success=bool(sample and sample.success),
            )
    ctx.absorb(network.metrics)
    return outputs, network.metrics


def expose_coin(
    field,
    n: Optional[int] = None,
    outputs: Optional[Dict[int, CoinGenOutput]] = None,
    h: int = 0,
    t: Optional[int] = None,
    faulty_programs: Optional[Dict[int, Generator]] = None,
    context: Optional[ProtocolContext] = None,
) -> Tuple[Dict[int, Optional[Element]], NetworkMetrics]:
    """Run Coin-Expose (Fig. 6) for the h-th coin of a Coin-Gen result."""
    ctx = context if context is not None else as_context(field, n, t)
    if outputs is None:
        raise TypeError("expose_coin requires the Coin-Gen outputs")
    network = ctx.network(allow_broadcast=False)
    programs = {}
    faulty_programs = faulty_programs or {}
    for pid in range(1, ctx.n + 1):
        if pid in faulty_programs:
            supplied = faulty_programs[pid]
            if supplied is None:
                continue
            if callable(supplied):
                if pid not in outputs or not outputs[pid].success:
                    continue
                supplied = supplied(
                    coin_expose(ctx.field, pid, outputs[pid].coins[h])
                )
            programs[pid] = supplied
            continue
        if pid not in outputs or not outputs[pid].success:
            continue
        programs[pid] = coin_expose(ctx.field, pid, outputs[pid].coins[h])
    honest = [pid for pid in programs if pid not in faulty_programs]
    # how many honest programs will actually send (self-selected senders)
    senders_total = sum(
        1 for pid in honest
        if pid in outputs and outputs[pid].success
        and pid in outputs[pid].coins[h].senders
        and outputs[pid].coins[h].my_value is not None
    )
    with ctx.recorder.span("expose", "protocol", n=ctx.n, coins=1,
                           senders_total=senders_total):
        results = network.run(programs, wait_for=honest)
    ctx.absorb(network.metrics)
    return results, network.metrics
