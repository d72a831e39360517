"""Asynchronous shared-coin exposure: Coin-Expose ported off lockstep.

The paper's Fig. 6 exposure is one *synchronous* round: every qualified
holder multicasts its share, everyone decodes.  Asynchronously there are
no rounds — a player acts when *enough* shares have arrived.  This
module is that port, in the guarded style of :mod:`repro.net.guards`:
wait for an ``n - t`` quorum on the coin's expose tag, decode from the
cumulative inbox, and re-arm one sender higher if the decode doesn't
yet meet the robust acceptance threshold.

Unanimity under arbitrary delivery orders with ≤ t crashed players
follows from the same acceptance rule the synchronous exposure uses
(:func:`~repro.protocols.coin_expose.decode_exposed`): a decoded
polynomial is accepted only when it matches ``max(2t+1, N-t)`` of the
``N`` valid shares in view, and any two qualifying polynomials agree on
t+1 honestly-sent common points — so players decoding from *different*
``n - t``-share prefixes of the delivery order still land on the same
``F(0)``.  This is the approximate-agreement-free core of the async
coin targets in PAPERS.md (*Distributed Randomness from Approximate
Agreement*, *Subcubic Coin Tossing in Asynchrony without PKI*): with a
dealer-seeded sharing, exposure alone needs no extra agreement round.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Generator, Optional, Tuple

from repro.fields.base import Element, Field
from repro.net.async_runtime import AsyncRuntime
from repro.net.faults import FaultPlane
from repro.net.guards import guarded
from repro.net.scheduler import Scheduler
from repro.net.transport import multicast
from repro.protocols.coin_expose import (
    CoinShare,
    decode_exposed,
    expose_tag,
    make_dealer_coin,
    share_points,
)
from repro.protocols.common import filter_tag
from repro.protocols.context import as_context, run_players


def async_coin_program(
    field: Field, n: int, me: int, coin: CoinShare
) -> Generator:
    """One player's async exposure of ``coin``; returns ``F(0)``.

    Multicast my share (if I hold one), then sleep until a
    ``|senders| - t`` quorum of expose messages is in; decode from the
    cumulative inbox and re-arm one sender higher until the robust
    threshold accepts.  Runs unchanged on both runtimes: under lockstep
    the quorum is satisfied at the first round boundary after the
    sends, reproducing the paper's one-round exposure.
    """
    tag = expose_tag(coin.coin_id)
    sends = []
    if me in coin.senders and coin.my_value is not None:
        sends.append(multicast((tag, coin.my_value)))
    quorum = max(len(coin.senders) - coin.t, 2 * coin.t + 1)
    while True:
        inbox = yield guarded(sends, tags=tag, quorum=quorum)
        sends = []
        value = decode_exposed(
            field, *share_points(field, inbox, tag, coin.senders), coin.t
        )
        if value is not None:
            return value
        # not decodable from this prefix of the delivery order (faulty
        # shares in view): wait for one more distinct expose sender
        quorum = len(filter_tag(inbox, tag)) + 1


def run_async_coin(
    ctx_or_field,
    n: Optional[int] = None,
    t: Optional[int] = None,
    seed: int = 0,
    coin_id: str = "async-coin",
    scheduler: Optional[Scheduler] = None,
    faults: Optional[FaultPlane] = None,
    crashed=(),
    rng: Optional[random.Random] = None,
    **context_kwargs,
) -> Tuple[Dict[int, Any], Element, AsyncRuntime]:
    """Deal one trusted-dealer coin and expose it on an :class:`AsyncRuntime`.

    Accepts a :class:`~repro.protocols.context.ProtocolContext` or the
    legacy ``(field, n, t, seed=...)`` form.  ``scheduler`` defaults to
    a :class:`~repro.net.scheduler.RandomOrderScheduler` seeded from the
    context seed — pass your own to sweep delivery orders.  ``crashed``
    players never run (crash-from-start); ``faults`` layers mid-run
    crash/drop/delay rules on top.

    Returns ``(outputs, secret, runtime)``: per-player exposed values
    (unanimously ``secret`` for ≤ t crashes), the dealt secret, and the
    runtime (``runtime.logical_time`` / ``runtime.delivery_count`` are
    the async makespan).
    """
    ctx = as_context(ctx_or_field, n, t, seed=seed, **context_kwargs)
    dealer_rng = rng if rng is not None else ctx.child_rng()
    secret, shares = make_dealer_coin(
        ctx.field, ctx.n, ctx.t, coin_id, dealer_rng
    )
    crashed = set(crashed)
    if crashed:
        # route crash-from-start players through the fault plane instead
        # of silently omitting their programs: delivery order, metrics
        # and outputs are unchanged (a player crashed at time 1 never
        # runs and is never waited for), but the crash is now *visible*
        # — a "crash" fault line lands in flight logs and lets the
        # liveness watchdog classify the stalls it causes
        faults = faults if faults is not None else FaultPlane()
        for pid in crashed:
            faults.crash(pid, 1)
    runtime = ctx.async_runtime(scheduler=scheduler, faults=faults)
    with ctx.recorder.span("async_coin", "protocol", n=ctx.n, t=ctx.t):
        outputs = run_players(
            runtime, ctx.n,
            lambda pid: async_coin_program(ctx.field, ctx.n, pid, shares[pid]),
        )
    ctx.absorb(runtime.metrics)
    return outputs, secret, runtime


def async_coin_bit(value: Element, field: Field) -> int:
    """The ``F(0) mod 2`` bit of an exposed coin value: exactly fair on
    GF(2^k), 1 with probability ``(p - 1) / (2p)`` on an odd order p
    (see :meth:`Field.coin_bit`)."""
    return field.to_int(value) & 1
