"""The six workloads: each builds a session that delivers shared coins.

A session is driven closed loop by one consumer (:mod:`bench.measure`):
``toss()`` is exactly one call into the public API and is the only thing
the harness times; ``settle()`` runs after the clock stops and holds the
harness's own bookkeeping and oracle work.  Blocks end on regeneration
boundaries (``cycle_done()``: the pool ran dry), so every block pays for
a whole number of stretches and block rates are comparable.

Importing this module imports ``repro`` — ``bench/run.py`` does so only
after its set-up clock has started.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core import BootstrapCoinSource
from repro.fields import GF2k
from repro.net.adversary import MobileAdversary
from repro.net.metrics import NetworkMetrics
from repro.obs import FlightRecorder, HealthMonitor, SpanRecorder
from repro.poly.lagrange import interpolate_at
from repro.protocols.async_coin import run_async_coin
from repro.protocols.context import ProtocolContext


class OracleError(Exception):
    """A delivered coin contradicts the harness's independent check."""


@dataclass(frozen=True)
class Spec:
    name: str
    k: int
    n: int
    t: int
    #: coins per D-PRBG stretch beyond the reserved seed; 0 = no generator
    batch_size: int
    #: regeneration cycles per block (async: calls per block), sized so a
    #: block is 120-200 ms on the reference box
    block_cycles: int
    byzantine: bool = False
    lit: bool = False

    @property
    def is_async(self) -> bool:
        return self.batch_size == 0


# Why each is here is in BENCHMARK.json (one line) and README.md (in full).
SPECS = {
    spec.name: spec
    for spec in (
        # generation-bound: Coin-Gen's per-stretch fixed cost dominates
        Spec("beacon_small_batch", k=32, n=7, t=1, batch_size=4, block_cycles=8),
        # exposure-bound: the same layers used the other way round
        Spec("beacon_large_batch", k=32, n=7, t=1, batch_size=256, block_cycles=1),
        # width: n^2 deliveries per round, vectors wide enough for numpy
        Spec("beacon_wide", k=32, n=13, t=2, batch_size=64, block_cycles=1),
        # faults injected, table field, sender set moves every epoch
        Spec("beacon_byzantine", k=16, n=13, t=2, batch_size=64, block_cycles=2,
             byzantine=True),
        # the other runtime: no Coin-Gen at all, t crashes, quorum guards
        Spec("async_expose", k=32, n=10, t=3, batch_size=0, block_cycles=64),
        # obs does the most work it ever does; all others run dark
        Spec("beacon_observed", k=32, n=7, t=1, batch_size=32, block_cycles=3,
             lit=True),
    )
}


class BeaconSession:
    """A consumer draining one :class:`BootstrapCoinSource`."""

    def __init__(self, spec: Spec, seed: int, lit: Optional[bool] = None):
        self.spec = spec
        self.field = GF2k(spec.k)
        lit = spec.lit if lit is None else lit
        kwargs = {}
        if spec.byzantine:
            mobile = MobileAdversary(spec.n, spec.t, "noise", seed)
            kwargs["adversary_schedule"] = lambda epoch: mobile.next_epoch()
        self.spans = self.flight = None
        if lit:
            self.spans = SpanRecorder()
            context = ProtocolContext.create(
                self.field, spec.n, spec.t, seed=seed, recorder=self.spans
            )
            bus = context.ensure_bus()
            self.flight = FlightRecorder(
                n=spec.n, t=spec.t, field=self.field, seed=seed
            ).attach(bus)
            self.source = BootstrapCoinSource(
                context=context, batch_size=spec.batch_size, **kwargs
            )
            HealthMonitor(source=self.source).attach(bus)
        else:
            self.source = BootstrapCoinSource(
                self.field, spec.n, spec.t, batch_size=spec.batch_size,
                seed=seed, **kwargs
            )
        self.toss = self.source.toss_element
        self.metrics = self.source.system.total_metrics

    @property
    def epoch(self) -> int:
        return self.source.epoch

    @property
    def deliveries(self) -> int:
        # lockstep delivers every message that was sent
        return self.metrics.unicast_messages

    def cycle_done(self) -> bool:
        return self.source.sealed_coins_available == 0

    def settle(self, value) -> None:
        pass

    def expected_next(self):
        """The next pooled coin's value, rebuilt without Coin-Expose.

        Classic Lagrange through t+1 of the shares the qualified senders
        hold — a path that shares no code with the exposure being timed.
        """
        if not self.source.pool:
            return None
        coin = self.source.pool[0]
        points = [
            (self.field.element_point(pid), share.my_value)
            for pid, share in sorted(coin.shares.items())
            if pid in coin.senders and share.my_value is not None
        ][: coin.t + 1]
        return interpolate_at(self.field, points, self.field.zero)

    def stretch_totals(self):
        """(stretches, leader-election iterations, seed coins consumed)."""
        history = self.source.batch_history
        return (
            len(history),
            sum(result.iterations for result in history),
            sum(result.seed_consumed for result in history),
        )

    @property
    def coin_gen_size(self) -> int:
        """Coins one stretch generates: the batch plus the next seed."""
        return self.spec.batch_size + self.source.dprbg.seed_requirement


class AsyncSession:
    """A consumer calling :func:`run_async_coin` once per coin."""

    def __init__(self, spec: Spec, seed: int):
        self.spec = spec
        self.seed = seed
        self.field = GF2k(spec.k)
        self.metrics = NetworkMetrics(element_bits=self.field.bit_length)
        self.calls = 0
        self.deliveries = 0
        self.epoch = 0  # no generator: nothing ever regenerates
        self._last = None

    def toss(self):
        spec, call = self.spec, self.calls
        crashed = [(call + j) % spec.n + 1 for j in range(spec.t)]
        outputs, secret, runtime = run_async_coin(
            self.field, spec.n, spec.t,
            seed=self.seed * 1_000_003 + call, crashed=crashed,
        )
        self._last = (outputs, secret, runtime, crashed)
        return secret

    def cycle_done(self) -> bool:
        return True

    def settle(self, value) -> None:
        outputs, secret, runtime, crashed = self._last
        self.calls += 1
        self.deliveries += runtime.delivery_count
        self.metrics.merged_from(runtime.metrics)
        live = [pid for pid in range(1, self.spec.n + 1) if pid not in crashed]
        wrong = [pid for pid in live if outputs.get(pid) != secret]
        if wrong:
            raise OracleError(
                f"call {self.calls - 1}: players {wrong} did not output "
                "the dealt secret"
            )

    def expected_next(self):
        return None

    def stretch_totals(self):
        return (0, 0, 0)

    coin_gen_size = 0


def make_session(name: str, seed: int, lit: Optional[bool] = None):
    """A fresh session; ``lit=False`` builds a lit workload's dark twin."""
    spec = SPECS[name]
    if spec.is_async:
        return AsyncSession(spec, seed)
    return BeaconSession(spec, seed, lit)
