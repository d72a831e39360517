"""The timed pass: blocks of tosses, the count window, and the oracle.

A pass warms up for one block, then runs blocks until it has at least
``min_blocks`` of them *and* ``seconds`` have elapsed.  Timing metrics
use every block.  Everything that must repeat exactly for a seed — the
per-coin counts, the coin-stream digest, peak RSS — is taken over the
**count window**: the first ``min_blocks`` blocks, a fixed amount of
work however fast the box is.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from typing import Dict, List, Optional

from repro.core import UnanimityError
from repro.core.dprbg import GenerationError
from repro.fields.base import OpCounter
from repro.poly import shared_cache

from bench.workloads import OracleError

#: blocks in the count window of a full run (and the fewest a run times)
MIN_BLOCKS = 20
SMOKE_BLOCKS = 4


def _deciles(values: List[float]) -> List[float]:
    # inclusive: never extrapolates beyond the blocks actually measured
    return statistics.quantiles(values, n=10, method="inclusive")


def _snapshot(session) -> dict:
    metrics = session.metrics
    stretches, iterations, seed_coins = session.stretch_totals()
    cache = shared_cache(session.field).stats()
    return {
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "messages": metrics.paper_messages,
        "bits": metrics.bits,
        "rounds": metrics.rounds,
        "deliveries": session.deliveries,
        "ops": {
            pid: counter.snapshot()
            for pid, counter in metrics.player_ops.items()
        },
        "stretches": stretches,
        "iterations": iterations,
        "seed_coins": seed_coins,
    }


class Pass:
    """One closed-loop drain of a session, block by block."""

    def __init__(self, session, min_blocks: int, tracer=None):
        self.session = session
        self.spec = session.spec
        self.min_blocks = min_blocks
        self.tracer = tracer
        self.toss = (
            tracer.wrap("toss", session.toss) if tracer else session.toss
        )
        self.latencies: List[float] = []
        self.stalls: List[float] = []
        #: per block: (coins, seconds inside toss calls, median toss
        #: seconds, median regeneration-stall seconds or None)
        self.blocks: List[tuple] = []
        self.attempted = 0
        self.failed = 0
        self.error: Optional[str] = None
        #: the session's very first coin, compared across processes
        self.first_value: Optional[int] = None
        self._values: List[int] = []
        #: filled when the count window closes
        self.window: Optional[dict] = None
        self._start: Optional[dict] = None

    # -- driving ------------------------------------------------------------
    def warm_up(self) -> None:
        """One unrecorded block, so caches and lazy set-up are paid for."""
        self.run_block()
        for record in (self.latencies, self.stalls, self.blocks, self._values):
            record.clear()
        if self.tracer:
            self.tracer.reset()
        self._start = _snapshot(self.session)

    def run_block(self) -> bool:
        """Run one block; False once a toss has failed (the pass is over)."""
        if self.error is not None:
            return False
        session, toss, clock = self.session, self.toss, time.perf_counter
        latencies, stalls, values = self.latencies, self.stalls, self._values
        to_int = session.field.to_int
        coins, wall, expected = 0, 0.0, None
        first_toss, first_stall = len(latencies), len(stalls)
        try:
            for _ in range(self.spec.block_cycles):
                while True:
                    epoch = session.epoch
                    self.attempted += 1
                    t0 = clock()
                    value = toss()
                    t1 = clock()
                    session.settle(value)
                    if expected is not None and value != expected:
                        raise OracleError(
                            f"coin {self.attempted}: exposed {value!r}, "
                            f"shares reconstruct to {expected!r}"
                        )
                    latencies.append(t1 - t0)
                    if session.epoch != epoch:
                        stalls.append(t1 - t0)
                    number = to_int(value)
                    if self.first_value is None:
                        self.first_value = number
                    if self.window is None:
                        values.append(number)
                    wall += t1 - t0
                    coins += 1
                    # one independent reconstruction per block: the coin
                    # after the block's first, which is already pooled
                    expected = session.expected_next() if coins == 1 else None
                    if session.cycle_done():
                        break
        except (UnanimityError, GenerationError, OracleError) as error:
            self.failed += 1
            self.error = f"{type(error).__name__}: {error}"
            return False
        self.blocks.append((
            coins, wall, statistics.median(latencies[first_toss:]),
            statistics.median(stalls[first_stall:])
            if len(stalls) > first_stall else None,
        ))
        if self._start is not None and len(self.blocks) == self.min_blocks:
            self._close_window()
        return True

    def run(self, seconds: float) -> "Pass":
        self.warm_up()
        deadline = time.perf_counter() + seconds
        while (
            len(self.blocks) < self.min_blocks
            or time.perf_counter() < deadline
        ):
            if not self.run_block():
                break
        return self

    # -- the count window ---------------------------------------------------
    def _close_window(self) -> None:
        start, end = self._start, _snapshot(self.session)
        coins = sum(block[0] for block in self.blocks)
        window = {
            key: end[key] - start[key] for key in end if key != "ops"
        }
        window["coins"] = coins
        window["wall"] = sum(block[1] for block in self.blocks)
        window["ops"] = {
            pid: counter.delta(start["ops"].get(pid, OpCounter()))
            for pid, counter in end["ops"].items()
        }
        digest = hashlib.sha256()
        for value in self._values:
            digest.update(value.to_bytes(8, "little"))
        window["digest"] = digest.hexdigest()
        # Linux reports ru_maxrss in KiB
        window["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        self.window = window
        self._values = []

    def release(self) -> None:
        """Drop the session: a finished pass keeps only its numbers.

        A lit session holds its whole flight log; left alive it makes
        every later collection in this process slower.
        """
        self.session = self.toss = None
        gc.collect()

    @property
    def ok(self) -> bool:
        return self.error is None and self.window is not None

    # -- results ------------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        """The end-to-end metrics this pass can see (not ``setup_s``).

        Interference on a shared box is one-sided — a block is slowed,
        never sped up — so each timing is taken per block and reported
        as the decile of blocks on the undisturbed side (README,
        "Choosing the estimator").
        """
        window = self.window
        coins = window["coins"]
        rates = [block[0] / block[1] for block in self.blocks]
        tosses = [block[2] for block in self.blocks]
        # no generator (async_expose): every call deals its coin on
        # demand, so every call is the stall a consumer sees
        stalls = [b[3] for b in self.blocks if b[3] is not None] or tosses
        return {
            "coins_per_s": _deciles(rates)[-1],
            "coin_latency_ms_p50": 1e3 * _deciles(tosses)[0],
            "regen_stall_ms_p50": 1e3 * _deciles(stalls)[0],
            "messages_per_coin": window["messages"] / coins,
            "bits_per_coin": window["bits"] / coins,
            "rounds_per_coin": window["rounds"] / coins,
            "peak_rss_mb": window["peak_rss_mb"],
        }
