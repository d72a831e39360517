"""Rungs: timed calls into the public functions of the lower layers.

Below ``net.run`` nothing can be seen from outside the program, so
``net``, ``protocols``, ``poly``, ``sharing`` and ``fields`` are each
measured standalone at the workload's own ``(field, n, t, M)``.
:mod:`bench.ladder` multiplies these by the exact counts of the traced
pass to estimate each layer's share of a coin.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict

from repro.fields import GF2k
from repro.fields.backends import numpy_available
from repro.net.async_runtime import AsyncRuntime
from repro.net.guards import guarded
from repro.net.simulator import SynchronousNetwork, multicast
from repro.poly import (
    berlekamp_welch,
    horner_batch,
    interpolate,
    interpolate_cached,
    interpolation_mode,
)
from repro.protocols import (
    coin_expose,
    make_dealer_coin,
    parallel_gradecast,
    run_async_coin,
    run_batch_vss,
    run_bit_gen,
    run_coin_gen,
)
from repro.protocols.ba import run_phase_king
from repro.sharing import ShamirScheme

PING_ROUNDS = 200


def per_call(call: Callable[[], object], budget: float, inner: int = 1) -> float:
    """Median seconds per ``call()``, over samples of ``inner`` calls each.

    Runs for ``budget`` seconds and at least three samples; one sample
    is taken untimed first so caches are hot.
    """
    clock = time.perf_counter
    loop = range(inner)
    call()
    samples = []
    deadline = clock() + budget
    while len(samples) < 3 or clock() < deadline:
        start = clock()
        for _ in loop:
            call()
        samples.append((clock() - start) / inner)
    return statistics.median(samples)


# -- net -------------------------------------------------------------------

def _ping_plain(rounds: int):
    for round_no in range(rounds):
        yield [multicast(("ping", round_no))]


def _ping_guarded(n: int):
    yield guarded([multicast(("ping", 0))], tags="ping", quorum=n)


def net_rungs(field, n: int, budget: float) -> Dict[str, float]:
    """Deliveries per second of a null all-to-all ping, per runtime.

    Lockstep: one run of 200 rounds.  Async: 200 runs of one guarded
    round, the shape of ``async_expose`` (one run and one quorum wait
    per coin) — a guard re-scans its player's cumulative inbox on every
    delivery, so a single 200-round run is quadratic (7k deliveries/s
    against 45k/s here) and resembles no workload.
    """
    players = range(1, n + 1)

    def lockstep():
        network = SynchronousNetwork(n, field=field, allow_broadcast=False)
        network.run({pid: _ping_plain(PING_ROUNDS) for pid in players})

    def asynchronous():
        for _ in range(PING_ROUNDS):
            runtime = AsyncRuntime(n, field=field, allow_broadcast=False)
            runtime.run({pid: _ping_guarded(n) for pid in players})

    deliveries = n * n * PING_ROUNDS
    return {
        "net.lockstep_deliveries_per_s": deliveries / per_call(lockstep, budget),
        "net.async_deliveries_per_s": deliveries / per_call(asynchronous, budget),
    }


# -- protocols -------------------------------------------------------------

def protocol_rungs(field, n: int, t: int, M: int, seed: int,
                   budget: float) -> Dict[str, float]:
    """Whole-protocol runs, milliseconds each, network included."""
    rng = random.Random(seed)
    out = {name: 0.0 for name in (
        "protocols.coin_gen_ms", "protocols.bit_gen_ms",
        "protocols.batch_vss_ms", "protocols.gradecast_ms",
        "protocols.phase_king_ms", "protocols.coin_expose_ms",
        "protocols.async_coin_ms", "protocols.coin_gen_rounds",
        "protocols.coin_gen_interpolations",
    )}

    def ms(call):
        return 1e3 * per_call(call, budget)

    _, shares = make_dealer_coin(field, n, t, "rung-coin", rng)

    def expose():
        network = SynchronousNetwork(n, field=field, allow_broadcast=False)
        network.run(
            {pid: coin_expose(field, pid, shares[pid]) for pid in shares}
        )

    def gradecast():
        network = SynchronousNetwork(n, field=field, allow_broadcast=False)
        network.run({
            pid: parallel_gradecast(n, t, pid, ("v", pid))
            for pid in range(1, n + 1)
        })

    out["protocols.coin_expose_ms"] = ms(expose)
    out["protocols.gradecast_ms"] = ms(gradecast)
    if n > 4 * t:  # phase king's own requirement
        out["protocols.phase_king_ms"] = ms(lambda: run_phase_king(
            n, t, {pid: pid & 1 for pid in range(1, n + 1)}, field=field
        ))
    out["protocols.async_coin_ms"] = ms(
        lambda: run_async_coin(field, n, t, seed=seed)
    )
    out["protocols.batch_vss_ms"] = ms(
        lambda: run_batch_vss(field, n, t, M=max(M, 1), seed=seed)
    )
    if M and n >= 6 * t + 1:  # the Section 4 protocols' own requirement
        out["protocols.bit_gen_ms"] = ms(
            lambda: run_bit_gen(field, n, t, M=M, seed=seed)
        )
        out["protocols.coin_gen_ms"] = ms(
            lambda: run_coin_gen(field, n, t, M=M, seed=seed)
        )
        _, metrics = run_coin_gen(field, n, t, M=M, seed=seed)
        out["protocols.coin_gen_rounds"] = float(metrics.rounds)
        out["protocols.coin_gen_interpolations"] = float(
            metrics.max_player_ops().interpolations
        )
    return out


# -- poly and sharing ------------------------------------------------------

def poly_rungs(field, n: int, t: int, M: int, seed: int,
               budget: float) -> Dict[str, float]:
    """Microseconds per call; also the multiplications one decode costs."""
    rng = random.Random(seed)
    scheme = ShamirScheme(field, n, t)
    secret = field.random(rng)
    _, dealt = scheme.deal(secret, rng)
    points = [(scheme.point(s.player_id), s.value) for s in dealt]
    head = points[: t + 1]
    # t wrong values at the head defeat the optimistic pass, so the
    # key-equation solve runs — what a decode costs under the adversary
    wrong = [
        (x, field.add(y, field.one)) if i < t else (x, y)
        for i, (x, y) in enumerate(points)
    ]
    values = [field.random(rng) for _ in range(max(M, 1))]
    challenge = field.random_nonzero(rng)

    def us(call, inner=8):
        return 1e6 * per_call(call, budget, inner)

    def cold():
        with interpolation_mode("fresh"):
            interpolate_cached(field, head)

    before = field.counter.snapshot()
    berlekamp_welch(field, points, t)
    decode_muls = field.counter.delta(before).muls
    return {
        "poly.interpolate_us": us(lambda: interpolate(field, head)),
        "poly.interpolate_cached_us": us(lambda: interpolate_cached(field, head)),
        "poly.interpolate_cold_us": us(cold),
        "poly.bw_clean_us": us(lambda: berlekamp_welch(field, points, t)),
        "poly.bw_errors_us": us(lambda: berlekamp_welch(field, wrong, t), 1),
        "poly.horner_batch_us": us(lambda: horner_batch(field, values, challenge)),
        "sharing.share_us": us(lambda: scheme.deal(secret, rng)),
        "sharing.reconstruct_us": us(lambda: scheme.reconstruct(dealt)),
        "_decode_muls": float(decode_muls),
    }


# -- fields ----------------------------------------------------------------

def _kernel_rungs(impl, widths: Dict[str, int], seed: int,
                  budget: float) -> Dict[str, float]:
    rng = random.Random(seed)
    a = impl.random_nonzero(rng)
    b = impl.random_nonzero(rng)

    def ns(call, inner, elements=1):
        return 1e9 * per_call(call, budget, inner) / elements

    out = {
        "fields.mul_ns": ns(lambda: impl.mul(a, b), 256),
        "fields.inv_ns": ns(lambda: impl.inv(a), 64),
    }
    for label, width in widths.items():
        avec = [impl.random_nonzero(rng) for _ in range(width)]
        bvec = [impl.random_nonzero(rng) for _ in range(width)]
        inner = max(1, 64 // width)
        out[f"fields.mul_many_ns_per_elem.{label}"] = ns(
            lambda: impl.mul_many(avec, bvec), inner, width)
        out[f"fields.dot_ns_per_elem.{label}"] = ns(
            lambda: impl.dot(avec, bvec), inner, width)
        out[f"fields.batch_inv_ns_per_elem.{label}"] = ns(
            lambda: impl.batch_inv(avec), inner, width)
    return out


def field_rungs(field, n: int, M: int, seed: int,
                budget: float) -> Dict[str, float]:
    """Nanoseconds per element on the workload's own field (``auto``,
    what a user gets) and with each backend forced.  Two widths: ``wn``,
    the n elements one decode handles, and ``wM``, the n * (M + 1)
    elements of the dealing sweep one stretch runs (``evaluate_polys``
    and ``horner_batch_many`` hand the kernels all of a dealer's
    polynomials at once); n again where there is no generator.  A
    backend that is not installed reads 0."""
    widths = {"wn": n, "wM": n * (M + 1) if M else n}
    out = _kernel_rungs(field, widths, seed, budget)
    names = list(out)
    for backend in ("python", "numpy"):
        if backend == "numpy" and not numpy_available():
            out.update({f"{name}.{backend}": 0.0 for name in names})
            continue
        forced = _kernel_rungs(
            GF2k(field.k, backend=backend), widths, seed, budget
        )
        out.update({f"{name}.{backend}": forced[name] for name in names})
    return out


def all_rungs(spec, field, M: int, seed: int,
              budget: float) -> Dict[str, float]:
    """Every rung at the workload's ``(field, n, t)`` and Coin-Gen size M."""
    out = net_rungs(field, spec.n, budget)
    out.update(protocol_rungs(field, spec.n, spec.t, M, seed, budget))
    out.update(poly_rungs(field, spec.n, spec.t, M, seed, budget))
    out.update(field_rungs(field, spec.n, M, seed, budget))
    return out
