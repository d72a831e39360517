"""The paper-claims table: every numbered claim E1-E18, one row each.

The paper is a protocol-design paper; its "evaluation" is its lemmas and
theorems plus the Section 1.4 comparison narrative.  Each row of
:data:`ROWS` states one of them in the paper's words, names the
parameter points it is checked at, and gives two functions of a point:
``predicted`` (the paper's number — a formula from
:mod:`repro.analysis.complexity` / :mod:`repro.analysis.rounds`, never a
protocol run) and ``measured`` (a live, seeded run of the real
protocol).  Both return ``{quantity: value}`` over the same quantities,
and the row's ``compare`` says how they must relate:

``exact``
    ``measured == predicted``.  Counts — interpolations, messages, bits,
    rounds.  Tier-1 (``tests/test_claims.py``) runs every exact row at
    its first (smallest) point.
``bound``
    ``measured <= limit + tolerance`` where ``predicted`` is
    ``Bound(limit, tolerance)``.  Statistical rows: the tolerance is
    three standard errors of the estimator *at the bound*, so it is a
    function of the trial count and never a hand-picked slack.
``ordering``
    ``measured`` is a pair ``(lhs, rhs)`` and ``lhs < rhs`` must hold;
    ``predicted`` is the relation in words.  Direction only — rows that
    time anything use ``time.perf_counter`` and print no numbers, since
    the coin ladder (``bench/run.py``) is the only performance harness.

Run the whole table (about half a minute, everything seeded)::

    python -m pytest benchmarks/claims.py -q

Regenerate the E1-E18 section of EXPERIMENTS.md from a fresh run::

    python benchmarks/claims.py --write
"""

from __future__ import annotations

import argparse
import functools
import math
import pathlib
import random
import sys
import time
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
try:
    import repro  # noqa: F401
except ImportError:  # bare checkout: find src/ the way bench/run.py does
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis import complexity as cx, rounds, stats
from repro.baselines.beaver_so import BeaverSoGenerator, BudgetExhausted
from repro.baselines.cut_and_choose import run_cut_and_choose_vss
from repro.baselines.feldman import run_feldman_vss
from repro.baselines.from_scratch import run_from_scratch_coin
from repro.baselines.rabin_dealer import RabinDealerService
from repro.core import BootstrapCoinSource, UnanimityError
from repro.core.dprbg import SharedCoinSystem
from repro.core.seed import TrustedDealer
from repro.core.sequence import CoinSequence
from repro.fields import GF2k
from repro.fields.extension import build_special_field
from repro.net.adversary import Adversary, silent_program
from repro.net.simulator import SynchronousNetwork, multicast
from repro.obs.phases import messages_by_phase
from repro.obs.spans import SpanRecorder
from repro.poly.polynomial import Polynomial
from repro.protocols.ba import run_phase_king
from repro.protocols.batch_vss import run_batch_vss
from repro.protocols.bit_gen import run_bit_gen
from repro.protocols.broadcast import run_broadcast
from repro.protocols.coin_expose import CoinShare, coin_expose, make_dealer_coin
from repro.protocols.coin_gen import run_coin_gen
from repro.protocols.context import ProtocolContext
from repro.protocols.eig import run_eig
from repro.protocols.gradecast import parallel_gradecast
from repro.protocols.recovery import run_recovery
from repro.protocols.refresh import run_refresh
from repro.protocols.vss import run_vss

EXACT, BOUND, ORDERING = "exact", "bound", "ordering"

K = 32
FIELD = GF2k(K)
TINY = GF2k(4)  # p = 16: small enough that soundness errors are visible

Point = Dict[str, Any]
Quantities = Dict[str, Any]


class Bound(NamedTuple):
    """``measured <= limit + tolerance``."""

    limit: float
    tolerance: float


class Row(NamedTuple):
    id: str
    title: str
    #: the claim, in the paper's words
    statement: str
    compare: str
    #: parameter points, smallest first
    points: Tuple[Point, ...]
    predicted: Callable[..., Quantities]
    measured: Callable[..., Quantities]
    #: an ordering row whose pairs are wall-clock times (not rendered)
    timed: bool = False


def three_sigma_rate(rate: float, trials: int) -> float:
    """3 standard errors of a binomial rate estimated over ``trials``."""
    return 3 * math.sqrt(rate * (1 - rate) / trials)


def three_sigma_bias(bits: int) -> float:
    """3 standard errors of the bias |mean - 1/2| of ``bits`` fair bits."""
    return 3 * 0.5 / math.sqrt(bits)


# --------------------------------------------------------------------------
# E1 / E3 -- soundness of VSS and Batch-VSS against the optimal cheaters
# --------------------------------------------------------------------------

def optimal_vss_cheater(seed: int, n: int, t: int) -> bool:
    """Lemma 1's best strategy: guess r* and cancel the bad coefficient."""
    field = TINY
    rng = random.Random(seed + 10_000)
    d = field.random_nonzero(rng)
    r_star = field.random_nonzero(rng)
    offsets = {
        pid: field.mul(d, field.pow(field.element_point(pid), t + 1))
        for pid in range(1, n + 1)
    }
    g = Polynomial.random(field, t, rng) + Polynomial(
        field, [field.zero] * (t + 1) + [field.neg(field.div(d, r_star))]
    )
    results, _ = run_vss(field, n, t, seed=seed, cheat_offsets=offsets, cheat_g=g)
    return all(r.accepted for r in results.values())


def optimal_batch_cheater(seed: int, n: int, t: int, M: int) -> bool:
    """Lemma 3's best strategy: plant M-1 challenge roots plus r=0."""
    field = TINY
    poly = Polynomial.constant(field, field.one)
    for value in range(1, M):
        poly = poly * Polynomial(field, [field.neg(field.from_int(value)), field.one])
    cheat_offsets = {
        index: {
            pid: field.mul(poly.coefficient(index),
                           field.pow(field.element_point(pid), t + 1))
            for pid in range(1, n + 1)
        }
        for index in range(M)
    }
    results, _ = run_batch_vss(field, n, t, M=M, seed=seed,
                               cheat_offsets=cheat_offsets)
    return all(r.accepted for r in results.values())


def e1_predicted(n, t, trials):
    limit = cx.vss_soundness_bound(TINY.order)
    return {"cheater acceptance rate": Bound(limit, three_sigma_rate(limit, trials))}


def e1_measured(n, t, trials):
    accepts = sum(optimal_vss_cheater(seed, n, t) for seed in range(trials))
    return {"cheater acceptance rate": accepts / trials}


def e3_predicted(n, t, M, trials):
    limit = cx.batch_vss_soundness_bound(M, TINY.order)
    return {"cheater acceptance rate": Bound(limit, three_sigma_rate(limit, trials))}


def e3_measured(n, t, M, trials):
    accepts = sum(optimal_batch_cheater(seed, n, t, M) for seed in range(trials))
    return {"cheater acceptance rate": accepts / trials}


# --------------------------------------------------------------------------
# E2 / E4 / E6 / E7 -- the count lemmas
# --------------------------------------------------------------------------

def e2_predicted(n, t, k):
    claim = cx.vss_single(n, k)
    return {
        "interpolations per player": claim.interpolations,
        "broadcasts in the nu round": n,
        # Lemma 2 counts Fig. 2 proper (2nk); its footnote accounts the
        # challenge's Coin-Expose separately: n^2 messages of size k
        "bits, Fig. 2 (2nk) + challenge expose (n^2 k)":
            claim.bits + cx.expose_messages(n, n) * k,
    }


def e2_measured(n, t, k):
    results, metrics = run_vss(GF2k(k), n, t, seed=42)
    assert all(r.accepted for r in results.values())
    return {
        "interpolations per player": metrics.ops(2).interpolations,
        "broadcasts in the nu round": metrics.broadcast_messages,
        "bits, Fig. 2 (2nk) + challenge expose (n^2 k)": metrics.bits,
    }


def e4_predicted(n, t, M):
    claim = cx.batch_vss(n, K, M)
    exposed = cx.expose_messages(n, n)
    return {
        "interpolations per player": claim.interpolations,
        "messages, nu round (n) + challenge expose (n^2)": n + exposed,
        "bits, independent of M": (n + exposed) * K,
        "busiest player's multiplications above M=1": M - 1,
    }


def e4_measured(n, t, M):
    # the first run of a process pays the shared interpolation cache's
    # per-node-set setup once; compare runs that both find it warm
    run_batch_vss(FIELD, n, t, M=1, seed=7)
    _, one = run_batch_vss(FIELD, n, t, M=1, seed=7)
    results, metrics = run_batch_vss(FIELD, n, t, M=M, seed=7)
    assert all(r.accepted for r in results.values())
    return {
        "interpolations per player": metrics.ops(2).interpolations,
        "messages, nu round (n) + challenge expose (n^2)": metrics.paper_messages,
        "bits, independent of M": metrics.bits,
        "busiest player's multiplications above M=1":
            metrics.max_player_ops().muls - one.max_player_ops().muls,
    }


def e6_predicted(n, t, M):
    claim = cx.bit_gen(n, t, K, M)
    return {
        "interpolations per player": claim.interpolations,
        "messages (n + 2n^2)": claim.messages,
        "bits (nMk + 2n^2 k)": claim.bits,
    }


def e6_measured(n, t, M):
    # blinding off: Fig. 4 as printed (the blinding dealing is ours)
    outputs, metrics = run_bit_gen(FIELD, n, t, M=M, seed=3, blinding=False)
    assert all(o.accepted for o in outputs.values())
    return {
        "interpolations per player": metrics.ops(2).interpolations,
        "messages (n + 2n^2)": metrics.paper_messages,
        "bits (nMk + 2n^2 k)": metrics.bits,
    }


def e7_predicted(n, t, M):
    return {
        "interpolations per player (n+1, +1 leader expose)":
            sum(cx.coin_gen_phase_interpolations(n).values()),
        "interpolations the shared challenge saves": n - 1,
        "messages": sum(cx.coin_gen_phase_messages(n, t).values()),
        "rounds, independent of M": rounds.coin_gen_rounds(t),
        # Mn^2 k + O(n^4 k) total: the slope in M is the leading term
        "bits each coin beyond the first adds (n^2 k)": n * n * K,
        # Lemma 8: BA re-iterates only under a faulty leader
        "BA iterations, no faults (Lemma 8)": 1,
    }


def e7_measured(n, t, M):
    outputs, shared = run_coin_gen(FIELD, n, t, M=M, seed=9)
    assert all(o.success for o in outputs.values())
    (iterations,) = {o.iterations for o in outputs.values()}
    _, separate = run_coin_gen(FIELD, n, t, M=M, seed=9, shared_challenge=False)
    _, single = run_coin_gen(FIELD, n, t, M=1, seed=9)
    return {
        "interpolations per player (n+1, +1 leader expose)":
            shared.ops(2).interpolations,
        "interpolations the shared challenge saves":
            separate.ops(2).interpolations - shared.ops(2).interpolations,
        "messages": shared.paper_messages,
        # the runtime's trailing drain round carries no messages
        "rounds, independent of M": shared.rounds - 1,
        "bits each coin beyond the first adds (n^2 k)":
            (shared.bits - single.bits) / (M - 1),
        "BA iterations, no faults (Lemma 8)": iterations,
    }


# --------------------------------------------------------------------------
# E5 -- VSS head to head: ours vs cut-and-choose [9] vs Feldman [12]
# --------------------------------------------------------------------------

def e5_predicted(n, t, challenges, group_bits):
    return {
        "interpolations per player": "ours < cut-and-choose [9]",
        "bits": "ours < cut-and-choose [9]",
        "bit-weighted multiplication work per player": "ours < Feldman [12]",
    }


def e5_measured(n, t, challenges, group_bits):
    _, ours = run_vss(FIELD, n, t, seed=4)
    _, cut = run_cut_and_choose_vss(FIELD, n, t, challenges=challenges, seed=4)
    _, feldman = run_feldman_vss(n, t, q_bits=group_bits, seed=4)
    # a multiplication costs bit_length^2 in the paper's addition model
    return {
        "interpolations per player":
            (ours.ops(2).interpolations, cut.ops(2).interpolations),
        "bits": (ours.bits, cut.bits),
        "bit-weighted multiplication work per player":
            (ours.ops(2).muls * K ** 2,
             feldman.ops(2).muls * feldman.element_bits ** 2),
    }


# --------------------------------------------------------------------------
# E8 -- Lemma 8: constant expected number of BA iterations
# --------------------------------------------------------------------------

def e8_predicted(n, t, trials):
    mean = cx.coin_gen_expected_iterations(n, t)
    # geometric with success probability p = 1/mean: variance (1-p)/p^2
    variance = (1 - 1 / mean) * mean ** 2
    return {
        "mean iterations, no faults": Bound(1, 0),
        "mean iterations, t silent players":
            Bound(mean, 3 * math.sqrt(variance / trials)),
    }


def e8_measured(n, t, trials):
    def iterations(seed, faulty_ids):
        faulty = {pid: silent_program() for pid in faulty_ids}
        outputs, _ = run_coin_gen(FIELD, n, t, M=1, seed=seed,
                                  faulty_programs=faulty, max_iterations=12)
        honest = [o for pid, o in outputs.items() if pid not in faulty]
        assert all(o.success for o in honest)
        (count,) = {o.iterations for o in honest}
        return count

    silent = range(n - t + 1, n + 1)
    return {
        "mean iterations, no faults":
            sum(iterations(seed, ()) for seed in range(10)) / 10,
        "mean iterations, t silent players":
            sum(iterations(seed, silent) for seed in range(trials)) / trials,
    }


# --------------------------------------------------------------------------
# E9 / E10 -- bootstrapping, and the D-PRBG against from-scratch coins
# --------------------------------------------------------------------------

def drain(source, coins: int):
    """Toss ``coins`` k-ary coins from any coin source; returns the source."""
    for _ in range(coins):
        source.toss_element()
    return source


def e9_predicted(n, t, batch, coins):
    return {
        "dealer interactions": "bootstrap < Rabin [17]",
        "seed coins per generated coin": "after 4 batches < after 1 batch",
    }


def e9_measured(n, t, batch, coins):
    source = drain(BootstrapCoinSource(FIELD, n, t, batch_size=batch, seed=23), coins)
    rabin = drain(RabinDealerService(FIELD, n, t, seed=24), coins)
    shares = []
    long_run = BootstrapCoinSource(FIELD, n, t, batch_size=batch, seed=26)
    for _ in range(4):
        drain(long_run, batch)
        shares.append(long_run.initial_seed_size / long_run.coins_generated)
    return {
        # the bootstrap's one interaction is the initial seed
        "dealer interactions": (1, rabin.dealer_invocations),
        "seed coins per generated coin": (shares[-1], shares[0]),
    }


def e10_predicted(n, t, M):
    return {"interpolations per coin": "D-PRBG < from-scratch (t+1)"}


def e10_measured(n, t, M):
    values, scratch = run_from_scratch_coin(FIELD, n, t, seed=33)
    assert len(set(values.values())) == 1
    source = drain(BootstrapCoinSource(FIELD, n, t, batch_size=M, seed=34), M)
    return {
        "interpolations per coin": (
            source.amortized_cost_summary()[
                "interpolations_per_coin_busiest_player"],
            scratch.ops(2).interpolations,
        ),
    }


# --------------------------------------------------------------------------
# E11 -- Section 2 remark: naive GF(2^k) beats the special field at small k
# --------------------------------------------------------------------------

def seconds_per_mul(field, reps: int = 20) -> float:
    rng = random.Random(0)
    pairs = [(field.random(rng), field.random(rng)) for _ in range(256)]
    start = time.perf_counter()
    for _ in range(reps):
        total = field.zero
        for a, b in pairs:
            total = field.add(total, field.mul(a, b))
    return (time.perf_counter() - start) / (reps * len(pairs))


def e11_predicted(k):
    return {"seconds per multiplication": "naive GF(2^k) < special GF(q^l)"}


def e11_measured(k):
    return {
        "seconds per multiplication": (
            seconds_per_mul(GF2k(k, tables=False)),
            seconds_per_mul(build_special_field(k)),
        ),
    }


# --------------------------------------------------------------------------
# E12 / E14 -- coin quality under static and mobile adversaries
# --------------------------------------------------------------------------

ADVERSARIES = {
    "none": None,
    "silent": lambda epoch: Adversary({3}, behaviour="silent"),
    "noise": lambda epoch: Adversary({5}, behaviour="noise", seed=epoch),
    "rushing noise": lambda epoch: Adversary(
        {2}, behaviour="noise", rushing=True, seed=epoch),
}


def e12_predicted(n, t, adversary, bits, coins):
    return {
        f"bias of {bits} bits": Bound(0.0, three_sigma_bias(bits)),
        f"exposures of {coins} not unanimous (M n 2^-k)":
            Bound(cx.coin_unanimity_error(coins, n, K), 0),
    }


def e12_measured(n, t, adversary, bits, coins):
    def source(seed):
        return BootstrapCoinSource(FIELD, n, t, batch_size=16, seed=seed,
                                   adversary_schedule=ADVERSARIES[adversary])

    exposing, disagreements = source(2), 0
    for _ in range(coins):
        try:
            exposing.toss_element()
        except UnanimityError:
            disagreements += 1
    return {
        f"bias of {bits} bits": stats.bias(source(1).tosses(bits)),
        f"exposures of {coins} not unanimous (M n 2^-k)": disagreements,
    }


def e14_predicted(n, t, behaviour, bits):
    return {
        f"bias of {bits} bits": Bound(0.0, three_sigma_bias(bits)),
        "batches that reused the previous corrupt set": Bound(0, 0),
    }


def e14_measured(n, t, behaviour, bits):
    # a sweep through the players rather than random redraws, so that
    # every batch boundary is a move
    history = []

    def schedule(epoch):
        history.append((epoch % n) + 1)
        return Adversary({history[-1]}, behaviour=behaviour, seed=epoch)

    source = BootstrapCoinSource(FIELD, n, t, batch_size=8, seed=42,
                                 adversary_schedule=schedule)
    bias = stats.bias(source.tosses(bits))
    assert source.epoch >= 2
    return {
        f"bias of {bits} bits": bias,
        "batches that reused the previous corrupt set":
            sum(a == b for a, b in zip(history, history[1:])),
    }


# --------------------------------------------------------------------------
# E13 -- Theorem 1: Coin-Expose decodes through t corrupted shares
# --------------------------------------------------------------------------

def e13_predicted(n, t, liars):
    if liars > t:  # beyond capacity the decoder may refuse, never lie
        return {"honest players decoding a wrong value": 0}
    return {
        "honest players decoding the dealt secret": n - liars,
        "honest players decoding a wrong value": 0,
        "interpolations per honest player": cx.expose_interpolations(1),
    }


def e13_measured(n, t, liars):
    rng = random.Random(liars)
    secret, shares = make_dealer_coin(FIELD, n, t, "e13", rng)

    def liar():
        yield [multicast(("expose/e13", rng.randrange(FIELD.order)))]

    network = SynchronousNetwork(n, field=FIELD, allow_broadcast=False)
    honest = range(liars + 1, n + 1)
    programs = {pid: liar() for pid in range(1, liars + 1)}
    programs.update({pid: coin_expose(FIELD, pid, shares[pid]) for pid in honest})
    outputs = network.run(programs, wait_for=honest)
    views = [outputs[pid] for pid in honest]
    measured = {
        "honest players decoding a wrong value":
            sum(view is not None and view != secret for view in views),
    }
    if liars <= t:
        measured["honest players decoding the dealt secret"] = views.count(secret)
        (measured["interpolations per honest player"],) = {
            network.metrics.ops(pid).interpolations for pid in honest
        }
    return measured


# --------------------------------------------------------------------------
# E15 -- Section 1.4: four ways to get coins
# --------------------------------------------------------------------------

def e15_predicted(n, t, coins):
    return {
        "dealer interactions": "D-PRBG < Rabin [17]",
        "interpolations per coin": "D-PRBG < from-scratch",
        "coins delivered when asked for twice the budget":
            "Beaver-So [2] (pre-set size) < D-PRBG",
        "exposures to read the last coin of a batch":
            "random access < in order",
    }


def e15_measured(n, t, coins):
    source = drain(BootstrapCoinSource(FIELD, n, t, batch_size=coins, seed=1), coins)
    ours = source.amortized_cost_summary()["interpolations_per_coin_busiest_player"]
    rabin = drain(RabinDealerService(FIELD, n, t, seed=2), coins)
    _, scratch = run_from_scratch_coin(FIELD, n, t, seed=3)
    generator = BeaverSoGenerator(budget=coins * K, modulus_bits=256, seed=3)
    delivered = 0
    try:
        for _ in range(2 * coins * K):
            generator.bit()
            delivered += 1
    except BudgetExhausted:
        pass
    drain(source, coins)  # the D-PRBG regenerates: 2x coins delivered
    system = SharedCoinSystem(FIELD, n, t, seed=4)
    sealed = system.generate(TrustedDealer(FIELD, n, t, seed=5).deal_seed(4), M=coins)
    sequence = CoinSequence(system, sealed.coins)
    sequence[coins - 1]
    return {
        "dealer interactions": (1, rabin.dealer_invocations),
        "interpolations per coin": (ours, scratch.ops(2).interpolations),
        "coins delivered when asked for twice the budget":
            (delivered // K, source.coins_consumed),
        "exposures to read the last coin of a batch":
            (sum(sequence.exposed(i) for i in range(coins)), coins),
    }


# --------------------------------------------------------------------------
# E16 / E17 -- proactive maintenance; the agreement substrates
# --------------------------------------------------------------------------

def sealed_table(n, t, count, seed):
    rng = random.Random(seed)
    table = {pid: [] for pid in range(1, n + 1)}
    for index in range(count):
        _, shares = make_dealer_coin(FIELD, n, t, f"m{seed}-{index}", rng)
        for pid in table:
            table[pid].append(shares[pid])
    return table


def e16_predicted(n, t, H):
    return {
        "refresh bits per coin": f"H={H} < H=1",
        "recovery interpolations": "a helper < the recovering player",
    }


def e16_measured(n, t, H):
    outputs, one = run_refresh(FIELD, n, t, sealed_table(n, t, 1, 50), seed=52)
    assert all(o.success for o in outputs.values())
    outputs, many = run_refresh(FIELD, n, t, sealed_table(n, t, H, 51), seed=53)
    assert all(o.success for o in outputs.values())
    assert one.ops(2).interpolations == many.ops(2).interpolations
    table = sealed_table(n, t, 4, 60)
    lost = n - 2
    table[lost] = [CoinShare(c.coin_id, c.senders, c.t, None) for c in table[lost]]
    outputs, recovery = run_recovery(FIELD, n, t, recovering=lost,
                                     coin_table=table, seed=61)
    assert all(o.success for o in outputs.values())
    return {
        "refresh bits per coin": (many.bits / H, one.bits),
        "recovery interpolations":
            (recovery.ops(2).interpolations, recovery.ops(lost).interpolations),
    }


def e17_predicted(n, t):
    return {
        "BA bits": "phase king < EIG",
        "BA rounds": "EIG < phase king",
        "rounds": "grade-cast < full broadcast (grade-cast + BA)",
        "messages per announcement": "ideal channel (1) < real broadcast",
    }


def e17_measured(n, t):
    inputs = {pid: pid % 2 for pid in range(1, n + 1)}
    outputs, king = run_phase_king(n, t, inputs)
    assert len(set(outputs.values())) == 1
    outputs, eig = run_eig(n, t, inputs)
    assert len(set(outputs.values())) == 1
    network = SynchronousNetwork(n, field=FIELD, allow_broadcast=False)
    graded = network.run({
        pid: parallel_gradecast(n, t, pid, ("v", pid)) for pid in range(1, n + 1)
    })
    assert all(view[1][1] == 2 for view in graded.values())
    outputs, real = run_broadcast(n, t, sender=1, value=12345, field=FIELD)
    assert set(outputs.values()) == {12345}
    return {
        "BA bits": (king.bits, eig.bits),
        "BA rounds": (eig.rounds, king.rounds),
        "rounds": (network.metrics.rounds, real.rounds),
        "messages per announcement": (1, real.paper_messages),
    }


# --------------------------------------------------------------------------
# E18 -- Theorem 2's communication, phase by phase
# --------------------------------------------------------------------------

def local_exponent(smaller: int, larger: int, n: int) -> float:
    """d log(bits) / d log(n) between the shapes n - 6 and n (n = 6t+1)."""
    return round(math.log(larger / smaller) / math.log(n / (n - 6)), 4)


def e18_predicted(n, t, M):
    out = {f"bits, {phase}": bits
           for phase, bits in cx.coin_gen_phase_bits(n, t, K, M).items()}
    out["bits in all"] = cx.coin_gen_bits(n, t, K, M)
    if t > 1:
        out[f"local exponent from n={n - 6}"] = local_exponent(
            cx.coin_gen_bits(n - 6, t - 1, K, M), out["bits in all"], n)
    return out


@functools.lru_cache(maxsize=None)
def coin_gen_bits_by_phase(n, t, M):
    """A seeded honest Coin-Gen's bits, attributed by each round's tags.

    Cached: E18's local exponent reuses the previous point's run."""
    recorder = SpanRecorder()
    ctx = ProtocolContext.create(FIELD, n, t, seed=9, recorder=recorder)
    outputs, metrics = run_coin_gen(ctx, M=M)
    assert all(o.success and o.iterations == 1 for o in outputs.values())
    totals: Dict[str, int] = {}
    for span in recorder.by_kind("round"):
        phases = messages_by_phase(span.attrs.get("tags", {}))
        if phases:
            (phase,) = phases  # one protocol step, one phase, per round
            totals[phase] = totals.get(phase, 0) + span.attrs["bits"]
    assert sum(totals.values()) == metrics.bits
    return totals, metrics.bits


def e18_measured(n, t, M):
    phases, total = coin_gen_bits_by_phase(n, t, M)
    out = {f"bits, {phase}": bits for phase, bits in phases.items()}
    out["bits in all"] = total
    if t > 1:
        out[f"local exponent from n={n - 6}"] = local_exponent(
            coin_gen_bits_by_phase(n - 6, t - 1, M)[1], total, n)
    return out


# --------------------------------------------------------------------------
# the table
# --------------------------------------------------------------------------

def points(**axes) -> Tuple[Point, ...]:
    """Zip equal-length axes (scalars repeat) into a tuple of points."""
    length = max((len(v) for v in axes.values() if isinstance(v, list)), default=1)
    return tuple(
        {name: v[i] if isinstance(v, list) else v
         for name, v in axes.items()}
        for i in range(length)
    )


ROWS: Tuple[Row, ...] = (
    Row("E1", "Lemma 1: single-VSS soundness",
        "A cheating dealer is accepted with probability at most 1/p "
        "(optimal cheater over GF(2^4), p = 16).",
        BOUND, points(n=7, t=1, trials=320), e1_predicted, e1_measured),
    Row("E2", "Lemma 2: single-VSS cost",
        "Protocol VSS requires 2 polynomial interpolations per player; 2 "
        "rounds of n messages each of size k, for a total of 2nk bits.",
        EXACT, points(n=[4, 7, 10, 13, 7], t=[1, 2, 3, 4, 2], k=[32, 32, 32, 32, 64]),
        e2_predicted, e2_measured),
    Row("E3", "Lemma 3: Batch-VSS soundness",
        "A bad batch of M dealings is accepted with probability at most M/p "
        "(optimal cheater over GF(2^4): M-1 planted roots plus r = 0).",
        BOUND, points(n=7, t=1, M=[2, 5, 8], trials=192), e3_predicted, e3_measured),
    Row("E4", "Lemma 4 + Corollary 1: Batch-VSS amortization",
        "Verifying M secrets takes 2 interpolations per player and 2 rounds "
        "of n messages, independent of M; computation grows by one "
        "multiplication (a Horner step) per extra secret.",
        EXACT, points(n=[7, 7, 7, 7, 7, 13], t=2, M=[1, 4, 16, 64, 256, 4]),
        e4_predicted, e4_measured),
    Row("E5", "Sections 1.4 / 3.1: VSS comparison",
        "Ours: 2 interpolations, 2nk bits, error 1/p.  Cut-and-choose [9]: k "
        "interpolations for error 2^-k.  Feldman [12]: t exponentiations = "
        "t log p multiplications per party, under a discrete-log assumption.",
        ORDERING, points(n=7, t=2, challenges=16, group_bits=256),
        e5_predicted, e5_measured),
    Row("E6", "Lemma 6 + Corollary 2: Bit-Gen cost",
        "2 polynomial interpolations per player; 3 rounds: n messages of "
        "size Mk, then twice n^2 messages of size k, for nMk + 2n^2 k bits "
        "(so each extra dealing adds exactly nk).",
        EXACT, points(n=[7, 7, 13, 13], t=[1, 1, 2, 2], M=[4, 64, 16, 64]),
        e6_predicted, e6_measured),
    Row("E7", "Theorem 2 + Corollary 3: Coin-Gen cost",
        "n+1 interpolations per player: \"n polynomial interpolations have "
        "been saved by using the same coin for all the invocations\"; "
        "Mn^2 k + O(n^4 k) bits in all, so n^2 + O(n^4/M) per coin bit; the "
        "round and message counts do not depend on M.",
        EXACT, points(n=[7, 7, 7, 13, 13], t=[1, 1, 1, 2, 2], M=[4, 16, 64, 4, 64]),
        e7_predicted, e7_measured),
    Row("E8", "Lemma 8: constant expected BA iterations",
        "BA re-iterates only if the elected leader is faulty; \"there is a "
        "probability of at least (n-t)/n that BA will terminate with a "
        "value of 1\", so the expected count is at most n/(n-t).",
        BOUND, points(n=7, t=1, trials=200), e8_predicted, e8_measured),
    Row("E9", "Fig. 1 + Section 1.2: bootstrapping",
        "\"Our method is self-sufficient once it gets kicked off\" whereas "
        "\"[17] requires the dealer to continuously provide them\"; the cost "
        "of the initial seed \"can effectively be neglected\".",
        ORDERING, points(n=7, t=1, batch=16, coins=12), e9_predicted, e9_measured),
    Row("E10", "Section 4 intro: from-scratch coins vs the D-PRBG",
        "A straightforward coin interpolates at least as many polynomials as "
        "faults to be tolerated; \"we show how to achieve this with just one "
        "polynomial interpolation\".",
        ORDERING, points(n=[7, 13, 19], t=[1, 2, 3], M=32), e10_predicted, e10_measured),
    Row("E11", "Section 2 remark: naive vs special field",
        "\"When k is small, working over GF(2^k) with the naive O(k^2) "
        "multiplication is faster than working over our special field with "
        "the O(k log k) multiplication, because of the sizes of the constants.\"",
        ORDERING, points(k=[16, 32]), e11_predicted, e11_measured, timed=True),
    Row("E12", "Section 1.1: coin quality under attack",
        "\"All players in the system view the same coin (unanimity), and no "
        "subset of players smaller than a given size would have any "
        "influence on the outcome.\"",
        BOUND, points(n=7, t=1, adversary=list(ADVERSARIES), bits=512, coins=32),
        e12_predicted, e12_measured),
    Row("E13", "Theorem 1: robust exposure",
        "At least 2t+1 players in S have proper shares, which \"enables us to "
        "use the Berlekamp-Welch decoder\": one interpolation per player per "
        "coin, correct through t corrupted shares.",
        EXACT, points(n=[7, 13, 13, 13, 13], t=[1, 2, 2, 2, 2], liars=[1, 0, 1, 2, 4]),
        e13_predicted, e13_measured),
    Row("E14", "Section 1.2: mobile adversary",
        "Prior amortization works \"subject to the proviso that the set of "
        "faulty players remain (relatively) fixed.  In contrast, this is not "
        "required by our method.\"",
        BOUND, points(n=7, t=1, behaviour=["silent", "noise"], bits=768),
        e14_predicted, e14_measured),
    Row("E15", "Section 1.4: coin-source comparison",
        "Only the D-PRBG is at once unconditional, endless and dealer-free "
        "after setup; \"as in [2], our scheme also provides 'random access' "
        "to the bits\".",
        ORDERING, points(n=7, t=1, coins=8), e15_predicted, e15_measured),
    Row("E16", "Section 1.2: proactive maintenance",
        "Refresh and recovery reuse Coin-Gen's agreement core, so refreshing "
        "H coins amortizes like generating M; recovery costs the recovering "
        "player one extra (masked) decode and its helpers none.",
        ORDERING, points(n=7, t=1, H=32), e16_predicted, e16_measured),
    Row("E17", "DESIGN.md section 6: agreement substrates",
        "Coin-Gen needs a deterministic BA and a graded broadcast.  Phase "
        "king (n > 4t) pays O(n^2) bits over 2(t+1) rounds where EIG (n > 3t) "
        "pays O(n^t) over t+1; Section 4 exists because a real broadcast is "
        "grade-cast plus BA per announcement.",
        ORDERING, points(n=9, t=2), e17_predicted, e17_measured),
    Row("E18", "Theorem 2: Coin-Gen's bits, phase by phase",
        "\"n messages each of size Mnk, n^2 messages each of size kn, n^2 "
        "messages each of size ntk (clique distribution) and n^2 messages "
        "each of size k\": Mn^2 k + O(n^4 k) bits.  Honest proposals agree, "
        "so grade-cast's echoes name them by sender id: O(n^3) ids plus the "
        "n^2 proposals, and the measured exponent in n stays below 4.  A "
        "proposal an adversary makes honest players disagree on is still "
        "echoed whole, so the worst case is unchanged.",
        EXACT, points(n=[7, 13, 19, 25, 31, 37, 13], t=[1, 2, 3, 4, 5, 6, 2],
                      M=[4, 4, 4, 4, 4, 4, 64]),
        e18_predicted, e18_measured),
)


def holds(compare: str, predicted: Any, measured: Any) -> bool:
    if compare == EXACT:
        return measured == predicted
    if compare == BOUND:
        return measured <= predicted.limit + predicted.tolerance
    lhs, rhs = measured
    return lhs < rhs


def evaluate(row: Row, row_points=None) -> List[tuple]:
    """``(point, quantity, predicted, measured, ok)`` per checked quantity."""
    results = []
    for point in row.points if row_points is None else row_points:
        predicted, measured = row.predicted(**point), row.measured(**point)
        assert predicted.keys() == measured.keys(), (row.id, point)
        for quantity, paper in predicted.items():
            results.append((point, quantity, paper, measured[quantity],
                            holds(row.compare, paper, measured[quantity])))
    return results


def failures(results: List[tuple]) -> List[str]:
    return [
        f"{point} {quantity}: paper {paper}, measured {measured}"
        for point, quantity, paper, measured, ok in results if not ok
    ]


# --------------------------------------------------------------------------
# rendering: the E1-E18 section of EXPERIMENTS.md
# --------------------------------------------------------------------------

EXPERIMENTS = ROOT / "EXPERIMENTS.md"
BEGIN = "<!-- claims:begin (generated by benchmarks/claims.py --write) -->"
END = "<!-- claims:end -->"


def number(value: Any) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    return f"{int(value):,}" if isinstance(value, (int, float)) else str(value)


def cells(row: Row, paper: Any, measured: Any) -> Tuple[str, str]:
    if row.compare == EXACT:
        return number(paper), number(measured)
    if row.compare == BOUND:
        return (f"≤ {number(paper.limit)} (+ {number(paper.tolerance)})",
                number(measured))
    if row.timed:
        return paper, "(timed)"
    return paper, f"{number(measured[0])} < {number(measured[1])}"


def render(results_by_row: Dict[str, List[tuple]]) -> str:
    lines = []
    for row in ROWS:
        lines += [f"## {row.id} — {row.title}", "", f"> {row.statement}", "",
                  f"compare: **{row.compare}**", "",
                  "| parameters | quantity | paper | measured | |",
                  "|---|---|---|---|---|"]
        for point, quantity, paper, measured, ok in results_by_row[row.id]:
            where = " ".join(f"{name}={value}" for name, value in point.items())
            paper_cell, measured_cell = cells(row, paper, measured)
            lines.append(f"| {where} | {quantity} | {paper_cell} | "
                         f"**{measured_cell}** | {'ok' if ok else 'FAIL'} |")
        lines.append("")
    return "\n".join(lines)


def committed_section() -> str:
    text = EXPERIMENTS.read_text()
    return text[text.index(BEGIN) + len(BEGIN):text.index(END)].strip("\n")


# --------------------------------------------------------------------------
# pytest: one test over the rows, then the committed tables
# --------------------------------------------------------------------------

_RESULTS: Dict[str, List[tuple]] = {}


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_row(row):
    _RESULTS[row.id] = evaluate(row)
    assert not failures(_RESULTS[row.id])


def test_experiments_md_is_current():
    """EXPERIMENTS.md's E-tables are what this run measured, byte for byte
    (``--write`` regenerates them); skipped when only some rows ran."""
    if _RESULTS.keys() != {row.id for row in ROWS}:
        pytest.skip("not every row ran in this session")
    assert render(_RESULTS).strip("\n") == committed_section()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the E1-E18 section of EXPERIMENTS.md")
    args = parser.parse_args(argv)
    results = {row.id: evaluate(row) for row in ROWS}
    section = render(results)
    if args.write:
        text = EXPERIMENTS.read_text()
        head, tail = text[:text.index(BEGIN)], text[text.index(END):]
        EXPERIMENTS.write_text(f"{head}{BEGIN}\n\n{section}\n{tail}")
    else:
        print(section)
    failed = [line for rows in results.values() for line in failures(rows)]
    for line in failed:
        print("FAIL", line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
