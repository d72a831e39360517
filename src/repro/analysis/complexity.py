"""The paper's cost claims as executable formulas.

Every lemma/theorem that states a cost is transcribed here verbatim (in
the paper's units: additions per player, interpolations per player,
rounds, messages, bits).  Benchmarks compare measured metrics against
these functions; EXPERIMENTS.md records the outcomes.

The paper counts one multiplication in the special field as ``k log k``
additions (Section 2); :func:`mul_cost_fast` is that conversion.

Off the coin path (docs/CENSUS.md, class ii); run by claims rows E1-E8
and E12 (`benchmarks/claims.py`), and the conformance auditor behind
CI's `repro trace --audit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def log2k(k: int) -> float:
    """log2(k), guarded for tiny k."""
    return math.log2(max(k, 2))


def mul_cost_fast(k: int) -> float:
    """Additions per multiplication in the special field: O(k log k)."""
    return k * log2k(k)


@dataclass(frozen=True)
class CostClaim:
    """A stated per-player / total cost."""

    additions: float
    interpolations: float
    rounds: int
    messages: float
    bits: float


# ---------------------------------------------------------------------------
# Lemma 2 — Protocol VSS (single secret)
# ---------------------------------------------------------------------------

def vss_single(n: int, k: int) -> CostClaim:
    """Lemma 2: "protocol VSS requires n + k log k + 1 additions and 2
    polynomial interpolations per player.  There are 2 rounds of
    communication, and the number of messages in each round is n, each of
    size k, for a total of 2nk bits."
    """
    return CostClaim(
        additions=n + mul_cost_fast(k) + 1,
        interpolations=2,
        rounds=2,
        messages=2 * n,
        bits=2 * n * k,
    )


def vss_soundness_bound(p: int) -> float:
    """Lemma 1: a cheating dealer is accepted with probability <= 1/p."""
    return 1.0 / p


# ---------------------------------------------------------------------------
# Lemma 3/4 + Corollary 1 — Protocol Batch-VSS
# ---------------------------------------------------------------------------

def batch_vss(n: int, k: int, M: int) -> CostClaim:
    """Lemma 4: "2 M k log k additions and 2 polynomial interpolations per
    player.  There are two rounds of communication, each with n messages
    ... for a total of 2nk bits."
    """
    return CostClaim(
        additions=2 * M * mul_cost_fast(k),
        interpolations=2,
        rounds=2,
        messages=2 * n,
        bits=2 * n * k,
    )


def batch_vss_amortized_additions(k: int) -> float:
    """Corollary 1: 2 k log k additions per verified secret."""
    return 2 * mul_cost_fast(k)


def batch_vss_soundness_bound(M: int, p: int) -> float:
    """Lemma 3: acceptance of a bad batch with probability <= M/p."""
    return M / p


# ---------------------------------------------------------------------------
# Lemma 5/6 + Corollary 2 — Protocol Bit-Gen
# ---------------------------------------------------------------------------

def bit_gen(n: int, t: int, k: int, M: int) -> CostClaim:
    """Lemma 6: "M t k log k + 2 M k log k additions and 2 polynomial
    interpolations per player.  There are 3 rounds ... n messages each of
    size Mk, in the second and third rounds n^2 messages of size k, for a
    total of nMk + 2 n^2 k bits."
    """
    return CostClaim(
        additions=M * t * mul_cost_fast(k) + 2 * M * mul_cost_fast(k),
        interpolations=2,
        rounds=3,
        messages=n + 2 * n * n,
        bits=n * M * k + 2 * n * n * k,
    )


def bit_gen_amortized_per_bit(n: int, k: int) -> float:
    """Corollary 2: n log k + O(log k) additions per generated bit."""
    return (n + 1) * log2k(k)


# ---------------------------------------------------------------------------
# Theorem 2 + Corollary 3 — Protocol Coin-Gen
# ---------------------------------------------------------------------------

def coin_gen_additions(n: int, k: int, M: int) -> float:
    """Theorem 2 (computation): the n parallel Bit-Gens cost
    ``M n^2 k log k + 2 M n k log k`` additions in total (shared across n
    players), plus clique finding and an expected-O(1) number of further
    interpolations and BAs.
    """
    return M * n * n * mul_cost_fast(k) + 2 * M * n * mul_cost_fast(k)


def coin_gen_interpolations_per_player(n: int) -> int:
    """Theorem 2: n + 1 interpolations per player (one per Bit-Gen
    instance plus the shared challenge exposure) — "n polynomial
    interpolations have been saved by using the same coin for all the
    invocations"."""
    return n + 1


def coin_gen_bits(n: int, t: int, k: int, M: int) -> int:
    """Theorem 2 (communication): n messages of size Mnk, n^2 of size kn,
    n^2 of size ntk (clique distribution), n^2 of size k (BA), totalling
    ``M n^2 k + O(n^4 k)`` bits — exactly, for a fault-free run, the sum
    of :func:`coin_gen_phase_bits`."""
    return sum(coin_gen_phase_bits(n, t, k, M).values())


def coin_gen_amortized_bits_per_bit(n: int, k: int, M: int) -> float:
    """Corollary 3: n^2 + O(n^4 / M) bits of communication per coin bit.

    (A k-ary coin carries k bits, so per-element communication is k times
    this.)
    """
    return n * n + (n ** 4) / M


def coin_gen_amortized_ops_per_bit(n: int, k: int) -> float:
    """Corollary 3: O(n log k) operations per coin bit."""
    return n * log2k(k)


def coin_unanimity_error(M: int, n: int, k: int) -> float:
    """Section 1.1: coins are unanimous with probability 1 - M n 2^-k."""
    return M * n * (2.0 ** -k)


def coin_gen_expected_iterations(n: int, t: int) -> float:
    """Lemma 8: each iteration succeeds w.p. >= (n - t)/n, so the expected
    number of leader elections is at most n/(n-t)."""
    return n / (n - t)


# ---------------------------------------------------------------------------
# Per-phase renderings of Theorem 2's round accounting
# ---------------------------------------------------------------------------
# The lemmas state totals; the observability auditor (repro.obs.audit)
# needs them *per phase* of the Fig. 5 pipeline, rendered to the
# simulator's point-to-point expansion (a multicast to n players is n
# unicast messages — the Section 4 model has no broadcast channel).
# These are exact counts for a fault-free run, not O(.) bounds.

def coin_gen_phase_messages(n: int, t: int, iterations: int = 1) -> dict:
    """Exact unicast messages per Fig. 5 phase, fault-free run.

    * ``deal`` — step 1: every player unicasts a share tuple to every
      player: n^2 messages (Theorem 2's "n messages of size Mnk" under
      per-edge expansion);
    * ``expose`` — step 2's shared batching challenge plus one leader
      coin per iteration (steps 9): each is one Coin-Expose round of n
      multicasts = n^2 messages;
    * ``clique`` — step 3: every player multicasts its combination
      vector: n^2 messages ("n^2 messages of size kn");
    * ``gradecast`` — step 7: three multicast rounds (value, echo,
      re-echo): 3 n^2;
    * ``ba`` — step 10: phase-king over t+1 phases per iteration; each
      phase is one all-to-all vote round (n^2) plus one king multicast
      (n).
    """
    return {
        "deal": n * n,
        "expose": (1 + iterations) * n * n,
        "clique": n * n,
        "gradecast": 3 * n * n,
        "ba": iterations * (t + 1) * (n * n + n),
    }


def coin_gen_phase_interpolations(n: int, iterations: int = 1) -> dict:
    """Exact per-player polynomial interpolations per Fig. 5 phase.

    Theorem 2's ``n + 1`` per-player interpolations (plus one per extra
    BA iteration) break down as: one Berlekamp-Welch decode per exposed
    seed coin (the challenge and each leader coin, attributed to
    ``expose``) and one decode per Bit-Gen instance when the combination
    vectors are reconciled (attributed to ``clique``).  Dealing,
    grade-cast, and BA perform none.
    """
    return {
        "deal": 0,
        "expose": 1 + iterations,
        "clique": n,
        "gradecast": 0,
        "ba": 0,
    }


def coin_gen_phase_bits(n: int, t: int, k: int, M: int) -> dict:
    """Exact bits per Fig. 5 phase, fault-free run, k bits an element.

    Per-edge expansion of Theorem 2's terms, with a fault-free run's
    clique of all n players and its single leader election:

    * ``deal`` — every dealer unicasts each player its M+1 shares (the
      M coins plus the blinding dealing): n^2 (M+1) k;
    * ``expose`` — the shared challenge and the leader coin, one share
      per multicast: 2 n^2 k;
    * ``clique`` — every player multicasts its n-entry combination
      vector: n^3 k;
    * ``gradecast`` — round 1 multicasts each proposal, the clique's n
      ids and n (id, t+1 coefficients) pairs: n^2 * n(t+3) k.  Honest
      proposals agree, so every echo and re-echo entry is a reference,
      one sender id: 2 n^3 k.  In all n^3 (t+5) k — O(n^3) ids plus the
      n^2 proposals Theorem 2 counts.  When an adversary makes honest
      proposals differ, echoes of the differing values carry them whole,
      up to n^2 messages of n proposals per echo round: the worst case
      is O(n^4 t k), as with value echoes;
    * ``ba`` — phase king, t+1 phases of an all-to-all vote and a king
      multicast: (t+1)(n^2 + n) k.
    """
    return {
        "deal": n * n * (M + 1) * k,
        "expose": 2 * n * n * k,
        "clique": n ** 3 * k,
        "gradecast": n ** 3 * (t + 5) * k,
        "ba": (t + 1) * (n * n + n) * k,
    }


def expose_messages(senders_total: int, n: int) -> int:
    """Coin-Expose (Fig. 6) messages: every holder multicasts its share.

    ``senders_total`` sums the qualified-sender set sizes over the coins
    exposed together (Section 3.1: "|S| * n messages of size k").
    """
    return senders_total * n


def expose_interpolations(coins: int) -> int:
    """One decode per exposed coin per player (Theorem 1)."""
    return coins
