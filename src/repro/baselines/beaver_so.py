"""Beaver-So [2] style global bit generation — the complexity-assumption
baseline.

Section 1.4: "The global coin protocol of Beaver and So only needs a
majority of good players, but relies on complexity assumptions
(specifically, the intractability of factoring), which in turn makes it
inefficient.  Furthermore, the generation of bits is limited to a
pre-set size."

We model the *cost shape and trust profile* of that construction with a
Blum-Blum-Shub-style generator over a Blum integer N = p*q: a one-time
distributed seed x_0 (here drawn from a shared coin), bits produced by
repeated squaring modulo N.  The two properties the paper contrasts
against are made measurable:

* **pre-set size** — the construction fixes its bit budget at setup
  (:class:`BeaverSoGenerator` raises :class:`BudgetExhausted` beyond it),
  whereas the D-PRBG "generation process is endless";
* **cost under the assumption** — every bit costs a multiplication of
  log-N-sized numbers (1024+ bits for factoring hardness), metered here
  through a :class:`~repro.fields.gfp.GFp`-style counter.

This is a *shape* baseline, not a full MPC re-implementation of [2]:
the distributed-squaring subprotocol is collapsed into its per-bit
modular multiplication cost, which is the quantity Section 1.4 compares.

Off the coin path (docs/CENSUS.md, class ii); run by claims row E15.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.fields.irreducible import is_prime


class BudgetExhausted(Exception):
    """The pre-set bit budget is spent ([2]'s fixed generation size)."""


def _random_prime_3mod4(bits: int, rng: random.Random) -> int:
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 3
        if candidate % 4 == 3 and is_prime(candidate):
            return candidate


@dataclass
class BeaverSoCosts:
    """Metered per-run costs."""

    modulus_bits: int = 0
    multiplications: int = 0

    def bit_weighted_work(self) -> int:
        """Multiplications weighted by naive big-int cost (bits^2 words)."""
        return self.multiplications * self.modulus_bits**2


class BeaverSoGenerator:
    """A pre-sized, factoring-based bit generator.

    Parameters
    ----------
    budget:
        Total bits the instance can ever produce (fixed at setup).
    modulus_bits:
        Size of the Blum integer; the paper-era security floor is 1024,
        kept smaller by default so tests stay fast.
    """

    def __init__(self, budget: int, modulus_bits: int = 128, seed: int = 0):
        rng = random.Random(seed)
        half = modulus_bits // 2
        p = _random_prime_3mod4(half, rng)
        q = _random_prime_3mod4(half, rng)
        while q == p:
            q = _random_prime_3mod4(half, rng)
        self.modulus = p * q
        self.budget = budget
        self.produced = 0
        self.costs = BeaverSoCosts(modulus_bits=self.modulus.bit_length())
        # the distributed seed: in [2] jointly generated; here drawn once
        # (e.g. from one shared coin) and squared into a quadratic residue
        self._state = pow(rng.randrange(2, self.modulus - 1), 2, self.modulus)
        self.costs.multiplications += 1

    def bit(self) -> int:
        """The next pseudo-random bit (one modular squaring)."""
        if self.produced >= self.budget:
            raise BudgetExhausted(
                f"pre-set size of {self.budget} bits exhausted — [2] requires "
                f"a fresh (distributed) setup to continue"
            )
        self._state = self._state * self._state % self.modulus
        self.costs.multiplications += 1
        self.produced += 1
        return self._state & 1

    def bits(self, count: int):
        return [self.bit() for _ in range(count)]
