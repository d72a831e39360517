"""The prime field Z_p.

The paper notes the field "is not necessarily a prime" (Section 2); the
core protocols run over GF(2^k), but a prime field is needed by

* the Feldman-VSS baseline (Section 1.4), which commits to polynomial
  coefficients as ``g^a mod p`` and therefore needs a multiplicative group
  with a hard discrete log; and
* the NTT underlying the paper's special O(k log k) field.

Off the coin path (docs/CENSUS.md, class ii); run by claims row E5
(Feldman's group arithmetic) and the flight-log field registry.
"""

from __future__ import annotations

from typing import Optional

from repro.fields.base import Field, exact_ints_below
from repro.fields.irreducible import is_prime


def _ints(values):
    """``values`` if every entry is an ``int``.  ``%`` accepts a float and
    answers with one, where the GF(2^k) loops and the array conversion
    raise: the bulk API refuses a non-integer whichever field or backend
    computes."""
    if values and set(map(type, values)) != {int}:
        raise TypeError("GF(p) bulk operands must be ints")
    return values


class GFp(Field):
    """Integers modulo a prime ``p``, elements represented as ints in [0, p)."""

    kind = "gfp"

    def __init__(self, p: int, check_prime: bool = True,
                 backend: Optional[str] = "auto"):
        super().__init__()
        if check_prime and not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.order = p
        self.bit_length = p.bit_length()
        self.zero = 0
        self.one = 1 % p
        self._init_backend(backend)

    def add(self, a: int, b: int) -> int:
        self.counter.adds += 1
        s = a + b
        return s - self.p if s >= self.p else s

    def sub(self, a: int, b: int) -> int:
        self.counter.adds += 1
        d = a - b
        return d + self.p if d < 0 else d

    def neg(self, a: int) -> int:
        return self.p - a if a else 0

    def mul(self, a: int, b: int) -> int:
        self.counter.muls += 1
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        self.counter.invs += 1
        return pow(a, self.p - 2, self.p)

    # -- bulk-op pure loops (unmetered; see Field metering contract) --------
    def _mul_many_pure(self, avec, bvec):
        p = self.p
        return _ints([a * b % p for a, b in zip(avec, bvec)])

    def _dot_pure(self, avec, bvec):
        # accumulate in the integers, one reduction at the end
        return _ints([sum(a * b for a, b in zip(avec, bvec)) % self.p])[0]

    def _axpy_many_pure(self, acc, xs, c):
        p = self.p
        return _ints([(a * x + c) % p for a, x in zip(acc, xs)])

    def _fma_many_pure(self, acc, xs, cs):
        p = self.p
        return _ints([(a * x + c) % p for a, x, c in zip(acc, xs, cs)])

    def _dot_rows_pure(self, rows, vec):
        return [self._dot_pure(row, vec) for row in rows]

    def _sum_columns_pure(self, rows):
        p = self.p
        return [sum(column) % p for column in zip(*rows)]

    def _batch_inv_pure(self, vec):
        n = len(vec)
        p = self.p
        prefix = [vec[0]]
        for v in vec[1:]:
            prefix.append(prefix[-1] * v % p)
        acc = pow(prefix[-1], p - 2, p)
        out = [0] * n
        for i in range(n - 1, 0, -1):
            out[i] = acc * prefix[i - 1] % p
            acc = acc * vec[i] % p
        out[0] = acc
        return out

    def from_int(self, value: int) -> int:
        if not 0 <= value < self.p:
            raise ValueError(f"{value} out of range for GF({self.p})")
        return value

    def to_int(self, a: int) -> int:
        return a

    def __contains__(self, a) -> bool:
        return type(a) is int and 0 <= a < self.p

    def contains_all(self, values) -> bool:
        return exact_ints_below(values, self.p)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GFp(p={self.p})"
