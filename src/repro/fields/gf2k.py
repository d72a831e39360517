"""The binary extension field GF(2^k).

This is the field the paper's protocol figures assume ("For simplicity
however the algorithms we provide below assume we work over GF(2^k)",
Section 2).  Elements are ints below ``2^k`` interpreted as GF(2)
polynomials of degree < k; arithmetic is modulo a fixed irreducible
polynomial of degree k.

Two multiplication strategies are provided, matching the paper's remark
that "in practice, when k is small, working over GF(2^k) with the naive
O(k^2) multiplication is faster":

* ``tables=True`` (default for k <= 16): log/exp tables over a generator,
  one multiplication = one table add.  Setup is O(2^k).
* ``tables=False``: carry-less multiplication with modular reduction, no
  setup cost; works for any k.  Two wide operands of k <= 32 take sixteen
  integer multiplies on nibble-spaced residues, everything else the
  shift-and-xor loop (see :meth:`GF2k._raw_mul`).  Inversion is extended
  Euclid on the same representation.
"""

from __future__ import annotations

from operator import xor
from typing import List, Optional

from repro.fields.base import Field, exact_ints_below
from repro.fields.irreducible import (
    find_irreducible_gf2,
    gf2_degree,
    is_irreducible_gf2,
    prime_factors,
)

_TABLE_MAX_K = 16

#: :meth:`GF2k._raw_mul` loops over the narrower operand's bits below this
_NARROW = 1 << 11
#: an operand's four nibble-spaced residues (32 bits), and the positions
#: each residue class of a product occupies (64 bits)
_R0, _R1, _R2, _R3 = (0x11111111 << r for r in range(4))
_C0, _C1, _C2, _C3 = (0x1111111111111111 << r for r in range(4))


class GF2k(Field):
    """GF(2^k) with a deterministic modulus and optional log/exp tables.

    Parameters
    ----------
    k:
        Extension degree; the field has ``2^k`` elements and each element
        is transmitted as ``k`` bits (the paper's security parameter).
    modulus:
        Optional int-encoded irreducible polynomial of degree ``k``.  When
        omitted, the lexicographically smallest irreducible polynomial is
        used so all parties derive the same field independently.
    tables:
        Force table-based multiplication on/off.  Defaults to on for
        ``k <= 16``.
    backend:
        Bulk-kernel backend: ``"python"``, ``"numpy"``, or ``"auto"``
        (numpy when installed; see :mod:`repro.fields.backends`).
    """

    kind = "gf2k"

    def __init__(self, k: int, modulus: Optional[int] = None,
                 tables: Optional[bool] = None,
                 backend: Optional[str] = "auto"):
        super().__init__()
        if k < 1:
            raise ValueError("k must be >= 1")
        if modulus is None:
            modulus = find_irreducible_gf2(k)
        if gf2_degree(modulus) != k:
            raise ValueError(f"modulus degree {gf2_degree(modulus)} != k={k}")
        if not is_irreducible_gf2(modulus):
            raise ValueError(f"modulus {modulus:#x} is not irreducible")
        self.k = k
        self.modulus = modulus
        self.order = 1 << k
        self.bit_length = k
        self.zero = 0
        self.one = 1
        self._mask = self.order - 1
        #: shifts of the modulus's terms below x^k (x^k = their sum)
        low = modulus ^ self.order
        self._taps = tuple(i for i in range(k) if low >> i & 1)

        if tables is None:
            tables = k <= _TABLE_MAX_K
        self._exp: Optional[List[int]] = None
        self._log: Optional[List[int]] = None
        if tables:
            if k > _TABLE_MAX_K:
                raise ValueError(f"log/exp tables limited to k <= {_TABLE_MAX_K}")
            self._build_tables()
        self._init_backend(backend)

    # -- internal ----------------------------------------------------------
    def _raw_mul(self, a: int, b: int) -> int:
        """``a * b`` in the field, without metering.

        One rule, on the narrower operand.  Below 2^11 (a player's point,
        an index), or in a field wider than 32 bits, a shift-and-xor loop
        with interleaved reduction runs once per bit of it.  Otherwise
        the carry-less product is the numpy kernel's
        (:meth:`~repro.fields.backends.numpy_backend.NumpyBackend._clmul`)
        on Python ints: masked with ``0x11111111 << r`` an operand below
        2^32 keeps at most 8 bits a residue, so in the integer product of
        two residues every count of colliding bit pairs fits its 4-bit
        hole and its low bit is the carry-less bit — sixteen multiplies,
        the four of each residue class XORed and masked.  The product is
        then folded along the modulus's low taps until it is below 2^k.
        """
        if a < b:
            a, b = b, a
        if b < _NARROW or self.k > 32:
            result = 0
            mod = self.modulus
            top = self.order
            while b:
                if b & 1:
                    result ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mod
            return result
        a0, a1, a2, a3 = a & _R0, a & _R1, a & _R2, a & _R3
        b0, b1, b2, b3 = b & _R0, b & _R1, b & _R2, b & _R3
        prod = (
            (a0 * b0 ^ a1 * b3 ^ a2 * b2 ^ a3 * b1) & _C0
            | (a0 * b1 ^ a1 * b0 ^ a2 * b3 ^ a3 * b2) & _C1
            | (a0 * b2 ^ a1 * b1 ^ a2 * b0 ^ a3 * b3) & _C2
            | (a0 * b3 ^ a1 * b2 ^ a2 * b1 ^ a3 * b0) & _C3
        )
        k, mask = self.k, self._mask
        high = prod >> k
        while high:
            prod &= mask
            for tap in self._taps:
                prod ^= high << tap
            high = prod >> k
        return prod

    def _build_tables(self) -> None:
        """Find a multiplicative generator and build exp/log tables."""
        group_order = self.order - 1
        factors = prime_factors(group_order) if group_order > 1 else []
        generator = None
        for candidate in range(2, self.order):
            if all(self._raw_pow(candidate, group_order // f) != 1 for f in factors):
                generator = candidate
                break
        if generator is None:  # k == 1: the group is trivial
            generator = 1
        exp = [1] * (2 * group_order)
        log = [0] * self.order
        value = 1
        for i in range(group_order):
            exp[i] = value
            log[value] = i
            value = self._raw_mul(value, generator)
        for i in range(group_order, 2 * group_order):
            exp[i] = exp[i - group_order]
        self._exp = exp
        self._log = log
        self.generator = generator

    def _raw_pow(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self._raw_mul(result, a)
            a = self._raw_mul(a, a)
            e >>= 1
        return result

    def _raw_inv(self, a: int) -> int:
        """Inverse of a nonzero ``a`` without tables (no metering).

        Extended Euclid over GF(2)[x] on ``(a, modulus)``: the larger
        remainder is reduced by a shifted copy of the smaller until one
        of them is 1, keeping ``g * a == u`` and ``h * a == v`` modulo
        the field polynomial.  The modulus is irreducible, so the gcd is
        1 and the loop ends within ``2k`` steps of shifts and xors —
        against the ``2k`` carry-less multiplies of ``a^(2^k - 2)``.
        """
        u, v = a, self.modulus
        g, h = 1, 0
        while u != 1:
            shift = u.bit_length() - v.bit_length()
            if shift < 0:
                u, v, g, h = v, u, h, g
                shift = -shift
            u ^= v << shift
            g ^= h << shift
        return g

    # -- Field interface ----------------------------------------------------
    def add(self, a: int, b: int) -> int:
        self.counter.adds += 1
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        # characteristic 2: subtraction is addition
        self.counter.adds += 1
        return a ^ b

    def neg(self, a: int) -> int:
        return a

    def mul(self, a: int, b: int) -> int:
        self.counter.muls += 1
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._raw_mul(a, b)

    def inv(self, a: int) -> int:
        """``a``'s multiplicative inverse; one metered ``invs``.

        A table lookup when the field has log/exp tables, extended
        Euclid over GF(2)[x] (:meth:`_raw_inv`, about one multiply's
        cost) when it does not.  Zero raises :class:`ZeroDivisionError`.
        """
        if a == 0:
            raise ZeroDivisionError("inverse of zero in GF(2^k)")
        self.counter.invs += 1
        if self._exp is not None:
            group_order = self.order - 1
            return self._exp[(group_order - self._log[a]) % group_order]
        return self._raw_inv(a)

    # -- bulk-op pure loops (unmetered; see Field metering contract) --------
    def _mul0(self, a: int, b: int) -> int:
        """Unmetered zero-safe product (bulk-op building block)."""
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._raw_mul(a, b)

    def _mul_many_pure(self, avec, bvec):
        exp, log = self._exp, self._log
        if exp is not None:
            return [exp[log[a] + log[b]] if a and b else 0
                    for a, b in zip(avec, bvec)]
        raw = self._raw_mul
        return [raw(a, b) if a and b else 0 for a, b in zip(avec, bvec)]

    def _dot_pure(self, avec, bvec):
        acc = 0
        exp, log = self._exp, self._log
        if exp is not None:
            for a, b in zip(avec, bvec):
                if a and b:
                    acc ^= exp[log[a] + log[b]]
        else:
            raw = self._raw_mul
            for a, b in zip(avec, bvec):
                if a and b:
                    acc ^= raw(a, b)
        return acc

    def _axpy_many_pure(self, acc, xs, c):
        exp, log = self._exp, self._log
        if exp is not None:
            return [(exp[log[a] + log[x]] if a and x else 0) ^ c
                    for a, x in zip(acc, xs)]
        raw = self._raw_mul
        return [(raw(a, x) if a and x else 0) ^ c for a, x in zip(acc, xs)]

    def _fma_many_pure(self, acc, xs, cs):
        exp, log = self._exp, self._log
        if exp is not None:
            return [(exp[log[a] + log[x]] if a and x else 0) ^ c
                    for a, x, c in zip(acc, xs, cs)]
        raw = self._raw_mul
        return [(raw(a, x) if a and x else 0) ^ c
                for a, x, c in zip(acc, xs, cs)]

    def _dot_rows_pure(self, rows, vec):
        return [self._dot_pure(row, vec) for row in rows]

    def _sum_columns_pure(self, rows):
        rows = iter(rows)
        acc = next(rows)
        for row in rows:
            acc = map(xor, acc, row)
        return list(acc)

    def _batch_inv_pure(self, vec):
        n = len(vec)
        mul = self._mul0
        prefix = [vec[0]]
        for v in vec[1:]:
            prefix.append(mul(prefix[-1], v))
        total = prefix[-1]
        if self._exp is not None:
            group_order = self.order - 1
            acc = self._exp[(group_order - self._log[total]) % group_order]
        else:
            acc = self._raw_inv(total)
        out = [0] * n
        for i in range(n - 1, 0, -1):
            out[i] = mul(acc, prefix[i - 1])
            acc = mul(acc, vec[i])
        out[0] = acc
        return out

    def from_int(self, value: int) -> int:
        if not 0 <= value < self.order:
            raise ValueError(f"{value} out of range for GF(2^{self.k})")
        return value

    def to_int(self, a: int) -> int:
        return a

    def __contains__(self, a) -> bool:
        return type(a) is int and 0 <= a < self.order

    def contains_all(self, values) -> bool:
        return exact_ints_below(values, self.order)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "tables" if self._exp is not None else "clmul"
        return f"GF2k(k={self.k}, modulus={self.modulus:#x}, {mode})"
