"""Vectorized bulk kernels on numpy arrays.

Strategies, chosen per field at construction:

* **GF(2^k), log/exp tables (k <= 16)** — a multiplication is two log
  gathers, an integer add, and one antilog gather; whole vectors become
  four fancy-indexing operations.
* **GF(2^k), carry-less (k <= 32)** — table-free: the carry-less product
  is read off ordinary integer multiplies of nibble-spaced operands and
  reduced by shifts along the modulus's low taps (see
  :meth:`NumpyBackend._clmul`); nothing is built at construction and
  nothing is shared between fields.
* **GF(p), p < 2^32** — ``uint64`` arithmetic with one ``% p`` per
  product; ``(p-1)^2 + (p-1) < 2^64`` so nothing overflows, and dot
  products accumulate reduced summands (``n * (p-1)`` also fits).

``horner_columns`` (G polynomials at m points) is the one entry point
that broadcasts two different shapes against each other: an (m, G)
accumulator, the points as an (m, 1) column, each coefficient column as
a (1, G) row.  ``Field.mul_outer`` reaches it as a single Horner step.

Short vectors delegate to the pure loops: converting in and out and
dispatching ufuncs is a fixed cost a call, the pure loops cost per
element (see :meth:`NumpyBackend._pure_wins` for the rule and what it
was measured on).  ``batch_inv`` always delegates: Montgomery's trick is
a prefix-product chain whose every step depends on the previous one, so
there is nothing to vectorize — reusing the scalar chain keeps results,
error behaviour, and metering bit-identical.

Vectors enter through a typed buffer (``array('Q', vec)``), which is
faster than ``np.array`` on a list of ints and refuses what is not an
integer — a float raises ``TypeError`` here as it does in the pure
loops, where ``np.array(..., dtype=uint64)`` would truncate it.

Everything here is *unmetered*; the ``Field`` wrappers count ops before
dispatching (see the package docstring's metering contract).
"""

from __future__ import annotations

from array import array
from itertools import chain

_NUMPY = None
_NUMPY_CHECKED = False


def numpy_or_none():
    """The numpy module, or None when it cannot be imported."""
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        _NUMPY_CHECKED = True
        try:
            import numpy
        except ImportError:
            numpy = None
        _NUMPY = numpy
    return _NUMPY


class NumpyBackend:
    """Numpy bulk kernels with transparent pure-python fallback."""

    name = "numpy"

    def __init__(self, field):
        np = numpy_or_none()
        if np is None:  # pragma: no cover - resolve_backend guards this
            raise RuntimeError("numpy is not installed")
        self.np = np
        self.field = field
        kind = getattr(field, "kind", None)
        self._style = None
        self._dtype = np.uint64
        if kind == "gf2k":
            if field._exp is not None:
                self._style = "gf2k_tables"
                self._dtype = np.int64  # gather indices
                self._exp_arr = np.array(field._exp, dtype=np.int64)
                self._log_arr = np.array(field._log, dtype=np.int64)
            elif field.k <= 32:
                # operands below 2^32: integer products stay below 2^64
                self._style = "gf2k_clmul"
                low = field.modulus ^ (1 << field.k)
                self._k = np.uint64(field.k)
                self._mask = np.uint64((1 << field.k) - 1)
                self._taps = [np.uint64(i) for i in range(low.bit_length())
                              if (low >> i) & 1]
                self._low_degree = low.bit_length() - 1
                self._residues = [np.uint64(0x1111111111111111 << r)
                                  for r in range(4)]
        elif kind == "gfp" and field.p < (1 << 32):
            self._style = "gfp_u64"
            self._p = np.uint64(field.p)
        # any other configuration: every kernel falls back to pure

    # -- helpers ----------------------------------------------------------
    def _pure_wins(self, n, a, b):
        """Is an ``n``-element call on operands ``a``, ``b`` cheaper in
        the pure loops?

        The carry-less pure product (:meth:`GF2k._raw_mul`) is keyed on
        the *narrower* operand, and so is the crossover (k=32; python
        3.11, numpy 2.4, a 2-core Xeon VM): both operands wide, the
        sixteen-multiply product costs ~1.9 us an element and the kernel
        ~30 us a ``mul_many`` call (~34 us a ``dot``) — numpy from 16
        elements; one operand a byte (every sweep by player indices), the
        bit loop costs ~0.6 us an element against ~16 us — numpy from
        32.  The table and prime loops cost the same whatever the
        operands hold and keep the floor they were measured at, 32.
        ``a`` and ``b`` are only scanned between the two floors.
        """
        if n < 16 or self._style is None:
            return True
        if n >= 32:
            return False
        return self._style != "gf2k_clmul" or max(b) < 256 or max(a) < 256

    def _clmul(self, a, b):
        """Unreduced carry-less products of uint64 arrays below 2^32, and
        the bit length they can reach.

        Mask an operand with ``0x1111...`` shifted by r and its set bits
        sit at positions = r (mod 4), with three-bit holes between them.
        The *integer* product of residue i of ``a`` and residue j of
        ``b`` then holds, at each position = i + j (mod 4), the number
        of bit pairs that land there; an operand below 2^32 has at most
        8 bits per residue, so no count exceeds 8, none carries out of
        its 4-bit hole, and the count's low bit is the carry-less
        product's bit.  XOR the four products of each residue class,
        keep the class's positions, OR the classes: sixteen multiplies,
        no table.  When the narrower operand fits a byte the product is
        the XOR of ``a * (b & 2^i)`` over its bits — a single-bit
        multiplier shifts, so nothing collides and no mask is needed.
        """
        np = self.np
        a_bits = int(a.max()).bit_length()
        b_bits = int(b.max()).bit_length()
        if a_bits < b_bits:
            a, b, a_bits, b_bits = b, a, b_bits, a_bits
        if b_bits <= 8:
            prod = np.zeros(np.broadcast(a, b).shape, dtype=np.uint64)
            for i in range(b_bits):
                prod ^= a * (b & np.uint64(1 << i))
            return prod, a_bits + b_bits - 1
        ar = [a & m for m in self._residues]
        br = [b & m for m in self._residues]
        prod = None
        for r, m in enumerate(self._residues):
            cls = ar[0] * br[r]
            for i in (1, 2, 3):
                cls ^= ar[i] * br[(r - i) % 4]
            cls &= m
            prod = cls if prod is None else prod | cls
        return prod, a_bits + b_bits - 1

    def _reduce(self, prod, bits):
        """``prod`` (below ``2^bits``) modulo the field polynomial.

        ``x^k = low(x)``, so the part above bit k folds down as a
        carry-less multiple of ``low`` — one shift and XOR per tap.  A
        pass leaves at most ``bits - k + deg(low)`` bits; passes repeat
        until that is k (two for a full k=32 product under ``0x8d``, one
        for a sweep by indices, more for a modulus with a high low part).
        """
        k = self.field.k
        while bits > k:
            hi = prod >> self._k
            prod = prod & self._mask
            for tap in self._taps:
                prod ^= hi << tap
            bits += self._low_degree - k
        return prod

    def _gf2k_mul_arrays(self, a, b):
        np = self.np
        if self._style == "gf2k_tables":
            nz = (a != 0) & (b != 0)
            idx = self._log_arr[a] + self._log_arr[b]
            return np.where(nz, self._exp_arr[idx], 0)
        return self._reduce(*self._clmul(a, b))

    def _gf2k_dots(self, a, b):
        """XOR of the products along the last axis (kept, length 1)."""
        xor = self.np.bitwise_xor.reduce
        if self._style == "gf2k_tables":
            return xor(self._gf2k_mul_arrays(a, b), axis=-1, keepdims=True)
        # reduction is GF(2)-linear: fold once per row, not per product
        prod, bits = self._clmul(a, b)
        return self._reduce(xor(prod, axis=-1, keepdims=True), bits)

    def _in_arr(self, vec):
        """``vec`` as an array of the style's dtype; ``TypeError`` for a
        non-integer element.  Always through an unsigned buffer (``'q'``
        converts at half the speed); the table style reads the same
        bytes as ``int64``."""
        return self.np.frombuffer(array("Q", vec), dtype=self._dtype)

    # -- kernels ----------------------------------------------------------
    def mul_many(self, avec, bvec):
        if self._pure_wins(len(avec), avec, bvec):
            return self.field._mul_many_pure(avec, bvec)
        a, b = self._in_arr(avec), self._in_arr(bvec)
        if self._style == "gfp_u64":
            return ((a * b) % self._p).tolist()
        return self._gf2k_mul_arrays(a, b).tolist()

    def dot(self, avec, bvec):
        if self._pure_wins(len(avec), avec, bvec):
            return self.field._dot_pure(avec, bvec)
        np = self.np
        a, b = self._in_arr(avec), self._in_arr(bvec)
        if self._style == "gfp_u64":
            return int(((a * b) % self._p).sum(dtype=np.uint64) % self._p)
        return int(self._gf2k_dots(a, b)[0])

    def axpy_many(self, acc, xs, c):
        if self._pure_wins(len(acc), acc, xs):
            return self.field._axpy_many_pure(acc, xs, c)
        a, x, c = self._in_arr(acc), self._in_arr(xs), self._in_arr((c,))
        if self._style == "gfp_u64":
            return ((a * x + c) % self._p).tolist()
        return (self._gf2k_mul_arrays(a, x) ^ c).tolist()

    def horner_columns(self, columns, xs):
        """Horner on an (m, G) accumulator: each step multiplies it by the
        points as an (m, 1) column and adds the next coefficient column as
        a (1, G) row — one conversion of the coefficients and one of the
        points, where tiling converts three G*m lists a step."""
        if len(columns) == 1 or self._pure_wins(
            len(xs) * len(columns[0]), columns[-1], xs
        ):
            return self.field._horner_columns_pure(columns, xs)
        coeffs = self._in_arr(list(chain.from_iterable(columns)))
        coeffs = coeffs.reshape(len(columns), -1)
        x = self._in_arr(xs)[:, None]
        acc = coeffs[-1]
        for i in range(len(columns) - 2, -1, -1):
            if self._style == "gfp_u64":
                acc = (acc * x + coeffs[i]) % self._p
            else:
                acc = self._gf2k_mul_arrays(acc, x) ^ coeffs[i]
        return acc.tolist()

    def dot_rows(self, rows, vec):
        if self._pure_wins(len(rows) * len(vec), vec,
                           chain.from_iterable(rows)):
            return self.field._dot_rows_pure(rows, vec)
        np = self.np
        # a list first: ``array`` fills from an iterator element by element
        matrix = self._in_arr(list(chain.from_iterable(rows)))
        matrix = matrix.reshape(len(rows), -1)
        v = self._in_arr(vec)
        if self._style == "gfp_u64":
            prods = (matrix * v) % self._p
            return (prods.sum(axis=1, dtype=np.uint64) % self._p).tolist()
        return self._gf2k_dots(matrix, v)[:, 0].tolist()

    def batch_inv(self, vec):
        # Montgomery's chain is sequential by construction — see module
        # docstring; the pure loop is already one inv + 3(n-1) muls
        return self.field._batch_inv_pure(vec)
