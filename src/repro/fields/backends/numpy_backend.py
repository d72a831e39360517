"""Vectorized bulk kernels on numpy arrays.

Strategies, chosen per field at construction:

* **GF(2^k), log/exp tables (k <= 16)** — a multiplication is two log
  gathers, an integer add, and one antilog gather; whole vectors become
  four fancy-indexing operations.
* **GF(2^k), carry-less (k <= 32)** — products are assembled from a
  process-global 256x256 byte carry-less-product table (one gather,
  shift and XOR per pair of byte limbs: 16 for two full-width k=32
  vectors, 4 when one operand is all player indices), then reduced
  modulo the field polynomial with per-field byte fold tables (one
  gather per high byte the product can reach).  This is the table-free
  analogue of a CLMUL instruction.
* **GF(p), p < 2^32** — ``uint64`` arithmetic with one ``% p`` per
  product; ``(p-1)^2 + (p-1) < 2^64`` so nothing overflows, and dot
  products accumulate reduced summands (``n * (p-1)`` also fits).

Vectors shorter than :data:`MIN_WIDTH` delegate to the pure loops — the
per-call numpy overhead (array conversion, ufunc dispatch) exceeds the
arithmetic below roughly 32 elements, and the protocol's genuinely hot
vectors (dealing sweeps, batched dots) are hundreds wide.
``batch_inv`` always delegates: Montgomery's trick is a prefix-product
chain whose every step depends on the previous one, so there is nothing
to vectorize — reusing the scalar chain keeps results, error behaviour,
and metering bit-identical.

Everything here is *unmetered*; the ``Field`` wrappers count ops before
dispatching (see the package docstring's metering contract).
"""

from __future__ import annotations

_NUMPY = None
_NUMPY_CHECKED = False

#: below this many total elements the pure loops win; measured on the
#: k=32 carry-less kernels with limb skipping on both sides: numpy
#: overtakes between 12 and 16 elements when both operands are full
#: width and at about 64 when one fits a byte (the pure loop then runs 8
#: iterations, the kernel 4 gathers) — one constant between the two
MIN_WIDTH = 32


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


_CL8 = None


def _cl8_table(np):
    """256x256 carry-less products of byte pairs (15-bit results).

    Field-independent (no reduction), so one table serves every GF(2^k)
    instance in the process; built vectorized in ~1 ms on first use.
    """
    global _CL8
    if _CL8 is None:
        a = np.arange(256, dtype=np.uint64).reshape(-1, 1)
        b = np.arange(256, dtype=np.uint64).reshape(1, -1)
        table = np.zeros((256, 256), dtype=np.uint64)
        for bit in range(8):
            table ^= np.where((b >> bit) & 1, a << bit, 0).astype(np.uint64)
        _CL8 = table
    return _CL8


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
        if kind == "gf2k":
            if field._exp is not None:
                self._style = "gf2k_tables"
                self._exp_arr = np.array(field._exp, dtype=np.int64)
                self._log_arr = np.array(field._log, dtype=np.int64)
            elif field.k <= 32:
                # byte products peak at bit 8*(nbytes-1)*2 + 14 < 64
                self._style = "gf2k_clmul"
                self._setup_clmul(field)
        elif kind == "gfp" and field.p < (1 << 32):
            self._style = "gfp_u64"
            self._p = np.uint64(field.p)
        # any other configuration: every kernel falls back to pure

    # -- setup ------------------------------------------------------------
    def _setup_clmul(self, field) -> None:
        np = self.np
        k, mod = field.k, field.modulus
        self._k = np.uint64(k)
        self._mask = np.uint64((1 << k) - 1)
        # reduction of x^(k+j) for every overflow bit position j
        red = []
        for j in range(max(0, k - 1)):
            v = 1 << (k + j)
            for d in range(k + j, k - 1, -1):
                if (v >> d) & 1:
                    v ^= mod << (d - k)
            red.append(v)
        nfold = max(1, (k - 1 + 7) // 8)
        fold = np.zeros((nfold, 256), dtype=np.uint64)
        for pos in range(nfold):
            for byte in range(256):
                acc = 0
                for bit in range(8):
                    j = 8 * pos + bit
                    if (byte >> bit) & 1 and j < k - 1:
                        acc ^= red[j]
                fold[pos, byte] = acc
        self._fold = fold

    # -- helpers ----------------------------------------------------------
    def _clmul_reduce(self, a, b):
        """Carry-less product of uint64 arrays, reduced into the field.

        Byte limbs above an operand's widest element are zero across the
        whole vector and are skipped, as are fold positions above the
        widest possible product: for k=32, a sweep by abscissas below 256
        costs 4 table gathers and 1 fold instead of 16 and 4.
        """
        np = self.np
        cl8 = _cl8_table(np)
        a_bits = int(a.max()).bit_length()
        b_bits = int(b.max()).bit_length()
        a_bytes = [((a >> np.uint64(8 * i)) & np.uint64(0xFF)).astype(np.intp)
                   for i in range((a_bits + 7) // 8)]
        b_bytes = [((b >> np.uint64(8 * j)) & np.uint64(0xFF)).astype(np.intp)
                   for j in range((b_bits + 7) // 8)]
        prod = np.zeros(np.broadcast(a, b).shape, dtype=np.uint64)
        for i, ai in enumerate(a_bytes):
            for j, bj in enumerate(b_bytes):
                prod ^= cl8[ai, bj] << np.uint64(8 * (i + j))
        # fold the overflow bits k..2k-2 back down (fold values are < 2^k,
        # so a single pass fully reduces)
        hi = prod >> self._k
        out = prod & self._mask
        hi_bits = a_bits + b_bits - 1 - int(self._k)  # none when <= 0
        for pos in range((hi_bits + 7) // 8):
            byte = ((hi >> np.uint64(8 * pos)) & np.uint64(0xFF)).astype(np.intp)
            out = out ^ self._fold[pos, byte]
        return out

    def _gf2k_mul_arrays(self, a, b):
        np = self.np
        if self._style == "gf2k_tables":
            nz = (a != 0) & (b != 0)
            idx = self._log_arr[a] + self._log_arr[b]
            return np.where(nz, self._exp_arr[idx], 0)
        return self._clmul_reduce(a, b)

    def _in_arr(self, vec):
        dtype = self.np.int64 if self._style == "gf2k_tables" else self.np.uint64
        return self.np.array(vec, dtype=dtype)

    # -- kernels ----------------------------------------------------------
    def mul_many(self, avec, bvec):
        if self._style is None or len(avec) < MIN_WIDTH:
            return self.field._mul_many_pure(avec, bvec)
        a, b = self._in_arr(avec), self._in_arr(bvec)
        if self._style == "gfp_u64":
            return ((a * b) % self._p).tolist()
        return self._gf2k_mul_arrays(a, b).tolist()

    def dot(self, avec, bvec):
        if self._style is None or len(avec) < MIN_WIDTH:
            return self.field._dot_pure(avec, bvec)
        np = self.np
        a, b = self._in_arr(avec), self._in_arr(bvec)
        if self._style == "gfp_u64":
            return int(((a * b) % self._p).sum(dtype=np.uint64) % self._p)
        return int(np.bitwise_xor.reduce(self._gf2k_mul_arrays(a, b)))

    def axpy_many(self, acc, xs, c):
        if self._style is None or len(acc) < MIN_WIDTH:
            return self.field._axpy_many_pure(acc, xs, c)
        a, x = self._in_arr(acc), self._in_arr(xs)
        if self._style == "gfp_u64":
            return ((a * x + self.np.uint64(c)) % self._p).tolist()
        prod = self._gf2k_mul_arrays(a, x)
        return (prod ^ (self.np.int64(c) if self._style == "gf2k_tables"
                        else self.np.uint64(c))).tolist()

    def fma_many(self, acc, xs, cs):
        if self._style is None or len(acc) < MIN_WIDTH:
            return self.field._fma_many_pure(acc, xs, cs)
        a, x, c = self._in_arr(acc), self._in_arr(xs), self._in_arr(cs)
        if self._style == "gfp_u64":
            return ((a * x + c) % self._p).tolist()
        return (self._gf2k_mul_arrays(a, x) ^ c).tolist()

    def dot_rows(self, rows, vec):
        total = len(rows) * len(vec)
        if self._style is None or total < MIN_WIDTH or not len(vec):
            return self.field._dot_rows_pure(rows, vec)
        np = self.np
        dtype = np.int64 if self._style == "gf2k_tables" else np.uint64
        matrix = np.array([list(row) for row in rows], dtype=dtype)
        v = np.array(vec, dtype=dtype)
        if self._style == "gfp_u64":
            prods = (matrix * v) % self._p
            return (prods.sum(axis=1, dtype=np.uint64) % self._p).tolist()
        prods = self._gf2k_mul_arrays(matrix, v)
        return np.bitwise_xor.reduce(prods, axis=1).tolist()

    def batch_inv(self, vec):
        # Montgomery's chain is sequential by construction — see module
        # docstring; the pure loop is already one inv + 3(n-1) muls
        return self.field._batch_inv_pure(vec)
