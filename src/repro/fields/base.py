"""Abstract field interface and operation metering.

The paper (Section 2) measures "the computational effort of the players
executing a protocol by the number of additions that they are required to
perform", treating a multiplication in GF(2^k) as O(k^2) additions naively
or O(k log k) in the special field.  :class:`OpCounter` lets every concrete
field report exactly those primitive counts, so the benchmark harness can
check measured counts against the closed-form lemmas.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field as dataclass_field
from random import Random
from struct import unpack
from typing import Any, Iterator, List, Sequence

Element = Any  # representation is field-specific (int or tuple of ints)


def exact_ints_below(values: Sequence[Any], bound: int) -> bool:
    """Is every entry of ``values`` exactly an ``int`` in ``[0, bound)``?

    The membership rule of the int-represented fields over a whole
    sequence, in three C-level passes.  *Exactly* ``int``: a ``bool``, an
    ``int`` subclass, a float, a ``Fraction`` or a numpy scalar compares
    and orders like a member but is not one — the scalar arithmetic
    raises on some of them and the array kernels truncate others.
    """
    return not values or (
        set(map(type, values)) == {int}
        and min(values) >= 0
        and max(values) < bound
    )


@dataclass
class OpCounter:
    """Mutable tally of primitive field operations.

    Attributes mirror the cost units used by the paper's lemmas:
    additions, multiplications, inversions, and polynomial interpolations
    (Lemma 2 counts "2 polynomial interpolations per player").
    """

    adds: int = 0
    muls: int = 0
    invs: int = 0
    interpolations: int = 0

    def snapshot(self) -> "OpCounter":
        """Return a frozen copy of the current tallies."""
        return OpCounter(self.adds, self.muls, self.invs, self.interpolations)

    def reset(self) -> None:
        """Zero every tally."""
        self.adds = 0
        self.muls = 0
        self.invs = 0
        self.interpolations = 0

    def delta(self, earlier: "OpCounter") -> "OpCounter":
        """Return the difference between this counter and an earlier snapshot."""
        return OpCounter(
            self.adds - earlier.adds,
            self.muls - earlier.muls,
            self.invs - earlier.invs,
            self.interpolations - earlier.interpolations,
        )

    def __add__(self, other: "OpCounter") -> "OpCounter":
        return OpCounter(
            self.adds + other.adds,
            self.muls + other.muls,
            self.invs + other.invs,
            self.interpolations + other.interpolations,
        )

    def total_additions(self, k: int, naive: bool = True) -> int:
        """Convert the tally into the paper's "number of additions" metric.

        A multiplication costs ``k^2`` additions naively or ``k log k`` in
        the special field (Section 2); an inversion is counted as
        ``log(p) ~ k`` multiplications via square-and-multiply.
        """
        import math

        mul_cost = k * k if naive else max(1, int(k * math.log2(max(k, 2))))
        return self.adds + mul_cost * (self.muls + k * self.invs)


class Field(ABC):
    """A finite field of size :attr:`order`.

    Elements are immutable, hashable values whose concrete type is chosen by
    the implementation (``int`` for GF(2^k) and Z_p, ``tuple`` for the
    special field).  All arithmetic goes through the field object so that
    operations can be metered.
    """

    #: number of elements in the field (the paper's ``p``)
    order: int
    #: bits needed to transmit one element (the paper's security parameter k)
    bit_length: int
    #: additive identity
    zero: Element
    #: multiplicative identity
    one: Element
    #: coarse family tag backends dispatch on ("gf2k", "gfp", "generic")
    kind = "generic"

    def __init__(self) -> None:
        self.counter = OpCounter()
        #: bulk-kernel strategy object (see :mod:`repro.fields.backends`);
        #: None = no backend layer, bulk ops run as metered scalar loops
        self._backend = None
        #: player id -> evaluation point, filled by :meth:`element_points`
        self._points: dict = {}

    def _init_backend(self, backend: "str | None") -> None:
        """Attach the bulk-kernel backend ``backend`` names (see
        :func:`repro.fields.backends.resolve_backend`).  Concrete fields
        call this at the end of construction, once their tables exist."""
        from repro.fields.backends import resolve_backend

        self._backend = resolve_backend(self, backend)

    @property
    def backend_name(self) -> str:
        """Which backend computes this field's bulk kernels."""
        return self._backend.name if self._backend is not None else "python"

    # -- arithmetic -------------------------------------------------------
    @abstractmethod
    def add(self, a: Element, b: Element) -> Element:
        """Return ``a + b``."""

    @abstractmethod
    def sub(self, a: Element, b: Element) -> Element:
        """Return ``a - b``."""

    @abstractmethod
    def neg(self, a: Element) -> Element:
        """Return ``-a``."""

    @abstractmethod
    def mul(self, a: Element, b: Element) -> Element:
        """Return ``a * b``."""

    @abstractmethod
    def inv(self, a: Element) -> Element:
        """Return the multiplicative inverse of ``a``; raise on zero."""

    def div(self, a: Element, b: Element) -> Element:
        """Return ``a / b``."""
        return self.mul(a, self.inv(b))

    def pow(self, a: Element, e: int) -> Element:
        """Return ``a**e`` by square-and-multiply (``e >= 0``)."""
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    # -- bulk operations ---------------------------------------------------
    #
    # The protocol hot paths (interpolation caches, shared-Horner dealing,
    # batched dot products) work on whole vectors of elements at a time.
    # Metering happens HERE, once per batch, before the pluggable backend
    # (:mod:`repro.fields.backends`) computes the result — so per-element
    # op totals are identical whichever backend runs, and identical to
    # performing the operations one by one.  Fields without a backend
    # (``_backend is None``) fall through to metered scalar loops.  The
    # exception is ``batch_inv``, which genuinely replaces n inversions
    # with one inversion plus 3(n-1) multiplications (Montgomery's trick)
    # and meters exactly what it performs.

    def mul_many(
        self, avec: Sequence[Element], bvec: Sequence[Element]
    ) -> List[Element]:
        """Elementwise products ``[a*b for a, b in zip(avec, bvec)]``."""
        n = len(avec)
        if n != len(bvec):
            raise ValueError("mul_many requires equal-length vectors")
        backend = self._backend
        if backend is None:
            return [self.mul(a, b) for a, b in zip(avec, bvec)]
        self.counter.muls += n
        return backend.mul_many(avec, bvec)

    def dot(self, avec: Sequence[Element], bvec: Sequence[Element]) -> Element:
        """Inner product ``sum_i avec[i] * bvec[i]`` (zero for empty input)."""
        n = len(avec)
        if n != len(bvec):
            raise ValueError("dot requires equal-length vectors")
        if n == 0:
            return self.zero
        backend = self._backend
        if backend is None:
            total = self.zero
            first = True
            for a, b in zip(avec, bvec):
                p = self.mul(a, b)
                total = p if first else self.add(total, p)
                first = False
            return total
        self.counter.muls += n
        self.counter.adds += n - 1
        return backend.dot(avec, bvec)

    def axpy_many(
        self, acc: Sequence[Element], xs: Sequence[Element], c: Element
    ) -> List[Element]:
        """One shared Horner step: ``[a*x + c for a, x in zip(acc, xs)]``."""
        n = len(acc)
        if n != len(xs):
            raise ValueError("axpy_many requires equal-length vectors")
        backend = self._backend
        if backend is None:
            return [self.add(self.mul(a, x), c) for a, x in zip(acc, xs)]
        self.counter.muls += n
        self.counter.adds += n
        return backend.axpy_many(acc, xs, c)

    def horner_columns(
        self,
        columns: Sequence[Sequence[Element]],
        xs: Sequence[Element],
    ) -> List[List[Element]]:
        """G polynomials at m points by Horner's rule, grouped per point:
        ``out[j][g] = sum_i columns[i][g] * xs[j]^i``.

        ``columns[i]`` holds the ``x^i`` coefficient of every polynomial,
        ``columns[-1]`` the leading one; every column has G entries.
        Metered as ``len(columns) - 1`` multiply-add steps per polynomial
        and point — what G*m scalar Horner evaluations perform, leading
        zeros included.  The backends' one broadcasting entry point: the
        numpy kernel multiplies an (m, G) accumulator by the points as a
        column, adding each coefficient column as a row, with no list
        tiled; the pure backend sweeps one width-``G*m`` fused
        multiply-add per step over points tiled recipient-major
        (:meth:`_horner_columns_pure`).
        """
        G, m = len(columns[0]) if columns else 0, len(xs)
        for column in columns:
            if len(column) != G:
                raise ValueError("horner_columns requires equal-length columns")
        if not G or not m:
            return [[] for _ in xs]
        backend = self._backend
        if backend is None:
            out = []
            for x in xs:
                acc = list(columns[-1])
                for column in columns[-2::-1]:
                    acc = [self.add(self.mul(a, x), c) for a, c in zip(acc, column)]
                out.append(acc)
            return out
        steps = (len(columns) - 1) * G * m
        self.counter.muls += steps
        self.counter.adds += steps
        return backend.horner_columns(columns, xs)

    def mul_outer(
        self, avec: Sequence[Element], bvec: Sequence[Element]
    ) -> List[List[Element]]:
        """Every product, one row per ``a``: ``[[a*b for b in bvec] for a
        in avec]``, metered as ``len(avec) * len(bvec)`` multiplications.

        One :meth:`horner_columns` kernel on the degree-1 polynomials
        ``b * x`` (a zero constant column) at the points ``avec``.
        """
        if not avec or not bvec:
            return [[] for _ in avec]
        backend = self._backend
        if backend is None:
            return [[self.mul(a, b) for b in bvec] for a in avec]
        self.counter.muls += len(avec) * len(bvec)
        return backend.horner_columns([[self.zero] * len(bvec), bvec], avec)

    def _horner_columns_pure(self, columns, xs):
        """:meth:`horner_columns` as width-``G*m`` multiply-add sweeps over
        the points tiled recipient-major (unmetered)."""
        G, m = len(columns[0]), len(xs)
        xs_tiled: List[Element] = []
        for x in xs:
            xs_tiled += [x] * G
        acc = list(columns[-1]) * m
        for column in columns[-2::-1]:
            acc = self._fma_many_pure(acc, xs_tiled, list(column) * m)
        return [acc[j * G:(j + 1) * G] for j in range(m)]

    def dot_rows(
        self, rows: Sequence[Sequence[Element]], vec: Sequence[Element]
    ) -> List[Element]:
        """Many inner products against one shared vector:
        ``[dot(row, vec) for row in rows]``.

        The batched-combination workhorse (Fig. 3 step 2 across all
        dealers at once): same op totals as row-by-row :meth:`dot`, one
        two-dimensional kernel instead of ``len(rows)`` narrow ones.
        """
        m = len(vec)
        for row in rows:
            if len(row) != m:
                raise ValueError("dot_rows requires equal-length rows")
        backend = self._backend
        if backend is None:
            return [self.dot(list(row), vec) for row in rows]
        if m == 0:
            return [self.zero] * len(rows)
        self.counter.muls += len(rows) * m
        self.counter.adds += len(rows) * (m - 1)
        return backend.dot_rows(rows, vec)

    def sum_columns(self, rows: Sequence[Sequence[Element]]) -> List[Element]:
        """The sum of every column of ``rows`` (``[]`` for no rows):
        ``[sum(row[j] for row in rows) for j in range(width)]``.

        Coin-Gen's step 12 — every coin share is the sum of one entry
        from each clique dealer's tuple.  Metered as ``len(rows) * width``
        additions, what accumulating every row onto zero performs.  There
        is no array kernel behind it: the pure body is one C-level pass
        per row, and at a stretch's shape (6 x 263) converting the rows
        costs numpy what the whole sum costs python.
        """
        if not rows:
            return []
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ValueError("sum_columns requires equal-length rows")
        if self._backend is None:
            acc = [self.zero] * width
            for row in rows:
                acc = [self.add(a, v) for a, v in zip(acc, row)]
            return acc
        self.counter.adds += len(rows) * width
        return self._sum_columns_pure(rows)

    def batch_inv(self, vec: Sequence[Element]) -> List[Element]:
        """All inverses of ``vec`` via Montgomery's trick.

        One :meth:`inv` plus ``3(len(vec)-1)`` multiplications, however
        long the vector — the workhorse behind the interpolation cache's
        one-time weight build.  Raises ``ZeroDivisionError`` naming the
        offending index if any element is zero (identical across
        backends; see tests/test_backends.py).
        """
        n = len(vec)
        if n == 0:
            return []
        zero = self.zero
        for i, v in enumerate(vec):
            if v == zero:
                raise ZeroDivisionError(
                    f"batch_inv of a vector containing zero (index {i})"
                )
        backend = self._backend
        if backend is None:
            prefix = [vec[0]]
            for v in vec[1:]:
                prefix.append(self.mul(prefix[-1], v))
            acc = self.inv(prefix[-1])
            out: List[Element] = [self.zero] * n
            for i in range(n - 1, 0, -1):
                out[i] = self.mul(acc, prefix[i - 1])
                acc = self.mul(acc, vec[i])
            out[0] = acc
            return out
        self.counter.invs += 1
        self.counter.muls += 3 * (n - 1)
        return backend.batch_inv(vec)

    # -- conversions ------------------------------------------------------
    @abstractmethod
    def from_int(self, value: int) -> Element:
        """Canonical injection of ``0 <= value < order`` into the field."""

    @abstractmethod
    def to_int(self, a: Element) -> int:
        """Inverse of :meth:`from_int`."""

    def element_point(self, player_id: int) -> Element:
        """The evaluation point assigned to player ``player_id`` (1-based).

        Shamir sharing evaluates the secret polynomial at these points; they
        must be distinct and nonzero (the secret lives at 0).
        """
        if not 1 <= player_id < self.order:
            raise ValueError(
                f"player id {player_id} out of range for field of order {self.order}"
            )
        return self.from_int(player_id)

    def element_points(self, player_ids: Sequence[int]) -> List[Element]:
        """:meth:`element_point` of every id in ``player_ids``, each
        looked up once per field: a decode asks for the same ``n``
        points coin after coin."""
        points = self._points
        try:
            return list(map(points.__getitem__, player_ids))
        except KeyError:
            for pid in player_ids:
                if pid not in points:
                    points[pid] = self.element_point(pid)
            return list(map(points.__getitem__, player_ids))

    # -- randomness -------------------------------------------------------
    def random(self, rng) -> Element:
        """A uniformly random field element drawn from ``rng``."""
        return self.from_int(rng.randrange(self.order))

    def random_many(self, rng, count: int) -> List[Element]:
        """``count`` uniform elements, stream-identical to ``count``
        successive :meth:`random` calls on ``rng``: equal values, and
        ``rng.getstate()`` left where those calls leave it.

        ``randrange(order)`` takes ``order.bit_length()`` bits from the
        Mersenne Twister — whole 32-bit words least significant first,
        then the high bits of one more — and draws again while the result
        is ``>= order``.  On a plain :class:`random.Random` and an order
        below 2^64 (one or two words a draw) the same words are read in
        bulk: one ``getrandbits(32 * words * need)`` per rejection round
        holds ``need`` draws in consecutive slots, least significant
        first; two masks and a shift drop the low bits of every slot's
        top word at once, and the slots are read back little-endian.  A
        round keeps exactly the draws the loop keeps and reads no word
        past the last of them.  Wider orders and other generators take
        the ``randrange`` loop.  The int-represented families (``kind``
        ``"gf2k"`` / ``"gfp"``) hand the drawn ints back as they are; any
        other field maps them through :meth:`from_int`.
        """
        order = self.order
        bits = order.bit_length()
        if type(rng) is not Random or bits > 64:
            randrange, from_int = rng.randrange, self.from_int
            return [from_int(randrange(order)) for _ in range(count)]
        words = 1 if bits <= 32 else 2
        size = 4 * words
        drop = 8 * size - bits  # the top word's low bits randrange drops
        full = (1 << 32 * (words - 1)) - 1  # a slot's whole words
        full_slot = full.to_bytes(size, "little")
        kept_slot = ((1 << bits) - 1 ^ full).to_bytes(size, "little")
        drawn: List[int] = []
        need = count
        while need:
            block = rng.getrandbits(8 * size * need)
            block = (
                block & int.from_bytes(full_slot * need, "little")
                | block >> drop & int.from_bytes(kept_slot * need, "little")
            )
            slots = unpack(
                f"<{need}{'IQ'[words - 1]}", block.to_bytes(size * need, "little")
            )
            drawn += [v for v in slots if v < order]
            need = count - len(drawn)
        if self.kind == "generic":
            return list(map(self.from_int, drawn))
        return drawn

    def random_nonzero(self, rng) -> Element:
        """A uniformly random *nonzero* field element."""
        return self.from_int(rng.randrange(1, self.order))

    # -- coin extraction --------------------------------------------------
    def coin_bit(self, a: Element) -> int:
        """The paper's ``F(0) mod 2`` bit extraction (Fig. 6, step 3).

        Exactly fair on GF(2^k).  On an odd order p it is 1 for
        ``(p - 1) / 2`` of the p elements (8/17 on GF(17)); use
        :meth:`coin_bits` where every bit must be exactly uniform."""
        return self.to_int(a) & 1

    def coin_bits(self, a: Element) -> List[int]:
        """The uniform bits of a uniform element, least-significant first.

        Section 3.1: "as all our coins will be generated in the field
        GF(2^k) we can assume that each coin generates in fact k random
        coins in {0,1}".  On GF(2^k) that is all k bits.  On a field
        whose order is not a power of two the top bits are biased (the
        top bit of a GF(17) element is 1 with probability 1/17), so a
        value below ``2^L``, ``L = floor(log2(order))``, yields its low
        ``L`` bits and a larger value yields none: every emitted bit is
        exactly uniform, and a coin yields bits with probability
        ``2^L / order``.
        """
        value = self.to_int(a)
        width = self.order.bit_length() - 1
        if value >> width:  # only when the order is not a power of two
            return []
        return [(value >> i) & 1 for i in range(width)]

    # -- iteration helpers (small fields / tests) -------------------------
    def elements(self) -> Iterator[Element]:
        """Iterate every element; only sensible for small test fields."""
        for value in range(self.order):
            yield self.from_int(value)

    # -- membership --------------------------------------------------------
    @abstractmethod
    def __contains__(self, a: Any) -> bool:
        """Is ``a`` a well-formed element?  Exact on type as well as
        range: anything a faulty player can put on the wire is asked."""

    def contains_all(self, values: Sequence[Any]) -> bool:
        """``all(a in self for a in values)`` — the bulk form share-tuple
        validation uses; the int-represented fields answer it without a
        Python-level loop."""
        return all(a in self for a in values)

    # -- misc --------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(order={self.order})"
