"""Dense univariate polynomials over a :class:`~repro.fields.base.Field`.

Coefficients are stored low-degree first; the zero polynomial has an empty
coefficient list and degree -1.  Instances are immutable.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Sequence

from repro.fields.base import Element, Field


class Polynomial:
    """An immutable polynomial ``c[0] + c[1] x + ... + c[d] x^d``."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence[Element]):
        trimmed = list(coeffs)
        while trimmed and trimmed[-1] == field.zero:
            trimmed.pop()
        self.field = field
        self.coeffs = tuple(trimmed)

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls(field, [])

    @classmethod
    def constant(cls, field: Field, value: Element) -> "Polynomial":
        return cls(field, [value])

    @classmethod
    def random(cls, field: Field, degree: int, rng, constant: Element = None) -> "Polynomial":
        """A uniformly random polynomial of degree <= ``degree``.

        When ``constant`` is given, the coefficient of ``x^0`` is fixed to
        it — exactly how Shamir sharing hides a secret at the origin.
        """
        coeffs = [field.random(rng) for _ in range(degree + 1)]
        if constant is not None:
            coeffs[0] = constant
        return cls(field, coeffs)

    # -- basic queries -------------------------------------------------------
    @property
    def degree(self) -> int:
        """Degree of the polynomial; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Element:
        """Coefficient of ``x^i`` (zero beyond the stored degree)."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero

    # -- evaluation ----------------------------------------------------------
    def __call__(self, x: Element) -> Element:
        """Evaluate at ``x`` by Horner's rule (``degree`` mul/add pairs)."""
        f = self.field
        coeffs = self.coeffs
        if not coeffs:
            return f.zero
        result = coeffs[-1]
        for c in coeffs[-2::-1]:
            result = f.add(f.mul(result, x), c)
        return result

    def evaluate_many(self, xs: Sequence[Element]) -> List[Element]:
        """Evaluate at every point of ``xs`` in one shared Horner sweep.

        A single pass over the coefficients updates all accumulators via
        the field's vectorized ``axpy_many`` — the same mul/add totals as
        per-point Horner, but one batched step per coefficient instead of
        ``len(xs)`` interleaved scalar calls.
        """
        f = self.field
        xs = list(xs)
        coeffs = self.coeffs
        if not xs or not coeffs:
            return [f.zero] * len(xs)
        acc = [coeffs[-1]] * len(xs)
        for c in coeffs[-2::-1]:
            acc = f.axpy_many(acc, xs, c)
        return acc

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other: "Polynomial") -> "Polynomial":
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Polynomial(f, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        f = self.field
        size = max(len(self.coeffs), len(other.coeffs))
        out = [
            f.sub(self.coefficient(i), other.coefficient(i))
            for i in range(size)
        ]
        return Polynomial(f, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.field, [self.field.neg(c) for c in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        f = self.field
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(f)
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == f.zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Polynomial(f, out)

    def scale(self, scalar: Element) -> "Polynomial":
        f = self.field
        return Polynomial(f, [f.mul(scalar, c) for c in self.coeffs])

    def divmod(self, divisor: "Polynomial") -> tuple:
        """Polynomial division with remainder."""
        f = self.field
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        remainder = list(self.coeffs)
        dd = divisor.degree
        inv_lead = f.inv(divisor.coeffs[-1])
        quotient = [f.zero] * max(0, len(remainder) - dd)
        for shift in range(len(remainder) - dd - 1, -1, -1):
            coeff = f.mul(remainder[shift + dd], inv_lead)
            if coeff == f.zero:
                continue
            quotient[shift] = coeff
            for i, c in enumerate(divisor.coeffs):
                remainder[shift + i] = f.sub(remainder[shift + i], f.mul(coeff, c))
        return Polynomial(f, quotient), Polynomial(f, remainder)

    # -- comparisons --------------------------------------------------------
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.coeffs))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Polynomial(deg={self.degree}, coeffs={self.coeffs!r})"


def evaluate_polys(
    field: Field,
    polys: Sequence[Polynomial],
    xs: Sequence[Element],
) -> List[List[Element]]:
    """``[p.evaluate_many(xs) for p in polys]`` as grouped wide sweeps.

    The Batch-VSS dealing shape: G polynomials evaluated at the same m
    points.  Polynomials are grouped by coefficient count and each group
    swept with one width-``len(group) * m`` :meth:`Field.fma_many` per
    coefficient — identical per-element op totals (no padding), but the
    vectorized backends see width ``G*m`` instead of ``m``.
    """
    xs = list(xs)
    results: List[List[Element]] = [[] for _ in polys]
    if not xs or not polys:
        return results
    m = len(xs)
    groups: dict = {}
    for i, p in enumerate(polys):
        if p.field is not field:
            raise ValueError("evaluate_polys requires polynomials over `field`")
        groups.setdefault(len(p.coeffs), []).append(i)
    for ncoeff, idxs in groups.items():
        if ncoeff == 0:
            for i in idxs:
                results[i] = [field.zero] * m
            continue
        if len(idxs) == 1:
            # a lone group: the plain shared sweep already is the batch
            results[idxs[0]] = polys[idxs[0]].evaluate_many(xs)
            continue
        xs_tiled = xs * len(idxs)
        # row ci: coefficient ci of every polynomial, each repeated m times
        tiled = [
            list(chain.from_iterable([polys[i].coeffs[ci]] * m for i in idxs))
            for ci in range(ncoeff)
        ]
        acc = tiled[-1]
        for cs in tiled[-2::-1]:
            acc = field.fma_many(acc, xs_tiled, cs)
        for slot, i in enumerate(idxs):
            results[i] = acc[slot * m:(slot + 1) * m]
    return results


def horner_batch(field: Field, values: Sequence[Element], r: Element) -> Element:
    """The paper's batched share combination (Fig. 3, step 2).

    Computes ``r^M * values[M-1] + ... + r * values[0]`` via the nested
    form the paper gives: ``((...((r*v_M + v_{M-1}) r + v_{M-2})...) r
    + v_1) r`` — i.e. ``M`` multiplications and ``M-1`` additions.
    """
    if not values:
        return field.zero
    acc = values[-1]
    for v in reversed(values[:-1]):
        acc = field.add(field.mul(acc, r), v)
    return field.mul(acc, r)


def horner_batch_many(
    field: Field,
    rows: Sequence[Sequence[Element]],
    r: Element,
) -> List[Element]:
    """:func:`horner_batch` across many rows sharing one challenge ``r``.

    Equal to ``[horner_batch(field, row, r) for row in rows]`` — the
    combination is ``sum_i row[i] * r^(i+1)``, so building the shared
    power basis ``r^1 .. r^M`` once (``M - 1`` multiplications) turns
    every row into one entry of a batched :meth:`Field.dot_rows`: the
    same ``M`` mul / ``M - 1`` add totals per row, one wide kernel
    instead of ``len(rows)`` narrow Horner chains.
    """
    rows = [list(row) for row in rows]
    if not rows:
        return []
    m = len(rows[0])
    for row in rows:
        if len(row) != m:
            raise ValueError("horner_batch_many requires equal-length rows")
    if m == 0:
        return [field.zero] * len(rows)
    powers = [r]
    for _ in range(m - 1):
        powers.append(field.mul(powers[-1], r))
    return field.dot_rows(rows, powers)
