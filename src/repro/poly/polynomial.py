"""Dense univariate polynomials over a :class:`~repro.fields.base.Field`.

Coefficients are stored low-degree first; the zero polynomial has an empty
coefficient list and degree -1.  Instances are immutable.
"""

from __future__ import annotations

from math import isqrt
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
        if degree < 0:
            raise ValueError(f"a random polynomial needs degree >= 0, got {degree}")
        coeffs = field.random_many(rng, degree + 1)
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
        """Evaluate at every point of ``xs`` in one shared Horner sweep
        (:func:`horner_many` over the stored coefficients)."""
        return horner_many(self.field, self.coeffs, list(xs))

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


def horner_many(
    field: Field, coeffs: Sequence[Element], xs: Sequence[Element]
) -> List[Element]:
    """The polynomial with *trimmed* coefficients ``coeffs`` (low degree
    first, no zero leading one) at every point of ``xs``.

    A single pass over the coefficients updates all accumulators via
    the field's vectorized ``axpy_many`` — the same mul/add totals as
    per-point Horner (``len(coeffs) - 1`` of each per point), but one
    batched step per coefficient instead of ``len(xs)`` interleaved
    scalar calls.
    """
    if not xs or not coeffs:
        return [field.zero] * len(xs)
    acc = [coeffs[-1]] * len(xs)
    for c in coeffs[-2::-1]:
        acc = field.axpy_many(acc, xs, c)
    return acc


def evaluate_columns(
    field: Field,
    columns: Sequence[Sequence[Element]],
    xs: Sequence[Element],
) -> List[List[Element]]:
    """G polynomials at m points in one Horner sweep, grouped per point.

    ``columns[i][g]`` is the ``x^i`` coefficient of polynomial ``g``; the
    result's ``j``-th list holds all G values at ``xs[j]`` — the dealing
    shape, where recipient j is sent exactly that slice.  The sweep is
    one :meth:`Field.horner_columns` call: under numpy an (m, G)
    accumulator with the points broadcast down its rows, no list tiled.
    Metered like every polynomial evaluated on its own *trimmed*
    coefficients: polynomials whose leading coefficient is zero are swept
    apart, without it, so no step is spent on a zero leading one.
    """
    xs = list(xs)
    G, m = len(columns[0]) if columns else 0, len(xs)
    if not G or not m:
        return [[] for _ in xs]
    top, zero = columns[-1], field.zero
    if zero in top:
        # those polynomials take one step fewer: sweep them without `top`
        out = [[zero] * G for _ in xs]
        for members, cols in (
            ([g for g in range(G) if top[g] == zero], columns[:-1]),
            ([g for g in range(G) if top[g] != zero], columns),
        ):
            picked = [[col[g] for g in members] for col in cols]
            for row, values in zip(out, evaluate_columns(field, picked, xs)):
                for g, value in zip(members, values):
                    row[g] = value
        return out
    return field.horner_columns(columns, xs)


def evaluate_polys(
    field: Field,
    polys: Sequence[Polynomial],
    xs: Sequence[Element],
) -> List[List[Element]]:
    """``[p.evaluate_many(xs) for p in polys]`` as one wide sweep.

    The polynomials' coefficient columns go through
    :func:`evaluate_columns` — the same per-element op totals, but the
    vectorized backends see width ``G*m`` instead of ``m``.
    """
    for p in polys:
        if p.field is not field:
            raise ValueError("evaluate_polys requires polynomials over `field`")
    xs = list(xs)
    width = max((len(p.coeffs) for p in polys), default=0)
    if not width or not xs:
        return [[field.zero] * len(xs) for _ in polys]
    columns = [[p.coefficient(i) for p in polys] for i in range(width)]
    return [list(row) for row in zip(*evaluate_columns(field, columns, xs))]


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


def power_basis(field: Field, r: Element, m: int) -> List[Element]:
    """``[r^1, ..., r^m]``, metered as the ``m - 1`` multiplications of
    the one-at-a-time chain.

    Baby-step/giant-step with block length ``B = ceil(sqrt(m))``: the
    baby steps ``r^1 .. r^B`` and the giant steps ``r^(2B), r^(3B), ...``
    are scalar products, and every other power ``r^(iB + j)``,
    ``1 <= j < B``, is one entry of a single :meth:`Field.mul_outer` of
    the giants by ``r^1 .. r^(B-1)`` (a last, partial block is one
    :meth:`Field.mul_many`).  Each power is made by exactly one
    multiplication — about ``2 sqrt(m)`` scalar products and one
    broadcast kernel, where doubling took ``ceil(log2 m)`` bulk calls.
    """
    if m < 1:
        return []
    step = isqrt(m - 1) + 1  # B
    powers = [r]
    while len(powers) < step:
        powers.append(field.mul(powers[-1], r))
    blocks, tail = divmod(m - step, step)
    giants = [powers[-1]]  # r^B, r^(2B), ..., r^((blocks + 1) B)
    for _ in range(blocks):
        giants.append(field.mul(giants[-1], giants[0]))
    rows = field.mul_outer(giants[:blocks], powers[:step - 1])
    for row, giant in zip(rows, giants[1:]):
        powers += row
        powers.append(giant)
    powers += field.mul_many(powers[:tail], [giants[-1]] * tail)
    return powers


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
    if not rows:
        return []
    return field.dot_rows(rows, power_basis(field, r, len(rows[0])))
