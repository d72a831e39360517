"""Lagrange interpolation — the "basic step" of the paper's cost model.

Section 3.1: "The basic solution ... is to choose any t+1 values (points),
and to compute the unique polynomial f(x) that they define (using, say,
the Lagrange method).  For the remaining points simply check whether they
satisfy f."  :func:`interpolate` builds the polynomial, and
:func:`check_degree` performs exactly that degree test.

These are the *classic* textbook implementations: O(n^2) work and one
inversion per basis polynomial.  The hot protocol paths route through
:mod:`repro.poly.barycentric` instead, which precomputes the inverses a
point set needs (Montgomery batch inversion) and answers repeated
queries with zero inversions; the classic versions stay as the reference
the property tests compare against.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.fields.base import Element, Field
from repro.poly.polynomial import Polynomial

Point = Tuple[Element, Element]


def _require_distinct(xs: Sequence[Element]) -> None:
    """Raise ``ValueError`` unless every x-coordinate is distinct.

    Shared by :func:`interpolate`, :func:`interpolate_at`, the
    Berlekamp-Welch decoder, and :mod:`repro.poly.barycentric` — the
    single place the duplicate-abscissa precondition is enforced.
    """
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x coordinates")


def interpolate(field: Field, points: Sequence[Point]) -> Polynomial:
    """The unique polynomial of degree < len(points) through ``points``.

    Raises ``ValueError`` on duplicated x-coordinates.  Increments the
    field's interpolation counter (the unit Lemmas 2/4/6 count).
    """
    _require_distinct([x for x, _ in points])
    field.counter.interpolations += 1
    result = Polynomial.zero(field)
    for i, (xi, yi) in enumerate(points):
        # basis_i(x) = prod_{j != i} (x - x_j) / (x_i - x_j)
        numerator = Polynomial.constant(field, field.one)
        denominator = field.one
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            numerator = numerator * Polynomial(field, [field.neg(xj), field.one])
            denominator = field.mul(denominator, field.sub(xi, xj))
        scale = field.mul(yi, field.inv(denominator))
        result = result + numerator.scale(scale)
    return result


def interpolate_at(field: Field, points: Sequence[Point], x0: Element) -> Element:
    """Evaluate the interpolating polynomial at ``x0`` without building it.

    This is the cheap path for secret reconstruction (``x0 = 0``): a direct
    Lagrange sum costing O(len(points)^2) multiplications but no polynomial
    object.  Counted as one interpolation.
    """
    _require_distinct([x for x, _ in points])
    field.counter.interpolations += 1
    total = field.zero
    for i, (xi, yi) in enumerate(points):
        weight = field.one
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            weight = field.mul(
                weight,
                field.mul(field.sub(x0, xj), field.inv(field.sub(xi, xj))),
            )
        total = field.add(total, field.mul(yi, weight))
    return total


def check_degree(field: Field, points: Sequence[Point], t: int) -> bool:
    """Does a polynomial of degree <= t pass through *all* of ``points``?

    Implements the paper's basic degree check (Problem 1 preamble):
    interpolate through the first ``t+1`` points, then verify the rest.
    """
    if len(points) <= t + 1:
        return True
    head = interpolate(field, points[: t + 1])
    return all(head(x) == y for x, y in points[t + 1 :])
