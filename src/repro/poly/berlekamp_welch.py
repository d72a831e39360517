"""Berlekamp-Welch decoding of Reed-Solomon-coded shares.

The paper cites the Berlekamp-Welch decoder [5] as the method for
interpolating "a polynomial F(x) through the shares in S" when up to ``t``
of the shares may be corrupted by faulty players (Fig. 4 step 5, Fig. 6
step 2).

Given N points of which at most ``e`` are wrong and the underlying
polynomial has degree <= t, decoding succeeds whenever
``N >= t + 2e + 1``.  The decoder solves the key equation
``Q(x_i) = y_i * E(x_i)`` for an error-locator ``E`` (monic, degree e) and
``Q`` (degree <= t + e), then recovers ``F = Q / E``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.fields.base import Element, Field
from repro.poly import barycentric
from repro.poly.lagrange import _require_distinct
from repro.poly.linalg import solve_linear_system
from repro.poly.polynomial import Polynomial

Point = Tuple[Element, Element]


class DecodingError(Exception):
    """No polynomial of the requested degree explains enough of the points."""


def max_correctable_errors(num_points: int, degree: int) -> int:
    """Largest ``e`` with ``num_points >= degree + 2e + 1``."""
    return max(0, (num_points - degree - 1) // 2)


def berlekamp_welch(
    field: Field,
    points: Sequence[Point],
    degree: int,
    max_errors: int = None,
) -> Tuple[Polynomial, List[int]]:
    """Decode ``points`` to a polynomial of degree <= ``degree``.

    Returns ``(F, good_indices)`` where ``good_indices`` lists the
    positions whose values match ``F``.  Raises :class:`DecodingError` when
    no degree-``degree`` polynomial agrees with at least
    ``len(points) - max_errors`` of the points.

    Counted as a single interpolation in the field's counter, matching the
    paper's accounting ("the Berlekamp-Welch decoder can be used to
    implement this operation", Section 2) — whichever of the three
    stages below answers.  A clean decode ends in the first; wrong
    shares among the first ``degree + 1`` points cost one more cached
    candidate (its products are metered as ``muls``, plus one ``invs``
    the first time a head's node set is seen) per dirty head; the
    key-equation solve is the last resort.
    """
    points = list(points)
    n = len(points)
    xs = [x for x, _ in points]
    _require_distinct(xs)
    if n < degree + 1:
        raise DecodingError(f"need at least {degree + 1} points, got {n}")
    if max_errors is None:
        max_errors = max_correctable_errors(n, degree)
    max_errors = min(max_errors, max_correctable_errors(n, degree))
    field.counter.interpolations += 1

    # Optimistic fast path: interpolate through the first degree+1 points
    # (a cached, inversion-free Newton build) and accept if enough of the
    # remaining points agree — the head lies on the candidate by
    # construction, so only the tail is evaluated.  Any degree-<=degree
    # polynomial matching >= n - max_errors points is unique (two
    # candidates would agree on >= n - 2*max_errors >= degree + 1 common
    # points), so when this succeeds it returns exactly what the
    # key-equation solve would — without the O(n^3) linear system.
    if barycentric.cache_mode() != "off":
        head = degree + 1
        candidate = optimistic_candidate(field, points[:head])
        values = candidate.evaluate_many(xs[head:])
        good = list(range(head))
        good += [i for i, v in enumerate(values, head) if v == points[i][1]]
        if len(good) >= n - max_errors:
            return candidate, good
        return decode_past_first_head(field, points, degree, max_errors)

    return full_decode(field, points, degree, max_errors)


def decode_past_first_head(
    field: Field,
    points: Sequence[Point],
    degree: int,
    max_errors: int,
) -> Tuple[Polynomial, List[int]]:
    """Finish a decode whose first head's candidate missed the threshold.

    A wrong share among the first ``degree + 1`` points spoils that
    candidate, not the decode: the same optimistic test is run from the
    next *disjoint* heads — points ``[degree+1, 2*degree+2)``, and so on
    — each candidate checked against every point outside its head.  By
    the uniqueness argument in :func:`berlekamp_welch` an accepted
    candidate is the polynomial the key equation would return.  If a
    polynomial within ``max_errors`` exists, its wrong shares dirty at
    most ``max_errors`` heads, so one of any ``max_errors + 1`` is clean
    and no more than that are tried; the O(n^3) :func:`full_decode` runs
    only when there are fewer heads than that (wrong shares spread over
    every one) or when nothing decodes at all.  No re-metering: the
    caller already counted the interpolation.
    """
    n = len(points)
    head = degree + 1
    xs = [x for x, _ in points]
    for start in range(head, min(n // head, max_errors + 1) * head, head):
        stop = start + head
        candidate = optimistic_candidate(field, points[start:stop])
        outside = [*range(start), *range(stop, n)]
        values = candidate.evaluate_many([xs[i] for i in outside])
        wrong = {i for i, v in zip(outside, values) if v != points[i][1]}
        if len(wrong) <= max_errors:
            return candidate, [i for i in range(n) if i not in wrong]
    return full_decode(field, points, degree, max_errors)


def optimistic_candidate(field: Field, points: Sequence[Point]) -> Polynomial:
    """The head-interpolation candidate the optimistic fast path tests.

    Exposed so batched decoders (``decode_batched_many``) can build many
    candidates and verify them in one bulk evaluation sweep while paying
    exactly the ops :func:`berlekamp_welch` would.
    """
    return barycentric.cache_for(field).polynomial(list(points))


def full_decode(
    field: Field,
    points: Sequence[Point],
    degree: int,
    max_errors: int,
) -> Tuple[Polynomial, List[int]]:
    """The key-equation decoder (no optimistic pre-pass, no re-metering)."""
    points = list(points)
    n = len(points)
    for e in range(max_errors, -1, -1):
        candidate = _try_decode(field, points, degree, e)
        if candidate is None:
            continue
        good = [i for i, (x, y) in enumerate(points) if candidate(x) == y]
        if len(good) >= n - max_errors:
            return candidate, good
    raise DecodingError(
        f"no degree-{degree} polynomial matches >= {n - max_errors} of {n} points"
    )


def _try_decode(field: Field, points: List[Point], t: int, e: int):
    """Solve the key equation for exactly ``e`` allowed errors."""
    # unknowns: Q_0..Q_{t+e} then E_0..E_{e-1} (E is monic of degree e)
    q_terms = t + e + 1
    rows = []
    rhs = []
    for x, y in points:
        powers = [field.one]
        for _ in range(t + e):
            powers.append(field.mul(powers[-1], x))
        row = powers[:q_terms]
        # -y * x^j for the E coefficients
        row += [field.neg(field.mul(y, powers[j])) for j in range(e)]
        rows.append(row)
        # RHS: y * x^e   (from the monic leading term of E)
        rhs.append(field.mul(y, powers[e]))
    solution = solve_linear_system(field, rows, rhs)
    if solution is None:
        return None
    q_poly = Polynomial(field, solution[:q_terms])
    e_poly = Polynomial(field, solution[q_terms:] + [field.one])
    quotient, remainder = q_poly.divmod(e_poly)
    if not remainder.is_zero():
        return None
    if quotient.degree > t:
        return None
    return quotient
