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
from repro.poly.polynomial import Polynomial, horner_many

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
    ``len(points) - max_errors`` of the points.  :func:`decode_lists` on
    the points' coordinates, its answer dressed as a polynomial and the
    kept positions.
    """
    xs, ys = [], []
    for x, y in points:
        xs.append(x)
        ys.append(y)
    coeffs, wrong = decode_lists(field, xs, ys, degree, max_errors)
    good = list(range(len(xs)))
    if wrong:
        good = [i for i in good if i not in wrong]
    return Polynomial(field, coeffs), good


def decode_lists(
    field: Field,
    xs: List[Element],
    ys: List[Element],
    degree: int,
    max_errors: int = None,
) -> Tuple[List[Element], List[int]]:
    """The decoder proper, on parallel lists: ``ys[i]`` is the value
    received for abscissa ``xs[i]``.

    Returns ``(coeffs, wrong)``: the decoded polynomial's coefficients
    (low degree first, no zero leading one — empty for the zero
    polynomial, so ``F(0)`` is ``coeffs[0]`` when there is one) and the
    ascending positions whose values are off it, at most ``max_errors``
    of them.  Raises :class:`DecodingError` when nothing decodes and
    ``ValueError`` on a repeated abscissa.

    Counted as a single interpolation in the field's counter, matching the
    paper's accounting ("the Berlekamp-Welch decoder can be used to
    implement this operation", Section 2) — whichever of the three
    stages below answers.  A clean decode ends in the first; wrong
    shares among the first ``degree + 1`` points cost one more cached
    candidate (its products are metered as ``muls``, plus one ``invs``
    the first time a head's node set is seen) per dirty head; the
    key-equation solve is the last resort.

    Under the default ``"shared"`` interpolation mode a successful decode
    is remembered under its view ``(xs, ys, degree, max_errors)`` in the
    field's shared cache: every honest receiver of a clean multicast
    round holds the same shares, and each later receiver of that view
    gets fresh copies of the answer, metered at what a warm decode of
    the view costs (:meth:`~repro.poly.barycentric.InterpolationCache.recall`)
    — so per-player op counts are those of n independent decodes while
    the arithmetic runs once per distinct view.  Failures are never
    remembered: they raise on every call.  ``"fresh"`` and ``"off"``
    decode every call.
    """
    if barycentric.cache_mode() != "shared":
        return _decode(field, xs, ys, degree, max_errors)
    cache = barycentric.shared_cache(field)
    view = (tuple(xs), tuple(ys), degree, max_errors)
    decoded = cache.recall(view)
    if decoded is None:
        decoded = cache.remember(
            view, _decode, field, xs, ys, degree, max_errors
        )
    return decoded


def _decode(
    field: Field,
    xs: List[Element],
    ys: List[Element],
    degree: int,
    max_errors: int = None,
) -> Tuple[List[Element], List[int]]:
    """:func:`decode_lists` without the view table: the three stages."""
    n = len(xs)
    _require_distinct(xs)
    if n < degree + 1:
        raise DecodingError(f"need at least {degree + 1} points, got {n}")
    correctable = max_correctable_errors(n, degree)
    if max_errors is None or max_errors > correctable:
        max_errors = correctable
    field.counter.interpolations += 1

    # Optimistic fast path: interpolate through the first degree+1 points
    # (a cached, inversion-free Newton build) and accept if enough of the
    # remaining points agree — the head lies on the candidate by
    # construction, so only the tail is evaluated.  Any degree-<=degree
    # polynomial matching >= n - max_errors points is unique (two
    # candidates would agree on >= n - 2*max_errors >= degree + 1 common
    # points), so when this succeeds it returns exactly what the
    # key-equation solve would — without the O(n^3) linear system.
    if barycentric.cache_mode() == "off":
        return _key_equation(field, xs, ys, degree, max_errors)
    coeffs, wrong = _head_test(field, xs, ys, 0, degree + 1)
    if len(wrong) <= max_errors:
        return coeffs, wrong
    return decode_past_first_head(field, xs, ys, degree, max_errors)


def decode_past_first_head(
    field: Field,
    xs: List[Element],
    ys: List[Element],
    degree: int,
    max_errors: int,
) -> Tuple[List[Element], List[int]]:
    """Finish a decode whose first head's candidate missed the threshold.

    A wrong share among the first ``degree + 1`` points spoils that
    candidate, not the decode: the same optimistic test is run from the
    next *disjoint* heads — points ``[degree+1, 2*degree+2)``, and so on
    — each candidate checked against every point outside its head.  By
    the uniqueness argument in :func:`decode_lists` an accepted
    candidate is the polynomial the key equation would return.  If a
    polynomial within ``max_errors`` exists, its wrong shares dirty at
    most ``max_errors`` heads, so one of any ``max_errors + 1`` is clean
    and no more than that are tried; the O(n^3) :func:`full_decode` runs
    only when there are fewer heads than that (wrong shares spread over
    every one) or when nothing decodes at all.  No re-metering: the
    caller already counted the interpolation.
    """
    head = degree + 1
    for start in range(head, min(len(xs) // head, max_errors + 1) * head, head):
        coeffs, wrong = _head_test(field, xs, ys, start, start + head)
        if len(wrong) <= max_errors:
            return coeffs, wrong
    return _key_equation(field, xs, ys, degree, max_errors)


def optimistic_candidate(
    field: Field, xs: List[Element], ys: List[Element], start: int, stop: int
) -> List[Element]:
    """The head-interpolation candidate the optimistic stage tests: the
    coefficients (no zero leading one) of the polynomial through points
    ``[start, stop)``, a Newton build against the cached node set of
    those abscissas.

    Exposed so batched decoders (``decode_batched_many``) can build many
    candidates and verify them in one bulk evaluation sweep while paying
    exactly the ops :func:`decode_lists` would.
    """
    head_xs = xs[start:stop]
    node = barycentric.cache_for(field).node_set(head_xs)
    coeffs = node.coefficients(head_xs, ys[start:stop])
    zero = field.zero
    while coeffs and coeffs[-1] == zero:
        coeffs.pop()
    return coeffs


def outside_mismatches(
    values: List[Element], ys: List[Element], start: int, stop: int
) -> List[int]:
    """Positions of ``ys`` outside ``[start, stop)`` that a candidate
    misses, ``values`` being the candidate at every outside abscissa in
    order — the counted comparison of the optimistic stage."""
    outside = ys[:start] + ys[stop:]
    if values == outside:
        return []
    head = stop - start
    return [
        i if i < start else i + head
        for i, (v, y) in enumerate(zip(values, outside)) if v != y
    ]


def _head_test(
    field: Field, xs: List[Element], ys: List[Element], start: int, stop: int
) -> Tuple[List[Element], List[int]]:
    """The optimistic stage on one head: its candidate, swept over every
    point outside the head (Horner steps on the candidate's own degree,
    like any polynomial evaluated), and the positions it misses."""
    coeffs = optimistic_candidate(field, xs, ys, start, stop)
    values = horner_many(field, coeffs, xs[:start] + xs[stop:])
    return coeffs, outside_mismatches(values, ys, start, stop)


def _key_equation(
    field: Field, xs: List[Element], ys: List[Element], degree: int,
    max_errors: int,
) -> Tuple[List[Element], List[int]]:
    """:func:`full_decode` in :func:`decode_lists`' currency."""
    poly, good = full_decode(field, list(zip(xs, ys)), degree, max_errors)
    kept = set(good)
    return list(poly.coeffs), [i for i in range(len(xs)) if i not in kept]


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
