"""Cached interpolation: barycentric evaluation and Newton-form building.

Every protocol in the paper is priced in interpolations — Batch-VSS is "2
polynomial interpolations per player" (Lemma 4), Coin-Gen measures ~n+1
per player (Theorem 2) — and they all interpolate over the *same* point
set {1..n} again and again: one exposure per coin, one decode per Bit-Gen
instance, M coins against one qualified set.  The classic Lagrange code in
:mod:`repro.poly.lagrange` pays O(n^2) multiplications *and O(n) modular
inversions* on every call.  This module splits that cost:

* **once per point set** — whatever needs an inverse: the barycentric
  weights ``w_i = 1 / prod_{j != i}(x_i - x_j)`` for evaluation, the
  divided-difference divisors ``1 / (x_i - x_j)`` for building.  Each
  table is built on first use with one Montgomery batch inversion (one
  ``field.inv`` plus three multiplications per further element) and
  cached under the key ``frozenset(xs)``;
* **per query** — evaluating the interpolant at a fixed ``x0`` (the
  origin, for secret reconstruction) is a cached-coefficient dot product:
  n multiplications, n-1 additions, and **zero inversions**; building the
  full coefficient vector (the Batch-VSS degree check, every
  Berlekamp-Welch head) is Newton's divided differences followed by the
  expansion into monomial coefficients, again inversion-free.  Of its
  ``m(m-1)`` multiplications for m points only the ``m(m-1)/2`` divided
  differences multiply two arbitrary elements; the other half multiply by
  an abscissa, which in every protocol call is a player index — a few
  bits wide, and GF(2^k) multiplies by it in that many steps, not k.

Metering contract (see docs/API.md "Performance architecture"): cache
*construction* goes through the normal metered field operations, so the
one-time cost is visible in the OpCounter; cache *hits* perform — and
therefore meter — no inversions.  The ``interpolations`` counter is bumped
once per logical interpolation by the wrappers, exactly like the classic
functions, so the Lemma 2/4/6 checks are unaffected.

Three modes support the benchmark ablations (``interpolation_mode``):

* ``"shared"`` (default) — one long-lived cache per field; repeated point
  sets hit.
* ``"fresh"`` — a new cache per call: batch inversion still applies, but
  nothing is reused across calls (isolates the batch-inversion speedup).
* ``"off"`` — fall through to the classic O(n^2)-inversions code paths
  (the pre-optimization baseline, for before/after measurements).
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fields.base import Element, Field
from repro.poly.lagrange import (
    _require_distinct,
    interpolate,
    interpolate_at,
)
from repro.poly.polynomial import Polynomial

Point = Tuple[Element, Element]

#: "shared" | "fresh" | "off" — see module docstring.
_MODE = "shared"

_MODES = ("shared", "fresh", "off")


def cache_mode() -> str:
    """The active interpolation-cache mode."""
    return _MODE


@contextmanager
def interpolation_mode(mode: str):
    """Temporarily switch the cache mode (benchmark ablations)."""
    global _MODE
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    previous = _MODE
    _MODE = mode
    try:
        yield
    finally:
        _MODE = previous


class _NodeSet:
    """Precomputed data for one set of interpolation abscissas.

    Both tables are lazy: a set that only ever serves ``coefficients()``
    (every Berlekamp-Welch head) never builds ``weights``, one that only
    serves ``eval_at()`` never builds the divided-difference inverses.
    """

    __slots__ = ("field", "xs", "index", "_weights", "_coeffs_at",
                 "_inv_diffs")

    def __init__(self, field: Field, xs_key: frozenset):
        self.field = field
        # canonical order so every holder of the same set agrees
        self.xs: Tuple[Element, ...] = tuple(
            sorted(xs_key, key=field.to_int)
        )
        self.index: Dict[Element, int] = {x: i for i, x in enumerate(self.xs)}
        self._weights: Optional[List[Element]] = None
        self._coeffs_at: Dict[Element, List[Element]] = {}
        self._inv_diffs: Optional[List[List[Element]]] = None

    # -- one-time construction --------------------------------------------
    @property
    def weights(self) -> List[Element]:
        """``w_i = 1 / prod_{j != i}(x_i - x_j)`` via one batch inversion."""
        if self._weights is None:
            self._weights = self._build_weights()
        return self._weights

    def _build_weights(self) -> List[Element]:
        f = self.field
        xs = self.xs
        if len(xs) == 1:
            return [f.one]
        dens = []
        for i, xi in enumerate(xs):
            d = f.one
            for j, xj in enumerate(xs):
                if j != i:
                    d = f.mul(d, f.sub(xi, xj))
            dens.append(d)
        return f.batch_inv(dens)

    def inverse_differences(self) -> List[List[Element]]:
        """``rows[j-1][i-j] = 1 / (x_i - x_{i-j})`` for ``1 <= j <= i < m``.

        Row ``j-1`` is the divisor row of divided-difference level ``j``;
        all ``m(m-1)/2`` inverses come from one batch inversion.
        """
        if self._inv_diffs is None:
            f = self.field
            xs = self.xs
            m = len(xs)
            flat = iter(f.batch_inv([
                f.sub(xs[i], xs[i - j])
                for j in range(1, m) for i in range(j, m)
            ]))
            self._inv_diffs = [
                [next(flat) for _ in range(j, m)] for j in range(1, m)
            ]
        return self._inv_diffs

    def coefficients_at(self, x0: Element) -> List[Element]:
        """Effective Lagrange coefficients ``L_i(x0)`` (cached per x0).

        ``f(x0) = sum_i L_i(x0) * y_i`` for any degree-<n data ``y``.
        First call per ``x0`` costs one batch inversion; later calls are
        dictionary lookups (zero field operations).
        """
        cached = self._coeffs_at.get(x0)
        if cached is not None:
            return cached
        f = self.field
        xs = self.xs
        if x0 in self.index:
            coeffs = [f.one if x == x0 else f.zero for x in xs]
        else:
            diffs = [f.sub(x0, x) for x in xs]
            ell = f.one  # l(x0) = prod_j (x0 - x_j)
            for d in diffs:
                ell = f.mul(ell, d)
            inv_diffs = f.batch_inv(diffs)
            scaled = f.mul_many(self.weights, inv_diffs)
            coeffs = f.mul_many(scaled, [ell] * len(xs))
        self._coeffs_at[x0] = coeffs
        return coeffs

    # -- queries ------------------------------------------------------------
    def _aligned_ys(self, points: Sequence[Point]) -> List[Element]:
        ys: List[Element] = [self.field.zero] * len(self.xs)
        for x, y in points:
            ys[self.index[x]] = y
        return ys

    def eval_at(self, points: Sequence[Point], x0: Element) -> Element:
        """Interpolant of ``points`` evaluated at ``x0`` (inversion-free on hit)."""
        return self.field.dot(self.coefficients_at(x0), self._aligned_ys(points))

    def coefficients(
        self, xs: Sequence[Element], ys: Sequence[Element]
    ) -> List[Element]:
        """Monomial coefficients (low degree first, one per node, zeros
        kept) of the interpolant with value ``ys[i]`` at ``xs[i]`` —
        ``xs`` being this set's abscissas in any order.  Inversion-free
        on a hit.

        Newton form: divided differences against the cached inverses
        (``m(m-1)/2`` products of two arbitrary elements), then the
        expansion ``c_0 + (x - x_0)(c_1 + (x - x_1)(...))`` into monomial
        coefficients, whose ``m(m-1)/2`` products are each by an abscissa
        — a player index, a few bits wide, in every protocol call.
        """
        f = self.field
        sub, mul = f.sub, f.mul
        nodes = self.xs
        m = len(nodes)
        if tuple(xs) == nodes:  # already in canonical order: ids ascending
            newton = list(ys)
        else:
            newton = self._aligned_ys(zip(xs, ys))
        for j, inv_row in enumerate(self.inverse_differences(), start=1):
            for i in range(m - 1, j - 1, -1):
                newton[i] = mul(sub(newton[i], newton[i - 1]), inv_row[i - j])
        coeffs = newton[m - 1:]
        for k in range(m - 2, -1, -1):
            xk = nodes[k]
            shifted = [newton[k]] + coeffs
            for i, c in enumerate(coeffs):
                shifted[i] = sub(shifted[i], mul(c, xk))
            coeffs = shifted
        return coeffs


class InterpolationCache:
    """Per-field cache of interpolation data, keyed by point set.

    ``max_sets`` bounds memory: least-recently-used point sets are evicted
    (protocol runs touch a handful of sets — {1..n} and its stable
    subsets — so eviction is a safety valve, not a steady-state event).
    """

    def __init__(self, field: Field, max_sets: int = 256):
        self.field = field
        self.max_sets = max_sets
        self._sets: "OrderedDict[frozenset, _NodeSet]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def node_set(self, xs: Sequence[Element]) -> _NodeSet:
        """The (possibly freshly built) precomputation for ``xs``."""
        key = xs if isinstance(xs, frozenset) else frozenset(xs)
        node = self._sets.get(key)
        if node is not None:
            self.hits += 1
            self._sets.move_to_end(key)
            return node
        self.misses += 1
        node = _NodeSet(self.field, key)
        self._sets[key] = node
        while len(self._sets) > self.max_sets:
            self._sets.popitem(last=False)
        return node

    def eval_at(self, points: Sequence[Point], x0: Element) -> Element:
        node = self.node_set([x for x, _ in points])
        return node.eval_at(points, x0)

    def polynomial(self, points: Sequence[Point]) -> Polynomial:
        """The full interpolating polynomial (inversion-free on hit)."""
        xs = [x for x, _ in points]
        return Polynomial(self.field, self.node_set(xs).coefficients(
            xs, [y for _, y in points]
        ))

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "sets": len(self._sets),
        }


def shared_cache(field: Field) -> InterpolationCache:
    """The long-lived cache attached to ``field`` (created on first use).

    Kept on the field object itself, so it lives exactly as long as the
    field does and finding it is one attribute read on every decode.
    """
    try:
        return field._interpolation_cache
    except AttributeError:
        field._interpolation_cache = InterpolationCache(field)
        return field._interpolation_cache


def cache_for(field: Field) -> InterpolationCache:
    """The cache the current mode prescribes (shared or throwaway)."""
    if _MODE == "fresh":
        return InterpolationCache(field)
    return shared_cache(field)


# ---------------------------------------------------------------------------
# drop-in replacements for the classic lagrange entry points
# ---------------------------------------------------------------------------

def interpolate_cached(field: Field, points: Sequence[Point]) -> Polynomial:
    """Cache-backed equivalent of :func:`repro.poly.lagrange.interpolate`.

    Same contract: rejects duplicate abscissas, bumps the interpolation
    counter once.  Zero inversions when the point set has been seen.
    """
    points = list(points)
    _require_distinct([x for x, _ in points])
    if _MODE == "off":
        return interpolate(field, points)
    field.counter.interpolations += 1
    return cache_for(field).polynomial(points)


def interpolate_at_cached(
    field: Field, points: Sequence[Point], x0: Element
) -> Element:
    """Cache-backed equivalent of :func:`repro.poly.lagrange.interpolate_at`."""
    points = list(points)
    _require_distinct([x for x, _ in points])
    if _MODE == "off":
        return interpolate_at(field, points, x0)
    field.counter.interpolations += 1
    return cache_for(field).eval_at(points, x0)
