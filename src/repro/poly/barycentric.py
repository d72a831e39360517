"""Barycentric Lagrange interpolation with a cross-call weight cache.

Every protocol in the paper is priced in interpolations — Batch-VSS is "2
polynomial interpolations per player" (Lemma 4), Coin-Gen measures ~n+1
per player (Theorem 2) — and they all interpolate over the *same* point
set {1..n} again and again: one exposure per coin, one decode per Bit-Gen
instance, M coins against one qualified set.  The classic Lagrange code in
:mod:`repro.poly.lagrange` pays O(n^2) multiplications *and O(n) modular
inversions* on every call.  This module splits that cost:

* **once per point set** — barycentric weights
  ``w_i = 1 / prod_{j != i}(x_i - x_j)`` are built with Montgomery batch
  inversion (one ``field.inv`` plus ``3(n-1)`` multiplications for all n
  inverses) and cached under the key ``frozenset(xs)``;
* **per query** — evaluating the interpolant at a fixed ``x0`` (the
  origin, for secret reconstruction) is a cached-coefficient dot product:
  n multiplications, n-1 additions, and **zero inversions**; building the
  full coefficient vector (the Batch-VSS degree check) is a cached-basis
  linear combination, again inversion-free.

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

import weakref
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
    """Precomputed data for one set of interpolation abscissas."""

    __slots__ = ("field", "xs", "index", "weights", "_coeffs_at", "_basis")

    def __init__(self, field: Field, xs_key: frozenset):
        self.field = field
        # canonical order so every holder of the same set agrees
        self.xs: Tuple[Element, ...] = tuple(
            sorted(xs_key, key=field.to_int)
        )
        self.index: Dict[Element, int] = {x: i for i, x in enumerate(self.xs)}
        self.weights = self._build_weights()
        self._coeffs_at: Dict[Element, List[Element]] = {}
        self._basis: Optional[List[List[Element]]] = None

    # -- one-time construction --------------------------------------------
    def _build_weights(self) -> List[Element]:
        """``w_i = 1 / prod_{j != i}(x_i - x_j)`` via one batch inversion."""
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

    def basis_rows(self) -> List[List[Element]]:
        """Coefficient vectors of the Lagrange basis polynomials L_i(x).

        Built lazily, once per point set: the master polynomial
        ``N(x) = prod_j (x - x_j)`` costs O(n^2) multiplications, each
        basis row is one synthetic division ``N / (x - x_i)`` scaled by
        the barycentric weight — no inversions at all (the weights
        already hold them).
        """
        if self._basis is not None:
            return self._basis
        f = self.field
        xs = self.xs
        n = len(xs)
        # master: N(x) = prod (x - x_j), degree n, monic
        master = [f.one]
        for x in xs:
            nx = f.neg(x)
            nxt = [f.zero] * (len(master) + 1)
            for i, c in enumerate(master):
                nxt[i] = f.add(nxt[i], f.mul(c, nx))
                nxt[i + 1] = f.add(nxt[i + 1], c)
            master = nxt
        rows: List[List[Element]] = []
        for i, xi in enumerate(xs):
            # synthetic division: q(x) = N(x) / (x - x_i), degree n-1
            q = [f.zero] * n
            carry = master[n]  # = one (monic)
            for d in range(n - 1, -1, -1):
                q[d] = carry
                carry = f.add(master[d], f.mul(xi, carry))
            rows.append(f.mul_many(q, [self.weights[i]] * n))
        self._basis = rows
        return rows

    # -- queries ------------------------------------------------------------
    def _aligned_ys(self, points: Sequence[Point]) -> List[Element]:
        ys: List[Element] = [self.field.zero] * len(self.xs)
        for x, y in points:
            ys[self.index[x]] = y
        return ys

    def eval_at(self, points: Sequence[Point], x0: Element) -> Element:
        """Interpolant of ``points`` evaluated at ``x0`` (inversion-free on hit)."""
        return self.field.dot(self.coefficients_at(x0), self._aligned_ys(points))

    def polynomial(self, points: Sequence[Point]) -> Polynomial:
        """The full interpolating polynomial (inversion-free on hit)."""
        f = self.field
        rows = self.basis_rows()
        ys = self._aligned_ys(points)
        n = len(self.xs)
        acc = [f.zero] * n
        for i, y in enumerate(ys):
            if y == f.zero:
                continue
            scaled = f.mul_many(rows[i], [y] * n)
            acc = [f.add(a, s) for a, s in zip(acc, scaled)]
        return Polynomial(f, acc)


class InterpolationCache:
    """Per-field cache of barycentric interpolation data, keyed by point set.

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
        node = self.node_set([x for x, _ in points])
        return node.polynomial(points)

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "sets": len(self._sets),
        }


_SHARED: "weakref.WeakKeyDictionary[Field, InterpolationCache]" = (
    weakref.WeakKeyDictionary()
)


def shared_cache(field: Field) -> InterpolationCache:
    """The long-lived cache attached to ``field`` (created on first use)."""
    cache = _SHARED.get(field)
    if cache is None:
        cache = InterpolationCache(field)
        _SHARED[field] = cache
    return cache


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
