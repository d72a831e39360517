"""Polynomials over finite fields: evaluation, interpolation, decoding.

The paper treats "the interpolation of a polynomial as a basic step"
(Section 2) and relies on the Berlekamp-Welch decoder to interpolate in
the presence of up to ``t`` corrupted shares (Figs. 4 and 6).

Two interpolation layers are provided: the classic Lagrange reference
implementations (:mod:`repro.poly.lagrange`) and the cached barycentric
layer the protocol hot paths use (:mod:`repro.poly.barycentric`), which
precomputes per-point-set weights with one batch inversion and answers
repeated queries with zero inversions.
"""

from repro.poly.polynomial import Polynomial, horner_batch
from repro.poly.lagrange import (
    check_degree,
    interpolate,
    interpolate_at,
)
from repro.poly.barycentric import (
    InterpolationCache,
    interpolate_at_cached,
    interpolate_cached,
    interpolation_mode,
    shared_cache,
)
from repro.poly.berlekamp_welch import berlekamp_welch, DecodingError

__all__ = [
    "Polynomial",
    "horner_batch",
    "interpolate",
    "interpolate_at",
    "check_degree",
    "InterpolationCache",
    "interpolate_cached",
    "interpolate_at_cached",
    "interpolation_mode",
    "shared_cache",
    "berlekamp_welch",
    "DecodingError",
]
