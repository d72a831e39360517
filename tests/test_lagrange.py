"""Lagrange interpolation and the basic degree check (Section 3.1)."""

import pytest
from hypothesis import given, strategies as st

from repro.fields import GF2k
from repro.fields.gfp import GFp
from repro.poly import Polynomial, check_degree, interpolate, interpolate_at

F = GF2k(8)


def random_poly_and_points(rng, degree, npoints):
    p = Polynomial.random(F, degree, rng)
    xs = list(range(1, npoints + 1))
    return p, [(x, p(x)) for x in xs]


class TestInterpolate:
    @given(
        coeffs=st.lists(
            st.integers(min_value=0, max_value=255), min_size=1, max_size=6
        )
    )
    def test_round_trip(self, coeffs):
        p = Polynomial(F, coeffs)
        pts = [(x, p(x)) for x in range(1, max(p.degree + 2, 2))]
        assert interpolate(F, pts) == p

    def test_duplicate_x_rejected(self):
        with pytest.raises(ValueError):
            interpolate(F, [(1, 5), (1, 6)])
        with pytest.raises(ValueError):
            interpolate_at(F, [(1, 5), (1, 6)], 0)

    def test_over_prime_field(self):
        f = GFp(101)
        p = Polynomial(f, [3, 1, 4])
        pts = [(x, p(x)) for x in [1, 2, 3]]
        assert interpolate(f, pts) == p

    def test_interpolation_counter(self):
        before = F.counter.snapshot()
        interpolate(F, [(1, 1), (2, 2)])
        interpolate_at(F, [(1, 1), (2, 2)], 0)
        assert F.counter.delta(before).interpolations == 2


class TestInterpolateAt:
    @given(
        coeffs=st.lists(
            st.integers(min_value=0, max_value=255), min_size=1, max_size=5
        ),
        x0=st.integers(min_value=0, max_value=255),
    )
    def test_matches_full_interpolation(self, coeffs, x0):
        p = Polynomial(F, coeffs)
        pts = [(x, p(x)) for x in range(1, max(p.degree + 2, 2))]
        assert interpolate_at(F, pts, x0) == p(x0)


class TestCheckDegree:
    def test_accepts_low_degree(self, rng):
        _, pts = random_poly_and_points(rng, 3, 10)
        assert check_degree(F, pts, 3)
        assert check_degree(F, pts, 5)

    def test_rejects_high_degree(self, rng):
        _, pts = random_poly_and_points(rng, 5, 10)
        assert not check_degree(F, pts, 3)

    def test_rejects_single_corruption(self, rng):
        p, pts = random_poly_and_points(rng, 3, 10)
        pts[7] = (pts[7][0], F.add(pts[7][1], 1))
        assert not check_degree(F, pts, 3)

    def test_vacuous_with_few_points(self):
        assert check_degree(F, [(1, 5), (2, 9)], 3)
