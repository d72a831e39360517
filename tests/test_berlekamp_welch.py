"""Berlekamp-Welch decoding — the paper's robust interpolation step."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.fields import GF2k
from repro.fields.gfp import GFp
from repro.poly import DecodingError, Polynomial, berlekamp_welch
from repro.poly.berlekamp_welch import max_correctable_errors

F = GF2k(8)


def make_instance(rng, degree, npoints, nerrors):
    p = Polynomial.random(F, degree, rng)
    pts = [(x, p(x)) for x in range(1, npoints + 1)]
    error_positions = rng.sample(range(npoints), nerrors)
    for i in error_positions:
        x, y = pts[i]
        wrong = F.add(y, F.random_nonzero(rng))
        pts[i] = (x, wrong)
    return p, pts, sorted(error_positions)


class TestCapacity:
    def test_formula(self):
        assert max_correctable_errors(7, 2) == 2   # 7 >= 2 + 2*2 + 1
        assert max_correctable_errors(7, 6) == 0
        assert max_correctable_errors(4, 6) == 0


class TestDecoding:
    @given(
        seed=st.integers(min_value=0, max_value=5000),
        degree=st.integers(min_value=0, max_value=3),
        nerrors=st.integers(min_value=0, max_value=3),
    )
    def test_corrects_up_to_capacity(self, seed, degree, nerrors):
        rng = random.Random(seed)
        npoints = degree + 2 * nerrors + 1
        p, pts, bad = make_instance(rng, degree, npoints, nerrors)
        decoded, good = berlekamp_welch(F, pts, degree)
        assert decoded == p
        assert set(range(npoints)) - set(good) <= set(bad)

    def test_no_errors_plain_interpolation(self, rng):
        p, pts, _ = make_instance(rng, 3, 4, 0)
        decoded, good = berlekamp_welch(F, pts, 3)
        assert decoded == p
        assert good == list(range(4))

    def test_identifies_corrupted_positions(self, rng):
        p, pts, bad = make_instance(rng, 2, 9, 3)
        decoded, good = berlekamp_welch(F, pts, 2)
        assert decoded == p
        assert sorted(set(range(9)) - set(good)) == bad

    def test_beyond_capacity_raises(self, rng):
        """At 4-vs-3 between two degree-2 polynomials, neither reaches the
        required agreement of n - e_max = 5 points: decoding must fail
        rather than return a wrong answer."""
        degree, npoints = 2, 7
        p = Polynomial.random(F, degree, rng)
        q = p + Polynomial(F, [1, 1])  # a different degree-<=2 polynomial
        pts = [(x, q(x) if x <= 4 else p(x)) for x in range(1, npoints + 1)]
        with pytest.raises(DecodingError):
            berlekamp_welch(F, pts, degree)

    def test_majority_polynomial_wins(self, rng):
        """5-vs-2 between two polynomials: the majority one is decoded."""
        degree, npoints = 2, 7
        p = Polynomial.random(F, degree, rng)
        q = p + Polynomial(F, [0, 3])
        pts = [(x, q(x) if x <= 5 else p(x)) for x in range(1, npoints + 1)]
        decoded, good = berlekamp_welch(F, pts, degree)
        assert decoded == q
        assert good == [0, 1, 2, 3, 4]

    def test_insufficient_points(self):
        with pytest.raises(DecodingError):
            berlekamp_welch(F, [(1, 1)], 2)

    def test_undecodable_raises(self, rng):
        # 5 random points, degree 1, max_errors=0: almost surely no line
        pts = [(x, F.random(rng)) for x in range(1, 6)]
        with pytest.raises(DecodingError):
            berlekamp_welch(F, pts, 1, max_errors=0)

    def test_duplicate_x_rejected(self):
        with pytest.raises(ValueError):
            berlekamp_welch(F, [(1, 2), (1, 3), (2, 4)], 1)

    def test_max_errors_clamped(self, rng):
        """Passing an oversized max_errors must not break decoding."""
        p, pts, _ = make_instance(rng, 2, 7, 1)
        decoded, _ = berlekamp_welch(F, pts, 2, max_errors=50)
        assert decoded == p

    def test_counts_one_interpolation(self, rng):
        p, pts, _ = make_instance(rng, 2, 7, 1)
        before = F.counter.snapshot()
        berlekamp_welch(F, pts, 2)
        assert F.counter.delta(before).interpolations == 1

    def test_prime_field(self):
        f = GFp(97)
        p = Polynomial(f, [10, 20, 30])
        pts = [(x, p(x)) for x in range(1, 8)]
        pts[3] = (pts[3][0], (pts[3][1] + 5) % 97)
        decoded, good = berlekamp_welch(f, pts, 2)
        assert decoded == p
        assert 3 not in good
