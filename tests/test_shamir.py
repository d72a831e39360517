"""Shamir secret sharing: reconstruction, robustness, and t-privacy."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.fields import GF2k
from repro.fields.gfp import GFp
from repro.poly import DecodingError, Polynomial, interpolate
from repro.sharing import ShamirScheme, Share

F = GF2k(8)


class TestDealing:
    def test_share_count_and_points(self, rng):
        scheme = ShamirScheme(F, 7, 2)
        poly, shares = scheme.deal(123, rng)
        assert len(shares) == 7
        assert poly.degree <= 2
        assert poly(F.zero) == 123
        for share in shares:
            assert poly(scheme.point(share.player_id)) == share.value

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ShamirScheme(F, 7, 7)
        with pytest.raises(ValueError):
            ShamirScheme(F, 7, -1)
        with pytest.raises(ValueError):
            ShamirScheme(GF2k(2), 5, 1)  # field too small for 5 players

    def test_share_for(self, rng):
        scheme = ShamirScheme(F, 5, 1)
        poly = scheme.share_polynomial(9, rng)
        assert scheme.share_for(poly, 3).value == poly(scheme.point(3))


class TestReconstruction:
    @given(secret=st.integers(min_value=0, max_value=255),
           seed=st.integers(min_value=0, max_value=1000))
    def test_any_t_plus_1_shares_suffice(self, secret, seed):
        rng = random.Random(seed)
        scheme = ShamirScheme(F, 7, 2)
        _, shares = scheme.deal(secret, rng)
        subset = rng.sample(shares, 3)
        assert scheme.reconstruct(subset) == secret

    def test_too_few_shares_rejected(self, rng):
        scheme = ShamirScheme(F, 7, 2)
        _, shares = scheme.deal(5, rng)
        with pytest.raises(ValueError):
            scheme.reconstruct(shares[:2])

    def test_robust_tolerates_t_corruptions(self, rng):
        scheme = ShamirScheme(F, 7, 2)
        _, shares = scheme.deal(42, rng)
        bad = list(shares)
        bad[1] = Share(2, F.add(bad[1].value, 7))
        bad[5] = Share(6, F.add(bad[5].value, 99))
        secret, good_ids = scheme.reconstruct_robust(bad)
        assert secret == 42
        assert 2 not in good_ids and 6 not in good_ids
        assert set(good_ids) == {1, 3, 4, 5, 7}

    def test_robust_fails_beyond_capacity(self, rng):
        scheme = ShamirScheme(F, 7, 3)
        _, shares = scheme.deal(42, rng)
        # 7 points, degree 3 -> capacity (7-3-1)//2 = 1; corrupt 3
        other = Polynomial.random(F, 3, rng)
        bad = [
            Share(s.player_id, other(scheme.point(s.player_id)) if s.player_id <= 3 else s.value)
            for s in shares
        ]
        with pytest.raises(DecodingError):
            scheme.reconstruct_robust(bad)


class TestPrivacy:
    def test_t_shares_consistent_with_every_secret(self, rng):
        """Perfect privacy: any t shares + any candidate secret lie on some
        degree-t polynomial, so t shares reveal nothing."""
        scheme = ShamirScheme(F, 7, 2)
        _, shares = scheme.deal(200, rng)
        observed = [(scheme.point(s.player_id), s.value) for s in shares[:2]]
        for candidate in range(0, 256, 17):
            pts = observed + [(F.zero, candidate)]
            poly = interpolate(F, pts)
            assert poly.degree <= 2

    def test_t_shares_distribution_uniform(self):
        """Share values of a fixed secret are uniform over many dealings."""
        scheme = ShamirScheme(GF2k(4), 7, 1)
        f = scheme.field
        counts = [0] * 16
        rng = random.Random(7)
        for _ in range(3200):
            _, shares = scheme.deal(5, rng)
            counts[shares[0].value] += 1
        assert min(counts) > 100  # expected 200 each


class TestConsistency:
    def test_consistent_true(self, rng):
        scheme = ShamirScheme(F, 7, 2)
        _, shares = scheme.deal(1, rng)
        assert scheme.consistent(shares)

    def test_consistent_false(self, rng):
        scheme = ShamirScheme(F, 7, 2)
        _, shares = scheme.deal(1, rng)
        bad = list(shares)
        bad[0] = Share(1, F.add(bad[0].value, 1))
        assert not scheme.consistent(bad)

    def test_share_map(self, rng):
        scheme = ShamirScheme(F, 4, 1)
        _, shares = scheme.deal(1, rng)
        mapping = scheme.share_map(shares)
        assert set(mapping) == {1, 2, 3, 4}
