"""Smaller API surfaces: edge cases across modules."""

import pytest

from repro.fields import GF2k
from repro.fields.gfp import GFp
from repro.fields.base import OpCounter
from repro.poly import Polynomial
from repro.protocols.coin_expose import CoinShare
from repro.core import SharedCoin


class TestFieldMisc:
    def test_pow_zero_exponent(self, gf256):
        assert gf256.pow(0, 0) == gf256.one  # convention: x^0 = 1
        assert gf256.pow(7, 0) == gf256.one

    def test_pow_negative_exponent_gf2k(self, gf256):
        a = 77
        assert gf256.mul(gf256.pow(a, -3), gf256.pow(a, 3)) == gf256.one

    def test_elements_iterator(self):
        f = GF2k(3)
        elements = list(f.elements())
        assert len(elements) == 8
        assert elements[0] == f.zero
        assert len(set(elements)) == 8

    def test_div(self, gf256):
        assert gf256.div(gf256.mul(9, 13), 13) == 9
        with pytest.raises(ZeroDivisionError):
            gf256.div(1, 0)

    def test_gfp_coin_bits(self):
        f = GFp(101)
        bits = f.coin_bits(5)
        assert bits[:3] == [1, 0, 1]
        assert len(bits) == f.bit_length

    def test_generator_attribute_for_table_fields(self):
        f = GF2k(8)
        # the generator's multiplicative order is 2^8 - 1
        assert f.pow(f.generator, 255) == f.one
        assert f.pow(f.generator, 85) != f.one  # 255/3

    def test_repr(self):
        assert "GF2k" in repr(GF2k(8))
        assert "GFp" in repr(GFp(101))


class TestPolynomialMisc:
    def test_evaluate_many(self, gf256, rng):
        p = Polynomial.random(gf256, 3, rng)
        xs = [1, 2, 3]
        assert p.evaluate_many(xs) == [p(x) for x in xs]

    def test_neg_in_characteristic_two(self, gf256):
        p = Polynomial(gf256, [1, 2, 3])
        assert -p == p

    def test_repr(self, gf256):
        assert "deg=2" in repr(Polynomial(gf256, [1, 0, 3]))


class TestCoinShareMisc:
    def test_frozen(self):
        share = CoinShare("c", frozenset({1, 2}), 1, 5)
        with pytest.raises(Exception):
            share.my_value = 7  # type: ignore[misc]

    def test_equality(self):
        a = CoinShare("c", frozenset({1}), 1, 5)
        b = CoinShare("c", frozenset({1}), 1, 5)
        assert a == b

    def test_shared_coin_senders_property(self):
        shares = {
            pid: CoinShare("x", frozenset({1, 2, 3}), 1, pid)
            for pid in (1, 2, 3)
        }
        coin = SharedCoin("x", shares, 1)
        assert coin.senders == frozenset({1, 2, 3})


class TestOpCounterConversion:
    def test_inversions_charged_as_k_multiplications(self):
        counter = OpCounter(invs=2)
        assert counter.total_additions(16, naive=True) == 2 * 16 * 16 * 16

    def test_interpolations_not_double_counted(self):
        counter = OpCounter(interpolations=5)
        assert counter.total_additions(16) == 0  # interp internals are
        # already metered as their own adds/muls


class TestMetricsSummaryKeys:
    def test_summary_shape(self):
        from repro.net.metrics import NetworkMetrics

        keys = set(NetworkMetrics().summary())
        assert {
            "rounds",
            "messages",
            "unicast_messages",
            "broadcast_messages",
            "bits",
            "max_player_adds",
            "max_player_muls",
            "max_player_interpolations",
        } == keys
