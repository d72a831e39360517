"""The executable cost formulas (Lemmas 2/4/6, Theorem 2, Corollaries)."""

import pytest

from repro.analysis import complexity as cx


class TestFormulas:
    def test_lemma2_values(self):
        claim = cx.vss_single(7, 32)
        assert claim.interpolations == 2
        assert claim.rounds == 2
        assert claim.messages == 14
        assert claim.bits == 2 * 7 * 32
        assert claim.additions == 7 + 32 * 5 + 1  # n + k log k + 1

    def test_lemma4_communication_independent_of_m(self):
        assert cx.batch_vss(7, 32, 1).bits == cx.batch_vss(7, 32, 256).bits
        assert cx.batch_vss(7, 32, 1).messages == cx.batch_vss(7, 32, 256).messages

    def test_corollary1_amortized(self):
        assert cx.batch_vss_amortized_additions(32) == 2 * 32 * 5

    def test_lemma6_bits(self):
        claim = cx.bit_gen(7, 2, 32, 10)
        assert claim.bits == 7 * 10 * 32 + 2 * 49 * 32
        assert claim.rounds == 3

    def test_theorem2_interpolations(self):
        assert cx.coin_gen_interpolations_per_player(7) == 8

    def test_corollary3_amortization_knee(self):
        """The O(n^4/M) term shrinks with batch size."""
        small = cx.coin_gen_amortized_bits_per_bit(7, 32, 1)
        large = cx.coin_gen_amortized_bits_per_bit(7, 32, 1024)
        assert large < small
        assert large == pytest.approx(49 + 7**4 / 1024)

    def test_soundness_bounds(self):
        assert cx.vss_soundness_bound(16) == 1 / 16
        assert cx.batch_vss_soundness_bound(5, 16) == 5 / 16
        assert cx.coin_unanimity_error(10, 7, 32) == 70 * 2.0**-32

    def test_lemma8_expected_iterations(self):
        assert cx.coin_gen_expected_iterations(7, 1) == pytest.approx(7 / 6)
        assert cx.coin_gen_expected_iterations(13, 2) == pytest.approx(13 / 11)

    def test_mul_cost_models(self):
        assert cx.mul_cost_fast(32) == 160

