"""GF(2^k): field axioms, table/clmul agreement, conversions."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.fields import GF2k
from repro.fields.irreducible import find_irreducible_gf2, is_irreducible_gf2


@pytest.fixture(scope="module")
def pair():
    """The same field with tables and with raw carry-less multiplication."""
    return GF2k(8, tables=True), GF2k(8, tables=False)


elements8 = st.integers(min_value=0, max_value=255)


class TestAxioms:
    @given(a=elements8, b=elements8, c=elements8)
    def test_addition_group(self, a, b, c):
        f = GF2k(8)
        assert f.add(a, b) == f.add(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.add(a, f.zero) == a
        assert f.add(a, f.neg(a)) == f.zero

    @given(a=elements8, b=elements8, c=elements8)
    def test_multiplication_monoid_and_distributivity(self, a, b, c):
        f = GF2k(8)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.one) == a
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    @given(a=st.integers(min_value=1, max_value=255))
    def test_inverses(self, a):
        f = GF2k(8)
        assert f.mul(a, f.inv(a)) == f.one
        assert f.div(a, a) == f.one

    def test_characteristic_two(self, gf256):
        for a in [0, 1, 7, 200, 255]:
            assert gf256.add(a, a) == gf256.zero
            assert gf256.sub(gf256.zero, a) == a


class TestTableVsClmul:
    @given(a=elements8, b=elements8)
    def test_multiplication_agrees(self, a, b, pair):
        tabled, raw = pair
        assert tabled.mul(a, b) == raw.mul(a, b)

    @given(a=st.integers(min_value=1, max_value=255))
    def test_inverse_agrees(self, a, pair):
        tabled, raw = pair
        assert tabled.inv(a) == raw.inv(a)

    def test_tables_rejected_for_large_k(self):
        with pytest.raises(ValueError):
            GF2k(32, tables=True)


TABLE_FREE = {
    k: GF2k(k, tables=False) for k in (8, 17, 32, 64)
}


class TestTableFreeInverse:
    """``inv`` without tables is extended Euclid over GF(2)[x]; the
    exponentiation it replaced stays in the tests as the reference."""

    @pytest.mark.parametrize("k", sorted(TABLE_FREE))
    @given(data=st.data())
    def test_inverse_is_the_inverse_and_equals_the_power(self, k, data):
        field = TABLE_FREE[k]
        a = data.draw(st.integers(min_value=1, max_value=field.order - 1))
        inverse = field.inv(a)
        assert field.mul(a, inverse) == 1
        assert inverse == field._raw_pow(a, field.order - 2)

    def test_every_element_of_a_small_field(self):
        field = TABLE_FREE[8]
        for a in range(1, 256):
            assert field._raw_mul(a, field.inv(a)) == 1

    @pytest.mark.parametrize("k", sorted(TABLE_FREE))
    def test_one_metered_inversion_and_no_multiplication(self, k):
        field = TABLE_FREE[k]
        before = field.counter.snapshot()
        field.inv(field.order - 1)
        delta = field.counter.delta(before)
        assert (delta.adds, delta.muls, delta.invs) == (0, 0, 1)

    @pytest.mark.parametrize("k", sorted(TABLE_FREE))
    def test_batch_inv_agrees_and_meters_one_inversion(self, k):
        field = TABLE_FREE[k]
        rng = random.Random(k)
        vec = [rng.randrange(1, field.order) for _ in range(9)]
        expected = [field._raw_pow(a, field.order - 2) for a in vec]
        before = field.counter.snapshot()
        assert field.batch_inv(vec) == expected
        assert field.counter.delta(before).invs == 1

    @pytest.mark.parametrize("k", sorted(TABLE_FREE))
    def test_zero_has_no_inverse(self, k):
        with pytest.raises(ZeroDivisionError):
            TABLE_FREE[k].inv(0)


class TestConstruction:
    def test_default_modulus_is_irreducible_and_deterministic(self):
        assert GF2k(16).modulus == GF2k(16).modulus == find_irreducible_gf2(16)

    def test_reducible_modulus_rejected(self):
        # x^4 + 1 = (x+1)^4 over GF(2)
        with pytest.raises(ValueError):
            GF2k(4, modulus=0b10001)

    def test_wrong_degree_modulus_rejected(self):
        with pytest.raises(ValueError):
            GF2k(8, modulus=0b1011)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            GF2k(0)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 16, 32, 64])
    def test_various_degrees(self, k):
        f = GF2k(k)
        assert f.order == 1 << k
        assert f.bit_length == k
        a = f.from_int(f.order - 1)
        assert f.mul(a, f.inv(a)) == f.one


class TestConversions:
    def test_from_int_range(self, gf256):
        with pytest.raises(ValueError):
            gf256.from_int(256)
        with pytest.raises(ValueError):
            gf256.from_int(-1)

    def test_element_points_distinct_nonzero(self, gf256):
        points = [gf256.element_point(i) for i in range(1, 20)]
        assert len(set(points)) == len(points)
        assert gf256.zero not in points

    def test_element_point_bounds(self, gf16):
        with pytest.raises(ValueError):
            gf16.element_point(0)
        with pytest.raises(ValueError):
            gf16.element_point(16)

    def test_coin_bits(self, gf256):
        bits = gf256.coin_bits(0b10110001)
        assert bits == [1, 0, 0, 0, 1, 1, 0, 1]
        assert gf256.coin_bit(0b10110001) == 1
        assert gf256.coin_bit(0b10110000) == 0

    def test_contains(self, gf256):
        assert 255 in gf256
        assert 256 not in gf256
        assert "x" not in gf256
        assert (1, 2) not in gf256


class TestRandomness:
    def test_random_uniform_small_field(self, gf16):
        rng = random.Random(1)
        counts = [0] * 16
        for _ in range(4000):
            counts[gf16.random(rng)] += 1
        assert min(counts) > 150  # expected 250 each

    def test_random_nonzero(self, gf16):
        rng = random.Random(2)
        assert all(gf16.random_nonzero(rng) != 0 for _ in range(200))


class TestCounter:
    def test_operations_metered(self, gf2_16):
        before = gf2_16.counter.snapshot()
        gf2_16.add(3, 5)
        gf2_16.mul(3, 5)
        gf2_16.inv(3)
        delta = gf2_16.counter.delta(before)
        assert (delta.adds, delta.muls, delta.invs) == (1, 1, 1)

    def test_total_additions_conversion(self):
        from repro.fields.base import OpCounter

        counter = OpCounter(adds=10, muls=2)
        assert counter.total_additions(8, naive=True) == 10 + 2 * 64
        assert counter.total_additions(8, naive=False) == 10 + 2 * 24


class _WideProductCounter(GF2k):
    """GF(2^32) tallying the carry-less products neither of whose operands
    fits a byte — the ones that cost a full-width loop whichever operand
    the kernel iterates over."""

    def __init__(self):
        super().__init__(32, backend="python")
        self.wide = 0

    def _raw_mul(self, a, b):
        if a > 0xFF and b > 0xFF:
            self.wide += 1
        return super()._raw_mul(a, b)


def _bit_loop_product(field, a, b):
    """Shift-and-xor over every bit of ``b``, reducing as ``a`` grows: the
    scalar product before wide operands took sixteen integer multiplies."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a & field.order:
            a ^= field.modulus
    return result


def _high_low_modulus(k):
    """The first irreducible of degree k whose low part has degree k - 1:
    a fold pass then sheds one bit, so a full product needs k - 1 passes."""
    top = (1 << k) | (1 << (k - 1))
    return next(top | low for low in range(1, 1 << (k - 1), 2)
                if is_irreducible_gf2(top | low))


class TestOperandWidth:
    @pytest.mark.parametrize("k", [32, 17])
    @pytest.mark.parametrize("modulus", ["default", "high_low"])
    def test_wide_product_is_the_bit_loop(self, k, modulus):
        """All-ones operands (eight bits in every residue, the most any
        count can reach), every single-bit operand, and both sides of the
        narrow/wide boundary of the narrower operand, under the default
        modulus and one that needs k - 1 fold passes."""
        field = GF2k(k, tables=False, backend="python",
                     modulus=_high_low_modulus(k) if modulus == "high_low"
                     else None)
        rng = random.Random(k)
        edges = [(1 << 11) - 1, 1 << 11, (1 << 11) + 1, (1 << 12) - 1]
        operands = (
            [(1 << k) - 1, (1 << k) - 2, 1 << (k - 1) | 1]
            + [1 << i for i in range(k)]
            + edges
            + [field.random(rng) for _ in range(8)]
        )
        for a in operands:
            for b in operands:
                assert field._raw_mul(a, b) == _bit_loop_product(field, a, b)

    @pytest.mark.parametrize("k", [32, 20, 64])
    def test_raw_mul_commutes(self, k):
        field = GF2k(k, tables=False)
        rng = random.Random(k)
        for _ in range(200):
            # one operand full width, the other anything from a bit up
            a = field.random(rng)
            b = rng.randrange(1 << rng.randrange(1, k + 1))
            assert field._raw_mul(a, b) == field._raw_mul(b, a)

    @pytest.mark.parametrize("n,t", [(7, 1), (13, 2), (10, 3)])
    def test_clean_decode_wide_products(self, n, t):
        """A warm clean decode multiplies two wide elements only in the
        divided differences: t(t+1)/2 times (the basis-row sum it
        replaced made up to (t+1)^2: 4, 6 and 14 here)."""
        from repro.protocols.coin_expose import decode_exposed
        from repro.sharing.shamir import ShamirScheme

        field = _WideProductCounter()
        scheme = ShamirScheme(field, n, t)
        rng = random.Random(n * 100 + t)

        def dealt_points():
            secret = field.random(rng)
            _, shares = scheme.deal(secret, rng)
            return (secret, [scheme.point(s.player_id) for s in shares],
                    [s.value for s in shares])

        decode_exposed(field, *dealt_points()[1:], t)  # warm the node set
        secret, xs, ys = dealt_points()
        field.wide = 0
        assert decode_exposed(field, xs, ys, t) == secret
        assert field.wide <= t * (t + 1) // 2
