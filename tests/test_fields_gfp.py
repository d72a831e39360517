"""Z_p: axioms, primality enforcement, conversions."""

import pytest
from hypothesis import given, strategies as st

from repro.fields.gfp import GFp

P = 10007
elements = st.integers(min_value=0, max_value=P - 1)


class TestAxioms:
    @given(a=elements, b=elements, c=elements)
    def test_ring_axioms(self, a, b, c):
        f = GFp(P)
        assert f.add(a, b) == (a + b) % P
        assert f.sub(a, b) == (a - b) % P
        assert f.mul(a, b) == a * b % P
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    @given(a=st.integers(min_value=1, max_value=P - 1))
    def test_inverse(self, a):
        f = GFp(P)
        assert f.mul(a, f.inv(a)) == 1

    def test_neg(self):
        f = GFp(P)
        assert f.neg(0) == 0
        assert f.add(5, f.neg(5)) == 0

    @given(a=elements, e=st.integers(min_value=0, max_value=50))
    def test_pow(self, a, e):
        f = GFp(P)
        assert f.pow(a, e) == pow(a, e, P)

    def test_negative_exponent(self):
        f = GFp(P)
        assert f.mul(f.pow(3, -2), f.pow(3, 2)) == 1


class TestConstruction:
    def test_composite_rejected(self):
        with pytest.raises(ValueError):
            GFp(10)

    def test_check_prime_skippable(self):
        assert GFp(10, check_prime=False).order == 10

    def test_zero_inverse(self):
        with pytest.raises(ZeroDivisionError):
            GFp(P).inv(0)

    def test_coin_bit_parity(self):
        f = GFp(P)
        assert f.coin_bit(4) == 0
        assert f.coin_bit(5) == 1

    def test_from_int_bounds(self):
        f = GFp(P)
        with pytest.raises(ValueError):
            f.from_int(P)
