"""The paper's "specially constructed finite field" GF(q^l).

Section 2: "we can build a field of size p = Θ(2^k) in which
multiplication takes only O(k log k) time... Let q be a prime and l an
integer such that q >= 2l+1 and q^l >= 2^k.  We work over GF(q^l).  We
view the field elements as degree-l polynomials over Z_q.  Then we use
discrete Fourier transforms to do the multiplication, modulo some
irreducible polynomial, in O(l log l) operations over Z_q."

Elements are tuples of ``l`` ints modulo ``q``.  Whenever possible the
modulus is chosen as a binomial ``x^l - c`` so the post-NTT reduction is
O(l); otherwise a schoolbook reduction is used.

The operation counter tallies *scalar Z_q operations*: an element addition
counts ``l`` adds, an element multiplication counts one ``mul`` (convert
with ``OpCounter.total_additions(k, naive=False)`` which charges
``k log k`` additions per multiplication, per the paper's cost model).

Off the coin path (docs/CENSUS.md, class ii); run by claims row E11.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.fields.base import Field, exact_ints_below
from repro.fields.irreducible import prime_factors
from repro.fields.ntt import (
    choose_parameters,
    poly_mul_ntt,
    poly_mul_schoolbook,
)


# ---------------------------------------------------------------------------
# Z_q[x] helpers (setup-time; lists of coefficients, low degree first)
# ---------------------------------------------------------------------------

def _poly_trim(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divmod(a: List[int], b: List[int], q: int) -> Tuple[List[int], List[int]]:
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    inv_lead = pow(lead, q - 2, q)
    quotient = [0] * max(0, len(a) - db)
    while len(a) - 1 >= db and _poly_trim(a):
        shift = len(a) - 1 - db
        coeff = a[-1] * inv_lead % q
        quotient[shift] = coeff
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - coeff * bi) % q
        _poly_trim(a)
    return quotient, a


def _poly_mulmod(a: List[int], b: List[int], mod: List[int], q: int) -> List[int]:
    prod = poly_mul_schoolbook(a, b, q)
    _, rem = _poly_divmod(prod, mod, q)
    return rem


def _poly_powmod_qpow(a: List[int], times: int, mod: List[int], q: int) -> List[int]:
    """Compute ``a^(q^times) mod mod`` by repeated q-th powering."""
    result = list(a)
    for _ in range(times):
        # result := result^q via square-and-multiply on exponent q
        base, out, e = result, [1], q
        while e:
            if e & 1:
                out = _poly_mulmod(out, base, mod, q)
            base = _poly_mulmod(base, base, mod, q)
            e >>= 1
        result = out
    return result


def _poly_gcd(a: List[int], b: List[int], q: int) -> List[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        _, r = _poly_divmod(a, b, q)
        a, b = b, _poly_trim(r)
    if a:
        inv_lead = pow(a[-1], q - 2, q)
        a = [c * inv_lead % q for c in a]
    return a


def is_irreducible_zq(poly: List[int], q: int) -> bool:
    """Rabin's irreducibility test for a monic polynomial over Z_q."""
    l = len(poly) - 1
    if l <= 0:
        return False
    if l == 1:
        return True
    x = [0, 1]
    t = _poly_powmod_qpow(x, l, poly, q)
    # x^(q^l) must equal x mod poly
    diff = _poly_trim([(ti - xi) % q for ti, xi in
                       zip(t + [0] * (len(x) - len(t)), x + [0] * (len(t) - len(x)))])
    if diff:
        return False
    for d in prime_factors(l):
        t = _poly_powmod_qpow(x, l // d, poly, q)
        sub = list(t) + [0] * (2 - len(t))
        sub[1] = (sub[1] - 1) % q
        g = _poly_gcd(sub, poly, q)
        if len(g) - 1 != 0:
            return False
    return True


def find_irreducible_zq(l: int, q: int) -> Tuple[List[int], Optional[int]]:
    """An irreducible monic degree-l polynomial over Z_q.

    Prefers binomials ``x^l - c`` (returning ``(poly, c)``), which admit an
    O(l) reduction step; falls back to a deterministic sparse search
    (returning ``(poly, None)``).
    """
    for c in range(1, q):
        poly = [(-c) % q] + [0] * (l - 1) + [1]
        if is_irreducible_zq(poly, q):
            return poly, c
    for c0 in range(1, q):
        for c1 in range(q):
            poly = [c0, c1] + [0] * (l - 2) + [1]
            if is_irreducible_zq(poly, q):
                return poly, None
    raise RuntimeError(f"no irreducible degree-{l} polynomial over Z_{q} found")


# ---------------------------------------------------------------------------
# The field itself
# ---------------------------------------------------------------------------

class SpecialField(Field):
    """GF(q^l) with NTT-based multiplication (Section 2's fast field)."""

    def __init__(self, q: int, l: int):
        super().__init__()
        if q < 2 * l + 1:
            raise ValueError("paper requires q >= 2l + 1")
        self.q = q
        self.l = l
        self.order = q ** l
        self.bit_length = self.order.bit_length() - 1 or 1
        self.zero = (0,) * l
        self.one = tuple([1 % q] + [0] * (l - 1))
        self._omega_cache: dict = {}
        self._modulus, self._binomial_c = find_irreducible_zq(l, q)

    # -- internal ----------------------------------------------------------
    def _reduce(self, prod: List[int]) -> Tuple[int, ...]:
        q, l = self.q, self.l
        if len(prod) <= l:
            return tuple(prod + [0] * (l - len(prod)))
        if self._binomial_c is not None:
            # x^l = c  =>  fold the high part down once (deg(prod) <= 2l-2)
            c = self._binomial_c
            out = prod[:l] + [0] * (l - min(l, len(prod)))
            for i in range(l, len(prod)):
                out[i - l] = (out[i - l] + c * prod[i]) % q
            return tuple(out)
        _, rem = _poly_divmod(list(prod), self._modulus, q)
        rem = rem + [0] * (l - len(rem))
        return tuple(rem[:l])

    # -- Field interface ----------------------------------------------------
    def add(self, a, b):
        self.counter.adds += self.l
        q = self.q
        return tuple((x + y) % q for x, y in zip(a, b))

    def sub(self, a, b):
        self.counter.adds += self.l
        q = self.q
        return tuple((x - y) % q for x, y in zip(a, b))

    def neg(self, a):
        q = self.q
        return tuple((-x) % q for x in a)

    def mul(self, a, b):
        self.counter.muls += 1
        prod = poly_mul_ntt(list(a), list(b), self.q, self._omega_cache)
        return self._reduce(prod)

    def inv(self, a):
        if all(x == 0 for x in a):
            raise ZeroDivisionError("inverse of zero in GF(q^l)")
        self.counter.invs += 1
        # extended Euclid over Z_q[x]
        q = self.q
        r0, r1 = list(self._modulus), _poly_trim(list(a))
        s0, s1 = [0], [1]
        while len(r1) - 1 > 0:
            quotient, rem = _poly_divmod(r0, r1, q)
            r0, r1 = r1, _poly_trim(rem)
            prod = poly_mul_schoolbook(quotient, s1, q)
            new_s = [(x - y) % q for x, y in
                     zip(s0 + [0] * max(0, len(prod) - len(s0)),
                         prod + [0] * max(0, len(s0) - len(prod)))]
            s0, s1 = s1, _poly_trim(new_s) or [0]
        if not r1:
            raise ZeroDivisionError("element not invertible (modulus not irreducible?)")
        scale = pow(r1[0], q - 2, q)
        inv_poly = [c * scale % q for c in s1]
        inv_poly = inv_poly + [0] * (self.l - len(inv_poly))
        return tuple(inv_poly[: self.l])

    def from_int(self, value: int):
        if not 0 <= value < self.order:
            raise ValueError(f"{value} out of range for GF({self.q}^{self.l})")
        digits = []
        for _ in range(self.l):
            value, digit = divmod(value, self.q)
            digits.append(digit)
        return tuple(digits)

    def to_int(self, a) -> int:
        value = 0
        for digit in reversed(a):
            value = value * self.q + digit
        return value

    def __contains__(self, a) -> bool:
        return (
            type(a) is tuple
            and len(a) == self.l
            and exact_ints_below(a, self.q)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SpecialField(q={self.q}, l={self.l}, order~2^{self.bit_length})"


def build_special_field(k: int) -> SpecialField:
    """Construct the special field of size >= 2^k per Section 2's recipe."""
    q, l = choose_parameters(k)
    return SpecialField(q, l)
