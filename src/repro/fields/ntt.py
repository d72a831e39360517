"""Number-theoretic transform over Z_q.

Section 2 of the paper sketches the special field construction: "we use
discrete Fourier transforms to do the multiplication, modulo some
irreducible polynomial, in O(l log l) operations over Z_q".  This module
supplies that transform: an iterative radix-2 Cooley-Tukey NTT over a
prime ``q`` with ``q ≡ 1 (mod 2^m)``.

Off the coin path (docs/CENSUS.md, class ii); run by claims row E11 (the
special field's multiplication).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.fields.irreducible import is_prime, prime_factors


def find_ntt_prime(min_q: int, transform_size: int) -> int:
    """Smallest prime ``q >= min_q`` with ``q ≡ 1 (mod transform_size)``.

    ``transform_size`` must be a power of two; the returned prime admits
    primitive ``transform_size``-th roots of unity.
    """
    if transform_size & (transform_size - 1):
        raise ValueError("transform size must be a power of two")
    # candidates are 1 mod transform_size
    q = ((max(min_q, 2) - 1 + transform_size - 1) // transform_size) * transform_size + 1
    while not is_prime(q):
        q += transform_size
    return q


def primitive_root(q: int) -> int:
    """A generator of the multiplicative group of Z_q (q prime)."""
    group = q - 1
    factors = prime_factors(group)
    for g in range(2, q):
        if all(pow(g, group // f, q) != 1 for f in factors):
            return g
    raise ValueError(f"no primitive root modulo {q}")


def root_of_unity(q: int, size: int) -> int:
    """A primitive ``size``-th root of unity modulo prime ``q``."""
    if (q - 1) % size:
        raise ValueError(f"{size} does not divide q-1={q - 1}")
    g = primitive_root(q)
    omega = pow(g, (q - 1) // size, q)
    return omega


def _bit_reverse_permute(vec: List[int]) -> List[int]:
    n = len(vec)
    out = list(vec)
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            out[i], out[j] = out[j], out[i]
    return out


def ntt(vec: List[int], omega: int, q: int) -> List[int]:
    """In-order iterative NTT of length ``len(vec)`` (a power of two)."""
    n = len(vec)
    if n & (n - 1):
        raise ValueError("NTT length must be a power of two")
    a = _bit_reverse_permute([v % q for v in vec])
    length = 2
    while length <= n:
        w_len = pow(omega, n // length, q)
        half = length // 2
        for start in range(0, n, length):
            w = 1
            for i in range(start, start + half):
                u = a[i]
                v = a[i + half] * w % q
                a[i] = (u + v) % q
                a[i + half] = (u - v) % q
                w = w * w_len % q
        length <<= 1
    return a


def intt(vec: List[int], omega: int, q: int) -> List[int]:
    """Inverse NTT (scales by n^{-1})."""
    n = len(vec)
    inv_omega = pow(omega, q - 2, q)
    a = ntt(vec, inv_omega, q)
    inv_n = pow(n, q - 2, q)
    return [x * inv_n % q for x in a]


def poly_mul_ntt(a: List[int], b: List[int], q: int, omega_cache: dict = None) -> List[int]:
    """Product of two Z_q[x] polynomials via NTT.

    Falls back to schoolbook multiplication when ``q`` lacks a large enough
    root of unity (caller should choose ``q`` via :func:`find_ntt_prime` to
    avoid the fallback).
    """
    if not a or not b:
        return []
    result_len = len(a) + len(b) - 1
    size = 1
    while size < result_len:
        size <<= 1
    if (q - 1) % size:
        return poly_mul_schoolbook(a, b, q)
    if omega_cache is not None and size in omega_cache:
        omega = omega_cache[size]
    else:
        omega = root_of_unity(q, size)
        if omega_cache is not None:
            omega_cache[size] = omega
    fa = ntt(a + [0] * (size - len(a)), omega, q)
    fb = ntt(b + [0] * (size - len(b)), omega, q)
    fc = [x * y % q for x, y in zip(fa, fb)]
    c = intt(fc, omega, q)
    return c[:result_len]


def poly_mul_schoolbook(a: List[int], b: List[int], q: int) -> List[int]:
    """O(l^2) reference polynomial product over Z_q."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % q
    return out


def choose_parameters(k: int) -> Tuple[int, int]:
    """Pick ``(q, l)`` for the paper's special field of size >= 2^k.

    Section 2: "Let q be a prime and l an integer such that q >= 2l+1 and
    q^l >= 2^k ... Choosing q = O(l) and l = O(k / log k)".  We also require
    ``q ≡ 1 (mod 2^m)`` for a transform size covering degree-2l products.
    """
    import math

    if k < 2:
        raise ValueError("k must be >= 2")
    log_k = max(1.0, math.log2(k))
    l = max(2, int(math.ceil(k / log_k)))
    while True:
        size = 1
        while size < 2 * l:
            size <<= 1
        q = find_ntt_prime(2 * l + 1, size)
        if q ** l >= (1 << k):
            return q, l
        l += 1
