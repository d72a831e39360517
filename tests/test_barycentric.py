"""The barycentric interpolation cache and the field bulk-ops layer.

Property tests pin the cached fast paths to the classic reference
implementations in :mod:`repro.poly.lagrange`, and OpCounter-based tests
verify the performance contract: one batch inversion per point set, zero
inversions on cache hits.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fields import GF2k
from repro.fields.extension import build_special_field
from repro.fields.gfp import GFp
from repro.fields.backends import numpy_available
from repro.poly import (
    InterpolationCache,
    Polynomial,
    berlekamp_welch,
    interpolate,
    interpolate_at,
    interpolate_at_cached,
    interpolate_cached,
    interpolation_mode,
    shared_cache,
)
from repro.sharing.shamir import ShamirScheme

F256 = GF2k(8)
F101 = GFp(101)

#: a prime below 2^32, so the numpy uint64 kernels serve the same field
Q = 1073153
MODES = ("off", "fresh", "shared")
BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def poly_points(field, coeffs, npoints=None):
    p = Polynomial(field, [c % field.order for c in coeffs])
    count = npoints or max(p.degree + 1, 1) + 1
    xs = [field.from_int(x) for x in range(1, count + 1)]
    return p, [(x, p(x)) for x in xs]


class TestMatchesClassic:
    @given(
        coeffs=st.lists(
            st.integers(min_value=0, max_value=255), min_size=1, max_size=7
        ),
        x0=st.integers(min_value=0, max_value=255),
    )
    def test_eval_matches_interpolate_at_gf2k(self, coeffs, x0):
        p, pts = poly_points(F256, coeffs)
        assert interpolate_at_cached(F256, pts, x0) == interpolate_at(
            F256, pts, x0
        )

    @given(
        coeffs=st.lists(
            st.integers(min_value=0, max_value=100), min_size=1, max_size=6
        ),
        x0=st.integers(min_value=0, max_value=100),
    )
    def test_eval_matches_interpolate_at_gfp(self, coeffs, x0):
        p, pts = poly_points(F101, coeffs)
        assert interpolate_at_cached(F101, pts, x0) == interpolate_at(
            F101, pts, x0
        )

    @given(
        coeffs=st.lists(
            st.integers(min_value=0, max_value=255), min_size=1, max_size=7
        )
    )
    def test_polynomial_matches_interpolate_gf2k(self, coeffs):
        p, pts = poly_points(F256, coeffs)
        assert interpolate_cached(F256, pts) == interpolate(F256, pts)

    @given(
        coeffs=st.lists(
            st.integers(min_value=0, max_value=100), min_size=1, max_size=6
        )
    )
    def test_polynomial_matches_interpolate_gfp(self, coeffs):
        p, pts = poly_points(F101, coeffs)
        assert interpolate_cached(F101, pts) == interpolate(F101, pts)

    def test_point_order_irrelevant(self):
        rng = random.Random(5)
        p, pts = poly_points(F256, [3, 1, 4, 1, 5])
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert interpolate_cached(F256, shuffled) == interpolate(F256, pts)
        assert interpolate_at_cached(F256, shuffled, 0) == p(F256.zero)

    def test_eval_at_a_node_returns_its_value(self):
        _, pts = poly_points(F256, [9, 8, 7])
        for x, y in pts:
            assert interpolate_at_cached(F256, pts, x) == y

    def test_duplicate_x_rejected(self):
        with pytest.raises(ValueError):
            interpolate_cached(F256, [(1, 5), (1, 6)])
        with pytest.raises(ValueError):
            interpolate_at_cached(F256, [(1, 5), (1, 6)], 0)


#: every field kind ``polynomial()`` serves; all hold at least 14 elements
NEWTON_FIELDS = {
    "gf2k8": GF2k(8),
    "gf2k16": GF2k(16),
    "gf2k32": GF2k(32),
    "gfp": GFp(10007),
    "special": build_special_field(32),
}


class TestNewtonForm:
    """``polynomial()`` builds the interpolant in Newton form from cached
    inverse differences; the classic Lagrange code is the reference."""

    @pytest.mark.parametrize("mode", ["shared", "fresh"])
    @pytest.mark.parametrize("name", sorted(NEWTON_FIELDS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_classic_for_any_order(self, name, mode, data):
        field = NEWTON_FIELDS[name]
        xs = data.draw(st.lists(
            st.integers(min_value=0, max_value=min(field.order, 4096) - 1),
            min_size=1, max_size=13, unique=True,
        ))
        ys = data.draw(st.lists(
            st.integers(min_value=0, max_value=field.order - 1),
            min_size=len(xs), max_size=len(xs),
        ))
        points = [(field.from_int(x), field.from_int(y))
                  for x, y in zip(xs, ys)]
        with interpolation_mode(mode):
            cached = interpolate_cached(field, points)
        assert cached == interpolate(field, points)
        # a second cache, built from another arrival order, agrees
        assert InterpolationCache(field).polynomial(points[::-1]) == cached

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 7])
    def test_hit_costs_m_times_m_minus_one_and_no_inversion(self, m):
        field = GF2k(32)
        rng = random.Random(m)
        cache = InterpolationCache(field)
        xs = [field.element_point(i) for i in range(1, m + 1)]
        cache.polynomial([(x, field.random_nonzero(rng)) for x in xs])
        before = field.counter.snapshot()
        cache.polynomial([(x, field.random_nonzero(rng)) for x in xs])
        delta = field.counter.delta(before)
        assert delta.invs == 0
        assert delta.muls == m * (m - 1)

    def test_polynomial_only_node_set_never_builds_weights(self):
        field = GF2k(32)
        cache = InterpolationCache(field)
        pts = [(field.element_point(i), 7 * i) for i in range(1, 5)]
        cache.polynomial(pts)
        node = cache.node_set([x for x, _ in pts])
        assert node._weights is None
        assert node._inv_diffs is not None
        # and the other way round: eval_at leaves the Newton table unbuilt
        other = InterpolationCache(field)
        other.eval_at(pts, field.zero)
        node = other.node_set([x for x, _ in pts])
        assert node._weights is not None
        assert node._inv_diffs is None

    @pytest.mark.parametrize("m", [2, 3, 8])
    def test_cold_interpolation_is_one_inversion(self, m):
        """``poly.interpolate_cold_us`` times exactly this call."""
        field = GF2k(32)
        pts = [(field.element_point(i), i * i + 1) for i in range(1, m + 1)]
        with interpolation_mode("fresh"):
            before = field.counter.snapshot()
            interpolate_cached(field, pts)
            assert field.counter.delta(before).invs == 1

    def test_single_point_needs_no_inversion(self):
        field = GF2k(32)
        with interpolation_mode("fresh"):
            before = field.counter.snapshot()
            assert interpolate_cached(field, [(5, 9)]) == Polynomial(field, [9])
            assert field.counter.delta(before).invs == 0


class TestModes:
    def test_fresh_and_off_agree_with_shared(self):
        p, pts = poly_points(F256, [1, 2, 3, 4])
        expected = interpolate_at_cached(F256, pts, 0)
        for mode in ("fresh", "off"):
            with interpolation_mode(mode):
                assert interpolate_at_cached(F256, pts, 0) == expected
                assert interpolate_cached(F256, pts) == p

    def test_mode_restored_after_exception(self):
        from repro.poly import barycentric

        with pytest.raises(RuntimeError):
            with interpolation_mode("off"):
                raise RuntimeError("boom")
        assert barycentric.cache_mode() == "shared"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            with interpolation_mode("bogus"):
                pass

    def test_retired_ntt_mode_rejected(self):
        with pytest.raises(ValueError):
            with interpolation_mode("ntt"):
                pass

    def test_interpolation_counter_bumped_once_in_every_mode(self):
        _, pts = poly_points(F256, [1, 2, 3])
        for mode in ("shared", "fresh", "off"):
            with interpolation_mode(mode):
                before = F256.counter.snapshot()
                interpolate_cached(F256, pts)
                interpolate_at_cached(F256, pts, 0)
                assert F256.counter.delta(before).interpolations == 2


def _bw_case(field, degree, n, bad_positions, seed):
    rng = random.Random(seed)
    poly = Polynomial(field, [rng.randrange(field.order)
                              for _ in range(degree + 1)])
    points = [(x, poly(x)) for x in range(1, n + 1)]
    for pos in bad_positions:
        x, y = points[pos]
        points[pos] = (x, (y + 1 + pos) % field.order)
    return poly, points


class TestModeBackendMatrix:
    """Seeded outputs are byte-identical across every mode x backend."""

    def test_evaluate_many_identical_across_modes(self):
        rng = random.Random(29)
        field = GFp(Q, backend="python")
        coeffs = [rng.randrange(Q) for _ in range(12)]
        xs = rng.sample(range(1, 4096), 40)
        outputs = {}
        for mode in MODES:
            with interpolation_mode(mode):
                outputs[mode] = Polynomial(field, coeffs).evaluate_many(xs)
        assert len({tuple(v) for v in outputs.values()}) == 1

    @pytest.mark.parametrize("bad", [(), (60, 65, 69), (0, 3, 64)],
                             ids=["clean", "tail-errors", "head-errors"])
    def test_berlekamp_welch_identical_across_mode_matrix(self, bad):
        """BW decoding (incl. error correction) is mode- and backend-invariant.

        Head errors force the fall back to the full key-equation decoder
        under every mode.
        """
        degree, n = 31, 70
        reference = None
        for backend in BACKENDS:
            field = GFp(Q, backend=backend)
            truth, points = _bw_case(field, degree, n, bad, seed=31)
            for mode in MODES:
                with interpolation_mode(mode):
                    decoded, good = berlekamp_welch(field, points, degree)
                assert decoded == Polynomial(field, list(truth.coeffs))
                outcome = (tuple(decoded.coeffs), tuple(good))
                if reference is None:
                    reference = outcome
                assert outcome == reference, (backend, mode)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_vss_identical_across_modes(self, backend):
        """Every mode agrees bit-for-bit on every player's verdict, the
        exposed challenge, and the metered traffic."""
        from repro.protocols.batch_vss import run_batch_vss

        n, t, M = 33, 10, 4
        outcomes = {}
        for mode in MODES:
            field = GFp(Q, backend=backend)
            with interpolation_mode(mode):
                results, metrics = run_batch_vss(field, n=n, t=t, M=M, seed=5)
            assert all(res.accepted for res in results.values())
            outcomes[mode] = (
                {pid: (res.accepted, res.challenge)
                 for pid, res in results.items()},
                metrics.bits,
                metrics.paper_messages,
            )
        assert len({repr(v) for v in outcomes.values()}) == 1


class TestBatchInv:
    @pytest.mark.parametrize(
        "field", [GF2k(8), GF2k(32), GFp(10007)], ids=["tables", "clmul", "gfp"]
    )
    def test_matches_per_element_inverse(self, field):
        rng = random.Random(7)
        vec = [field.random_nonzero(rng) for _ in range(17)]
        assert field.batch_inv(vec) == [field.inv(v) for v in vec]

    def test_single_inversion_per_batch(self):
        field = GF2k(32)
        rng = random.Random(8)
        vec = [field.random_nonzero(rng) for _ in range(20)]
        before = field.counter.snapshot()
        field.batch_inv(vec)
        delta = field.counter.delta(before)
        assert delta.invs == 1
        assert delta.muls == 3 * (len(vec) - 1)

    def test_zero_rejected(self):
        field = GFp(101)
        with pytest.raises(ZeroDivisionError):
            field.batch_inv([4, 0, 9])

    def test_empty_and_singleton(self):
        field = GF2k(8)
        assert field.batch_inv([]) == []
        assert field.batch_inv([7]) == [field.inv(7)]


class TestBulkOps:
    @pytest.mark.parametrize(
        "field", [GF2k(8), GF2k(32), GFp(10007)], ids=["tables", "clmul", "gfp"]
    )
    def test_values_match_scalar_ops(self, field):
        rng = random.Random(9)
        a = [field.random(rng) for _ in range(13)]
        b = [field.random(rng) for _ in range(13)]
        c = field.random(rng)
        assert field.mul_many(a, b) == [field.mul(x, y) for x, y in zip(a, b)]
        expected_dot = field.zero
        for x, y in zip(a, b):
            expected_dot = field.add(expected_dot, field.mul(x, y))
        assert field.dot(a, b) == expected_dot
        assert field.axpy_many(a, b, c) == [
            field.add(field.mul(x, y), c) for x, y in zip(a, b)
        ]

    def test_metering_totals_equal_scalar_path(self):
        field = GF2k(8)
        rng = random.Random(10)
        a = [field.random(rng) for _ in range(11)]
        b = [field.random(rng) for _ in range(11)]
        before = field.counter.snapshot()
        field.mul_many(a, b)
        d = field.counter.delta(before)
        assert (d.muls, d.adds) == (11, 0)
        before = field.counter.snapshot()
        field.dot(a, b)
        d = field.counter.delta(before)
        assert (d.muls, d.adds) == (11, 10)
        before = field.counter.snapshot()
        field.axpy_many(a, b, 5)
        d = field.counter.delta(before)
        assert (d.muls, d.adds) == (11, 11)

    def test_length_mismatch_rejected(self):
        field = GF2k(8)
        with pytest.raises(ValueError):
            field.mul_many([1], [1, 2])
        with pytest.raises(ValueError):
            field.dot([1], [1, 2])
        with pytest.raises(ValueError):
            field.axpy_many([1], [1, 2], 3)

    def test_empty_vectors(self):
        field = GFp(101)
        assert field.mul_many([], []) == []
        assert field.dot([], []) == field.zero
        assert field.axpy_many([], [], 7) == []


class TestEvaluateMany:
    @given(
        coeffs=st.lists(st.integers(min_value=0, max_value=255), max_size=8),
        xs=st.lists(st.integers(min_value=0, max_value=255), max_size=8),
    )
    def test_matches_pointwise_horner(self, coeffs, xs):
        p = Polynomial(F256, coeffs)
        assert p.evaluate_many(xs) == [p(x) for x in xs]

    def test_op_totals_match_pointwise_horner(self):
        field = GF2k(8)
        p = Polynomial(field, [1, 2, 3, 4])
        xs = [5, 6, 7]
        before = field.counter.snapshot()
        batched = p.evaluate_many(xs)
        batch_delta = field.counter.delta(before)
        before = field.counter.snapshot()
        pointwise = [p(x) for x in xs]
        scalar_delta = field.counter.delta(before)
        assert batched == pointwise
        assert (batch_delta.muls, batch_delta.adds) == (
            scalar_delta.muls,
            scalar_delta.adds,
        )


class TestCacheMetering:
    def test_reconstruct_zero_inversions_after_first_call(self):
        """The headline acceptance criterion: reconstruction over a fixed
        n-point share set performs 0 field inversions once the weights are
        cached."""
        field = GF2k(32)  # fresh field -> fresh shared cache
        scheme = ShamirScheme(field, 7, 2)
        rng = random.Random(11)
        secret = field.from_int(123_456)
        _, shares = scheme.deal(secret, rng)

        before = field.counter.snapshot()
        assert scheme.reconstruct(shares) == secret
        first = field.counter.delta(before)
        assert first.invs >= 1  # the one-time batch-inverted weight build

        before = field.counter.snapshot()
        for _ in range(10):
            assert scheme.reconstruct(shares) == secret
        rest = field.counter.delta(before)
        assert rest.invs == 0
        assert rest.interpolations == 10  # the lemma unit still ticks

    def test_second_exposure_same_set_no_inversions(self):
        """Berlekamp-Welch over a repeated qualified set: the second coin
        exposure is inversion-free (cached optimistic decode)."""
        field = GF2k(32)
        scheme = ShamirScheme(field, 7, 2)
        rng = random.Random(12)
        pts_for = []
        for _ in range(2):
            poly, shares = scheme.deal(field.random(rng), rng)
            pts_for.append(
                [(scheme.point(s.player_id), s.value) for s in shares]
            )
        berlekamp_welch(field, pts_for[0], 2)  # warm: builds the inverse differences
        before = field.counter.snapshot()
        decoded, good = berlekamp_welch(field, pts_for[1], 2)
        delta = field.counter.delta(before)
        assert delta.invs == 0
        assert delta.interpolations == 1
        assert len(good) == 7

    def test_hit_and_miss_accounting(self):
        field = GF2k(8)
        cache = InterpolationCache(field)
        pts = [(x, x) for x in (1, 2, 3)]
        cache.eval_at(pts, 0)
        cache.eval_at(pts, 0)
        cache.polynomial(pts)
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 2
        assert stats["sets"] == 1

    def test_eviction_keeps_answers_correct(self):
        field = GF2k(8)
        cache = InterpolationCache(field, max_sets=2)
        polys = []
        for start in range(1, 5):
            p, pts = poly_points(field, [start, 7, start + 1], npoints=3 + start)
            polys.append((p, pts))
            cache.eval_at(pts, 0)
        assert cache.stats()["sets"] == 2
        for p, pts in polys:  # evicted sets rebuild transparently
            assert cache.eval_at(pts, 0) == p(field.zero)

    def test_shared_cache_is_per_field(self):
        f1, f2 = GF2k(8), GF2k(8)
        assert shared_cache(f1) is shared_cache(f1)
        assert shared_cache(f1) is not shared_cache(f2)


class TestDecoderFallback:
    def test_corrupted_head_points_fall_back_to_key_equation(self):
        """Corrupting shares *inside* the optimistic head window must not
        break decoding — the match count fails and the full decoder runs."""
        field = GF2k(32)
        scheme = ShamirScheme(field, 13, 2)
        rng = random.Random(13)
        poly, shares = scheme.deal(field.random(rng), rng)
        pts = [(scheme.point(s.player_id), s.value) for s in shares]
        for i in (0, 2):  # both inside the first t+1 = 3 points
            pts[i] = (pts[i][0], field.add(pts[i][1], 1))
        decoded, good = berlekamp_welch(field, pts, 2)
        assert decoded == poly
        assert len(good) == 11

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_random_corruptions_match_uncached_decoder(self, seed):
        field = F256
        scheme = ShamirScheme(field, 10, 2)
        rng = random.Random(seed)
        poly, shares = scheme.deal(field.random(rng), rng)
        pts = [(scheme.point(s.player_id), s.value) for s in shares]
        for i in rng.sample(range(10), rng.randrange(0, 3)):
            pts[i] = (pts[i][0], field.add(pts[i][1], rng.randrange(1, 255)))
        cached = berlekamp_welch(field, pts, 2)
        with interpolation_mode("off"):
            classic = berlekamp_welch(field, pts, 2)
        assert cached[0] == classic[0]
        assert cached[1] == classic[1]
