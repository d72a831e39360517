"""The stretch's wide sweeps equal the element-at-a-time loops they replaced.

Coin-Gen's M-wide loops (challenge power basis, dealing, share
validation, coin assembly) are one bulk ``Field`` call each.  Every test
here keeps the replaced loop as the reference and requires equal values,
equal metered work and — where randomness is drawn — an equal generator
state, over GF(2^8), GF(2^16), GF(2^32) and GF(p) on every backend this
interpreter can run.  The last section pins the per-player op counts of
two whole Coin-Gen runs, recorded on commit 9560a33 before any of the
loops moved.
"""

import random

import pytest

from repro.fields import GF2k
from repro.fields.backends import available_backends
from repro.fields.base import OpCounter
from repro.fields.extension import SpecialField
from repro.fields.gfp import GFp
from repro.net.adversary import equivocator_program
from repro.poly.polynomial import (
    Polynomial,
    evaluate_columns,
    evaluate_polys,
    horner_batch,
    horner_batch_many,
    power_basis,
)
from repro.protocols.coin_gen import (
    dealt_columns,
    random_vanishing,
    run_coin_gen,
)

FIELDS = {
    f"{name}-{backend}": make(size, backend=backend)
    for backend in available_backends()
    for name, make, size in (
        ("gf2k8", GF2k, 8),
        ("gf2k16", GF2k, 16),
        ("gf2k32", GF2k, 32),
        ("gfp", GFp, 2**31 - 1),
    )
}

every_field = pytest.mark.parametrize(
    "field", FIELDS.values(), ids=FIELDS.keys()
)


def metered(field, fn):
    """``(fn(), ops it metered)`` on a zeroed counter."""
    field.counter.reset()
    result = fn()
    return result, field.counter.snapshot()


# -- (a) the power basis -----------------------------------------------------

@every_field
@pytest.mark.parametrize(
    # 7-9, 15-17 and 31-33: across the numpy backend's floors (16, 32);
    # B^2 - 1, B^2, B^2 + 1 for B = 2, 3, 4, 8, 17: the edges of the
    # baby/giant blocks (no tail, a one-element tail, the block length
    # moving up); 264, the large-batch stretch
    "M", [1, 2, 3, 4, 5, 7, 8, 9, 10, 15, 16, 17, 31, 32, 33, 63, 64, 65,
          264, 288, 289, 290]
)
def test_doubled_power_basis_is_the_sequential_chain(field, M):
    """The baby-step/giant-step basis (it replaced doubling; the name is
    kept) is the one-at-a-time chain, metered as its M - 1 products, for
    a drawn r and for r = 0 and r = 1."""
    for r in (field.random(random.Random(M)), field.zero, field.one):
        chain = [r]
        for _ in range(M - 1):
            chain.append(field.mul(chain[-1], r))
        powers, ops = metered(field, lambda: power_basis(field, r, M))
        assert powers == chain
        assert ops == OpCounter(muls=M - 1)


@every_field
def test_horner_batch_many_is_horner_batch_row_by_row(field):
    rng = random.Random(5)
    r = field.random(rng)
    rows = [tuple(field.random_many(rng, 70)) for _ in range(6)]
    scalar, scalar_ops = metered(
        field, lambda: [horner_batch(field, row, r) for row in rows]
    )
    batched, ops = metered(field, lambda: horner_batch_many(field, rows, r))
    assert batched == scalar
    # the shared basis is built once instead of implicitly per row
    assert ops.adds == scalar_ops.adds
    assert ops.muls == scalar_ops.muls + 69
    assert power_basis(field, r, 0) == []
    assert horner_batch_many(field, [], r) == []
    assert horner_batch_many(field, [(), ()], r) == [field.zero] * 2


# -- (b) the column sweep ---------------------------------------------------

def _mixed_polys(field, rng):
    """Full-degree, trailing-zero, constant and all-zero polynomials."""
    zero = field.zero
    coeff_rows = [field.random_many(rng, 4) for _ in range(40)]
    coeff_rows[3] = coeff_rows[3][:3] + [zero]
    coeff_rows[7] = coeff_rows[7][:1] + [zero] * 3
    coeff_rows[11] = [zero] * 4
    coeff_rows[12] = [zero, zero, coeff_rows[12][2], zero]
    coeff_rows[39] = coeff_rows[39][:2] + [zero] * 2
    return coeff_rows


@every_field
def test_column_sweep_is_per_polynomial_evaluation(field):
    rng = random.Random(9)
    xs = [field.element_point(j) for j in range(1, 8)]
    coeff_rows = _mixed_polys(field, rng)
    polys = [Polynomial(field, row) for row in coeff_rows]
    assert {p.degree for p in polys} == {-1, 0, 1, 2, 3}
    reference, reference_ops = metered(
        field, lambda: [p.evaluate_many(xs) for p in polys]
    )
    columns = [list(column) for column in zip(*coeff_rows)]
    swept, ops = metered(field, lambda: evaluate_columns(field, columns, xs))
    assert [list(values) for values in zip(*swept)] == reference
    assert ops == reference_ops
    rows, ops = metered(field, lambda: evaluate_polys(field, polys, xs))
    assert rows == reference
    assert ops == reference_ops


@every_field
def test_column_sweep_degenerate_shapes(field):
    xs = [field.element_point(j) for j in range(1, 4)]
    one = Polynomial(field, [field.one, field.one])
    assert evaluate_columns(field, [], xs) == [[], [], []]
    assert evaluate_columns(field, [[], []], xs) == [[], [], []]
    assert evaluate_columns(field, [[field.one]], []) == []
    assert evaluate_polys(field, [], xs) == []
    assert evaluate_polys(field, [one, Polynomial.zero(field)], []) == [[], []]
    assert evaluate_polys(field, [Polynomial.zero(field)] * 2, xs) == [
        [field.zero] * 3
    ] * 2
    with pytest.raises(ValueError, match="over `field`"):
        evaluate_polys(field, [Polynomial(GF2k(4), [1])], xs)


# -- (c) column dealing -----------------------------------------------------

@every_field
@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("vanish", ["none", "origin", "point"])
def test_column_dealing_is_random_vanishing_then_evaluate_polys(
    field, t, vanish
):
    n = 6 * t + 1
    xs = [field.element_point(j) for j in range(1, n + 1)]
    vanish_at = {"none": None, "origin": field.zero, "point": xs[2]}[vanish]
    for total in (1, 2, 12, 71, 264):
        old_rng, new_rng = random.Random(total), random.Random(total)

        def per_polynomial():
            polys = [
                random_vanishing(field, t, old_rng, vanish_at)
                for _ in range(total)
            ]
            return evaluate_polys(field, polys, xs)

        def columns():
            return evaluate_columns(
                field, dealt_columns(field, t, total, new_rng, vanish_at), xs
            )

        rows, reference_ops = metered(field, per_polynomial)
        per_recipient, ops = metered(field, columns)
        assert [list(values) for values in zip(*per_recipient)] == rows
        assert new_rng.getstate() == old_rng.getstate()
        assert ops == reference_ops
        if vanish_at is not None:
            origin_or_point = evaluate_columns(
                field,
                dealt_columns(field, t, total, random.Random(1), vanish_at),
                [vanish_at],
            )
            assert origin_or_point == [[field.zero] * total]


DRAW_FIELDS = {
    **FIELDS,
    "special": SpecialField(11, 3),
    **{f"gf2k{k}-draw": GF2k(k, backend="python")
       for k in (1, 2, 7, 8, 15, 16, 31, 32, 33, 48, 63, 64)},
    # 2^31 - 1, the largest prime below 2^32, a prime near 2^61
    **{f"gfp{p}": GFp(p, backend="python")
       for p in (2**31 - 1, 2**32 - 5, 2**61 - 1)},
}


@pytest.mark.parametrize("field", DRAW_FIELDS.values(), ids=DRAW_FIELDS.keys())
def test_random_many_is_the_stream_of_repeated_random(field):
    """One word a draw (orders to 2^32), two (GF(2^32) itself, GF(2^33),
    the 2^61 prime), and the ``randrange`` loop past 64 bits (GF(2^64)):
    the same values, and the generator left in the same state."""
    for count in (0, 1, 7, 8, 9, 50, 500):
        one_call, repeated = random.Random(count), random.Random(count)
        drawn = field.random_many(one_call, count)
        assert drawn == [field.random(repeated) for _ in range(count)]
        assert one_call.getstate() == repeated.getstate()
        assert field.random_many(one_call, 0) == []
        assert one_call.getstate() == repeated.getstate()


def test_random_many_on_another_generator_is_its_randrange_stream():
    class Counting(random.Random):
        calls = 0

        def getrandbits(self, k):
            self.calls += 1
            return super().getrandbits(k)

    field = GF2k(32, backend="python")
    counting, plain = Counting(4), random.Random(4)
    assert field.random_many(counting, 9) == [
        plain.randrange(field.order) for _ in range(9)
    ]
    assert counting.calls >= 9  # one randrange a draw, not one bulk read


# -- (d) the column sum ------------------------------------------------------

@pytest.mark.parametrize(
    "field",
    list(FIELDS.values()) + [SpecialField(11, 3)],
    ids=list(FIELDS) + ["special"],
)
@pytest.mark.parametrize("shape", [(1, 1), (1, 40), (5, 1), (6, 263), (11, 70)])
def test_column_sum_is_the_scalar_double_loop(field, shape):
    height, width = shape
    rng = random.Random(height * width)
    rows = [tuple(field.random_many(rng, width)) for _ in range(height)]

    def double_loop():
        sums = []
        for h in range(width):
            sigma = field.zero
            for row in rows:
                sigma = field.add(sigma, row[h])
            sums.append(sigma)
        return sums

    reference, reference_ops = metered(field, double_loop)
    summed, ops = metered(field, lambda: field.sum_columns(rows))
    assert summed == reference
    assert ops == reference_ops
    if not isinstance(field, SpecialField):  # which meters l adds per add
        assert ops == OpCounter(adds=height * width)


@every_field
def test_column_sum_of_nothing_is_empty(field):
    assert metered(field, lambda: field.sum_columns([])) == ([], OpCounter())
    assert metered(field, lambda: field.sum_columns([(), (), ()])) == (
        [], OpCounter()
    )
    with pytest.raises(ValueError, match="equal-length"):
        field.sum_columns([(1, 2), (1,)])


# -- (e) the work of whole runs, recorded on the parent ----------------------

def _ops(metrics, n):
    return {
        pid: (c.adds, c.muls, c.invs, c.interpolations)
        for pid in range(1, n + 1)
        for c in [metrics.ops(pid)]
    }


@pytest.mark.parametrize("backend", available_backends())
def test_per_player_op_counts_of_a_clean_run_are_pinned(backend):
    outputs, metrics = run_coin_gen(
        GF2k(32, backend=backend), 7, 1, M=64, seed=3
    )
    assert all(out.success for out in outputs.values())
    expected = {pid: (1519, 1142, 0, 9) for pid in range(1, 8)}
    expected[1] = (1520, 1142, 1, 9)
    assert _ops(metrics, 7) == expected


@pytest.mark.parametrize("backend", available_backends())
def test_per_player_op_counts_with_an_equivocating_dealer_are_pinned(backend):
    outputs, metrics = run_coin_gen(
        GF2k(16, backend=backend), 13, 2, M=16, seed=3,
        faulty_programs={
            4: lambda honest: equivocator_program(
                13, random.Random(8), honest
            )
        },
    )
    assert all(out.success for pid, out in outputs.items() if pid != 4)
    light, heavy = (1766, 1619, 0, 15), (1818, 1671, 0, 15)
    expected = {pid: light for pid in range(1, 14)}
    expected.update({pid: heavy for pid in (2, 3, 9, 11)})
    expected[1] = (1571, 1603, 1, 15)
    expected[4] = (1568, 1597, 0, 15)
    assert _ops(metrics, 13) == expected


# -- leftovers ---------------------------------------------------------------

def test_random_polynomial_of_negative_degree_is_a_value_error():
    field = GF2k(8)
    with pytest.raises(ValueError, match="degree >= 0, got -1"):
        Polynomial.random(field, -1, random.Random(0), constant=field.one)
    with pytest.raises(ValueError, match="got -1"):
        random_vanishing(field, 0, random.Random(0), field.element_point(2))
