"""The pluggable field bulk-kernel backend layer.

Covers the PR's satellite contracts:

* element-for-element parity of every bulk kernel across the python and
  numpy backends (hypothesis property tests over GF(2^16), GF(2^32) and
  GF(p)), and of the table-free carry-less kernel against ``_raw_mul`` on
  every operand shape, modulus and width that reaches it;
* a float element raises ``TypeError`` on both backends, and a
  carry-less backend builds no table;
* OpCounter invariance — the metering happens in the ``Field`` wrappers,
  so per-element op totals are identical whichever backend computes;
* unified ``batch_inv`` zero behaviour (same error type and message,
  naming the same index, on both backends);
* backend selection: constructor argument, ``REPRO_FIELD_BACKEND``
  environment variable, availability introspection, and the no-numpy
  fallback (exercised in a subprocess with numpy import-blocked).
"""

import functools
import os
import random
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.fields import GF2k
from repro.fields.gfp import GFp
from repro.fields.irreducible import is_irreducible_gf2
from repro.fields.backends import (
    BACKEND_ENV_VAR,
    available_backends,
    numpy_available,
    resolve_backend,
)

needs_numpy = pytest.mark.skipif(
    not numpy_available(),
    reason="numpy backend parity tests need numpy installed",
)

# module-level pairs: same field parameters, both backends (numpy fields
# only constructed when numpy imports — the guarded tests are skipped
# otherwise, so the python placeholder is never exercised)
F16_PY = GF2k(16, backend="python")
F32_PY = GF2k(32, backend="python")
P_PRIME = 2**31 - 1
FP_PY = GFp(P_PRIME, backend="python")
if numpy_available():
    F16_NP = GF2k(16, backend="numpy")
    F32_NP = GF2k(32, backend="numpy")
    FP_NP = GFp(P_PRIME, backend="numpy")
else:  # pragma: no cover - exercised on the no-numpy CI leg
    F16_NP, F32_NP, FP_NP = F16_PY, F32_PY, FP_PY

# widths straddle the numpy backend's floors (16 and 32) on purpose: both
# the vectorized kernels and the short-vector pure fallback must agree
PAIRS = [(F16_PY, F16_NP), (F32_PY, F32_NP), (FP_PY, FP_NP)]
PAIR_IDS = ["gf2k16", "gf2k32", "gfp"]


def _vec(field, rng_ints, length):
    return [v % field.order for v in rng_ints[:length]]


@st.composite
def vec_pairs(draw):
    length = draw(st.integers(min_value=1, max_value=90))
    raw_a = draw(st.lists(st.integers(min_value=0, max_value=2**40),
                          min_size=length, max_size=length))
    raw_b = draw(st.lists(st.integers(min_value=0, max_value=2**40),
                          min_size=length, max_size=length))
    return raw_a, raw_b


@needs_numpy
@pytest.mark.parametrize("py,np_", PAIRS, ids=PAIR_IDS)
@given(data=vec_pairs())
@settings(max_examples=40, deadline=None)
def test_mul_many_parity(py, np_, data):
    raw_a, raw_b = data
    a, b = _vec(py, raw_a, len(raw_a)), _vec(py, raw_b, len(raw_b))
    assert py.mul_many(a, b) == np_.mul_many(a, b)


@needs_numpy
@pytest.mark.parametrize("py,np_", PAIRS, ids=PAIR_IDS)
@given(data=vec_pairs())
@settings(max_examples=40, deadline=None)
def test_dot_parity(py, np_, data):
    raw_a, raw_b = data
    a, b = _vec(py, raw_a, len(raw_a)), _vec(py, raw_b, len(raw_b))
    assert py.dot(a, b) == np_.dot(a, b)


@needs_numpy
@pytest.mark.parametrize("py,np_", PAIRS, ids=PAIR_IDS)
@given(data=vec_pairs(), c=st.integers(min_value=0, max_value=2**40))
@settings(max_examples=40, deadline=None)
def test_axpy_many_parity(py, np_, data, c):
    raw_a, raw_b = data
    a, x = _vec(py, raw_a, len(raw_a)), _vec(py, raw_b, len(raw_b))
    c = c % py.order
    assert py.axpy_many(a, x, c) == np_.axpy_many(a, x, c)


@needs_numpy
@pytest.mark.parametrize("py,np_", PAIRS, ids=PAIR_IDS)
@given(data=vec_pairs(), raw_c=st.lists(
    st.integers(min_value=0, max_value=2**40), min_size=90, max_size=90))
@settings(max_examples=40, deadline=None)
def test_horner_columns_parity(py, np_, data, raw_c):
    raw_a, raw_b = data
    n = len(raw_a)
    a, x = _vec(py, raw_a, n), _vec(py, raw_b, n)
    cs = _vec(py, raw_c, n)
    for points in (x[:1], x[:7], [j % py.order for j in range(1, 14)]):
        assert py.horner_columns([cs, a, x], points) == np_.horner_columns(
            [cs, a, x], points
        )
    assert py.mul_outer(x[:9], a) == np_.mul_outer(x[:9], a)


@needs_numpy
@pytest.mark.parametrize("py,np_", PAIRS, ids=PAIR_IDS)
@given(data=vec_pairs(), rows=st.integers(min_value=1, max_value=9))
@settings(max_examples=40, deadline=None)
def test_dot_rows_parity(py, np_, data, rows):
    raw_a, raw_b = data
    m = len(raw_a)
    vec = _vec(py, raw_a, m)
    table = [
        [(v * (r + 1) + r) % py.order for v in raw_b[:m]]
        for r in range(rows)
    ]
    assert py.dot_rows(table, vec) == np_.dot_rows(table, vec)


@needs_numpy
@pytest.mark.parametrize("py,np_", PAIRS, ids=PAIR_IDS)
@given(data=vec_pairs())
@settings(max_examples=40, deadline=None)
def test_batch_inv_parity(py, np_, data):
    raw_a, _ = data
    vec = [v % (py.order - 1) + 1 for v in raw_a]  # nonzero
    assert py.batch_inv(vec) == np_.batch_inv(vec)


# -- the carry-less kernel equals _raw_mul ----------------------------------

def _high_low_modulus(k):
    """The first irreducible of degree k whose low part has degree k - 1:
    a fold pass then sheds one bit, so a full product needs k - 1 passes."""
    top = (1 << k) | (1 << (k - 1))
    return next(top | low for low in range(1, 1 << (k - 1), 2)
                if is_irreducible_gf2(top | low))


@functools.lru_cache(maxsize=None)
def _clmul_pair(k, high_low):
    modulus = _high_low_modulus(k) if high_low else None
    return tuple(GF2k(k, modulus=modulus, tables=False, backend=backend)
                 for backend in ("python", "numpy"))


def _operand(shape, k, width, rng):
    if shape == "zero":
        return [0] * width
    if shape == "ones":  # eight bits in every residue at k=32
        return [(1 << k) - 1] * width
    if shape == "bit":  # every position, from a drawn offset
        offset = rng.randrange(k)
        return [1 << ((i + offset) % k) for i in range(width)]
    top = 1 << min(k, {"nibble": 4, "byte": 8, "uniform": k}[shape])
    out = [rng.randrange(top) for _ in range(width)]
    out[0] = top - 1  # the operand really is that wide
    return out


SHAPES = ["zero", "ones", "bit", "nibble", "byte", "uniform"]


@needs_numpy
@given(
    k=st.sampled_from([17, 20, 24, 31, 32, 4, 8, 16]),
    high_low=st.booleans(),
    # each floor of the backend's dispatch rule +-1, and a dealing sweep
    width=st.sampled_from([7, 15, 16, 17, 31, 32, 33, 1848]),
    a_shape=st.sampled_from(SHAPES),
    b_shape=st.sampled_from(SHAPES),
    seed=st.integers(min_value=0, max_value=2**16),
)
@example(k=32, high_low=False, width=1848, a_shape="ones", b_shape="ones",
         seed=0)
@example(k=32, high_low=True, width=33, a_shape="ones", b_shape="uniform",
         seed=1)
@example(k=32, high_low=False, width=16, a_shape="uniform", b_shape="uniform",
         seed=2)
@example(k=32, high_low=False, width=1848, a_shape="bit", b_shape="bit",
         seed=3)
@example(k=32, high_low=False, width=33, a_shape="uniform", b_shape="byte",
         seed=4)
@example(k=17, high_low=True, width=9, a_shape="nibble", b_shape="uniform",
         seed=5)
@settings(max_examples=150, deadline=None)
def test_clmul_kernel_equals_raw_mul(k, high_low, width, a_shape, b_shape,
                                     seed):
    """Every bulk method of the table-free kernel, on every operand shape
    that steers it (the byte path, the sixteen-product path, the number
    of fold passes), is the pure ``_raw_mul`` loop — and hands back
    exact ``int``s, never a numpy scalar."""
    py, np_ = _clmul_pair(k, high_low)
    rng = random.Random(seed)
    a = _operand(a_shape, k, width, rng)
    b = _operand(b_shape, k, width, rng)
    cs = _operand("uniform", k, width, rng)
    rows = [_operand(a_shape, k, width, rng) for _ in range(3)]
    results = [
        (np_.mul_many(a, b), py.mul_many(a, b)),
        (np_.axpy_many(a, b, cs[0]), py.axpy_many(a, b, cs[0])),
        ([np_.dot(a, b)], [py.dot(a, b)]),
        # the 2-D x 1-D broadcast: rows shaped like ``a``, vector ``b``
        (np_.dot_rows(rows, b), py.dot_rows(rows, b)),
        # the (m, G) x (m, 1) broadcast: coefficient columns shaped like
        # ``a``, points like ``b``; the outer product is one such step
        *zip(np_.horner_columns([cs, a], b[:7]), py.horner_columns([cs, a], b[:7])),
        *zip(np_.mul_outer(b[:9], a), py.mul_outer(b[:9], a)),
    ]
    for got, expected in results:
        assert got == expected
        assert all(type(x) is int for x in got)


@needs_numpy
@pytest.mark.parametrize("k", [20, 24, 32])
@pytest.mark.parametrize("width", [31, 32, 33, 96])
@pytest.mark.parametrize(
    "a_bits,b_bits",
    [(0, 0), (0, None), (None, 0), (4, None), (None, 4), (8, None),
     (None, 8), (7, 3), (8, 8), (9, 13), (None, None)],
)
def test_clmul_limb_skipping_parity(k, width, a_bits, b_bits):
    """The carry-less kernel picks its path and its fold passes from the
    widest element of each operand; every operand-width shape must still
    be byte-identical to the python loops.  ``None`` bits = full width.
    A fixed grid beside the drawn property above."""
    py, np_ = GF2k(k, backend="python"), GF2k(k, backend="numpy")
    rng = random.Random(k * 1000 + width)

    def vec(bits):
        top = 1 << (k if bits is None else bits)
        out = [rng.randrange(top) for _ in range(width)]
        out[0] = top - 1  # the operand really is that wide
        return out

    a, b, cs = vec(a_bits), vec(b_bits), vec(None)
    assert np_.mul_many(a, b) == py.mul_many(a, b)
    assert np_.dot(a, b) == py.dot(a, b)
    assert np_.axpy_many(a, b, cs[0]) == py.axpy_many(a, b, cs[0])
    assert np_.horner_columns([cs, a], b[:3]) == py.horner_columns([cs, a], b[:3])
    # the 2-D x 1-D broadcast: rows as wide as ``a``, vector as ``b``
    rows = [vec(a_bits) for _ in range(3)]
    assert np_.dot_rows(rows, b) == py.dot_rows(rows, b)


# -- what the array conversion refuses, and what set-up builds ---------------

FLOAT_FIELDS = {
    f"{style}-{backend}": make(size, backend=backend)
    for backend in available_backends()
    for style, make, size in (
        ("gf2k_clmul", GF2k, 32),
        ("gf2k_tables", GF2k, 16),
        ("gfp_u64", GFp, P_PRIME),
    )
}


@pytest.mark.parametrize("field", FLOAT_FIELDS.values(), ids=FLOAT_FIELDS.keys())
def test_a_float_element_is_a_type_error_on_every_backend(field):
    """``np.array(vec, dtype=uint64)`` truncated 5.5 to 5 and answered;
    the bulk API must refuse it whichever backend computes."""
    good = [(i * 2654435761 + 12345) % (field.order - 1) + 1 for i in range(40)]
    bad = [5.5] + good[1:]
    calls = [
        lambda: field.mul_many(bad, good),
        lambda: field.mul_many(good, bad),
        lambda: field.dot(bad, good),
        lambda: field.dot(good, bad),
        lambda: field.axpy_many(bad, good, good[0]),
        lambda: field.axpy_many(good, bad, good[0]),
        lambda: field.axpy_many(good, good, 5.5),
        lambda: field.dot_rows([good, bad], good),
        lambda: field.dot_rows([good, good], bad),
        lambda: field.horner_columns([good, bad], good[:3]),
        lambda: field.horner_columns([good, good], [5.5, 1, 2]),
        lambda: field.mul_outer(good[:3], bad),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


@needs_numpy
def test_a_carry_less_backend_builds_no_table():
    """Set-up cost went with the tables: nothing above 1 KB on the
    backend, nothing array-valued in the module, and a hundred fields
    inside a generous wall bound (20 ms here; the tables took 80)."""
    from repro.fields.backends import numpy_backend

    np = numpy_backend.numpy_or_none()
    start = time.perf_counter()
    fields = [GF2k(k, backend="numpy") for _ in range(34) for k in (17, 24, 32)]
    elapsed = time.perf_counter() - start
    for field in fields[:3]:
        assert field._backend._style == "gf2k_clmul"
        wide = [field.order - 1 - i for i in range(40)]
        field.mul_many(wide, wide)  # anything lazy is built by now
        for name, value in vars(field._backend).items():
            if isinstance(value, np.ndarray):
                assert value.nbytes <= 1024, name
    for name, value in vars(numpy_backend).items():
        assert not isinstance(value, np.ndarray), name
    assert elapsed < 0.4, f"{len(fields)} fields took {elapsed:.3f} s"


# -- metering invariance -----------------------------------------------------

@needs_numpy
def test_op_counts_identical_across_backends():
    """Per-element op totals never depend on the backend (satellite 2)."""
    for py, np_ in PAIRS:
        py.counter.reset()
        np_.counter.reset()
        a = [(i * 7 + 3) % (py.order - 1) + 1 for i in range(64)]
        b = [(i * 13 + 5) % (py.order - 1) + 1 for i in range(64)]
        for f in (py, np_):
            f.mul_many(a, b)
            f.dot(a, b)
            f.axpy_many(a, b, a[0])
            f.dot_rows([a, b, a], b)
            f.batch_inv(a)
            f.horner_columns([a, b, a], b[:5])
            f.mul_outer(a[:4], b)
        assert py.counter.snapshot() == np_.counter.snapshot()
        assert py.counter.muls == (
            64 + 64 + 64 + 3 * 64 + 3 * 63 + 2 * 64 * 5 + 4 * 64
        )
        assert py.counter.adds == 63 + 64 + 3 * 63 + 2 * 64 * 5
        assert py.counter.invs == 1
        py.counter.reset()
        np_.counter.reset()


@needs_numpy
def test_protocol_run_identical_across_backends():
    """Same seed, different backend: identical outputs AND identical
    per-player op tallies — the audit gates can never tell them apart.
    M=12 is the small-batch stretch, whose sweeps (width 49-84) the
    numpy backend takes and the python one cannot."""
    from repro.protocols.coin_gen import run_coin_gen

    for M, seed in ((8, 11), (12, 3)):
        outs = {}
        for name in ("python", "numpy"):
            results, metrics = run_coin_gen(
                GF2k(32, backend=name), n=7, t=1, M=M, seed=seed
            )
            outs[name] = (
                {pid: r.coins for pid, r in results.items()},
                {pid: (c.adds, c.muls, c.invs, c.interpolations)
                 for pid, c in sorted(metrics.player_ops.items())},
                metrics.bits,
                metrics.paper_messages,
            )
        assert outs["python"] == outs["numpy"]


# -- batch_inv zero behaviour ------------------------------------------------

@needs_numpy
@pytest.mark.parametrize("py,np_", PAIRS, ids=PAIR_IDS)
def test_batch_inv_zero_same_index_both_backends(py, np_):
    vec = [5, 9, 0, 7] * 16  # first zero at index 2, wide enough for numpy
    vec = [v % py.order for v in vec]
    errors = {}
    for name, f in (("python", py), ("numpy", np_)):
        with pytest.raises(ZeroDivisionError) as excinfo:
            f.batch_inv(vec)
        errors[name] = str(excinfo.value)
    assert errors["python"] == errors["numpy"]
    assert "index 2" in errors["python"]


# -- selection ---------------------------------------------------------------

@needs_numpy
def test_backend_names_and_introspection():
    assert F16_NP.backend_name == "numpy"
    assert F16_PY.backend_name == "python"
    assert GF2k(8).backend_name in available_backends()
    assert "python" in available_backends()
    assert "numpy" in available_backends()


@needs_numpy
def test_env_var_forces_backend(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, "python")
    assert GF2k(16).backend_name == "python"
    monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
    assert GF2k(16).backend_name == "numpy"
    monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
    with pytest.raises(ValueError):
        GF2k(16)


def test_invalid_backend_name_rejected():
    with pytest.raises(ValueError):
        GF2k(16, backend="cuda")


def test_resolve_backend_explicit_python():
    backend = resolve_backend(F16_PY, "python")
    assert backend.name == "python"


@needs_numpy
def test_gf2k_large_k_numpy_falls_back_to_pure():
    """k > 32 has no vectorized carry-less kernel; results still correct."""
    f_np = GF2k(64, backend="numpy")
    f_py = GF2k(64, backend="python")
    a = [(1 << 63) | i for i in range(40)]
    b = [(1 << 62) | (i * 3) for i in range(40)]
    assert f_np.mul_many(a, b) == f_py.mul_many(a, b)
    assert f_np.backend_name == "numpy"  # the backend exists, kernels defer


@needs_numpy
def test_gfp_large_prime_numpy_falls_back_to_pure():
    """p >= 2^32 would overflow uint64 products; results still correct."""
    p = 2**61 - 1
    f_np = GFp(p, backend="numpy")
    f_py = GFp(p, backend="python")
    a = [p - 1 - i for i in range(40)]
    b = [p - 2 - 2 * i for i in range(40)]
    assert f_np.mul_many(a, b) == f_py.mul_many(a, b)
    assert f_np.dot(a, b) == f_py.dot(a, b)


def test_no_numpy_auto_falls_back(tmp_path):
    """With numpy import-blocked, backend='auto' degrades silently and
    backend='numpy' raises — run in a subprocess with a stub module."""
    stub = tmp_path / "numpy.py"
    stub.write_text("raise ImportError('numpy disabled for this test')\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = textwrap.dedent(
        """
        from repro.fields import GF2k
        from repro.fields.backends import available_backends, numpy_available

        assert not numpy_available()
        assert available_backends() == ["python"]
        f = GF2k(16, backend="auto")
        assert f.backend_name == "python"
        assert f.mul_many([3, 5], [7, 11]) == [f.mul(3, 7), f.mul(5, 11)]
        try:
            GF2k(16, backend="numpy")
        except RuntimeError as exc:
            assert "numpy is not installed" in str(exc)
        else:
            raise SystemExit("explicit numpy backend should have raised")
        print("fallback-ok")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tmp_path), os.path.abspath(src)]
    )
    env.pop(BACKEND_ENV_VAR, None)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "fallback-ok" in proc.stdout
