"""The pluggable field bulk-kernel backend layer.

Covers the PR's satellite contracts:

* element-for-element parity of every bulk kernel across the python and
  numpy backends (hypothesis property tests over GF(2^16), GF(2^32) and
  GF(p));
* OpCounter invariance — the metering happens in the ``Field`` wrappers,
  so per-element op totals are identical whichever backend computes;
* unified ``batch_inv`` zero behaviour (same error type and message,
  naming the same index, on both backends);
* backend selection: constructor argument, ``REPRO_FIELD_BACKEND``
  environment variable, availability introspection, and the no-numpy
  fallback (exercised in a subprocess with numpy import-blocked).
"""

import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro.fields import GF2k
from repro.fields.gfp import GFp
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

# widths straddle the numpy MIN_WIDTH=32 cutoff on purpose: both the
# vectorized kernels and the short-vector pure fallback must agree
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
def test_fma_many_parity(py, np_, data, raw_c):
    raw_a, raw_b = data
    n = len(raw_a)
    a, x = _vec(py, raw_a, n), _vec(py, raw_b, n)
    cs = _vec(py, raw_c, n)
    assert py.fma_many(a, x, cs) == np_.fma_many(a, x, cs)


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


# -- limb skipping -------------------------------------------------------------

@needs_numpy
@pytest.mark.parametrize("k", [20, 24, 32])
@pytest.mark.parametrize("width", [31, 32, 33, 96])  # MIN_WIDTH is 32
@pytest.mark.parametrize(
    "a_bits,b_bits",
    [(0, 0), (0, None), (None, 0), (4, None), (None, 4), (8, None),
     (None, 8), (7, 3), (8, 8), (9, 13), (None, None)],
)
def test_clmul_limb_skipping_parity(k, width, a_bits, b_bits):
    """The carry-less kernel drops byte limbs (and fold positions) that are
    zero across a whole operand; every operand-width shape must still be
    byte-identical to the python loops.  ``None`` bits = full width."""
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
    assert np_.fma_many(a, b, cs) == py.fma_many(a, b, cs)
    # the 2-D x 1-D broadcast: rows as wide as ``a``, vector as ``b``
    rows = [vec(a_bits) for _ in range(3)]
    assert np_.dot_rows(rows, b) == py.dot_rows(rows, b)


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
            f.fma_many(a, b, b)
            f.dot_rows([a, b, a], b)
            f.batch_inv(a)
        assert py.counter.snapshot() == np_.counter.snapshot()
        assert py.counter.muls == 64 + 64 + 64 + 64 + 3 * 64 + 3 * 63
        assert py.counter.adds == 63 + 64 + 64 + 3 * 63
        assert py.counter.invs == 1
        py.counter.reset()
        np_.counter.reset()


@needs_numpy
def test_protocol_run_identical_across_backends():
    """Same seed, different backend: identical outputs AND identical
    per-player op tallies — the audit gates can never tell them apart."""
    from repro.protocols.coin_gen import run_coin_gen

    outs = {}
    for name, field in (("python", GF2k(32, backend="python")),
                        ("numpy", GF2k(32, backend="numpy"))):
        results, metrics = run_coin_gen(field, n=7, t=1, M=8, seed=11)
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
