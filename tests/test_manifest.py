"""Run manifests: capture, serialization, and fingerprint identity.

The fingerprint is the join key for all cross-run analysis, so its
contract is property-tested: stable under dict key ordering and under
every environment field, different whenever any semantic field changes.
"""

import json

from hypothesis import given
from hypothesis import strategies as st

from repro.fields import GF2k
from repro.obs.manifest import (
    ENVIRONMENT_FIELDS,
    SEMANTIC_FIELDS,
    RunManifest,
    git_sha,
    numpy_version,
)

semantic_dicts = st.fixed_dictionaries({
    "protocol": st.sampled_from(["coin_gen", "toss", "bench"]),
    "field": st.sampled_from(["gf2k:32", "gfp:97"]),
    "n": st.integers(3, 40),
    "t": st.integers(0, 10),
    "M": st.one_of(st.none(), st.integers(1, 64)),
    "seed": st.integers(0, 1000),
    "sched_seed": st.one_of(st.none(), st.integers(0, 1000)),
    "backend": st.sampled_from(["python", "numpy", None]),
    "scheduler": st.sampled_from(["fifo", "random-order", None]),
    "runtime": st.sampled_from(["lockstep", "async", None]),
    "interpolation": st.sampled_from(["off", "fresh", "shared", None]),
})

environment_dicts = st.fixed_dictionaries({
    "python": st.sampled_from(["3.11.7", "3.12.0", None]),
    "numpy": st.sampled_from(["2.4.6", None]),
    "package": st.sampled_from(["1.0.0", "2.0.0", None]),
    "git_sha": st.sampled_from(["abc1234", "def5678", None]),
})


def _mutate(value):
    """A value guaranteed different from ``value`` but still semantic."""
    if isinstance(value, int):
        return value + 1
    return "mutated" if value != "mutated" else "mutated-again"


class TestFingerprintProperties:
    @given(semantic=semantic_dicts, env_a=environment_dicts,
           env_b=environment_dicts)
    def test_stable_under_ordering_and_environment(self, semantic,
                                                   env_a, env_b):
        forward = RunManifest.from_dict({**semantic, **env_a})
        reversed_keys = dict(reversed(list(semantic.items())))
        backward = RunManifest.from_dict({**env_b, **reversed_keys})
        assert forward.fingerprint() == backward.fingerprint()

    @given(semantic=semantic_dicts,
           name=st.sampled_from(SEMANTIC_FIELDS))
    def test_differs_on_any_semantic_change(self, semantic, name):
        base = RunManifest.from_dict(semantic)
        changed = RunManifest.from_dict(
            {**semantic, name: _mutate(semantic.get(name))}
        )
        assert base.fingerprint() != changed.fingerprint()
        assert name in base.differences(changed)

    @given(semantic=semantic_dicts)
    def test_round_trips_through_json(self, semantic):
        manifest = RunManifest.from_dict(semantic)
        rebuilt = RunManifest.from_dict(
            json.loads(json.dumps(manifest.to_dict()))
        )
        assert rebuilt.fingerprint() == manifest.fingerprint()
        assert rebuilt.semantic_dict() == manifest.semantic_dict()


class TestCapture:
    def test_fills_environment_fields(self):
        manifest = RunManifest.capture(protocol="toss", n=7, t=1, seed=3)
        assert manifest.python
        assert manifest.package
        assert manifest.numpy == numpy_version()
        assert manifest.git_sha == git_sha()

    def test_reads_field_spec_and_backend_off_live_field(self):
        field = GF2k(32)
        manifest = RunManifest.capture(field=field, protocol="toss")
        assert manifest.field == "gf2k:32"
        assert manifest.backend == field.backend_name

    def test_explicit_keywords_win_over_capture(self):
        manifest = RunManifest.capture(field=GF2k(32), backend="python",
                                       interpolation="off")
        assert manifest.backend == "python"
        assert manifest.interpolation == "off"

    def test_interpolation_defaults_to_active_cache_mode(self):
        from repro.poly.barycentric import cache_mode, interpolation_mode

        with interpolation_mode("fresh"):
            assert cache_mode() == "fresh"
            assert RunManifest.capture().interpolation == "fresh"


class TestSerialization:
    def test_to_dict_drops_none_fields(self):
        data = RunManifest(protocol="toss", n=7).to_dict()
        assert data["protocol"] == "toss" and data["n"] == 7
        assert "M" not in data and "seed" not in data

    def test_from_dict_ignores_unknown_keys(self):
        manifest = RunManifest.from_dict(
            {"protocol": "toss", "future_field": 1}
        )
        assert manifest.protocol == "toss"

    def test_summary_carries_fingerprint_and_environment(self):
        manifest = RunManifest.capture(protocol="toss", n=7, t=1)
        line = manifest.summary()
        assert f"#{manifest.fingerprint()}" in line
        assert "protocol=toss" in line and "n=7" in line
        assert f"python={manifest.python}" in line

    def test_environment_fields_never_fingerprinted(self):
        for name in ENVIRONMENT_FIELDS:
            a = RunManifest(protocol="toss")
            b = RunManifest(**{"protocol": "toss", name: "different"})
            assert a.fingerprint() == b.fingerprint()
