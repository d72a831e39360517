"""Cross-run diffing: emptiness for identical seeds, attribution for
forced regressions.

The determinism contract is the load-bearing claim: every metric except
wall-clock is a seed-derived count, so ``diff(run, run)`` must be empty
for identical configurations — across both runtimes and both field
backends — and any nonzero count delta is a real behavioural change.
The forced-regression test is the acceptance scenario from the issue:
turning the interpolation cache off must produce a diff that blames the
clique phase's field ops.
"""

import pytest

from repro.fields import GF2k
from repro.fields.backends import numpy_available
from repro.net import RandomOrderScheduler
from repro.obs import SpanRecorder, to_jsonl
from repro.obs.diffing import (
    COUNT_METRICS,
    DEFAULT_PRICING,
    RunProfile,
    diff_profiles,
    profile_from_jsonl,
)
from repro.obs.manifest import RunManifest
from repro.poly.barycentric import interpolation_mode
from repro.protocols.async_coin import run_async_coin
from repro.protocols.coin_gen import run_coin_gen
from repro.protocols.context import ProtocolContext

BACKENDS = ("python", "numpy") if numpy_available() else ("python",)


def exported_profile(recorder, manifest=None):
    """A recorder's profile by the one path there is: its JSONL export."""
    return profile_from_jsonl(to_jsonl(recorder, manifest=manifest))


def lockstep_profile(backend="python", seed=5, mode="shared"):
    field = GF2k(32, backend=backend)
    recorder = SpanRecorder()
    ctx = ProtocolContext.create(field, 7, 1, seed=seed, recorder=recorder)
    with interpolation_mode(mode):
        out, _ = run_coin_gen(ctx, M=8)
    assert all(o.success for o in out.values())
    manifest = RunManifest.capture(
        field=field, protocol="coin_gen", n=7, t=1, M=8, seed=seed,
        runtime="lockstep", interpolation=mode,
    )
    return recorder, manifest


def async_profile(backend="python", seed=1):
    field = GF2k(32, backend=backend)
    recorder = SpanRecorder()
    outputs, secret, _runtime = run_async_coin(
        field, 7, 2, seed=seed,
        scheduler=RandomOrderScheduler(seed=100 + seed),
        recorder=recorder,
    )
    assert set(outputs.values()) == {secret}
    return recorder


class TestIdenticalSeedsDiffEmpty:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_lockstep(self, backend):
        rec_a, man_a = lockstep_profile(backend=backend)
        rec_b, man_b = lockstep_profile(backend=backend)
        diff = diff_profiles(
            exported_profile(rec_a, manifest=man_a),
            exported_profile(rec_b, manifest=man_b),
        )
        assert diff.is_empty()
        assert diff.manifest_changes == {}
        assert "behaviourally identical" in diff.report()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_async(self, backend):
        diff = diff_profiles(exported_profile(async_profile(backend=backend)),
                             exported_profile(async_profile(backend=backend)))
        assert diff.is_empty()

    def test_live_vs_jsonl_round_trip(self):
        """The profile read off the export holds what the live recorder
        holds: per-phase tallies of its phase spans, op sums of its
        player spans, the manifest's fingerprint."""
        recorder, manifest = lockstep_profile()
        exported = exported_profile(recorder, manifest=manifest)
        for metric in ("rounds", "messages", "bits"):
            live = {}
            for span in recorder.phase_spans():
                phase = span.attrs["phase"]
                live[phase] = live.get(phase, 0) + span.attrs[metric]
            assert {phase: row[metric]
                    for phase, row in exported.phases.items()} == live
        totals = _totals(exported)
        assert totals["muls"] == sum(
            span.attrs["muls"] for span in recorder.by_kind("player")
        )
        # wall-clock round-trips too: same spans, same durations
        assert totals["wall_s"] == pytest.approx(sum(
            span.duration for span in recorder.phase_spans()
        ))
        assert exported.manifest.fingerprint() == manifest.fingerprint()


class TestForcedRegression:
    def test_disabling_the_cache_blames_clique_ops(self):
        rec_shared, man_shared = lockstep_profile(mode="shared")
        rec_fresh, man_fresh = lockstep_profile(mode="fresh")
        diff = diff_profiles(
            exported_profile(rec_shared, manifest=man_shared),
            exported_profile(rec_fresh, manifest=man_fresh),
        )
        assert not diff.is_empty()
        # the clique phase does the interpolation-heavy share recovery;
        # with a throwaway cache per call every table build pays its
        # inversion again (the interpolation *count* is invariant)
        top = diff.attribution(DEFAULT_PRICING)[0]
        assert top.phase == "clique"
        assert top.op in ("muls", "invs", "adds")
        assert top.delta > 0 and top.share > 0.25
        clique = {r.metric: r.delta for r in diff.count_rows()
                  if r.phase == "clique"}
        assert clique["invs"] > 0

    def test_report_names_phase_op_and_configuration_change(self):
        rec_shared, man_shared = lockstep_profile(mode="shared")
        rec_fresh, man_fresh = lockstep_profile(mode="fresh")
        diff = diff_profiles(
            exported_profile(rec_shared, manifest=man_shared),
            exported_profile(rec_fresh, manifest=man_fresh),
        )
        assert diff.manifest_changes == {
            "interpolation": ("shared", "fresh")
        }
        report = diff.report()
        assert "configuration change" in report
        assert "clique" in report
        assert "priced attribution" in report

    def test_attribution_shares_sum_to_one(self):
        rec_shared, _ = lockstep_profile(mode="shared")
        rec_fresh, _ = lockstep_profile(mode="fresh")
        entries = diff_profiles(exported_profile(rec_shared),
                                exported_profile(rec_fresh)).attribution()
        assert entries
        assert sum(e.share for e in entries) == pytest.approx(1.0)


def _totals(profile):
    """Per-metric sums of the rows ``repro diff`` prints, each phase's
    ``after`` against an empty profile."""
    totals = {}
    for row in diff_profiles(RunProfile(), profile).rows:
        totals[row.metric] = totals.get(row.metric, 0) + row.after
    return totals


class TestProfileShapes:
    def test_totals_aggregate_all_phases(self):
        recorder, _ = lockstep_profile()
        profile = exported_profile(recorder)
        totals = _totals(profile)
        for metric in COUNT_METRICS:
            assert totals[metric] == sum(
                row.get(metric, 0) for row in profile.phases.values()
            )
        assert totals["muls"] > 0


class TestLegacyArtifacts:
    """Profiles recorded without op counts still diff on structure."""

    def test_both_sides_without_ops_stay_comparable(self):
        def structure_only():
            out = RunProfile()
            out.phase("deal").update(rounds=2, messages=98, bits=100,
                                     wall_s=0.1)
            return out

        assert diff_profiles(structure_only(), structure_only()).is_empty()


class TestDiffMechanics:
    def test_new_phase_reports_ratio_new(self):
        a = RunProfile()
        a.phase("deal")["messages"] = 10
        b = RunProfile()
        b.phase("deal")["messages"] = 10
        b.phase("expose")["messages"] = 4
        diff = diff_profiles(a, b)
        assert not diff.is_empty()
        row = next(r for r in diff.count_rows()
                   if r.phase == "expose" and r.metric == "messages")
        assert row.ratio is None and row.delta == 4
        assert "new" in diff.report()

    def test_wall_clock_never_decides_emptiness(self):
        a = RunProfile()
        a.phase("deal")["wall_s"] = 1.0
        b = RunProfile()
        b.phase("deal")["wall_s"] = 9.0
        diff = diff_profiles(a, b)
        assert diff.is_empty()
        assert "jitter" in diff.report()
