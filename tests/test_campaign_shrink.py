"""Deterministic shrinking and self-contained repro artifacts.

The acceptance contract: a seeded violation (the t+1 ``bad_share``
over-corruption, and the forced forensics false negative) is detected,
greedily shrunk to a minimal scenario, dumped as a replayable artifact,
and the artifact still trips the same oracle when replayed.
"""

import dataclasses

import pytest

from repro.campaign import (
    Scenario,
    check_artifact,
    known_bad_scenarios,
    load_artifact,
    run_cell,
    shrink,
    triage,
    write_artifact,
)
from repro.campaign.shrink import ARTIFACT_SCHEMA, artifact_dict
from repro.campaign.space import shrink_reductions


def _padded_bad_share():
    """The known-bad t+1 cell dressed up with shrinkable noise."""
    base = known_bad_scenarios()[0]
    return dataclasses.replace(
        base, M=2, sched_seed=5, faults=("duplicate:src=3",))


@pytest.fixture(scope="module")
def padded_result():
    """One shrink of the padded cell, shared by the read-only tests."""
    return shrink(_padded_bad_share())


class TestShrinkReductions:
    def test_each_candidate_changes_one_axis(self):
        cell = _padded_bad_share()
        for candidate in shrink_reductions(cell):
            changed = [f.name for f in dataclasses.fields(Scenario)
                       if getattr(candidate, f.name) != getattr(cell, f.name)]
            assert len(changed) == 1

    def test_minimal_cell_has_no_reductions(self):
        assert list(shrink_reductions(Scenario())) == []
        # a 1-member corrupt set is not reducible (it would change the kind)
        assert list(shrink_reductions(
            Scenario(adversary="lurker", corrupt=(5,), seed=0))) == []


class TestShrink:
    def test_clean_cell_refuses(self):
        with pytest.raises(ValueError, match="clean"):
            shrink(Scenario())

    def test_padded_bad_share_reduces_to_canonical_minimum(self, padded_result):
        result = padded_result
        minimal = result.minimal
        assert minimal.M == 1
        assert minimal.faults == ()
        assert minimal.seed == 0 and minimal.sched_seed == 0
        # both corrupt players are load-bearing: t+1 is the root cause
        assert minimal.corrupt == (4, 7)
        assert result.accepted >= 4
        assert result.outcome.status == "violated"
        assert result.outcome.log_text is not None

    def test_shrinking_is_deterministic(self, padded_result):
        a = padded_result
        b = shrink(_padded_bad_share())
        assert a.minimal == b.minimal
        assert (a.steps, a.accepted) == (b.steps, b.accepted)
        assert {(v.oracle, v.signature) for v in a.outcome.violations} == \
            {(v.oracle, v.signature) for v in b.outcome.violations}

    def test_seeded_outcome_is_reused(self):
        calls = []

        def counting_run(scenario, keep_log=False):
            calls.append(scenario)
            return run_cell(scenario, keep_log=keep_log)

        outcome = run_cell(_padded_bad_share(), keep_log=True)
        shrink(_padded_bad_share(), outcome, run=counting_run)
        # the seed outcome came with a log, so the initial run is skipped
        assert calls[0] != _padded_bad_share() or calls[0].M < 2

    def test_lurker_false_negative_shrinks(self):
        lurker = known_bad_scenarios()[1]
        result = shrink(dataclasses.replace(lurker, M=2))
        assert result.minimal.M == 1
        assert result.minimal.seed == 0
        assert result.minimal.corrupt == (5,)
        assert ("forensics", "forensics_fn:adversary=lurker") in result.target


class TestArtifacts:
    def test_write_load_replay_round_trip(self, tmp_path, padded_result):
        result = padded_result
        path = str(tmp_path / "repro.json")
        written = write_artifact(path, result)
        data = load_artifact(path)
        assert data == written
        assert data["artifact_schema"] == ARTIFACT_SCHEMA
        assert data["cell"] == result.minimal.cell_id()
        assert data["shrunk_from"]["cell"] == result.original.cell_id()
        assert data["flight_log"]
        reproduced, detail = check_artifact(data)
        assert reproduced, detail
        assert "reproduced" in detail and "flight log diff clean" in detail

    def test_artifact_embeds_manifest_fingerprint(self, padded_result):
        from repro.obs.manifest import RunManifest

        result = padded_result
        data = artifact_dict(result)
        assert (RunManifest(**data["manifest"]).fingerprint()
                == data["fingerprint"])

    def test_stale_artifact_reports_not_reproduced(self, padded_result):
        result = padded_result
        data = artifact_dict(result)
        # simulate a bug fix: the recorded scenario no longer violates
        data["scenario"] = Scenario().to_dict()
        reproduced, detail = check_artifact(data)
        assert not reproduced
        assert "no longer trips" in detail

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text('{"artifact_schema": 99}')
        with pytest.raises(ValueError, match="unsupported artifact schema"):
            load_artifact(str(path))

    def test_artifacts_are_byte_deterministic(self, tmp_path, padded_result):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_artifact(str(a), padded_result)
        write_artifact(str(b), shrink(_padded_bad_share()))
        assert a.read_bytes() == b.read_bytes()


class TestTriageOfShrunkViolations:
    def test_known_bad_cells_land_in_distinct_clusters(self):
        rows = [run_cell(cell).to_row() for cell in known_bad_scenarios()]
        clusters = triage(rows)
        keys = {(c.oracle, c.signature) for c in clusters}
        assert ("forensics", "forensics_fn:adversary=lurker") in keys
        assert any(oracle == "coin" for oracle, _ in keys)
