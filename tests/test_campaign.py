"""The campaign observatory: scenario space, driver, oracle, ledger,
triage, and coverage units.  The end-to-end acceptance sweeps live in
``test_campaign_sweep.py``; shrinking and repro artifacts in
``test_campaign_shrink.py``.
"""

import json

import pytest

from repro.campaign import (
    CampaignLedger,
    CoverageMap,
    Scenario,
    default_space,
    kind_for,
    known_bad_scenarios,
    read_ledger,
    run_campaign,
    run_cell,
    triage,
    triage_table,
    triage_to_json,
    universe,
    violated_rows,
)
from repro.campaign.adversaries import coin_gen_programs
from repro.campaign.coverage import expected_phases, grid_keys
from repro.campaign.oracle import CLEAN, ERROR, VIOLATED, chain_kinds
from repro.campaign.space import ScenarioSpace, parse_adversary


# -- scenarios ---------------------------------------------------------------

class TestScenario:
    def test_cell_id_stable_and_sensitive(self):
        a = Scenario()
        assert a.cell_id() == Scenario().cell_id()
        assert len(a.cell_id()) == 10
        assert a.cell_id() != Scenario(seed=1).cell_id()
        assert a.cell_id() != Scenario(faults=("drop:src=7",)).cell_id()

    def test_dict_round_trip(self):
        cell = Scenario(runtime="async", scheduler="random", M=2, seed=5,
                        adversary="bad_share", corrupt=(4, 7),
                        faults=("drop:src=7",))
        assert Scenario.from_dict(cell.to_dict()) == cell
        # and via JSON, which is how artifacts carry it
        assert Scenario.from_dict(json.loads(json.dumps(cell.to_dict()))) == cell

    def test_manifest_carries_adversary_axes(self):
        cell = Scenario(adversary="silent", corrupt=(7,),
                        faults=("drop:src=7", "delay:src=7,by=1"))
        manifest = cell.manifest().to_dict()
        assert manifest["adversary"] == "silent"
        assert manifest["corrupt"] == "7"
        assert manifest["faults"] == "drop:src=7;delay:src=7,by=1"
        # honest clean cells omit the adversary axes entirely
        clean = Scenario().manifest().to_dict()
        assert "adversary" not in clean and "faults" not in clean

    def test_fingerprint_depends_on_fault_axes(self):
        clean = Scenario().manifest().fingerprint()
        faulted = Scenario(faults=("drop:src=7",)).manifest().fingerprint()
        corrupted = Scenario(adversary="silent",
                             corrupt=(7,)).manifest().fingerprint()
        assert len({clean, faulted, corrupted}) == 3

    def test_suspects_union_and_fault_model(self):
        cell = Scenario(adversary="silent", corrupt=(4,),
                        faults=("drop:src=7",))
        assert cell.suspects() == {4, 7}
        assert not cell.within_fault_model()  # 2 suspects > t=1
        assert Scenario(faults=("drop:src=7",)).within_fault_model()

    def test_async_validity_rules(self):
        base = dict(runtime="async", scheduler="random")
        assert Scenario(**base).valid()
        assert Scenario(**base, faults=("drop:src=7",)).valid()
        # silence starves the quorum loop; dst-only drops starve a receiver
        assert not Scenario(**base, faults=("silence:pid=7,rounds=2",)).valid()
        assert not Scenario(**base, faults=("drop:dst=1",)).valid()
        # behavioural adversaries speak the round-based protocol only
        assert not Scenario(**base, adversary="equivocator",
                            corrupt=(7,)).valid()
        # async requires the random-order scheduler
        assert not Scenario(runtime="async", scheduler="lockstep").valid()

    def test_corrupt_ids_must_be_players(self):
        assert not Scenario(adversary="silent", corrupt=(9,)).valid()


class TestParseAdversary:
    def test_kind_and_corrupt_set(self):
        assert parse_adversary("silent:4+7") == ("silent", (4, 7))
        assert parse_adversary("honest") == ("honest", ())

    def test_rejects_inconsistent_specs(self):
        with pytest.raises(ValueError):
            parse_adversary("honest:3")
        with pytest.raises(ValueError):
            parse_adversary("silent")


class TestScenarioSpace:
    def test_enumeration_is_deterministic(self):
        space = default_space(seeds=(0,), sched_seeds=(0,))
        assert space.cells() == space.cells()

    def test_sample_is_seeded_and_bounded(self):
        space = default_space(seeds=(0, 1), sched_seeds=(0, 1))
        a = space.sample(10, seed=42)
        assert len(a) == 10
        assert a == space.sample(10, seed=42)
        assert a != space.sample(10, seed=43)
        assert space.sample(10 ** 6, seed=0) == space.cells()

    def test_fault_model_enforced(self):
        # a 2-target chain at t=1 leaves the model and must be skipped
        space = ScenarioSpace(fault_chains=((), ("drop:src=7", "drop:src=6")))
        assert all(cell.within_fault_model() for cell in space.enumerate())
        assert all(cell.faults == () for cell in space.enumerate())

    def test_default_space_mixes_runtimes_and_axes(self):
        cells = default_space(seeds=(0,), sched_seeds=(0,)).cells()
        runtimes = {c.runtime for c in cells}
        assert runtimes == {"lockstep", "async"}
        kinds = {c.adversary for c in cells}
        assert {"honest", "silent", "crash", "equivocator", "echo",
                "bad_share"} <= kinds
        assert any(len(c.faults) == 2 for c in cells)

    def test_known_bad_cells_are_outside_default_space(self):
        space_ids = {c.cell_id() for c in
                     default_space(seeds=(0, 1, 2, 3),
                                   sched_seeds=(0, 1)).cells()}
        for cell in known_bad_scenarios():
            assert cell.cell_id() not in space_ids
            assert not cell.within_fault_model() or cell.adversary == "lurker"


class TestAdversaryKinds:
    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown adversary"):
            kind_for("gremlin")

    def test_honest_yields_no_programs(self):
        assert coin_gen_programs("honest", (), 7, 0) == {}

    def test_programs_are_per_seed_deterministic(self):
        # factories close over a seed-derived rng; same seed, same spec
        a = coin_gen_programs("silent", (7,), 7, 0)
        b = coin_gen_programs("silent", (7,), 7, 0)
        assert set(a) == set(b) == {7}


# -- driver + oracle ---------------------------------------------------------

class TestRunCell:
    def test_clean_lockstep_cell(self):
        outcome = run_cell(Scenario(M=2))
        assert outcome.status == CLEAN
        assert outcome.violations == []
        assert outcome.log_text is None  # clean cells drop the log
        assert set(outcome.measured["phases"]) >= {
            "deal", "clique", "gradecast", "ba", "expose"}
        assert outcome.measured["rounds"] > 0

    def test_clean_async_cell(self):
        outcome = run_cell(
            Scenario(runtime="async", scheduler="random", M=2))
        assert outcome.status == CLEAN
        assert outcome.measured["phases"] == ["expose"]

    def test_keep_log_round_trips(self):
        from repro.obs.flight import FlightLog
        from repro.obs.manifest import RunManifest

        outcome = run_cell(Scenario(), keep_log=True)
        log = FlightLog.loads(outcome.log_text)
        assert (log.n, log.t) == (7, 1)
        assert (RunManifest.from_dict(log.manifest).fingerprint()
                == outcome.fingerprint)

    def test_tolerated_adversary_is_clean(self):
        # one silent player at t=1 is inside the model: the stack must
        # decode around it and forensics must accuse only suspects
        outcome = run_cell(Scenario(adversary="silent", corrupt=(7,)))
        assert outcome.status == CLEAN, outcome.violations

    def test_fault_chain_is_clean_and_logged(self):
        outcome = run_cell(
            Scenario(faults=("duplicate:src=7,dst=1", "delay:src=7,by=1")),
            keep_log=True)
        assert outcome.status == CLEAN, outcome.violations
        assert outcome.measured["fault_events"] > 0

    def test_a_liars_share_delayed_past_the_round_is_clean(self):
        """ROADMAP item 5(0): what all three standing violations of
        ``--budget 48 --campaign-seed 12345`` shrank to.  The liar's
        share settles alone in the drain round; the replay oracle used
        to decode it alone and report ``replay:decode_divergence``."""
        outcome = run_cell(Scenario(
            runtime="lockstep", field="gf2k:16", n=7, t=1,
            adversary="bad_share", corrupt=(7,),
            faults=("delay:src=7,by=1",),
        ))
        assert outcome.status == CLEAN, outcome.violations

    def test_error_outcome_instead_of_raise(self):
        outcome = run_cell(Scenario(adversary="gremlin", corrupt=(7,)))
        assert outcome.status == ERROR
        assert outcome.violations[0].oracle == "exception"
        assert outcome.violations[0].signature.startswith("exception:")

    def test_known_bad_cells_trip_the_oracle(self):
        bad_share, lurker = known_bad_scenarios()
        outcome = run_cell(bad_share)
        assert outcome.status == VIOLATED
        oracles = {v.oracle for v in outcome.violations}
        assert "coin" in oracles  # t+1 bad shares break exposure
        assert outcome.log_text is not None  # violated cells keep the log

        outcome = run_cell(lurker)
        assert outcome.status == VIOLATED
        signatures = {v.signature for v in outcome.violations}
        assert "forensics_fn:adversary=lurker" in signatures

    def test_signatures_are_seed_free(self):
        bad_share = known_bad_scenarios()[0]
        sig = lambda o: {(v.oracle, v.signature) for v in o.violations}
        a = run_cell(bad_share)
        b = run_cell(Scenario(**{**bad_share.to_dict(),
                                 "corrupt": (4, 7), "seed": 11}))
        assert sig(a) == sig(b)

    def test_chain_kinds_sorted_or_none(self):
        assert chain_kinds(Scenario()) == ["none"]
        assert chain_kinds(Scenario(
            faults=("duplicate:src=7", "drop:src=7"))) == [
            "drop", "duplicate"]


# -- ledger ------------------------------------------------------------------

class TestLedger:
    def test_header_then_rows_round_trip(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = CampaignLedger(path)
        ledger.write_header(campaign_seed=7, cells=2, budget=None)
        ledger.append(run_cell(Scenario()).to_row())
        ledger.append(run_cell(known_bad_scenarios()[1]).to_row())
        headers, rows = read_ledger(path)
        assert headers[0]["campaign_seed"] == 7
        assert [r["status"] for r in rows] == [CLEAN, VIOLATED]
        assert len(violated_rows(rows)) == 1
        assert Scenario.from_dict(rows[0]["scenario"]) == Scenario()

    def test_append_only_accumulates_blocks(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        for campaign_seed in (1, 2):
            ledger = CampaignLedger(path)
            ledger.write_header(campaign_seed=campaign_seed, cells=0)
        headers, _ = read_ledger(path)
        assert [h["campaign_seed"] for h in headers] == [1, 2]

    def test_rows_require_header(self, tmp_path):
        ledger = CampaignLedger(str(tmp_path / "ledger.jsonl"))
        with pytest.raises(RuntimeError):
            ledger.append({"cell": "x"})

    def test_bad_lines_fail_loudly(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            read_ledger(str(path))
        path.write_text('{"ledger_schema": 99, "cells": 0}\n')
        with pytest.raises(ValueError, match="unsupported ledger schema"):
            read_ledger(str(path))

    def test_a_record_that_is_no_object_fails_loudly(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match=r"ledger.jsonl:1: not a JSON "
                                             r"object \(list\)"):
            read_ledger(str(path))

    @pytest.mark.parametrize("row,problem", [
        ({"cell": "abc"}, "row has no 'status'"),
        ({"cell": "abc", "status": CLEAN}, "row has no 'scenario'"),
        ({"cell": 7, "status": CLEAN, "scenario": {}}, "'cell' is not"),
        ({"cell": "abc", "status": None, "scenario": {}}, "'status' is not"),
        ({"cell": "abc", "status": CLEAN, "scenario": 5},
         "scenario does not parse"),
        ({"cell": "abc", "status": CLEAN, "scenario": {"corrupt": 3}},
         "scenario does not parse"),
    ])
    def test_a_row_missing_what_readers_use_fails_loudly(
        self, tmp_path, row, problem
    ):
        path = tmp_path / "ledger.jsonl"
        header = {"ledger_schema": 1, "campaign_seed": 1, "cells": 1}
        path.write_text(json.dumps(header) + "\n"
                        + json.dumps({"ledger_schema": 1, **row}) + "\n")
        with pytest.raises(ValueError, match=f"ledger.jsonl:2: .*{problem}"):
            read_ledger(str(path))


# -- triage ------------------------------------------------------------------

def _row(cell, *violations):
    return {"cell": cell, "status": VIOLATED,
            "violations": [{"oracle": o, "signature": s, "detail": d}
                           for o, s, d in violations]}


class TestTriage:
    def test_clusters_by_oracle_and_signature(self):
        rows = [
            _row("c1", ("coin", "coin_failure", "player 3")),
            _row("c2", ("coin", "coin_failure", "player 5")),
            _row("c3", ("forensics", "forensics_fn:adversary=lurker", "x"),
                 ("coin", "coin_failure", "player 1")),
        ]
        clusters = triage(rows)
        assert [(c.oracle, c.signature, c.count) for c in clusters] == [
            ("coin", "coin_failure", 3),
            ("forensics", "forensics_fn:adversary=lurker", 1),
        ]
        assert clusters[0].cells == ["c1", "c2", "c3"]
        assert clusters[0].example_cell == "c1"

    def test_reports_are_deterministic(self):
        rows = [_row("c1", ("coin", "coin_failure", "d"))]
        assert triage_to_json(triage(rows)) == triage_to_json(triage(rows))
        table = triage_table(triage(rows))
        assert "coin_failure" in table and "[c1]" in table
        assert triage_table([]) == "no violations to triage"


# -- coverage ----------------------------------------------------------------

class TestCoverage:
    def test_universe_is_static(self):
        space = default_space(seeds=(0,), sched_seeds=(0,), clean_only=True)
        reachable = universe(space)
        # clean-only: lockstep × 3 schedulers × 5 phases + async × 1
        assert len(reachable) == 3 * 5 + 1
        assert all(key[2] == "honest" and key[3] == "none"
                   for key in reachable)

    def test_record_and_percentage(self):
        space = default_space(seeds=(0,), sched_seeds=(0,), clean_only=True)
        coverage = CoverageMap()
        assert coverage.percentage(space) == 0.0
        for cell in space.cells():
            outcome = run_cell(cell)
            coverage.record(cell, outcome.status,
                            outcome.measured["phases"], outcome.fingerprint)
        assert coverage.percentage(space) == 100.0
        assert coverage.status_counts()["violated"] == 0

    def test_errored_cell_still_registers_coverage(self):
        coverage = CoverageMap()
        cell = Scenario()
        coverage.record(cell, ERROR, [], "deadbeef0000")
        keys = grid_keys(cell, expected_phases(cell))
        assert coverage.exercised() == set(keys)
        assert all(coverage.cells[k].status_label() == ERROR for k in keys)

    def test_record_row_matches_record(self):
        cell = Scenario()
        outcome = run_cell(cell)
        direct, via_row = CoverageMap(), CoverageMap()
        direct.record(cell, outcome.status, outcome.measured["phases"],
                      outcome.fingerprint)
        via_row.record_row(outcome.to_row())
        assert direct.to_json() == via_row.to_json()

    def test_report_formats_are_deterministic(self):
        space = default_space(seeds=(0,), sched_seeds=(0,), clean_only=True)
        coverage = CoverageMap()
        cell = space.cells()[0]
        outcome = run_cell(cell)
        coverage.record(cell, outcome.status, outcome.measured["phases"],
                        outcome.fingerprint)
        assert coverage.to_json(space) == coverage.to_json(space)
        doc = json.loads(coverage.to_json(space))
        assert doc["coverage_schema"] == 1
        assert 0 < doc["coverage_percent"] < 100
        prom = coverage.to_prometheus(space)
        assert "repro_campaign_cells_total" in prom
        assert "repro_campaign_coverage_percent" in prom
        table = coverage.table(space)
        assert "coverage:" in table


# -- campaign aggregation ----------------------------------------------------

class TestRunCampaign:
    def test_outcomes_coverage_and_ledger_agree(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = CampaignLedger(path)
        cells = default_space(seeds=(0,), sched_seeds=(0,),
                              clean_only=True).cells()
        ledger.write_header(campaign_seed=None, cells=len(cells))
        seen = []
        result = run_campaign(cells, ledger=ledger,
                              progress=lambda o: seen.append(o.status))
        assert len(result.outcomes) == len(cells) == len(seen)
        assert result.violated == []
        assert result.violation_count() == 0
        assert result.status_counts()[CLEAN] == len(cells)
        _, rows = read_ledger(path)
        assert [r["cell"] for r in rows] == [c.cell_id() for c in cells]
