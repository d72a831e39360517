"""Campaign acceptance sweeps (the slowest campaign tests).

Three contracts from the campaign observatory's definition of done:

* an honest sweep — every clean cell, both runtimes, ≥ 200 cells —
  reports **zero** violations (the stack is sound under its own model);
* the same campaign seed produces a byte-identical ledger and coverage
  report;
* seeded known-bad cells are detected and land in the triage report;
* the fixed slice that stood red from PR 16 to PR 21 (ROADMAP item
  5(0)) is clean.

The 200-cell sweep runs once per module (it is the dominant cost) and
its assertions are split across tests.
"""

import json

import pytest

from repro.campaign import (
    CampaignLedger,
    CoverageMap,
    default_space,
    known_bad_scenarios,
    read_ledger,
    run_campaign,
    triage,
    triage_to_json,
    violated_rows,
)

SEEDS = tuple(range(10))
SCHED_SEEDS = tuple(range(5))


def _honest_space():
    return default_space(seeds=SEEDS, sched_seeds=SCHED_SEEDS,
                         clean_only=True)


@pytest.fixture(scope="module")
def honest_sweep(tmp_path_factory):
    space = _honest_space()
    cells = space.cells()
    path = str(tmp_path_factory.mktemp("sweep") / "ledger.jsonl")
    ledger = CampaignLedger(path)
    ledger.write_header(campaign_seed=None, cells=len(cells))
    result = run_campaign(cells, ledger=ledger)
    return space, cells, result, path


class TestHonestSweep:
    def test_covers_both_runtimes_at_scale(self, honest_sweep):
        _, cells, _, _ = honest_sweep
        assert len(cells) >= 200
        runtimes = {cell.runtime for cell in cells}
        assert runtimes == {"lockstep", "async"}

    def test_zero_violations(self, honest_sweep):
        _, cells, result, _ = honest_sweep
        assert result.violation_count() == 0
        assert result.status_counts() == {
            "clean": len(cells), "violated": 0, "error": 0}

    def test_full_space_coverage(self, honest_sweep):
        space, _, result, _ = honest_sweep
        assert result.coverage.percentage(space) == 100.0

    def test_ledger_reconstructs_the_coverage_report(self, honest_sweep):
        space, cells, result, path = honest_sweep
        _, rows = read_ledger(path)
        assert len(rows) == len(cells)
        rebuilt = CoverageMap()
        for row in rows:
            rebuilt.record_row(row)
        assert rebuilt.to_json(space) == result.coverage.to_json(space)


class TestSeededDeterminism:
    def _run_sampled(self, path):
        space = default_space(seeds=(0, 1), sched_seeds=(0, 1))
        cells = space.sample(12, seed=99)
        ledger = CampaignLedger(path)
        ledger.write_header(campaign_seed=99, cells=len(cells), budget=12)
        result = run_campaign(cells, ledger=ledger)
        return space, result

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        space_a, result_a = self._run_sampled(a)
        space_b, result_b = self._run_sampled(b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()
        assert (result_a.coverage.to_json(space_a)
                == result_b.coverage.to_json(space_b))
        rows_a = violated_rows(read_ledger(a)[1])
        rows_b = violated_rows(read_ledger(b)[1])
        assert (triage_to_json(triage(rows_a))
                == triage_to_json(triage(rows_b)))

    def test_ledger_rows_are_canonical_json(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        self._run_sampled(path)
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                assert line == json.dumps(
                    record, sort_keys=True, separators=(",", ":")) + "\n"


class TestKnownBadDetection:
    def test_seeded_breakages_reach_the_triage_report(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        cells = known_bad_scenarios()
        ledger = CampaignLedger(path)
        ledger.write_header(campaign_seed=None, cells=len(cells),
                            known_bad=True)
        result = run_campaign(cells, ledger=ledger)
        assert len(result.violated) == len(cells)
        _, rows = read_ledger(path)
        clusters = triage(violated_rows(rows))
        signatures = {c.signature for c in clusters}
        assert "forensics_fn:adversary=lurker" in signatures
        assert any(s.startswith("coin_failure") or "coin" == c.oracle
                   for c in clusters for s in [c.signature])


class TestTheFormerlyRedSlice:
    def test_campaign_seed_12345_reports_no_violation(self):
        """``repro campaign run --budget 48 --campaign-seed 12345``: its
        three ``bad_share`` x ``delay:src=7,by=1`` cells tripped
        ``replay:decode_divergence`` until the replay oracle decoded
        each receiver's whole view of a run (CI's ``campaign-soak`` is
        sha-seeded, so it went red only on the pushes that drew one)."""
        result = run_campaign(default_space().sample(48, seed=12345))
        assert result.status_counts() == {
            "clean": 48, "violated": 0, "error": 0,
        }
