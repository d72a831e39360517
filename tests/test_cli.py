"""The command-line interface."""

import json
import re

import pytest

from repro.cli import main


class TestToss:
    def test_bits(self, capsys):
        assert main(["toss", "--count", "32", "--batch", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert len(out.replace("\n", "")) == 32
        assert set(out.replace("\n", "")) <= {"0", "1"}

    def test_elements(self, capsys):
        assert main(
            ["toss", "--count", "3", "--elements", "--batch", "4", "--seed", "2"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("0x") for line in lines)

    def test_stats(self, capsys):
        assert main(
            ["toss", "--count", "8", "--batch", "4", "--stats", "--seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "bits_per_coin" in out


class TestCosts:
    def test_formula_table(self, capsys):
        assert main(["costs", "--n", "7", "--t", "1", "--M", "16"]) == 0
        out = capsys.readouterr().out
        assert "Lemma 2" in out
        assert "Batch-VSS" in out
        assert "Coin-Gen" in out
        assert "expected BA iterations" in out


class TestVSS:
    def test_honest(self, capsys):
        assert main(["vss", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "ACCEPT" in out
        assert "interpolations    : 2 per player" in out

    def test_cheating(self, capsys):
        assert main(["vss", "--cheat", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "REJECT" in out
        assert "CHEATING" in out


class TestBeacon:
    def test_ticks(self, capsys):
        assert main(["beacon", "--ticks", "4", "--batch", "4", "--seed", "6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert all("tick" in line and "0x" in line for line in lines)


class TestVerify:
    def test_all_claims_pass(self, capsys):
        assert main(["verify", "--n", "7", "--t", "1", "--M", "4",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "claims verified" in out
        assert "FAIL" not in out


CRITPATH = ["critpath", "--n", "7", "--t", "1", "--M", "2", "--seed", "3"]


class TestCritpath:
    def test_table_and_depth_gate(self, capsys):
        assert main(CRITPATH + ["--assert-depth"]) == 0
        out = capsys.readouterr().out
        assert "slowest chain" in out
        assert "depth conformance" in out
        assert "DEVIATION" not in out

    def test_what_if_and_export(self, tmp_path, capsys):
        out_path = tmp_path / "critpath.json"
        assert main(CRITPATH + ["--what-if", "player=3,scale=10",
                                "--export", str(out_path),
                                "--assert-depth"]) == 0
        payload = json.loads(out_path.read_text())
        assert all(check["ok"] for check in payload["depth_checks"])
        assert payload["what_if"]["makespan_delta"] > 0
        assert payload["critical_path"]["runs"]
        out = capsys.readouterr().out
        assert "what-if" in out

    def test_chrome_flow_export(self, tmp_path):
        path = tmp_path / "critpath_trace.json"
        assert main(CRITPATH + ["--chrome", str(path),
                                "--flows", "all"]) == 0
        trace = json.loads(path.read_text())
        assert any(e.get("cat") == "flow" for e in trace["traceEvents"])

    def test_bad_what_if_rejected(self, capsys):
        assert main(CRITPATH + ["--what-if", "bogus"]) == 2
        assert "what-if" in capsys.readouterr().err


class TestReplayCausal:
    def test_causal_summary_from_flight_log(self, tmp_path, capsys):
        log_path = tmp_path / "run.flightlog"
        assert main(["trace", "--n", "7", "--t", "1", "--M", "2",
                     "--seed", "3", "--flight-log", str(log_path)]) == 0
        capsys.readouterr()
        assert main(["replay", str(log_path), "--causal"]) == 0
        out = capsys.readouterr().out
        assert "causal graph" in out
        assert "depth" in out


class TestReplayExposures:
    def test_async_replay_holds_the_tossed_elements(self, tmp_path, capsys):
        """On an async log a "round" is one delivery; decoding round by
        round (the parent) replayed every coin as None for everyone."""
        from repro.obs.flight import FlightLog, replay

        log_path = tmp_path / "async.flightlog"
        assert main(["toss", "--n", "7", "--t", "2", "--runtime", "async",
                     "--count", "4", "--elements", "--sched-seed", "5",
                     "--flight-log", str(log_path)]) == 0
        printed = [int(line, 16)
                   for line in capsys.readouterr().out.split()]
        assert len(printed) == 4
        decoded = replay(FlightLog.load(str(log_path))).decoded_values()
        assert decoded == {
            (index + 1, f"async-{index}"): dict.fromkeys(range(1, 8), value)
            for index, value in enumerate(printed)
        }
        assert main(["replay", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "exposed coins     : 4" in out
        assert "failed exposures" not in out

    def test_a_coin_nobody_decodes_is_a_failed_exposure(self, tmp_path,
                                                        capsys):
        """All-None is not agreement: t + 1 bad shares at n = 7, t = 1
        leave every view undecodable, and replay must say so."""
        from repro.campaign import known_bad_scenarios, run_cell

        log_path = tmp_path / "bad_share.flightlog"
        log_path.write_text(run_cell(known_bad_scenarios()[0]).log_text)
        assert main(["replay", str(log_path)]) == 1
        assert "failed exposures  : 1" in capsys.readouterr().out

    def test_a_share_delayed_to_one_receiver_is_no_unanimity_break(
            self, tmp_path, capsys):
        from repro.campaign import Scenario, run_cell

        outcome = run_cell(Scenario(
            runtime="lockstep", field="gf2k:16", n=7, t=1,
            adversary="bad_share", corrupt=(7,),
            faults=("delay:src=7,dst=2,by=1",),
        ), keep_log=True)
        log_path = tmp_path / "delayed.flightlog"
        log_path.write_text(outcome.log_text)
        assert main(["replay", str(log_path)]) == 0
        assert "unanimity breaks  : 0" in capsys.readouterr().out


class TestTraceRoundConformance:
    def test_audit_includes_round_model_check(self, capsys):
        assert main(["trace", "--n", "7", "--t", "1", "--M", "4",
                     "--audit"]) == 0
        out = capsys.readouterr().out
        assert "round conformance" in out
        assert "DEVIATION" not in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


def _span_export(tmp_path, name, muls=60):
    lines = [
        {"kind": "manifest", "protocol": "coin_gen", "field": "gf2k:32",
         "n": 7},
        {"kind": "phase", "phase": "clique", "rounds": 3, "messages": 10,
         "bits": 80, "duration_s": 0.01},
        {"kind": "player", "phase": "clique", "adds": 4, "muls": muls,
         "invs": 1, "interpolations": 2},
    ]
    path = tmp_path / name
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return str(path)


class TestDiff:
    def test_identical_payloads_diff_empty(self, tmp_path, capsys):
        a = _span_export(tmp_path, "a.jsonl")
        b = _span_export(tmp_path, "b.jsonl")
        assert main(["diff", a, b, "--expect-empty"]) == 0
        assert "behaviourally identical" in capsys.readouterr().out

    def test_regression_produces_attribution(self, tmp_path, capsys):
        a = _span_export(tmp_path, "a.jsonl", muls=60)
        b = _span_export(tmp_path, "b.jsonl", muls=660)
        assert main(["diff", a, b]) == 0
        out = capsys.readouterr().out
        assert "muls" in out and "priced attribution" in out
        assert "clique" in out

    def test_expect_empty_gates_on_regression(self, tmp_path, capsys):
        a = _span_export(tmp_path, "a.jsonl", muls=60)
        b = _span_export(tmp_path, "b.jsonl", muls=660)
        assert main(["diff", a, b, "--expect-empty"]) == 1
        assert "DIFF NOT EMPTY" in capsys.readouterr().err

    def test_out_writes_report(self, tmp_path, capsys):
        a = _span_export(tmp_path, "a.jsonl", muls=60)
        b = _span_export(tmp_path, "b.jsonl", muls=660)
        report = tmp_path / "report.txt"
        assert main(["diff", a, b, "--out", str(report)]) == 0
        assert "priced attribution" in report.read_text()

    def test_non_jsonl_input_exits_2(self, tmp_path, capsys):
        a = _span_export(tmp_path, "a.jsonl")
        chrome = tmp_path / "trace.json"
        chrome.write_text(json.dumps({"traceEvents": []}, indent=2))
        assert main(["diff", a, str(chrome)]) == 2
        assert main(["diff", a, str(tmp_path / "absent.jsonl")]) == 2
        assert "not a span JSONL export" in capsys.readouterr().err

    def test_jsonl_export_diffs_against_itself(self, tmp_path, capsys):
        export = tmp_path / "spans.jsonl"
        assert main(["trace", "--n", "7", "--t", "1", "--M", "2",
                     "--seed", "3", "--export", "jsonl",
                     "--export-out", str(export)]) == 0
        capsys.readouterr()
        assert main(["diff", str(export), str(export),
                     "--expect-empty"]) == 0
        assert "behaviourally identical" in capsys.readouterr().out


CAMPAIGN_SMALL = ["campaign", "run", "--clean-only",
                  "--seeds", "1", "--sched-seeds", "1",
                  "--runtime", "lockstep"]


class TestCampaignCLI:
    def test_clean_run_exits_zero_with_full_coverage(self, capsys):
        assert main(CAMPAIGN_SMALL) == 0
        captured = capsys.readouterr()
        assert "coverage: 15/15 reachable grid cells (100.0%)" in captured.out
        assert "3 clean, 0 violated, 0 errors" in captured.err

    def test_min_coverage_gate_trips(self, capsys):
        assert main(CAMPAIGN_SMALL + ["--budget", "1", "--min-coverage",
                                      "90"]) == 1
        assert "COVERAGE GATE" in capsys.readouterr().err

    def test_known_bad_run_gates_and_writes_everything(self, tmp_path,
                                                       capsys):
        ledger = tmp_path / "ledger.jsonl"
        artifacts = tmp_path / "artifacts"
        report = tmp_path / "report.json"
        assert main(CAMPAIGN_SMALL + [
            "--budget", "0", "--known-bad", "--shrink",
            "--ledger", str(ledger), "--artifacts", str(artifacts),
            "--report", "json", "--out", str(report),
        ]) == 1
        err = capsys.readouterr().err
        assert "2 violated" in err
        doc = json.loads(report.read_text())
        # grid counts are per (runtime, ..., phase) entry: a violated
        # lockstep cell registers once per phase, so just non-zero here
        assert doc["coverage"]["counts"]["violated"] > 0
        signatures = {c["signature"] for c in doc["triage"]}
        assert "forensics_fn:adversary=lurker" in signatures
        written = sorted(artifacts.glob("repro-*.json"))
        assert len(written) == 2
        # each artifact replays and still trips its oracle
        for path in written:
            assert main(["campaign", "replay", str(path)]) == 0
            assert "reproduced" in capsys.readouterr().out
        # the ledger supports offline report and shrink
        assert main(["campaign", "report", "--ledger", str(ledger),
                     "--clean-only", "--runtime", "lockstep",
                     "--seeds", "1", "--sched-seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "bad_share" in out and "lurker" in out
        shrunk_dir = tmp_path / "shrunk"
        assert main(["campaign", "shrink", "--ledger", str(ledger),
                     "--artifacts", str(shrunk_dir)]) == 0
        assert len(list(shrunk_dir.glob("repro-*.json"))) == 2

    def test_shrink_cell_filter_unknown_is_usage_error(self, tmp_path,
                                                       capsys):
        ledger = tmp_path / "ledger.jsonl"
        assert main(CAMPAIGN_SMALL + ["--budget", "0", "--known-bad",
                                      "--ledger", str(ledger)]) == 1
        capsys.readouterr()
        assert main(["campaign", "shrink", "--ledger", str(ledger),
                     "--cell", "feedfacefe"]) == 2
        assert "no violated row" in capsys.readouterr().err

    def test_missing_inputs_are_usage_errors(self, tmp_path, capsys):
        assert main(["campaign", "report", "--ledger",
                     str(tmp_path / "absent.jsonl")]) == 2
        assert main(["campaign", "replay",
                     str(tmp_path / "absent.json")]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"artifact_schema": 99}')
        assert main(["campaign", "replay", str(bad)]) == 2

    def test_stale_artifact_exits_one(self, tmp_path, capsys):
        from repro.campaign import Scenario
        from repro.campaign.shrink import ARTIFACT_SCHEMA

        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps({
            "artifact_schema": ARTIFACT_SCHEMA,
            "cell": "0" * 10,
            "scenario": Scenario().to_dict(),  # clean: cannot reproduce
            "violations": [{"oracle": "coin", "signature": "coin_failure",
                            "detail": "x"}],
            "flight_log": None,
        }))
        assert main(["campaign", "replay", str(stale)]) == 1
        assert "no longer trips" in capsys.readouterr().out


class TestExhaustedAsyncRun:
    """More than t crashed players: the coin never finishes.  That is
    the run a stall watchdog exists for, and it used to end in an
    uncaught ``RuntimeExhausted`` with no stall table and no log."""

    def test_toss_writes_the_log_and_reports_the_stuck_guards(
        self, tmp_path, capsys
    ):
        log_path = tmp_path / "stall.flightlog"
        code = main(["toss", "--n", "7", "--t", "2", "--count", "1",
                     "--runtime", "async", "--crash", "3,4,5",
                     "--watchdog", "20", "--flight-log", str(log_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert log_path.exists()
        stuck = {int(pid) for pid in
                 re.findall(r"player (\d+) awaiting", err.split("stuck:")[1])}
        assert stuck == {1, 2, 6, 7}
        from repro.obs import FlightLog, stalls

        unresolved = {stall.pid
                      for stall in stalls(FlightLog.load(str(log_path)), 20)
                      if stall.resolved_at is None}
        assert stuck <= unresolved

    def test_waits_lists_the_stuck_guards(self, capsys):
        assert main(["waits", "--n", "7", "--t", "2", "--coins", "2",
                     "--crash", "3,4,5"]) == 1
        out, err = capsys.readouterr()
        assert "stuck: player 1 awaiting expose/async-0" in err
        assert "Traceback" not in err
        assert "waits armed / fired" in out and " 4 / 0" in out


class TestExitCodeConvention:
    """0 = clean, 1 = gate tripped, 2 = usage error — everywhere."""

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        # a missing flight log is a usage error, not a tripped gate
        assert main(["replay", str(tmp_path / "absent.flightlog")]) == 2
        assert main(["forensics", str(tmp_path / "absent.flightlog")]) == 2
        capsys.readouterr()

    def test_malformed_flight_log_exits_two(self, tmp_path, capsys):
        # a log that cannot be parsed is unreadable input (2), never a
        # traceback — which would exit 1, the "gate tripped" code
        from repro.campaign.shrink import ARTIFACT_SCHEMA

        bad = tmp_path / "bad.flightlog"
        for text in ('{"flight": 1}\n', '[1]\n',
                     '{"flight": 1, "n": 7, "t": 1}\n{"e": "round"}\n'):
            bad.write_text(text)
            assert main(["replay", str(bad)]) == 2
            assert main(["forensics", str(bad)]) == 2
            assert "not a flight log" in capsys.readouterr().err
        artifact = tmp_path / "artifact.json"
        artifact.write_text(json.dumps({
            "artifact_schema": ARTIFACT_SCHEMA, "cell": "0" * 10,
            "scenario": {}, "violations": [], "flight_log": '{"flight": 1}\n',
        }))
        assert main(["campaign", "replay", str(artifact)]) == 2
        assert "embedded flight log" in capsys.readouterr().err

    def test_bad_what_if_exits_two(self):
        assert main(["critpath", "--n", "7", "--t", "1", "--M", "2",
                     "--what-if", "bogus"]) == 2

    @pytest.mark.parametrize("argv, flag", [
        (["toss", "--runtime", "async", "--count", "1", "--crash", "3,x"],
         "--crash"),
        (["toss", "--runtime", "async", "--count", "1", "--n", "7",
          "--crash", "9"], "--crash"),
        (["critpath", "--n", "7", "--t", "1", "--M", "2",
          "--what-if", "player=x"], "--what-if"),
        (["critpath", "--n", "7", "--t", "1", "--M", "2",
          "--op-cost", "add=zz"], "--op-cost"),
        (["forensics", "LOG", "--expect", "a"], "--expect"),
    ], ids=["crash-not-a-number", "crash-not-a-player", "what-if-player",
            "op-cost", "forensics-expect"])
    def test_malformed_flag_values_exit_two(self, argv, flag, tmp_path,
                                            capsys):
        # a ValueError traceback would exit 1, the "gate tripped" code
        if "LOG" in argv:
            log_path = tmp_path / "honest.flightlog"
            assert main(["trace", "--n", "7", "--t", "1", "--M", "1",
                         "--flight-log", str(log_path)]) == 0
            argv = [str(log_path) if arg == "LOG" else arg for arg in argv]
        capsys.readouterr()
        assert main(argv) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("forged", [0, -3, 99999999999, 50])
    def test_a_forged_sender_id_exits_two(self, forged, tmp_path, capsys):
        """A delivery whose ``src`` is not one of the header's players:
        0, -3 and 99999999999 used to die in ``Field.element_point`` (a
        traceback, exit 1); 50 in a 7-player log was *accepted* — counted
        in receiver 1's view and reported as "player 50: bad-share"."""
        log_path = tmp_path / "honest.flightlog"
        assert main(["trace", "--n", "7", "--t", "1", "--M", "1",
                     "--flight-log", str(log_path)]) == 0
        capsys.readouterr()
        assert main(["replay", str(log_path)]) == 0
        honest_replay = capsys.readouterr().out
        lines = log_path.read_text().splitlines()
        number, record = next(
            (number, json.loads(line)) for number, line in enumerate(lines)
            if '"round"' in line and any(
                "6578706f73652f" in str(wire)  # hex of "expose/"
                for _, _, wire in json.loads(line)["d"]
            )
        )
        delivery = next(d for d in record["d"] if "6578706f73652f" in d[2])
        delivery[1] = forged
        lines[number] = json.dumps(record, sort_keys=True)
        forged_path = tmp_path / "forged.flightlog"
        forged_path.write_text("\n".join(lines) + "\n")
        for command in ("replay", "forensics"):
            assert main([command, str(forged_path)]) == 2
            err = capsys.readouterr().err.strip()
            assert len(err.splitlines()) == 1
            assert f"line {number + 1}" in err and "player id" in err
        # and the honest log is untouched by the check
        assert main(["replay", str(log_path)]) == 0
        assert capsys.readouterr().out == honest_replay

    def test_campaign_gate_vs_usage_split(self, tmp_path, capsys):
        # gate tripped (violations found) is 1; unreadable input is 2
        assert main(CAMPAIGN_SMALL + ["--budget", "0", "--known-bad"]) == 1
        capsys.readouterr()
        assert main(["campaign", "shrink", "--ledger",
                     str(tmp_path / "absent.jsonl")]) == 2
