"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench import metrics
from bench.measure import SMOKE_BLOCKS, Pass
from bench.run import MANIFEST, WORKLOADS
from bench.trace import TARGETS, Tracer
from bench.workloads import SPECS, make_session

RUN = Path(__file__).resolve().parent / "run.py"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
COUNTS = ("messages_per_coin", "bits_per_coin", "rounds_per_coin")


def smoke_all(trace: int) -> dict:
    child = subprocess.run(
        [sys.executable, str(RUN), "--all", "--smoke", "--seed", "3",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])["workloads"]


@pytest.fixture(scope="module")
def end_to_end():
    return smoke_all(0)


@pytest.fixture(scope="module")
def traced():
    return smoke_all(1)


def smoke_pass(name: str, seed: int = 3, **kwargs) -> Pass:
    return Pass(make_session(name, seed, **kwargs), SMOKE_BLOCKS).run(0.0)


def test_manifest_lists_what_the_code_prints():
    manifest = json.loads(MANIFEST.read_text())
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert manifest["paths"] == ["bench"]
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    assert set(WORKLOADS) == set(SPECS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["end_to_end"]] == [
        row[:3] for row in metrics.END_TO_END
    ]
    assert all(
        set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
        for m in manifest["end_to_end"]
    )
    assert [(m["name"], m["unit"], m["better"])
            for m in manifest["per_layer"]] == list(metrics.PER_LAYER)
    assert len(manifest["end_to_end"]) <= 16
    assert len(manifest["per_layer"]) <= 128
    names = [name for name, *_ in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names + list(WORKLOADS))
    assert all(UNIT.fullmatch(unit) for unit in metrics.UNITS.values())


@pytest.mark.parametrize("which, catalogue", [
    ("end_to_end", metrics.END_TO_END), ("traced", metrics.PER_LAYER),
])
def test_smoke_carries_every_metric_with_its_unit(request, which, catalogue):
    results = request.getfixturevalue(which)
    assert set(results) == set(WORKLOADS)
    for name, result in results.items():
        assert result["correct"] and result["failed"] == 0, name
        assert result["attempted"] >= 1
        assert set(result) == {
            "correct", "attempted", "failed", "metrics", "exit_code"
        }
        assert {m: row["unit"] for m, row in result["metrics"].items()} == {
            row[0]: row[1] for row in catalogue
        }, name
        assert all(
            isinstance(row["value"], (int, float))
            for row in result["metrics"].values()
        )


def test_end_to_end_metrics_are_never_zero(end_to_end):
    for name, result in end_to_end.items():
        for metric, row in result["metrics"].items():
            assert row["value"] > 0, (name, metric)


def test_core_shares_sum_to_one(traced):
    for name, result in traced.items():
        value = {m: row["value"] for m, row in result["metrics"].items()}
        parts = (value["core.stretch_share"] + value["core.expose_share"]
                 + value["core.toss_self_share"])
        if SPECS[name].is_async:
            # no generator: the root's only child is net.run
            parts += value["net.run_share"]
        assert parts == pytest.approx(1.0, abs=0.02), name
        assert value["core.self_share"] + value["net.run_share"] == (
            pytest.approx(1.0, abs=0.02)
        ), name


def test_workloads_stress_opposite_halves(traced):
    small = traced["beacon_small_batch"]["metrics"]
    large = traced["beacon_large_batch"]["metrics"]
    assert small["core.stretch_share"]["value"] > 0.6
    assert large["core.expose_share"]["value"] > 0.6


@pytest.mark.parametrize(
    "name", ["beacon_small_batch", "beacon_byzantine", "async_expose"]
)
def test_counts_and_digest_repeat_exactly(name):
    first, second = smoke_pass(name), smoke_pass(name)
    assert first.ok and second.ok
    assert first.window["digest"] == second.window["digest"]
    one, two = first.end_to_end(), second.end_to_end()
    assert [one[m] for m in COUNTS] == [two[m] for m in COUNTS]
    assert smoke_pass(name, seed=4).window["digest"] != first.window["digest"]


def test_dark_twin_delivers_the_same_coins():
    lit = smoke_pass("beacon_observed")
    dark = smoke_pass("beacon_observed", lit=False)
    assert lit.window["digest"] == dark.window["digest"]


def test_tracer_restores_every_patched_method():
    originals = [
        (cls, method, cls.__dict__.get(method)) for cls, method, _ in TARGETS
    ]
    dark = smoke_pass("beacon_small_batch")
    tracer = Tracer()
    with tracer.patched():
        traced = Pass(
            make_session("beacon_small_batch", 3), SMOKE_BLOCKS, tracer
        ).run(0.0)
    assert {span[0] for span in tracer.spans} == {
        "toss", "core.stretch", "core.expose", "net.run"
    }
    for cls, method, original in originals:
        assert cls.__dict__.get(method) is original, (cls, method)
    spans_before = len(tracer.spans)
    after = smoke_pass("beacon_small_batch")
    assert len(tracer.spans) == spans_before
    assert dark.window["digest"] == traced.window["digest"]
    assert dark.window["digest"] == after.window["digest"]


def test_a_wrong_coin_fails_the_pass():
    session = make_session("beacon_small_batch", 3)
    honest = session.toss
    session.toss = lambda: honest() ^ 1
    run = Pass(session, SMOKE_BLOCKS).run(0.0)
    assert not run.ok and run.failed == 1 and "OracleError" in run.error


def test_refuses_to_start_with_a_forced_backend(monkeypatch):
    monkeypatch.setenv("REPRO_FIELD_BACKEND", "python")
    child = subprocess.run(
        [sys.executable, str(RUN), "--workload", "async_expose", "--smoke"],
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 2
    assert "REPRO_FIELD_BACKEND" in child.stderr
