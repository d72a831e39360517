"""The observability stack: spans, phases, exporters, auditor.

Includes the PR's acceptance checks: an instrumented ``toss`` session
produces a valid Chrome trace whose spans cover >= 95% of wall time, the
conformance auditor matches :mod:`repro.analysis.complexity` exactly on
fault-free runs, and the default (disabled) recorder changes nothing.
"""

import json

import pytest

from repro.analysis import complexity as cx
from repro.core import BootstrapCoinSource
from repro.fields import GF2k
from repro.net.faults import FaultPlane
from repro.obs import (
    NULL_RECORDER,
    SpanRecorder,
    audit_recorder,
    classify_tag,
    to_chrome_trace,
    to_prometheus,
)
from repro.obs.audit import audit_coin_gen
from repro.obs.phases import classify_tags, register_tag_phase
from repro.protocols.coin_gen import expose_coin, run_coin_gen
from repro.protocols.context import ProtocolContext

F = GF2k(32)
N, T = 7, 1


class TestPhaseRegistry:
    def test_protocol_tags_classify(self):
        # registered at protocol-module import time
        assert classify_tag("cg/sh") == "deal"
        assert classify_tag("cg/nu") == "clique"
        assert classify_tag("cg/gc/echo") == "gradecast"
        assert classify_tag("cg/ba0/p1/vote") == "ba"
        assert classify_tag("cg/ba0/p1/king") == "ba"
        assert classify_tag("expose/seed0") == "expose"
        assert classify_tag("unregistered") == "other"

    def test_round_classification(self):
        assert classify_tags({}) == "idle"
        assert classify_tags({"cg/sh": 49}) == "deal"
        # dominant phase wins a (hypothetical) mixed round
        assert classify_tags({"cg/sh": 1, "cg/nu": 5}) == "clique"

    def test_conflicting_registration_raises(self):
        with pytest.raises(ValueError):
            register_tag_phase("ba", suffix="/sh")  # /sh is "deal"

    def test_reregistration_idempotent(self):
        register_tag_phase("deal", suffix="/sh")  # no-op, no raise


class TestSpanRecorder:
    def test_nesting_and_parentage(self):
        rec = SpanRecorder()
        with rec.span("outer", "protocol") as outer:
            with rec.span("inner", "round") as inner:
                assert inner.span.parent_id == outer.span.span_id
        kinds = {s.kind for s in rec.spans}
        assert kinds == {"protocol", "round"}

    def test_record_returns_span(self):
        rec = SpanRecorder()
        span = rec.record("step", "player", 1.0, 2.0, player=3)
        assert span.duration == 1.0
        span.set(phase="deal")
        assert rec.spans[0].attrs["phase"] == "deal"

    def test_phase_spans_merge_consecutive_rounds(self):
        rec = SpanRecorder()
        with rec.span("p", "protocol"):
            for phase in ("deal", "deal", "clique"):
                with rec.span("r", "round") as r:
                    r.set(phase=phase, messages=10, bits=100)
        phases = rec.phase_spans()
        assert [(s.attrs["phase"], s.attrs["rounds"]) for s in phases] == [
            ("deal", 2), ("clique", 1),
        ]
        assert phases[0].attrs["messages"] == 20

    def test_null_recorder_is_inert(self):
        with NULL_RECORDER.span("x", "protocol") as handle:
            handle.set(a=1)
        NULL_RECORDER.end(handle)
        NULL_RECORDER.record("x", "player", 0.0, 1.0)
        assert not NULL_RECORDER.enabled


class TestRuntimeIntegration:
    def _instrumented_run(self, M=4):
        rec = SpanRecorder()
        ctx = ProtocolContext.create(F, N, T, seed=3, recorder=rec)
        outputs, metrics = run_coin_gen(ctx, M=M)
        assert all(o.success for o in outputs.values())
        return rec, ctx, outputs, metrics

    def test_span_hierarchy_recorded(self):
        rec, _, _, metrics = self._instrumented_run()
        protocols = rec.by_kind("protocol")
        assert [s.name for s in protocols] == ["coin_gen"]
        rounds = rec.children(protocols[0])
        assert len(rounds) == metrics.rounds
        # every round carries phase + message tallies, and its player
        # steps inherit the phase
        for r in rounds:
            assert r.attrs["phase"] in (
                "deal", "clique", "gradecast", "ba", "expose", "idle")
            steps = rec.children(r)
            assert len(steps) == N
            assert all(s.attrs["phase"] == r.attrs["phase"] for s in steps)

    def test_player_spans_carry_op_deltas(self):
        rec, _, _, metrics = self._instrumented_run()
        total = sum(
            s.attrs["interpolations"] for s in rec.by_kind("player")
            if s.attrs["player"] == 1
        )
        assert total == metrics.ops(1).interpolations

    def test_conformance_exact_on_fault_free_run(self):
        """The acceptance check: measured per-phase messages and
        interpolations equal the complexity.py predictions *exactly*."""
        rec, _, outputs, _ = self._instrumented_run()
        report = audit_coin_gen(rec)
        assert report.ok, report.table()
        assert report.max_abs_deviation == 0
        assert report.faults == 0
        iters = outputs[1].iterations
        expected = cx.coin_gen_phase_messages(N, T, iters)
        measured = {
            c.phase: c.measured for c in report.checks
            if c.metric == "messages"
        }
        assert measured == expected

    def test_expose_span_audited(self):
        rec = SpanRecorder()
        ctx = ProtocolContext.create(F, N, T, seed=3, recorder=rec)
        outputs, _ = run_coin_gen(ctx, M=2)
        expose_coin(ctx, outputs=outputs, h=0)
        reports = audit_recorder(rec)
        assert [r.protocol for r in reports] == ["coin_gen", "expose"]
        assert all(r.ok for r in reports)

    def test_faults_flow_to_recorder(self):
        rec = SpanRecorder()
        plane = FaultPlane().drop(src=3)
        ctx = ProtocolContext.create(F, N, T, seed=3, recorder=rec,
                                     faults=plane)
        run_coin_gen(ctx, M=2)
        assert rec.faults
        assert all(f["kind"] == "drop" and f["src"] == 3 for f in rec.faults)
        report = audit_coin_gen(rec)
        # the report flags that faults were live during the run
        assert report.faults == len(rec.faults)

    def test_disabled_recorder_changes_nothing(self):
        """Identical metrics (incl. per-player Lemma op counts) with and
        without a live recorder, and no spans by default."""
        ctx_plain = ProtocolContext.create(F, N, T, seed=3)
        assert ctx_plain.recorder is NULL_RECORDER
        out_plain, m_plain = run_coin_gen(ctx_plain, M=4)

        rec = SpanRecorder()
        ctx_obs = ProtocolContext.create(F, N, T, seed=3, recorder=rec)
        out_obs, m_obs = run_coin_gen(ctx_obs, M=4)

        assert m_plain.summary() == m_obs.summary()
        for pid in range(1, N + 1):
            assert m_plain.ops(pid).__dict__ == m_obs.ops(pid).__dict__
        assert [o.clique for o in out_plain.values()] == [
            o.clique for o in out_obs.values()
        ]


class TestTossAcceptance:
    """The PR acceptance scenario: a full bootstrapped toss session."""

    def _toss_session(self):
        rec = SpanRecorder()
        ctx = ProtocolContext.create(F, N, T, seed=0, recorder=rec)
        root = rec.begin("toss", "root")
        source = BootstrapCoinSource(context=ctx, batch_size=16)
        bits = source.tosses(64)
        rec.end(root)
        assert len(bits) == 64 and set(bits) <= {0, 1}
        return rec, ctx

    def test_coverage_at_least_95_percent(self):
        rec, _ = self._toss_session()
        assert rec.coverage() >= 0.95

    def test_auditor_zero_deviation(self):
        rec, _ = self._toss_session()
        reports = audit_recorder(rec)
        assert any(r.protocol == "coin_gen" for r in reports)
        assert any(r.protocol == "expose" for r in reports)
        for report in reports:
            assert report.ok, report.table()
            assert report.max_abs_deviation == 0

    def test_chrome_trace_valid(self):
        rec, _ = self._toss_session()
        data = json.loads(to_chrome_trace(rec))
        events = data["traceEvents"]
        assert events
        cats = {e.get("cat") for e in events if e["ph"] == "X"}
        assert {"root", "protocol", "round", "player", "phase"} <= cats
        for e in events:
            if e["ph"] == "X":
                assert e["dur"] >= 0 and e["ts"] >= 0

    def test_cli_toss_export(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        assert main(["toss", "--n", "7", "--count", "64",
                     "--export", "chrome", "--export-out", str(out)]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 1  # 64 bits
        data = json.loads(out.read_text())
        assert data["traceEvents"]

    def test_cli_trace_audit_passes(self, capsys):
        from repro.cli import main

        assert main(["trace", "--n", "7", "--t", "1", "--M", "4",
                     "--audit"]) == 0
        out = capsys.readouterr().out
        assert "conformance audit" in out and "DEVIATION" not in out


class TestExporters:
    def _recorder(self):
        rec = SpanRecorder()
        ctx = ProtocolContext.create(F, N, T, seed=3, recorder=rec)
        _, metrics = run_coin_gen(ctx, M=2)
        return rec, ctx, metrics

    def test_prometheus_exposition(self):
        rec, ctx, metrics = self._recorder()
        text = to_prometheus(metrics=ctx.metrics, recorder=rec)
        assert "repro_rounds_total" in text
        assert 'repro_messages_total{channel="unicast"}' in text
        assert 'repro_span_duration_seconds_bucket{kind="round"' in text
        assert 'repro_phase_messages_total{phase="deal"}' in text
        # counters parse as numbers
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            float(line.rsplit(" ", 1)[1])

    def test_prometheus_includes_faults(self):
        rec = SpanRecorder()
        plane = FaultPlane().drop(src=2)
        ctx = ProtocolContext.create(F, N, T, seed=3, recorder=rec,
                                     faults=plane)
        run_coin_gen(ctx, M=2)
        text = to_prometheus(recorder=rec)
        assert 'repro_faults_total{kind="drop"}' in text
