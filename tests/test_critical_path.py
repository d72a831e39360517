"""Critical-path pricing: exact DP values, closed forms, and what-if.

The synthetic micro-graph tests pin the dynamic program to hand-computed
numbers (start/finish per step, phase attribution, exposure latency);
the real-run tests pin the two closed forms the ISSUE's acceptance
criteria name — under the structural model makespan equals DAG depth
(== ``predicted_rounds``), scaling base latency scales makespan
linearly, and a 10x straggler moves every exposure latency by exactly
the model-predicted amount.
"""

import pytest

from repro.analysis.rounds import predicted_rounds
from repro.fields import GF2k
from repro.obs import SpanRecorder
from repro.obs.causality import CausalGraph, MessageEdge, graph_from_log
from repro.obs.flight import FlightRecorder
from repro.obs.critical_path import (
    CostModel,
    critical_path,
    op_profile,
    op_profile_table,
    ops_from_recorder,
    what_if,
)
from repro.protocols.coin_gen import expose_coin, run_coin_gen
from repro.protocols.context import ProtocolContext


def edge(run=1, send=1, recv=2, src=1, dst=2, tag="syn/x", elements=1):
    return MessageEdge(run=run, send_round=send, recv_round=recv, src=src,
                       dst=dst, tag=tag, elements=elements)


def micro_graph():
    """1 --(2 elems)--> 2 --(expose/c0)--> 1, over rounds 1..3."""
    return CausalGraph(n=2, edges=[
        edge(send=1, recv=2, src=1, dst=2, tag="syn/a", elements=2),
        edge(send=2, recv=3, src=2, dst=1, tag="expose/c0", elements=1),
    ])


def instrumented_run(n=7, t=1, M=2, seed=3):
    """Coin-Gen + one expose with both recorders attached."""
    recorder = SpanRecorder()
    ctx = ProtocolContext.create(GF2k(16), n=n, t=t, seed=seed,
                                 recorder=recorder)
    flight = FlightRecorder(n=n, t=t).attach(ctx)
    outputs, _ = run_coin_gen(ctx, M=M, tag="cg")
    assert all(o.success for o in outputs.values())
    expose_coin(ctx, outputs=outputs, h=0)
    return graph_from_log(flight.log()), recorder


class TestCostModel:
    def test_latency_combines_base_elements_and_scales(self):
        model = CostModel(base_latency=2.0, per_element_latency=0.5,
                          link_scale={(1, 2): 3.0},
                          player_link_scale={2: 10.0})
        e = edge(src=1, dst=2, elements=4)
        # (2 + 0.5*4) * 3 (link) * 10 (player 2 endpoint)
        assert model.latency(e) == pytest.approx(120.0)

    def test_self_edges_never_pay_the_straggler_scale(self):
        model = CostModel(player_link_scale={1: 10.0})
        assert model.latency(edge(src=1, dst=1)) == pytest.approx(1.0)
        assert model.latency(edge(src=1, dst=2)) == pytest.approx(10.0)

    def test_compute_seconds_weights_ops_and_player_scale(self):
        model = CostModel(add=0.25, interpolation=2.0,
                          player_compute_scale={3: 4.0})
        ops = {"adds": 8, "interpolations": 1}
        assert model.compute_seconds(1, ops) == pytest.approx(4.0)
        assert model.compute_seconds(3, ops) == pytest.approx(16.0)
        assert model.compute_seconds(1, None) == 0.0

    def test_with_straggler_compounds_existing_scale(self):
        model = CostModel(player_link_scale={3: 2.0})
        slowed = model.with_straggler(3, 10.0)
        assert slowed.player_link_scale[3] == pytest.approx(20.0)
        assert model.player_link_scale[3] == pytest.approx(2.0)  # copy


class TestMicroGraphExactValues:
    """Hand-computed DP on the two-edge chain."""

    MODEL = CostModel(base_latency=2.0, per_element_latency=0.5,
                      interpolation=1.0)
    STEP_OPS = {(1, 2, 2): {"interpolations": 3}}

    def test_makespan_and_path(self):
        result = critical_path(micro_graph(), self.MODEL, self.STEP_OPS)
        (run,) = result.runs
        # e1 arrives at 0 + (2 + 0.5*2) = 3; step (2,2) computes 3s of
        # interpolation -> finish 6; e2 arrives at 6 + 2.5 = 8.5
        assert run.makespan == pytest.approx(8.5)
        assert run.depth == 2
        nodes = [(s.round, s.player) for s in run.path]
        assert nodes == [(1, 1), (2, 2), (3, 1)]
        starts = [s.start for s in run.path]
        finishes = [s.finish for s in run.path]
        assert starts == pytest.approx([0.0, 3.0, 8.5])
        assert finishes == pytest.approx([0.0, 6.0, 8.5])

    def test_phase_attribution_splits_latency_and_compute(self):
        result = critical_path(micro_graph(), self.MODEL, self.STEP_OPS)
        (run,) = result.runs
        # "syn/a" classifies as other: 3.0 edge latency + 3.0 compute;
        # "expose/c0" contributes its 2.5 edge latency
        assert run.phase_seconds == pytest.approx(
            {"other": 6.0, "expose": 2.5}
        )
        assert sum(run.phase_seconds.values()) == pytest.approx(run.elapsed)

    def test_exposure_latency_is_the_consuming_step_finish(self):
        result = critical_path(micro_graph(), self.MODEL, self.STEP_OPS)
        assert result.coin_exposures == {(1, "c0"): pytest.approx(8.5)}

    def test_default_model_makespan_equals_depth(self):
        result = critical_path(micro_graph())
        assert result.makespan == pytest.approx(2.0)

    def test_what_if_straggler_hand_computed(self):
        # both edges touch player 2, so a 10x straggler scales the whole
        # chain: makespan 2 -> 20, exposure c0 moves 2 -> 20
        counterfactual = what_if(micro_graph(), player=2, scale=10.0)
        assert counterfactual.base.makespan == pytest.approx(2.0)
        assert counterfactual.perturbed.makespan == pytest.approx(20.0)
        assert counterfactual.makespan_delta == pytest.approx(18.0)
        assert counterfactual.exposure_deltas() == {
            (1, "c0"): (pytest.approx(2.0), pytest.approx(20.0))
        }

    def test_runs_chain_sequentially(self):
        graph = micro_graph()
        graph.edges.append(edge(run=2, send=12, recv=13, src=1, dst=2))
        result = critical_path(graph)
        assert [r.start for r in result.runs] == pytest.approx([0.0, 2.0])
        assert result.makespan == pytest.approx(3.0)


class TestRealRunClosedForms:
    def test_structural_makespan_equals_predicted_depth(self):
        graph, _ = instrumented_run()
        result = critical_path(graph)
        expected = {1: predicted_rounds("coin_gen", t=1),
                    2: predicted_rounds("expose")}
        assert {r.run: r.depth for r in result.runs} == expected
        assert {r.run: r.elapsed for r in result.runs} == pytest.approx(
            {run: float(depth) for run, depth in expected.items()}
        )

    def test_base_latency_scales_makespan_linearly(self):
        graph, _ = instrumented_run()
        unit = critical_path(graph)
        scaled = critical_path(graph, CostModel(base_latency=10.0))
        assert scaled.makespan == pytest.approx(10.0 * unit.makespan)

    def test_what_if_moves_exposures_by_model_predicted_amount(self):
        # all-to-all traffic lets every chain route through the
        # straggler's links each round, so a 10x straggler under the
        # unit model is exactly a 10x re-pricing — of the makespan and
        # of every coin's exposure latency
        graph, _ = instrumented_run()
        counterfactual = what_if(graph, player=3, scale=10.0)
        assert counterfactual.perturbed.makespan == pytest.approx(
            10.0 * counterfactual.base.makespan
        )
        deltas = counterfactual.exposure_deltas()
        assert deltas
        for (run, coin), (before, after) in deltas.items():
            assert after == pytest.approx(10.0 * before), (run, coin)
        assert counterfactual.makespan_delta == pytest.approx(
            9.0 * counterfactual.base.makespan
        )

    def test_what_if_table_and_dict_are_consistent(self):
        graph, _ = instrumented_run()
        counterfactual = what_if(graph, player=3, scale=10.0)
        payload = counterfactual.to_dict()
        assert payload["makespan_delta"] == pytest.approx(
            counterfactual.makespan_delta
        )
        assert "player 3" in counterfactual.table()


class TestOpsFromRecorder:
    def test_runs_map_to_protocol_spans_in_order(self):
        graph, recorder = instrumented_run()
        step_ops, labels = ops_from_recorder(recorder)
        assert labels == {1: "coin_gen", 2: "expose"}
        assert set(labels) == set(graph.runs())
        assert step_ops
        # rounds are run-local (restart at 1 per network.run)
        assert min(r for _, r, _ in step_ops) == 1
        total_interp = sum(ops["interpolations"]
                           for ops in step_ops.values())
        assert total_interp > 0

    def test_op_weights_extend_the_critical_path(self):
        graph, recorder = instrumented_run()
        step_ops, _ = ops_from_recorder(recorder)
        unit = critical_path(graph, CostModel(), step_ops)
        priced = critical_path(
            graph, CostModel(interpolation=0.5), step_ops
        )
        assert priced.makespan > unit.makespan

    def test_result_serialization(self):
        graph, recorder = instrumented_run()
        step_ops, _ = ops_from_recorder(recorder)
        result = critical_path(graph, CostModel(), step_ops)
        payload = result.to_dict()
        assert payload["makespan"] == pytest.approx(result.makespan)
        assert len(payload["runs"]) == 2
        assert all(key.startswith("run") for key in payload["coin_exposures"])
        table = result.table()
        assert "slowest chain" in table and "exposure" in table


class TestOpProfile:
    def test_structural_model_ranks_by_count(self):
        graph, recorder = instrumented_run()
        step_ops, _ = ops_from_recorder(recorder)
        rows = op_profile(graph, CostModel(), step_ops)
        assert rows, "a real run must put some ops on the critical path"
        counts = [row.count for row in rows]
        assert counts == sorted(counts, reverse=True)
        # the structural model prices compute at zero
        assert all(row.seconds == 0.0 for row in rows)

    def test_priced_model_ranks_by_seconds(self):
        graph, recorder = instrumented_run()
        step_ops, _ = ops_from_recorder(recorder)
        model = CostModel(add=1e-9, mul=5e-8, inv=1e-6, interpolation=1e-5)
        rows = op_profile(graph, model, step_ops)
        seconds = [row.seconds for row in rows]
        assert seconds == sorted(seconds, reverse=True)
        assert all(row.seconds > 0.0 for row in rows)
        # row pricing is exactly weight * count (no hidden scaling at 1.0)
        weights = {"adds": model.add, "muls": model.mul,
                   "invs": model.inv, "interpolations": model.interpolation}
        for row in rows:
            assert row.seconds == pytest.approx(weights[row.op] * row.count)

    def test_on_path_subset_of_flat_histogram(self):
        """Profile counts only bounding-chain work, never more than the
        flat per-(phase, op) histogram over all steps."""
        graph, recorder = instrumented_run()
        step_ops, _ = ops_from_recorder(recorder)
        rows = op_profile(graph, CostModel(), step_ops)
        flat_totals = {}
        for ops in step_ops.values():
            for key, count in ops.items():
                flat_totals[key] = flat_totals.get(key, 0) + count
        profiled = {}
        for row in rows:
            profiled[row.op] = profiled.get(row.op, 0) + row.count
        for op, count in profiled.items():
            assert count <= flat_totals.get(op, 0)

    def test_table_and_dict(self):
        graph, recorder = instrumented_run()
        step_ops, _ = ops_from_recorder(recorder)
        rows = op_profile(graph, CostModel(), step_ops)
        table = op_profile_table(rows)
        assert "phase" in table and "count" in table
        assert rows[0].phase in table
        payload = rows[0].to_dict()
        assert payload["op"] == rows[0].op
        assert payload["count"] == rows[0].count
        assert op_profile_table([]).endswith("(no on-path op deltas recorded)")
