"""Happens-before graphs: the DAG of a recorded run.

:func:`~repro.obs.causality.graph_from_log` is the only constructor of a
:class:`~repro.obs.causality.CausalGraph`, so there is no second graph
to compare it with; these tests hold it against what the *live* run
measured by other means — ``NetworkMetrics`` delivery and round counts,
the ``predicted_rounds`` depth formula, the log's own fault events —
across schedulers, fields, and adversaries.  On top of that: run
delimiting, drop/delay/duplicate semantics (a delayed message is
attributed to the round it settled in), well-formed Chrome trace lanes
under a permuted schedule, and the zero-cost discipline (recording the
log a graph is built from never perturbs the run it observes).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.rounds import predicted_rounds
from repro.fields import GF2k
from repro.fields.gfp import GFp
from repro.net import PermutedDeliveryScheduler
from repro.net.faults import FaultPlane
from repro.obs import SpanRecorder, to_chrome_trace
from repro.obs.causality import CausalGraph, MessageEdge, graph_from_log
from repro.obs.flight import FlightRecorder
from repro.protocols.coin_gen import expose_coin, run_coin_gen
from repro.protocols.context import ProtocolContext

from tests.test_forensics import scenario_programs


def causal_coin_gen(field, n=7, t=1, seed=3, scheduler=None, faults=None,
                    M=1, span_recorder=None, expose=False, **kwargs):
    """One Coin-Gen run recorded to a flight log, and the graph of it."""
    extra = {} if span_recorder is None else {"recorder": span_recorder}
    ctx = ProtocolContext.create(field, n=n, t=t, seed=seed,
                                 scheduler=scheduler, faults=faults, **extra)
    flight = FlightRecorder(n=n, t=t, field=field, seed=seed)
    flight.attach(ctx)
    outputs, _ = run_coin_gen(ctx, M=M, tag="cg", **kwargs)
    if expose:
        expose_coin(ctx, outputs=outputs, h=0)
    log = flight.log()
    return graph_from_log(log), log, outputs, ctx


def sent_deliveries(ctx):
    """Deliveries the live run paid to send (``NetworkMetrics``): one per
    point-to-point message, ``n`` per use of the broadcast channel."""
    return (ctx.metrics.unicast_messages
            + ctx.n * ctx.metrics.broadcast_messages)


def fault_count(log, kind):
    return sum(1 for fault in log.faults if fault.kind == kind)


def edge(run=1, send=1, recv=2, src=1, dst=2, tag="syn/x", elements=1):
    return MessageEdge(run=run, send_round=send, recv_round=recv, src=src,
                       dst=dst, tag=tag, elements=elements)


class TestGraphSemantics:
    def test_depth_is_longest_message_chain(self):
        # chain 1->2->3 plus an unrelated single edge
        graph = CausalGraph(n=3, edges=[
            edge(send=1, recv=2, src=1, dst=2),
            edge(send=2, recv=3, src=2, dst=3),
            edge(send=1, recv=2, src=3, dst=1),
        ])
        assert graph.depth(1) == 2
        assert graph.depths() == {1: 2}

    def test_depth_respects_causality_not_round_count(self):
        # two edges in disjoint rounds whose tail cannot feed the head
        graph = CausalGraph(n=3, edges=[
            edge(send=1, recv=2, src=1, dst=2),
            edge(send=2, recv=3, src=3, dst=1),  # src 3 got nothing
        ])
        assert graph.depth(1) == 1

    def test_delayed_edge_chains_from_true_origin(self):
        # an edge only extends chains ending at or before its *send*
        # round, however late it is consumed
        graph = CausalGraph(n=3, edges=[
            edge(send=1, recv=2, src=1, dst=2),
            edge(send=1, recv=4, src=2, dst=3),
        ])
        assert graph.depth(1) == 1

    def test_in_edges_and_last_round(self):
        graph = CausalGraph(n=2, edges=[edge(send=1, recv=2, src=1, dst=2),
                                        edge(send=2, recv=3, src=2, dst=1)])
        index = graph.in_edges(1)
        assert set(index) == {(2, 2), (3, 1)}
        assert [e.src for e in index[(3, 1)]] == [2]
        # the last consuming step is the runtime's trailing drain round
        assert max(round_no for round_no, _ in index) == 3

    def test_to_dict_round_trips_the_edge_facts(self):
        row = edge(tag="expose/c0").to_dict()
        assert row == {
            "run": 1, "send_round": 1, "recv_round": 2, "src": 1, "dst": 2,
            "tag": "expose/c0", "phase": "expose", "elements": 1,
        }


class TestLiveCapture:
    """The graph of a live run's log against the run's own counters."""

    def test_coin_gen_depth_matches_round_model(self):
        graph, log, outputs, ctx = causal_coin_gen(GF2k(16))
        assert any(o.success for o in outputs.values())
        assert graph.depth(1) == predicted_rounds("coin_gen", t=1)
        # ... which is every round the run took but the empty drain round
        assert graph.depth(1) == ctx.metrics.rounds - 1
        assert len(graph.edges) == sent_deliveries(ctx)

    def test_coin_gen_depth_matches_round_model_at_t_2(self):
        graph, _, outputs, ctx = causal_coin_gen(GF2k(16), n=13, t=2)
        iterations = next(iter(outputs.values())).iterations
        assert graph.depth(1) == predicted_rounds("coin_gen", t=2,
                                                  iterations=iterations)
        assert graph.depth(1) == ctx.metrics.rounds - 1

    def test_expose_run_has_depth_one(self):
        graph, _, _, ctx = causal_coin_gen(GF2k(16), expose=True)
        assert graph.runs() == [1, 2]
        assert graph.depth(1) == predicted_rounds("coin_gen", t=1)
        assert graph.depth(2) == predicted_rounds("expose")
        assert len(graph.edges) == sent_deliveries(ctx)

    def test_fault_free_run_has_no_delayed_edges(self):
        """Every edge is consumed the round after it settled, and the
        log — the record of what was delayed — holds no fault at all."""
        graph, log, _, _ = causal_coin_gen(GF2k(16))
        assert all(e.recv_round == e.send_round + 1 for e in graph.edges)
        assert not log.faults

    def test_multi_run_delimiting_over_shared_bus(self):
        field = GF2k(16)
        ctx = ProtocolContext.create(field, n=7, t=1, seed=3)
        flight = FlightRecorder(n=7, t=1, field=field, seed=3)
        flight.attach(ctx)
        run_coin_gen(ctx, M=1, tag="one")
        run_coin_gen(ctx, M=1, tag="two")
        graph = graph_from_log(flight.log())
        assert graph.runs() == [1, 2]
        # same protocol, same structural shape in both runs
        assert graph.depth(1) == graph.depth(2)
        assert len(graph.edges_in_run(1)) == len(graph.edges_in_run(2))


class TestFaultSemantics:
    def test_dropped_emissions_are_recorded(self):
        """As ``drop`` fault events in the log — and as no edge."""
        plane = FaultPlane().drop(src=6)
        graph, log, _, _ = causal_coin_gen(GF2k(16), faults=plane)
        drops = [f for f in log.faults if f.kind == "drop"]
        assert drops and {f.src for f in drops} == {6}
        assert not any(e.src == 6 for e in graph.edges)

    def test_drop_does_not_break_offline_equality(self):
        """Edges == what the run sent minus what the plane dropped."""
        plane = FaultPlane().drop(src=6)
        graph, log, _, ctx = causal_coin_gen(GF2k(16), faults=plane)
        assert len(graph.edges) == (
            sent_deliveries(ctx) - fault_count(log, "drop")
        )

    def test_delay_is_attributed_to_the_round_it_settled_in(self):
        plane = FaultPlane().delay(src=2, dst=3, by=2, rounds=[2])
        graph, log, _, ctx = causal_coin_gen(GF2k(16), faults=plane)
        delays = [f for f in log.faults if f.kind == "delay"]
        assert delays, "the delay rule must surface as fault events"
        assert {(f.src, f.dst, f.round) for f in delays} == {(2, 3, 2)}
        # nothing is lost and nothing carries a second round number: the
        # late copies sit in round 4 = 2 + by, beside that round's own
        assert len(graph.edges) == sent_deliveries(ctx)
        assert all(e.recv_round == e.send_round + 1 for e in graph.edges)
        on_link = [e for e in graph.edges if (e.src, e.dst) == (2, 3)]
        assert not any(e.send_round == 2 for e in on_link)
        round_2_tags = {e.tag for e in graph.edges if e.send_round == 2}
        late = [e for e in on_link
                if e.send_round == 4 and e.tag in round_2_tags]
        assert len(late) == len(delays)

    def test_duplicate_second_copy_falls_back_like_offline(self):
        """Both copies are edges of the round they settled in."""
        plane = FaultPlane().duplicate(src=2, dst=5, rounds=[3])
        graph, log, _, ctx = causal_coin_gen(GF2k(16), faults=plane)
        copies = [e for e in graph.edges
                  if (e.src, e.dst, e.recv_round) == (2, 5, 4)]
        assert len(copies) >= 2
        assert len(graph.edges) == (
            sent_deliveries(ctx) + fault_count(log, "duplicate")
        )


class TestOfflineReconstruction:
    """The graph read off the log against the live run's counters."""

    @pytest.mark.parametrize("make_scheduler", [
        lambda: None,
        lambda: PermutedDeliveryScheduler(seed=9),
    ], ids=["lockstep", "permuted"])
    @pytest.mark.parametrize("make_field", [
        lambda: GF2k(16),
        lambda: GFp(2**31 - 1),
    ], ids=["gf2k16", "gfp_mersenne31"])
    @pytest.mark.parametrize("adversary", ["none", "crash", "equivocator"])
    def test_live_equals_offline(self, make_field, make_scheduler, adversary):
        n, t, seed = 7, 1, 3
        programs = (None if adversary == "none"
                    else scenario_programs(adversary, {4}, n, seed))
        graph, log, _, ctx = causal_coin_gen(
            make_field(), n=n, t=t, seed=seed,
            scheduler=make_scheduler(),
            faulty_programs=programs,
        )
        # live: what NetworkMetrics counted; offline: the log's graph
        assert len(graph.edges) == sent_deliveries(ctx)
        assert graph.depth(1) == ctx.metrics.rounds - 1
        assert {e.send_round for e in graph.edges} == set(
            range(1, ctx.metrics.rounds)
        )
        if adversary == "none":
            assert graph.depth(1) == predicted_rounds("coin_gen", t=t)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=8, deadline=None)
    def test_live_equals_offline_property(self, seed):
        graph, _, outputs, ctx = causal_coin_gen(GF2k(16), seed=seed,
                                                 expose=True)
        assert len(graph.edges) == sent_deliveries(ctx)
        iterations = next(iter(outputs.values())).iterations
        assert graph.depths() == {
            1: predicted_rounds("coin_gen", t=1, iterations=iterations),
            2: predicted_rounds("expose"),
        }

    def test_multi_run_reconstruction_keeps_run_boundaries(self):
        graph, log, _, ctx = causal_coin_gen(GF2k(16), expose=True)
        assert graph.runs() == log.runs() == [1, 2]
        # rounds restart per run; the two depths add up to every round
        # either run took, less one drain round each
        assert sum(graph.depths().values()) == ctx.metrics.rounds - 2


def _pairwise_nested_or_disjoint(intervals):
    """True iff every pair of (start, end) either nests or is disjoint."""
    for i, (s1, e1) in enumerate(intervals):
        for s2, e2 in intervals[i + 1:]:
            disjoint = e1 <= s2 or e2 <= s1
            nested = (s1 <= s2 and e2 <= e1) or (s2 <= s1 and e1 <= e2)
            if not (disjoint or nested):
                return False
    return True


class TestChromeLanes:
    def test_player_lanes_are_well_formed(self):
        """Under a permuted schedule every Chrome trace lane still holds
        nested or disjoint slices."""
        recorder = SpanRecorder()
        causal_coin_gen(
            GF2k(16), scheduler=PermutedDeliveryScheduler(seed=9),
            span_recorder=recorder, M=2,
        )
        trace = json.loads(to_chrome_trace(recorder))
        lanes = {}
        for event in trace["traceEvents"]:
            if event.get("ph") == "X":
                lanes.setdefault(event["tid"], []).append(
                    (event["ts"], event["ts"] + event["dur"])
                )
        assert lanes, "the trace must contain complete events"
        for tid, intervals in lanes.items():
            assert _pairwise_nested_or_disjoint(intervals), (
                f"lane {tid} has partially overlapping spans"
            )


class TestZeroCostDiscipline:
    def test_run_without_causal_recorder_is_byte_identical(self):
        """The flight recorder a graph is read off only reads what the
        runtime hands it; an unmonitored run must be bit-for-bit
        unchanged."""
        def run(with_recorder):
            ctx = ProtocolContext.create(GF2k(16), n=7, t=1, seed=11)
            if with_recorder:
                FlightRecorder(n=7, t=1).attach(ctx)
            outputs, metrics = run_coin_gen(ctx, M=2, tag="cg")
            shaped = {
                pid: (o.success, o.clique, o.iterations, o.seed_coins_used,
                      ctx.field.to_int(o.challenge)
                      if o.challenge is not None else None)
                for pid, o in outputs.items()
            }
            return (shaped, metrics.rounds, metrics.unicast_messages,
                    metrics.broadcast_messages, metrics.bits)

        assert run(False) == run(True)
