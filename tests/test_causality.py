"""Happens-before graphs: live capture vs. offline reconstruction.

The causal layer has one invariant worth a property test — the DAG
rebuilt offline from a flight log equals the one captured live off the
event bus, across schedulers, fields, and adversaries (delay faults are
the documented exception: only live capture knows true origin rounds).
On top of that: run delimiting, drop/delay/duplicate semantics, the
structural-depth = ``predicted_rounds`` acceptance bound, the Chrome
flow-arrow overlay, and the zero-cost discipline (attaching a causal
recorder never perturbs the run it observes).
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
from repro.net.transport import BROADCAST, MULTICAST, UNICAST
from repro.obs import SpanRecorder, to_chrome_trace
from repro.obs.causality import (
    CausalGraph,
    CausalRecorder,
    MessageEdge,
    graph_from_log,
)
from repro.obs.critical_path import critical_path
from repro.obs.flight import FlightRecorder
from repro.protocols.coin_gen import expose_coin, run_coin_gen
from repro.protocols.context import ProtocolContext

from tests.test_forensics import scenario_programs

KNOWN_CHANNELS = {UNICAST, MULTICAST, BROADCAST}


def causal_coin_gen(field, n=7, t=1, seed=3, scheduler=None, faults=None,
                    M=1, span_recorder=None, expose=False, **kwargs):
    """One Coin-Gen run captured both live and to a flight log."""
    extra = {} if span_recorder is None else {"recorder": span_recorder}
    ctx = ProtocolContext.create(field, n=n, t=t, seed=seed,
                                 scheduler=scheduler, faults=faults, **extra)
    bus = ctx.ensure_bus()
    causal = CausalRecorder(n=n).attach(bus)
    flight = FlightRecorder(n=n, t=t, field=field, seed=seed)
    flight.attach(bus)
    outputs, _ = run_coin_gen(ctx, M=M, tag="cg", **kwargs)
    if expose:
        expose_coin(ctx, outputs=outputs, h=0)
    return causal.graph(), flight.log(), outputs, ctx


def edge(run=1, send=1, recv=2, src=1, dst=2, tag="syn/x", elements=1,
         channel="?"):
    return MessageEdge(run=run, send_round=send, recv_round=recv, src=src,
                       dst=dst, tag=tag, elements=elements, channel=channel)


class TestGraphSemantics:
    def test_depth_is_longest_message_chain(self):
        graph = CausalGraph(n=3)
        # chain 1->2->3 plus an unrelated single edge
        graph.add(edge(send=1, recv=2, src=1, dst=2))
        graph.add(edge(send=2, recv=3, src=2, dst=3))
        graph.add(edge(send=1, recv=2, src=3, dst=1))
        assert graph.depth(1) == 2
        assert graph.depths() == {1: 2}

    def test_depth_respects_causality_not_round_count(self):
        # two edges in disjoint rounds whose tail cannot feed the head
        graph = CausalGraph(n=3)
        graph.add(edge(send=1, recv=2, src=1, dst=2))
        graph.add(edge(send=2, recv=3, src=3, dst=1))  # src 3 got nothing
        assert graph.depth(1) == 1

    def test_delayed_edge_chains_from_true_origin(self):
        # a delayed arrival still only extends chains ending at or
        # before its *send* round
        graph = CausalGraph(n=3)
        graph.add(edge(send=1, recv=2, src=1, dst=2))
        graph.add(edge(send=1, recv=4, src=2, dst=3))  # delayed, origin 1
        assert graph.edges[1].delayed
        assert graph.depth(1) == 1

    def test_equality_ignores_channel_annotation(self):
        a = CausalGraph(n=2, edges=[edge(channel=UNICAST)])
        b = CausalGraph(n=2, edges=[edge(channel="?")])
        assert a == b
        assert a.canonical() == b.canonical()

    def test_equality_is_order_insensitive_but_payload_sensitive(self):
        e1, e2 = edge(src=1, dst=2), edge(src=2, dst=1)
        assert CausalGraph(n=2, edges=[e1, e2]) == CausalGraph(
            n=2, edges=[e2, e1]
        )
        assert CausalGraph(n=2, edges=[e1]) != CausalGraph(
            n=2, edges=[edge(src=1, dst=2, elements=9)]
        )

    def test_in_edges_and_last_round(self):
        graph = CausalGraph(n=2, edges=[edge(send=1, recv=2, src=1, dst=2),
                                        edge(send=2, recv=3, src=2, dst=1)])
        assert set(graph.in_edges(1)) == {(2, 2), (3, 1)}
        assert graph.last_round(1) == 3

    def test_to_dict_round_trips_the_edge_facts(self):
        graph = CausalGraph(n=2, edges=[edge(tag="expose/c0",
                                             channel=UNICAST)])
        payload = graph.to_dict()
        assert payload["depths"] == {"1": 1}
        (row,) = payload["edges"]
        assert row["tag"] == "expose/c0"
        assert row["phase"] == "expose"
        assert row["channel"] == UNICAST
        assert row["delayed"] is False


class TestLiveCapture:
    def test_coin_gen_depth_matches_round_model(self):
        graph, _, outputs, _ = causal_coin_gen(GF2k(16))
        assert any(o.success for o in outputs.values())
        assert graph.depth(1) == predicted_rounds("coin_gen", t=1)
        assert not graph.dropped

    def test_expose_run_has_depth_one(self):
        graph, _, _, _ = causal_coin_gen(GF2k(16), expose=True)
        assert graph.runs() == [1, 2]
        assert graph.depth(1) == predicted_rounds("coin_gen", t=1)
        assert graph.depth(2) == predicted_rounds("expose")

    def test_channels_are_known_on_live_capture(self):
        graph, _, _, _ = causal_coin_gen(GF2k(16))
        channels = {e.channel for e in graph.edges}
        assert channels <= KNOWN_CHANNELS
        assert UNICAST in channels  # dealing rounds are pairwise

    def test_fault_free_run_has_no_delayed_edges(self):
        graph, _, _, _ = causal_coin_gen(GF2k(16))
        assert not any(e.delayed for e in graph.edges)

    def test_multi_run_delimiting_over_shared_bus(self):
        field = GF2k(16)
        ctx = ProtocolContext.create(field, n=7, t=1, seed=3)
        causal = CausalRecorder(n=7).attach(ctx.ensure_bus())
        run_coin_gen(ctx, M=1, tag="one")
        run_coin_gen(ctx, M=1, tag="two")
        graph = causal.graph()
        assert graph.runs() == [1, 2]
        # same protocol, same structural shape in both runs
        assert graph.depth(1) == graph.depth(2)


class TestFaultSemantics:
    def test_dropped_emissions_are_recorded(self):
        plane = FaultPlane().drop(src=6)
        graph, _, _, _ = causal_coin_gen(GF2k(16), faults=plane)
        assert graph.dropped
        assert {d.src for d in graph.dropped} == {6}
        assert not any(e.src == 6 for e in graph.edges)

    def test_drop_does_not_break_offline_equality(self):
        # dropped emissions are a live-only extra; the *edge* sets agree
        plane = FaultPlane().drop(src=6)
        graph, log, _, _ = causal_coin_gen(GF2k(16), faults=plane)
        assert graph == graph_from_log(log)

    def test_delay_keeps_true_origin_round_live_only(self):
        plane = FaultPlane().delay(src=2, dst=3, by=2, rounds=[2])
        graph, log, _, _ = causal_coin_gen(GF2k(16), faults=plane)
        delayed = [e for e in graph.edges if e.delayed]
        assert delayed, "the delay rule must surface as delayed edges"
        for e in delayed:
            assert (e.src, e.dst) == (2, 3)
            assert e.send_round == 2
            assert e.recv_round == e.send_round + 2 + 1
        # the flight log only saw the settle round: origins differ, so
        # the offline graph is *documented* to diverge under delay
        offline = graph_from_log(log)
        assert not any(e.delayed for e in offline.edges)
        assert graph != offline

    def test_duplicate_second_copy_falls_back_like_offline(self):
        plane = FaultPlane().duplicate(src=2, dst=5, rounds=[3])
        graph, log, _, _ = causal_coin_gen(GF2k(16), faults=plane)
        copies = [e for e in graph.edges
                  if (e.src, e.dst, e.recv_round) == (2, 5, 4)]
        assert len(copies) >= 2
        assert any(e.channel == "?" for e in copies)  # unmatched extra
        # both copies carry the settle round, so offline still agrees
        assert graph == graph_from_log(log)


class TestOfflineReconstruction:
    """Satellite: flight-log replay rebuilds the live DAG exactly."""

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
        graph, log, _, _ = causal_coin_gen(
            make_field(), n=n, t=t, seed=seed,
            scheduler=make_scheduler(),
            faulty_programs=programs,
        )
        offline = graph_from_log(log)
        assert graph == offline
        assert graph.depths() == offline.depths()

    @given(seed=st.integers(0, 50))
    @settings(max_examples=8, deadline=None)
    def test_live_equals_offline_property(self, seed):
        graph, log, _, _ = causal_coin_gen(GF2k(16), seed=seed, expose=True)
        assert graph == graph_from_log(log)

    def test_multi_run_reconstruction_keeps_run_boundaries(self):
        graph, log, _, _ = causal_coin_gen(GF2k(16), expose=True)
        offline = graph_from_log(log)
        assert offline.runs() == [1, 2]
        assert offline.depths() == graph.depths()


def _pairwise_nested_or_disjoint(intervals):
    """True iff every pair of (start, end) either nests or is disjoint."""
    for i, (s1, e1) in enumerate(intervals):
        for s2, e2 in intervals[i + 1:]:
            disjoint = e1 <= s2 or e2 <= s1
            nested = (s1 <= s2 and e2 <= e1) or (s2 <= s1 and e1 <= e2)
            if not (disjoint or nested):
                return False
    return True


class TestChromeFlowOverlay:
    """Satellite: flow arrows + well-formed lanes under permutation."""

    def _trace(self, flows):
        recorder = SpanRecorder()
        graph, _, _, _ = causal_coin_gen(
            GF2k(16), scheduler=PermutedDeliveryScheduler(seed=9),
            span_recorder=recorder, M=2,
        )
        return graph, json.loads(
            to_chrome_trace(recorder, graph=graph, flows=flows)
        )

    def test_player_lanes_are_well_formed(self):
        _, trace = self._trace("all")
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

    def test_flow_events_pair_up_and_point_forward(self):
        _, trace = self._trace("all")
        flows = [e for e in trace["traceEvents"] if e.get("cat") == "flow"]
        assert flows
        by_id = {}
        for event in flows:
            by_id.setdefault(event["id"], {})[event["ph"]] = event
        for pair in by_id.values():
            assert set(pair) == {"s", "f"}
            assert pair["f"]["bp"] == "e"
            assert pair["s"]["ts"] <= pair["f"]["ts"]

    def test_critical_mode_draws_only_the_bounding_chain(self):
        graph, trace = self._trace("critical")
        flows = [e for e in trace["traceEvents"]
                 if e.get("cat") == "flow" and e["ph"] == "s"]
        result = critical_path(graph)
        expected = sum(
            1 for run in result.runs for step in run.path
            if step.via is not None
        )
        assert len(flows) == expected

    def test_none_mode_draws_no_arrows(self):
        _, trace = self._trace("none")
        assert not any(e.get("cat") == "flow" for e in trace["traceEvents"])


class TestZeroCostDiscipline:
    def test_run_without_causal_recorder_is_byte_identical(self):
        """The SENT topic only publishes while subscribed; an
        unmonitored run must be bit-for-bit unchanged."""
        def run(with_recorder):
            ctx = ProtocolContext.create(GF2k(16), n=7, t=1, seed=11)
            if with_recorder:
                CausalRecorder(n=7).attach(ctx.ensure_bus())
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
