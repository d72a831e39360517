"""The liveness observatory (DESIGN.md §12).

Covers the guard wait-state telemetry end to end:

* :class:`~repro.net.guards.Wait` progress/matched/missing helpers;
* the GUARD_ARMED / GUARD_PROGRESS / GUARD_FIRED / POOL topics on both
  runtimes, and the byte-identity of unmonitored runs (flight-log
  equality — the same zero-cost contract as the PR 5 ``"sent"`` topic);
* :class:`~repro.obs.liveness.QuorumLatencyRecorder` — armed→fired
  latency, pivotal-sender attribution, pool gauges, and the cost-model
  what-if composition;
* :class:`~repro.obs.liveness.StallWatchdog` — crash-induced vs
  unexplained-withholding classification across a 20-seed crash sweep
  and a withholding adversary;
* the fault-free liveness conformance audit (zero stalls, quorum-exact
  firing);
* op-priced async span attribution — coverage ≥ 95 % and
  ``critical_path`` pricing async DAGs from recorder op deltas.
"""

import random

import pytest

from repro.fields import GF2k
from repro.net import AsyncRuntime, RandomOrderScheduler, Wait
from repro.net.guards import guarded, wait_any
from repro.net.simulator import SynchronousNetwork
from repro.obs import (
    QuorumLatencyRecorder,
    SpanRecorder,
    StallWatchdog,
    audit_liveness,
    default_threshold,
    to_prometheus,
)
from repro.obs.bus import (
    FAULT,
    GUARD_ARMED,
    GUARD_FIRED,
    GUARD_PROGRESS,
    POOL,
    RUN,
    EventBus,
)
from repro.obs.causality import graph_from_log
from repro.obs.critical_path import critical_path, ops_from_recorder
from repro.obs.flight import FlightRecorder, diff
from repro.protocols.async_coin import async_coin_program, run_async_coin
from repro.protocols.coin_expose import make_dealer_coin

FIELD = GF2k(8)


# -- guard helpers -----------------------------------------------------------

class TestWaitHelpers:
    INBOX = {
        1: [("a", 1)],
        2: [("b", 2)],
        3: [("a", 3), ("b", 4)],
        "rush_peek": [("a", 0)],
    }

    def test_matched_senders_are_sorted_distinct_ints(self):
        wait = Wait(("a",), quorum=2)
        assert wait.matched_senders(self.INBOX) == (1, 3)

    def test_progress_counts_against_quorum(self):
        assert Wait(("a",), quorum=2).progress(self.INBOX) == (2, 2)
        assert Wait(("b",), quorum=3).progress(self.INBOX) == (2, 3)

    def test_missing_senders_names_the_gap(self):
        assert Wait(("b",), quorum=3).missing_senders(self.INBOX, 4) == (1, 4)

    def test_any_wait_reports_closest_branch(self):
        both = wait_any(Wait(("a",), quorum=3), Wait(("b",), quorum=2))
        # "b" needs 0 more senders vs 1 for "a": it is the closest branch
        assert both.progress(self.INBOX) == (2, 2)
        assert both.matched_senders(self.INBOX) == (2, 3)
        assert both.missing_senders(self.INBOX, 4) == (1, 4)


# -- topic publication -------------------------------------------------------

def _topic_log(bus, topics):
    events = []
    for topic in topics:
        bus.subscribe(
            topic, (lambda t: lambda *a: events.append((t,) + a))(topic)
        )
    return events


class TestLivenessTopics:
    def test_async_armed_progress_fired_sequence(self):
        bus = EventBus()
        events = _topic_log(bus, (GUARD_ARMED, GUARD_PROGRESS, GUARD_FIRED))
        run_async_coin(FIELD, 7, 2, seed=13, bus=bus,
                       scheduler=RandomOrderScheduler(3))
        armed = [e for e in events if e[0] == GUARD_ARMED]
        fired = [e for e in events if e[0] == GUARD_FIRED]
        assert {e[2] for e in armed} == set(range(1, 8))
        assert all(e[1] == 0 for e in armed[:7])  # priming arms at t=0
        by_pid = {}
        for event in events:
            topic, time, pid = event[0], event[1], event[2]
            by_pid.setdefault(pid, []).append((topic, time))
        for pid, seq in by_pid.items():
            # armed precedes fired, logical times never go backwards
            assert seq[0][0] == GUARD_ARMED
            times = [time for _, time in seq]
            assert times == sorted(times)
        for _, time, pid, guard, senders in fired:
            assert len(senders) == guard.quorum
            assert all(1 <= s <= 7 for s in senders)

    def test_pool_gauge_tracks_in_flight_depth(self):
        bus = EventBus()
        events = _topic_log(bus, (POOL,))
        run_async_coin(FIELD, 7, 2, seed=13, bus=bus,
                       scheduler=RandomOrderScheduler(3))
        assert events, "POOL events published while subscribed"
        depths = [depth for _, _, depth, _ in events]
        assert max(depths) > 0
        # the run stops once every waited player decoded — leftover
        # in-flight traffic is legal, but the pool must have shrunk
        assert depths[-1] < max(depths)
        for _, _, depth, backlog in events:
            assert sum(backlog.values()) == depth

    def test_lockstep_publishes_armed_and_fired(self):
        bus = EventBus()
        events = _topic_log(bus, (GUARD_ARMED, GUARD_PROGRESS, GUARD_FIRED))
        secret, shares = make_dealer_coin(FIELD, 7, 2, "c", random.Random(5))
        net = SynchronousNetwork(7, field=FIELD, bus=bus)
        outputs = net.run({
            pid: async_coin_program(FIELD, 7, pid, shares[pid])
            for pid in range(1, 8)
        })
        assert set(outputs.values()) == {secret}
        assert any(e[0] == GUARD_ARMED for e in events)
        assert any(e[0] == GUARD_PROGRESS for e in events)
        assert any(e[0] == GUARD_FIRED for e in events)


# -- byte-identity of unmonitored runs ---------------------------------------

class TestByteIdentity:
    def _async_run(self, monitored):
        bus = EventBus()
        flight = FlightRecorder(n=7, t=2, field=FIELD, seed=0).attach(bus)
        if monitored:
            QuorumLatencyRecorder().attach(bus)
            StallWatchdog(7).attach(bus)
        outputs, secret, runtime = run_async_coin(
            FIELD, 7, 2, seed=13, bus=bus,
            scheduler=RandomOrderScheduler(5),
        )
        return outputs, runtime, flight.log()

    def test_async_monitored_run_is_byte_identical(self):
        """Liveness observers change nothing the protocol can see."""
        plain_out, plain_rt, plain_log = self._async_run(monitored=False)
        seen_out, seen_rt, seen_log = self._async_run(monitored=True)
        assert plain_out == seen_out
        assert plain_rt.delivery_count == seen_rt.delivery_count
        assert plain_rt.logical_time == seen_rt.logical_time
        assert diff(plain_log, seen_log) is None

    def _lockstep_run(self, monitored):
        bus = EventBus()
        flight = FlightRecorder(n=7, t=2, field=FIELD, seed=0).attach(bus)
        if monitored:
            QuorumLatencyRecorder().attach(bus)
            StallWatchdog(7).attach(bus)
        secret, shares = make_dealer_coin(FIELD, 7, 2, "c", random.Random(5))
        net = SynchronousNetwork(7, field=FIELD, bus=bus)
        outputs = net.run({
            pid: async_coin_program(FIELD, 7, pid, shares[pid])
            for pid in range(1, 8)
        })
        return outputs, net.metrics.rounds, flight.log()

    def test_lockstep_monitored_run_is_byte_identical(self):
        plain_out, plain_rounds, plain_log = self._lockstep_run(False)
        seen_out, seen_rounds, seen_log = self._lockstep_run(True)
        assert plain_out == seen_out
        assert plain_rounds == seen_rounds
        assert diff(plain_log, seen_log) is None


# -- quorum latency attribution ----------------------------------------------

class TestQuorumLatencyRecorder:
    def _observed_run(self, sched_seed=3, crashed=(), threshold=None):
        bus = EventBus()
        latency = QuorumLatencyRecorder().attach(bus)
        watchdog = StallWatchdog(7, threshold=threshold).attach(bus)
        outputs, secret, runtime = run_async_coin(
            FIELD, 7, 2, seed=13, bus=bus,
            scheduler=RandomOrderScheduler(sched_seed), crashed=crashed,
        )
        return latency, watchdog, outputs

    def test_every_guard_fires_with_positive_latency(self):
        latency, _, _ = self._observed_run()
        records = latency.waits()
        assert len(records) == 7
        assert all(r.fired for r in records)
        assert all(r.wait_time > 0 for r in records)
        assert latency.max_wait() >= latency.mean_wait() > 0

    def test_pivotal_sender_is_a_recorded_arrival(self):
        latency, _, _ = self._observed_run()
        for record in latency.fired_records():
            assert record.pivotal in {src for _, src in record.arrivals}
            assert record.pivotal in record.senders
        counts = latency.pivotal_counts()
        assert sum(counts.values()) == 7

    def test_pool_gauges_accumulate(self):
        latency, _, _ = self._observed_run()
        assert latency.pool_peak > 0
        assert latency.backlog_peak.get("multicast", 0) == latency.pool_peak

    def test_exports_parse(self):
        latency, watchdog, _ = self._observed_run(threshold=3)
        samples = dict(
            line.rsplit(" ", 1)
            for line in to_prometheus(liveness=latency,
                                      watchdog=watchdog).splitlines()
            if not line.startswith("#")
        )
        assert samples['repro_guard_waits_total{state="fired"}'] == "7"
        assert samples["repro_guard_wait_ticks_count"] == "7"
        assert samples["repro_pool_depth_peak"] == str(latency.pool_peak)
        assert samples["repro_watchdog_threshold_ticks"] == "3"


# -- the conformance audit ---------------------------------------------------

class TestLivenessAudit:
    @pytest.mark.parametrize("sched_seed", range(6))
    def test_fault_free_runs_are_clean(self, sched_seed):
        """Zero stalls, zero unfired guards, quorum-exact firing."""
        bus = EventBus()
        latency = QuorumLatencyRecorder().attach(bus)
        watchdog = StallWatchdog(7).attach(bus)
        run_async_coin(FIELD, 7, 2, seed=13, bus=bus,
                       scheduler=RandomOrderScheduler(sched_seed))
        report = audit_liveness(latency, watchdog)
        assert report.ok, report.table()
        for record in latency.waits():
            assert record.fired
            assert len(record.senders) == record.quorum

    def test_every_player_arms_one_guard_per_coin(self):
        """A session of fault-free coins: coins x n waits, none stalled."""
        coins, n = 4, 7
        bus = EventBus()
        latency = QuorumLatencyRecorder().attach(bus)
        watchdog = StallWatchdog(n).attach(bus)
        for index in range(coins):
            outputs, secret, _ = run_async_coin(
                FIELD, n, 2, seed=index, bus=bus,
                scheduler=RandomOrderScheduler(100 + index))
            assert set(outputs.values()) == {secret}
        assert len(latency.waits()) == coins * n
        assert all(record.fired for record in latency.waits())
        assert not watchdog.stalls

    def test_audit_flags_unfired_guards(self):
        latency = QuorumLatencyRecorder()
        latency.run_count = 1
        latency._on_armed(0, 3, Wait(("x",), quorum=5))
        report = audit_liveness(latency)
        assert not report.ok

    def test_default_threshold_scales_quadratically(self):
        assert default_threshold(7) == 196
        assert default_threshold(10) == 400


# -- the stall watchdog ------------------------------------------------------

class TestStallWatchdog:
    @pytest.mark.parametrize("seed", range(20))
    def test_crash_sweep_classifies_every_stall(self, seed):
        """20-seed sweep: every stall is crash-induced, naming the crash."""
        rng = random.Random(seed * 31 + 7)
        victim = rng.choice(range(1, 8))
        bus = EventBus()
        watchdog = StallWatchdog(7, threshold=3).attach(bus)
        outputs, secret, _ = run_async_coin(
            FIELD, 7, 2, seed=99, bus=bus,
            scheduler=RandomOrderScheduler(seed), crashed={victim},
        )
        assert set(outputs.values()) == {secret}
        assert watchdog.stalls, "threshold 3 must flag real quorum waits"
        assert watchdog.unexplained() == []
        for stall in watchdog.stalls:
            assert stall.classification == "crash"
            assert victim in stall.crashed_missing
            assert victim in stall.missing
            assert stall.waited > 3
            assert stall.resolved_at is not None  # the run still finished

    def test_classification_happens_at_detection_time(self):
        """Online semantics: a later crash doesn't rewrite old verdicts."""
        bus = EventBus()
        watchdog = StallWatchdog(3, threshold=2).attach(bus)
        bus.publish(RUN, 3)
        bus.publish(GUARD_ARMED, 0, 1, Wait(("x",), quorum=2))
        bus.publish(POOL, 3, 1, {"unicast": 1})  # tick 3 > threshold 2
        assert [s.classification for s in watchdog.stalls] == ["unexplained"]
        bus.publish(FAULT, 5, "crash", 2, 0)
        bus.publish(GUARD_ARMED, 5, 3, Wait(("x",), quorum=2))
        bus.publish(POOL, 9, 1, {"unicast": 1})
        assert len(watchdog.stalls) == 2
        assert watchdog.stalls[1].classification == "crash"
        assert watchdog.stalls[1].crashed_missing == (2,)
        # the first stall keeps its at-detection verdict
        assert watchdog.stalls[0].classification == "unexplained"

    def test_withholding_adversary_is_unexplained(self):
        """A live-but-silent player shows up as unexplained withholding."""
        withholder = 4
        secret, shares = make_dealer_coin(FIELD, 7, 2, "w", random.Random(3))
        tag = "expose/w"

        def silent_program():
            while True:
                yield guarded([], tags=tag, quorum=7)  # receive, never send

        programs = {
            pid: (silent_program() if pid == withholder
                  else async_coin_program(FIELD, 7, pid, shares[pid]))
            for pid in range(1, 8)
        }
        bus = EventBus()
        watchdog = StallWatchdog(7, threshold=3).attach(bus)
        runtime = AsyncRuntime(7, field=FIELD, bus=bus,
                               scheduler=RandomOrderScheduler(2))
        outputs = runtime.run(
            programs, wait_for=[p for p in programs if p != withholder]
        )
        assert set(outputs.values()) == {secret}
        assert watchdog.stalls
        assert watchdog.crash_induced() == []
        for stall in watchdog.stalls:
            assert stall.classification == "unexplained"
            assert stall.crashed_missing == ()
            if stall.pid != withholder:
                assert withholder in stall.missing
                assert withholder not in stall.senders


# -- op-priced async span attribution ----------------------------------------

class TestAsyncSpanPricing:
    def _recorded_run(self, sched_seed):
        recorder = SpanRecorder()
        bus = EventBus()
        flight = FlightRecorder(n=7, t=2).attach(bus)
        run_async_coin(FIELD, 7, 2, seed=13, bus=bus, recorder=recorder,
                       scheduler=RandomOrderScheduler(sched_seed))
        return recorder, graph_from_log(flight.log())

    def test_coverage_is_at_least_95_percent(self):
        """Round spans attribute (nearly) the whole async protocol span."""
        best = max(
            self._recorded_run(seed)[0].coverage() for seed in range(3)
        )
        assert best >= 0.95, f"span coverage {best:.3f} < 0.95"

    def test_ops_from_recorder_prices_the_async_dag(self):
        recorder, graph = self._recorded_run(1)
        step_ops, run_labels = ops_from_recorder(recorder)
        assert run_labels == {1: "async_coin"}
        assert step_ops, "async round spans must carry per-step op deltas"
        # the n - t = 5 decoding players each record an interpolation
        interps = sum(ops.get("interpolations", 0) for ops in step_ops.values())
        assert interps >= 5
        # step rounds align with the causal DAG's logical times
        step_rounds = {round_no for _, round_no, _ in step_ops}
        assert max(step_rounds) <= max(
            edge.recv_round for edge in graph.edges
        )
        priced = critical_path(graph, step_ops=step_ops)
        structural = critical_path(graph)
        assert priced.makespan >= structural.makespan
