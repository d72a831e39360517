"""Liveness as views of a flight log (DESIGN.md §12).

Covers the guard facts a log records and everything derived from them:

* :class:`~repro.net.guards.Wait` progress/matched/missing helpers;
* the ``armed`` / ``fired`` guard lines both runtimes hand the flight
  recorder, and the byte-identity of the delivery stream whether or not
  they are recorded;
* :func:`~repro.obs.liveness.wait_records` — armed→fired latency,
  pivotal-sender attribution, the Prometheus families built on them;
* :func:`~repro.obs.liveness.stalls` — crash-induced vs unexplained
  withholding across a 20-seed crash sweep and a withholding
  adversary, and the declarative rule (a wait stalls iff its run's
  clock reached ``armed_at + threshold + 1`` before it fired);
* live == offline: both views equal, field for field, what the live
  recorders they replaced recorded on every async scenario below
  (digests recorded with those subscribers, before they were deleted),
  from the in-memory log and after a serialization round trip;
* the fault-free liveness conformance audit (zero stalls, quorum-exact
  firing);
* op-priced async span attribution — coverage ≥ 95 % and
  ``critical_path`` pricing async DAGs from recorder op deltas.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from repro.fields import GF2k
from repro.net import AsyncRuntime, FaultPlane, RandomOrderScheduler, Wait
from repro.net.guards import guarded, wait_any
from repro.net.simulator import SynchronousNetwork
from repro.obs import (
    SpanRecorder,
    audit_liveness,
    default_threshold,
    stalls,
    to_prometheus,
    wait_records,
)
from repro.obs.causality import graph_from_log
from repro.obs.critical_path import critical_path, ops_from_recorder
from repro.obs.flight import FlightLog, FlightRecorder, diff
from repro.obs.liveness import pivotal_counts
from repro.protocols.async_coin import async_coin_program, run_async_coin
from repro.protocols.broadcast import run_reliable_broadcast
from repro.protocols.coin_expose import make_dealer_coin
from repro.protocols.context import ProtocolContext

FIELD = GF2k(8)


def _recorded(n=7):
    """A fresh flight recorder for an ``n``-player run."""
    return FlightRecorder(n=n, t=2)


def _log(*events, n=3):
    """A hand-written flight log: a header, a run marker, ``events``."""
    lines = [{"flight": 1, "n": n, "t": 0}, {"e": "run", "i": 0}]
    lines += [dict(event, i=index, run=1)
              for index, event in enumerate(events, start=1)]
    return FlightLog.loads("\n".join(map(json.dumps, lines)) + "\n")


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


# -- guard lines -------------------------------------------------------------

class TestLivenessTopics:
    def test_async_armed_fired_sequence(self):
        flight = _recorded()
        run_async_coin(FIELD, 7, 2, seed=13, flight=flight,
                       scheduler=RandomOrderScheduler(3))
        events = flight.log().guards
        armed = [e for e in events if e.waits]
        fired = [e for e in events if not e.waits]
        assert {e.pid for e in armed} == set(range(1, 8))
        assert all(e.round == 0 for e in armed[:7])  # priming arms at t=0
        by_pid = {}
        for event in events:
            by_pid.setdefault(event.pid, []).append(event)
        for pid, seq in by_pid.items():
            # armed precedes fired, logical times never go backwards
            assert seq[0].waits
            times = [event.round for event in seq]
            assert times == sorted(times)
        assert fired

    def test_lockstep_publishes_armed_and_fired(self):
        flight = _recorded()
        secret, shares = make_dealer_coin(FIELD, 7, 2, "c", random.Random(5))
        net = SynchronousNetwork(7, field=FIELD, flight=flight)
        outputs = net.run({
            pid: async_coin_program(FIELD, 7, pid, shares[pid])
            for pid in range(1, 8)
        })
        assert set(outputs.values()) == {secret}
        assert any(e.waits for e in flight.log().guards)
        assert any(not e.waits for e in flight.log().guards)


# -- byte-identity of unmonitored runs ---------------------------------------

class TestByteIdentity:
    """Recording the guard lines changes nothing the protocol can see:
    the delivery stream of a run whose recorder ignores them is the
    same."""

    def _recording(self, guards):
        flight = FlightRecorder(n=7, t=2, field=FIELD, seed=0)
        if not guards:
            flight.on_guard = lambda *_args: None
        return flight

    def test_async_monitored_run_is_byte_identical(self):
        runs = []
        for guards in (False, True):
            flight = self._recording(guards)
            outputs, secret, runtime = run_async_coin(
                FIELD, 7, 2, seed=13, flight=flight,
                scheduler=RandomOrderScheduler(5),
            )
            runs.append((outputs, runtime.delivery_count,
                         runtime.logical_time, flight.log()))
        plain, seen = runs
        assert plain[:3] == seen[:3]
        assert not plain[3].guards and seen[3].guards
        assert diff(plain[3], seen[3]) is None

    def test_lockstep_monitored_run_is_byte_identical(self):
        runs = []
        for guards in (False, True):
            flight = self._recording(guards)
            secret, shares = make_dealer_coin(FIELD, 7, 2, "c",
                                              random.Random(5))
            net = SynchronousNetwork(7, field=FIELD, flight=flight)
            outputs = net.run({
                pid: async_coin_program(FIELD, 7, pid, shares[pid])
                for pid in range(1, 8)
            })
            runs.append((outputs, net.metrics.rounds, flight.log()))
        plain, seen = runs
        assert plain[:2] == seen[:2]
        assert not plain[2].guards and seen[2].guards
        assert diff(plain[2], seen[2]) is None


# -- quorum latency attribution ----------------------------------------------

class TestQuorumLatencyRecorder:
    """:func:`wait_records` — what ``QuorumLatencyRecorder`` recorded live."""

    def _observed_log(self, sched_seed=3, crashed=()):
        flight = _recorded()
        run_async_coin(FIELD, 7, 2, seed=13, flight=flight,
                       scheduler=RandomOrderScheduler(sched_seed),
                       crashed=crashed)
        return flight.log()

    def test_every_guard_fires_with_positive_latency(self):
        records = wait_records(self._observed_log())
        assert len(records) == 7
        assert all(r.fired for r in records)
        waits = [r.wait_time for r in records]
        assert min(waits) > 0
        assert max(waits) >= sum(waits) / len(waits) > 0

    def test_pivotal_sender_is_a_recorded_arrival(self):
        records = wait_records(self._observed_log())
        for record in records:
            assert record.pivotal in {src for _, src in record.arrivals}
            assert record.pivotal in record.senders
        assert sum(pivotal_counts(records).values()) == 7

    def test_exports_parse(self):
        samples = dict(
            line.rsplit(" ", 1)
            for line in to_prometheus(liveness=self._observed_log(),
                                      watchdog=3).splitlines()
            if not line.startswith("#")
        )
        assert samples['repro_guard_waits_total{state="fired"}'] == "7"
        assert samples["repro_guard_wait_ticks_count"] == "7"
        assert samples["repro_watchdog_threshold_ticks"] == "3"
        assert not any(name.startswith("repro_pool_") for name in samples)


# -- the conformance audit ---------------------------------------------------

class TestLivenessAudit:
    @pytest.mark.parametrize("sched_seed", range(6))
    def test_fault_free_runs_are_clean(self, sched_seed):
        """Zero stalls, zero unfired guards, quorum-exact firing."""
        flight = _recorded()
        run_async_coin(FIELD, 7, 2, seed=13, flight=flight,
                       scheduler=RandomOrderScheduler(sched_seed))
        log = flight.log()
        report = audit_liveness(log, default_threshold(7))
        assert report.ok, report.table()
        for record in wait_records(log):
            assert record.fired
            assert len(record.senders) == record.quorum

    def test_every_player_arms_one_guard_per_coin(self):
        """A session of fault-free coins: coins x n waits, none stalled."""
        coins, n = 4, 7
        flight = _recorded(n)
        for index in range(coins):
            outputs, secret, _ = run_async_coin(
                FIELD, n, 2, seed=index, flight=flight,
                scheduler=RandomOrderScheduler(100 + index))
            assert set(outputs.values()) == {secret}
        records = wait_records(flight.log())
        assert len(records) == coins * n
        assert all(record.fired for record in records)
        assert [record.run for record in records[::n]] == [1, 2, 3, 4]
        assert not stalls(flight.log())

    def test_audit_flags_unfired_guards(self):
        log = _log({"e": "armed", "r": 0, "pid": 3, "w": [[["x"], 5]]}, n=7)
        assert not audit_liveness(log).ok

    def test_default_threshold_scales_quadratically(self):
        assert default_threshold(7) == 196
        assert default_threshold(10) == 400


# -- the stall watchdog ------------------------------------------------------

class TestStallWatchdog:
    """:func:`stalls` — what ``StallWatchdog`` flagged live."""

    @pytest.mark.parametrize("seed", range(20))
    def test_crash_sweep_classifies_every_stall(self, seed):
        """20-seed sweep: every stall is crash-induced, naming the crash."""
        rng = random.Random(seed * 31 + 7)
        victim = rng.choice(range(1, 8))
        flight = _recorded()
        outputs, secret, _ = run_async_coin(
            FIELD, 7, 2, seed=99, flight=flight,
            scheduler=RandomOrderScheduler(seed), crashed={victim},
        )
        assert set(outputs.values()) == {secret}
        found = stalls(flight.log(), 3)
        assert found, "threshold 3 must flag real quorum waits"
        for stall in found:
            assert stall.classification == "crash"
            assert victim in stall.crashed_missing
            assert victim in stall.missing
            assert stall.waited > 3
            assert stall.resolved_at is not None  # the run still finished

    def test_classification_happens_at_detection_time(self):
        """A stall is classified at its detection tick: a later crash
        does not rewrite it."""
        log = _log(
            {"e": "armed", "r": 0, "pid": 1, "w": [[["x"], 2]]},
            {"e": "round", "r": 3, "d": []},  # tick 3 > threshold 2
            {"e": "fault", "r": 5, "k": "crash", "src": 2, "dst": 0},
            {"e": "armed", "r": 5, "pid": 3, "w": [[["x"], 2]]},
            {"e": "round", "r": 9, "d": []},
        )
        found = stalls(log, 2)
        assert [(s.pid, s.detected_at) for s in found] == [(1, 3), (3, 8)]
        assert [s.classification for s in found] == ["unexplained", "crash"]
        assert found[1].crashed_missing == (2,)
        assert [s.resolved_at for s in found] == [None, None]

    def test_a_wait_that_fires_before_its_tick_does_not_stall(self):
        armed = {"e": "armed", "r": 0, "pid": 1, "w": [[["x"], 0]]}
        for fired_at, stalled in ((2, False), (3, True)):
            log = _log(armed, {"e": "fired", "r": fired_at, "pid": 1},
                       {"e": "round", "r": 9, "d": []})
            assert [s.resolved_at for s in stalls(log, 2)] == (
                [fired_at] if stalled else []
            )

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
        flight = _recorded()
        runtime = AsyncRuntime(7, field=FIELD, flight=flight,
                               scheduler=RandomOrderScheduler(2))
        outputs = runtime.run(
            programs, wait_for=[p for p in programs if p != withholder]
        )
        assert set(outputs.values()) == {secret}
        found = stalls(flight.log(), 3)
        assert found
        for stall in found:
            assert stall.classification == "unexplained"
            assert stall.crashed_missing == ()
            if stall.pid != withholder:
                assert withholder in stall.missing
                assert withholder not in stall.senders


# -- live == offline ---------------------------------------------------------

def _crash_sweep(flight, seed):
    victim = random.Random(seed * 31 + 7).choice(range(1, 8))
    run_async_coin(FIELD, 7, 2, seed=99, flight=flight,
                   scheduler=RandomOrderScheduler(seed), crashed={victim})


def _ci_session(coins, crashed):
    """``repro waits --n 7 --t 2 --coins C [--crash P]`` at GF(2^32)."""
    def run(flight):
        ctx = ProtocolContext.create(GF2k(32), 7, 2, seed=0)
        flight.attach(ctx)
        for index in range(coins):
            run_async_coin(ctx, coin_id=f"async-{index}",
                           scheduler=RandomOrderScheduler(seed=index),
                           crashed=crashed)
    return run


def _withholder(flight):
    secret, shares = make_dealer_coin(FIELD, 7, 2, "w", random.Random(3))

    def silent_program():
        while True:
            yield guarded([], tags="expose/w", quorum=7)

    programs = {pid: (silent_program() if pid == 4 else
                      async_coin_program(FIELD, 7, pid, shares[pid]))
                for pid in range(1, 8)}
    AsyncRuntime(7, field=FIELD, flight=flight,
                 scheduler=RandomOrderScheduler(2)).run(
        programs, wait_for=[p for p in programs if p != 4])


def _bracha(flight):
    """Bracha RB — ``AnyWait`` guards — under a delay and a crash."""
    runtime = AsyncRuntime(
        7, field=GF2k(16), scheduler=RandomOrderScheduler(9), flight=flight,
        faults=FaultPlane().delay(src=2, by=2).crash(6, 9),
    )
    run_reliable_broadcast(7, 2, 1, ("v", 7), runtime=runtime, crashed=(4,))


def _plane(flight, name):
    """One fault plane of tests/test_async_loop.py."""
    planes = {
        "clean": {},
        "crashed_from_start": {"crashed": (2, 6)},
        "drop_dup_delay_crash": {
            "faults": FaultPlane().drop(src=1, dst=2).duplicate(src=4, dst=1)
            .delay(src=5, by=3).crash(3, 5),
        },
        "delay_everything": {"faults": FaultPlane().delay(by=4)},
    }
    run_async_coin(GF2k(16), 7, 2, seed=13, scheduler=RandomOrderScheduler(5),
                   flight=flight, **planes[name])


#: family -> (runs, thresholds, wait-records sha256, stalls sha256).  The
#: digests are of ``[[asdict(x) ...] per run]`` (stalls: per threshold,
#: then per run), recorded with the live ``QuorumLatencyRecorder`` and
#: ``StallWatchdog`` these views replaced.
LIVE = {
    "crash_sweep": (
        [lambda flight, s=s: _crash_sweep(flight, s) for s in range(20)],
        (3,),
        "f0b4edab59df0816616996717f970b1d716245dd2ca48fbb99da7471b1b4392c",
        "955f647722397484e02c94f4a6dbeceaed211ca7455c61c708aecb9caec2aaf1",
    ),
    "ci_crash": (
        [_ci_session(2, {4})], (3,),
        "cfcfc20d7a3aca3faba2008903456dc223e3d308d5ff1a86eab60f2feddacb32",
        "ffe273b36b105b4e523dda35f88c6348b0445ea0e7fd5d7ce379733b2ecc409f",
    ),
    "ci_clean": (
        [_ci_session(4, set())], (196,),
        "b6c084a6ad6ca899e4c22cdfec9c689e653bf258082ac7f4cdc519b3e080e951",
        "33ea8a78f520f45513d314e76cf1b97ee8354c1d6317ec35e7c54cad0c9694f7",
    ),
    "withholder": (
        [_withholder], (3,),
        "5e3c97a152c03e80c9af1476fca5843c16444d712467daf2ac591dcb7bf9e3b3",
        "36d14bf9e9bdadb8b1b561096712e21ed5ddf77bbec0805313a16f9cf8db7a7a",
    ),
    "bracha": (
        [_bracha], (2, 5, 20),
        "3eea3ca363e54577f54c1fdb2810211e18d9279165a8a0c8ecc116d60572b006",
        "d26588549f692a758e47ab9a54785fc25d830623de2f8cb5cf2e0fc7ae126a13",
    ),
    "plane_clean": (
        [lambda flight: _plane(flight, "clean")], (3, 10),
        "6967cff8f46b27e4fc8ca2dc0e494d1b6af38ad6a3615cd847e5c9656d6168ea",
        "d0de3734fa9037b79ab678c024606c3041b32b060362b2564b7e7600ede6c8ae",
    ),
    "plane_crashed_from_start": (
        [lambda flight: _plane(flight, "crashed_from_start")], (3, 10),
        "ae888f4f27867d65cb41544ab43378a9eb9ffcd3874f07098cb6a1b309399e53",
        "7dc6f502bf831707530e67832709ffb4101bb4a9295254a896ed880b5f578632",
    ),
    "plane_delay_everything": (
        [lambda flight: _plane(flight, "delay_everything")], (3, 10),
        "63ec60aa6de43f75e1d5e25f7739296168de24a6843c16945533ab67fb6c63d5",
        "1763c1159cff2d1c365369a8be0a896eada56d571b68b0037ddd5d192f6fb6ed",
    ),
    "plane_drop_dup_delay_crash": (
        [lambda flight: _plane(flight, "drop_dup_delay_crash")], (3, 10),
        "3ff447f27e13cafe83a16f5a8eb1d3fc83210970814853615d5fb5356c018130",
        "e7dde9ee457e47d645db18ae8fbaaaa692146cde652b8db87075928af43ad509",
    ),
}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _logs(runs):
    logs = []
    for run in runs:
        flight = _recorded()
        run(flight)
        logs.append(flight.log())
    return logs


def _digests(logs, thresholds):
    records = [[dataclasses.asdict(r) for r in wait_records(log)]
               for log in logs]
    found = [[[dataclasses.asdict(s) for s in stalls(log, threshold)]
              for log in logs] for threshold in thresholds]
    return _sha(records), _sha(found)


class TestLiveEqualsOffline:
    @pytest.mark.parametrize("family", sorted(LIVE))
    def test_views_equal_the_live_recorders(self, family):
        runs, thresholds, records_sha, stalls_sha = LIVE[family]
        logs = _logs(runs)
        reloaded = [FlightLog.loads(log.dumps()) for log in logs]
        assert _digests(logs, thresholds) == (records_sha, stalls_sha)
        assert _digests(reloaded, thresholds) == (records_sha, stalls_sha)

    def _lockstep_log(self):
        flight = _recorded()
        secret, shares = make_dealer_coin(FIELD, 7, 2, "c", random.Random(5))
        SynchronousNetwork(7, field=FIELD, flight=flight).run({
            pid: async_coin_program(FIELD, 7, pid, shares[pid])
            for pid in range(1, 8)
        })
        return flight.log()

    def test_lockstep_wait_records_equal_the_live_recorder(self):
        log = self._lockstep_log()
        assert _sha([[dataclasses.asdict(r) for r in wait_records(log)]]) == (
            "2b323d610c702182ef4c9fc39d4e59474a15f822d8749fa6a903811912e7bfdc"
        )

    def test_lockstep_stalls_follow_the_rule_not_the_old_clock(self):
        """Every guard arms in round 1 and fires in round 2, the detection
        tick at threshold 0.  The live watchdog's clock moved only on
        guard events, so it popped the first fire before it looked and
        flagged 6 of the 7; the rule flags all 7."""
        found = stalls(self._lockstep_log(), 0)
        assert [(s.pid, s.detected_at, s.resolved_at) for s in found] == [
            (pid, 2, 2) for pid in range(1, 8)
        ]


# -- op-priced async span attribution ----------------------------------------

class TestAsyncSpanPricing:
    def _recorded_run(self, sched_seed):
        recorder = SpanRecorder()
        flight = _recorded()
        run_async_coin(FIELD, 7, 2, seed=13, flight=flight, recorder=recorder,
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
