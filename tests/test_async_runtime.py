"""The event-driven runtime: guards, delivery orders, and both siblings.

Covers the async half of the runtime stack (DESIGN.md §11):

* :mod:`repro.net.guards` — Wait/AnyWait satisfaction, the Guarded
  yield wrapper, yield-style fixing, and the property that every guard
  predicate answers from the inbox's tag index exactly as a full scan
  would;
* :class:`repro.net.async_runtime.AsyncRuntime` — seeded adversarial
  message-at-a-time delivery, logical time = delivery count, fault
  semantics, :class:`~repro.net.runtime.RuntimeExhausted` reporting;
* one protocol body, two runtimes — the guarded Bracha reliable
  broadcast and the async coin run unchanged on lockstep and async;
* the acceptance property: unanimous coin output across 20+ seeded
  random delivery orders with ≤ t crashed players;
* observability parity — async runs produce flight logs whose causal
  graphs hold what the loop counted live (one edge per delivery, one
  logical tick each), replay/diff clean.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.fields import GF2k
from repro.net import (
    AsyncRuntime,
    FaultPlane,
    PermutedDeliveryScheduler,
    RandomOrderScheduler,
    RuntimeExhausted,
    Wait,
    guarded,
    wait_any,
)
from repro.net.guards import IndexedInbox
from repro.net.simulator import SynchronousNetwork
from repro.net.transport import ProtocolViolation, multicast, unicast
from repro.obs import flight as flight_module
from repro.obs.causality import graph_from_log
from repro.obs.flight import FlightRecorder, diff, replay
from repro.protocols.async_coin import async_coin_program, run_async_coin
from repro.protocols.broadcast import (
    reliable_broadcast_program,
    run_reliable_broadcast,
)
from repro.protocols.coin_expose import make_dealer_coin
from repro.protocols.context import ProtocolContext

import random

FIELD = GF2k(16)


# -- guards ------------------------------------------------------------------

class TestGuards:
    def test_wait_counts_distinct_senders_of_matching_tags(self):
        wait = Wait(("x/echo",), quorum=2)
        assert not wait.satisfied({1: [("x/echo", 1)]})
        assert wait.satisfied({1: [("x/echo", 1)], 2: [("x/echo", 5)]})
        # several payloads from one sender count once
        assert not wait.satisfied({1: [("x/echo", 1), ("x/echo", 2)]})
        # foreign tags don't count
        assert not wait.satisfied({1: [("x/echo", 1)], 2: [("y", 0)]})

    def test_wait_quorum_zero_is_always_satisfied(self):
        assert Wait(("any",), quorum=0).satisfied({})

    def test_wait_ignores_non_int_sources(self):
        wait = Wait(("x",), quorum=1)
        assert not wait.satisfied({"rush_peek": [("x", 1)]})

    def test_wait_validation(self):
        with pytest.raises(ValueError):
            Wait((), quorum=1)
        with pytest.raises(ValueError):
            Wait(("x",), quorum=-1)

    def test_any_wait_is_a_disjunction(self):
        any_wait = wait_any(Wait(("a",), 2), Wait(("b",), 1))
        assert any_wait.satisfied({1: [("b", 0)]})
        assert not any_wait.satisfied({1: [("a", 0)]})
        assert set(any_wait.tags) == {"a", "b"}

    def test_guarded_builder(self):
        g = guarded([multicast(("t", 1))], tags="t", quorum=3)
        assert g.wait == Wait(("t",), 3)
        assert guarded([], tags=()).wait is None

    def test_mixing_plain_then_guarded_raises(self):
        def bad(n):
            yield []  # plain style fixed here
            yield guarded([], tags="x")

        net = SynchronousNetwork(3)
        with pytest.raises(ProtocolViolation, match="yield style"):
            net.run({1: bad(3)})


@dataclasses.dataclass(frozen=True)
class Probe:
    """A dataclass payload: tagged by its class name."""

    body: int


GUARD_TAGS = ("a", "b/echo", "Probe", "?")

_payloads = st.one_of(
    st.tuples(st.sampled_from(GUARD_TAGS[:2] + ("other",)), st.integers(0, 9)),
    st.builds(Probe, st.integers(0, 9)),
    st.integers(0, 9), st.none(), st.just(()), st.just((3, "a")),
)
_inboxes = st.dictionaries(
    st.integers(1, 12), st.lists(_payloads, max_size=6),
    min_size=1, max_size=12,
)
_tag_sets = st.lists(st.sampled_from(GUARD_TAGS), min_size=1, max_size=4,
                     unique=True).map(tuple)
_waits = st.builds(Wait, _tag_sets, st.integers(0, 13))


def _reference_tag(payload):
    if isinstance(payload, tuple) and payload and isinstance(payload[0], str):
        return payload[0]
    return "Probe" if isinstance(payload, Probe) else "?"


def _reference_matched(wait, inbox):
    """The scan the guards used to run: every source, every payload."""
    return tuple(sorted(
        src for src, payloads in inbox.items()
        if isinstance(src, int)
        and any(_reference_tag(payload) in wait.tags for payload in payloads)
    ))


def _reference_answers(guard, inbox, n):
    if isinstance(guard, Wait):
        branch = guard
        fired = guard.quorum == 0 or (
            len(_reference_matched(guard, inbox)) >= guard.quorum
        )
    else:
        fired = any(
            _reference_answers(wait, inbox, n)[0] for wait in guard.waits
        )
        # nearest to firing; the first such branch on a tie
        branch = max(guard.waits, key=lambda wait: (
            len(_reference_matched(wait, inbox)) - wait.quorum
        ))
    matched = _reference_matched(branch, inbox)
    return (
        fired, (len(matched), branch.quorum), matched,
        tuple(pid for pid in range(1, n + 1) if pid not in matched),
    )


class TestGuardsAnswerFromTheIndex:
    """Every predicate equals a written-out scan, however the inbox came.

    Plain ``{src: [payloads]}`` dicts (with a lockstep ``rush_peek``
    entry the guards must skip) are indexed on the fly; the runtimes'
    :class:`IndexedInbox` is built one :meth:`deliver` at a time, in an
    arbitrary interleaving of the sources.
    """

    @given(
        inbox=_inboxes,
        guard=st.one_of(
            _waits,
            st.builds(Wait, _tag_sets, st.just(0)),
            st.lists(_waits, min_size=1, max_size=3).map(
                lambda waits: wait_any(*waits)
            ),
        ),
        order=st.randoms(use_true_random=False),
    )
    def test_predicates_equal_the_reference_scan(self, inbox, guard, order):
        n = 12
        expected = _reference_answers(guard, inbox, n)

        plain = dict(inbox)
        plain["rush_peek"] = {1: [("a", 0)], 2: [Probe(1)]}

        arrivals = [src for src, payloads in inbox.items() for _ in payloads]
        order.shuffle(arrivals)
        cursor = {src: iter(payloads) for src, payloads in inbox.items()}
        delivered = IndexedInbox()
        for src in arrivals:
            delivered.deliver(src, next(cursor[src]))
        assert delivered == {s: p for s, p in inbox.items() if p}
        assert delivered.size == len(arrivals)
        delivered["rush_peek"] = plain["rush_peek"]

        for view in (plain, delivered):
            assert (
                guard.satisfied(view), guard.progress(view),
                guard.matched_senders(view), guard.missing_senders(view, n),
            ) == expected


# -- async runtime basics ----------------------------------------------------

def echo_pair_programs():
    """Two players ping-pong one message; returns what each received."""

    def ping(me, peer):
        inbox = yield guarded(
            [unicast(peer, ("ping", me))], tags="ping", quorum=1
        )
        return sorted(inbox)

    return {1: ping(1, 2), 2: ping(2, 1)}


class TestAsyncRuntime:
    def test_delivers_and_counts_logical_time(self):
        runtime = AsyncRuntime(2, scheduler=RandomOrderScheduler(0))
        outputs = runtime.run(echo_pair_programs())
        assert outputs == {1: [2], 2: [1]}
        assert runtime.delivery_count == 2
        assert runtime.logical_time == 2
        assert runtime.metrics.rounds == 2

    def test_same_seed_same_run_different_seed_same_outputs(self):
        def run(seed):
            flight = FlightRecorder(n=3, t=0, field=FIELD, seed=0)
            runtime = AsyncRuntime(
                3, scheduler=RandomOrderScheduler(seed), flight=flight
            )

            def all_to_all(me):
                inbox = yield guarded(
                    [multicast(("hello", me))], tags="hello", quorum=3
                )
                return sorted(inbox)

            outputs = runtime.run({pid: all_to_all(pid) for pid in (1, 2, 3)})
            return outputs, flight.log()

        out_a, log_a = run(7)
        out_b, log_b = run(7)
        out_c, log_c = run(8)
        assert out_a == out_b
        assert diff(log_a, log_b) is None
        assert out_a == out_c  # outputs order-independent
        assert [e.deliveries for e in log_a.rounds] != [
            e.deliveries for e in log_c.rounds
        ]  # but the schedules genuinely differ

    def test_rushing_is_rejected(self):
        runtime = AsyncRuntime(
            2, scheduler=RandomOrderScheduler(0, rushing=(1,))
        )
        with pytest.raises(ProtocolViolation, match="rushing"):
            runtime.run(echo_pair_programs())

    def test_unknown_player_program_rejected(self):
        runtime = AsyncRuntime(2)
        with pytest.raises(ValueError, match="unknown player"):
            runtime.run({5: iter(())})

    def test_plain_programs_wake_on_any_delivery(self):
        """Unguarded yields keep working: wake whenever anything new lands."""

        def chatty(me, peer):
            inbox = yield [unicast(peer, ("a", me))]
            assert peer in inbox
            inbox = yield [unicast(peer, ("b", me))]
            return sorted(tag for msgs in inbox.values()
                          for tag, _ in msgs)

        runtime = AsyncRuntime(2, scheduler=RandomOrderScheduler(3))
        outputs = runtime.run({1: chatty(1, 2), 2: chatty(2, 1)})
        # cumulative inboxes: by its final step each player saw both tags
        assert outputs == {1: ["a", "b"], 2: ["a", "b"]}


# -- fault semantics ---------------------------------------------------------

class TestAsyncFaults:
    def test_crash_before_priming_strands_the_peer(self):
        faults = FaultPlane().crash(2, 1)
        runtime = AsyncRuntime(
            2, scheduler=RandomOrderScheduler(0), faults=faults,
            max_deliveries=50,
        )
        with pytest.raises(RuntimeExhausted) as exc_info:
            runtime.run(echo_pair_programs(), wait_for=(1,))
        assert exc_info.value.stuck == {1: ("ping",)}

    def test_drop_rule_discards_in_flight_messages(self):
        faults = FaultPlane().drop(src=1, dst=2)
        runtime = AsyncRuntime(
            2, scheduler=RandomOrderScheduler(0), faults=faults,
            max_deliveries=50,
        )
        with pytest.raises(RuntimeExhausted) as exc_info:
            runtime.run(echo_pair_programs(), wait_for=(2,))
        assert 2 in exc_info.value.stuck

    def test_delay_rule_defers_but_still_delivers(self):
        faults = FaultPlane().delay(src=1, dst=2, by=10)
        runtime = AsyncRuntime(
            2, scheduler=RandomOrderScheduler(0), faults=faults
        )
        outputs = runtime.run(echo_pair_programs())
        assert outputs == {1: [2], 2: [1]}
        # idle ticks advanced the clock past the pure delivery count
        assert runtime.logical_time > runtime.delivery_count

    def test_duplicate_rule_delivers_twice(self):
        faults = FaultPlane().duplicate(src=1, dst=2)

        def sender():
            yield guarded([unicast(2, ("m", 1))], tags="done", quorum=0)

        def receiver():
            inbox = yield guarded([], tags="m", quorum=1)
            first = len(inbox.get(1, []))
            # an unguarded yield wakes on the duplicate's second copy
            inbox = yield guarded([])
            return first, len(inbox.get(1, []))

        runtime = AsyncRuntime(
            2, scheduler=RandomOrderScheduler(1), faults=faults
        )
        outputs = runtime.run({1: sender(), 2: receiver()}, wait_for=(2,))
        assert outputs[2] == (1, 2)


# -- RuntimeExhausted (both runtimes) ---------------------------------------

class TestExhaustion:
    def test_async_max_deliveries_names_stuck_players(self):
        def forever(me, peer):
            while True:
                yield [unicast(peer, ("spam", me))]

        runtime = AsyncRuntime(
            2, scheduler=RandomOrderScheduler(0), max_deliveries=20
        )
        with pytest.raises(RuntimeExhausted, match="max_deliveries"):
            runtime.run({1: forever(1, 2), 2: forever(2, 1)})

    def test_lockstep_max_rounds_raises_runtime_exhausted(self):
        def forever():
            while True:
                yield []

        net = SynchronousNetwork(1, max_rounds=5)
        with pytest.raises(RuntimeExhausted, match="max_rounds"):
            net.run({1: forever()})

    def test_lockstep_unfireable_guard_fails_fast_with_tags(self):
        def stuck_program():
            yield guarded([], tags="never/coming", quorum=1)

        net = SynchronousNetwork(2, max_rounds=100_000)
        with pytest.raises(RuntimeExhausted) as exc_info:
            net.run({1: stuck_program()})
        assert exc_info.value.stuck == {1: ("never/coming",)}
        assert "never/coming" in str(exc_info.value)

    def test_exhaustion_is_a_protocol_violation(self):
        # existing handlers that catch ProtocolViolation keep working
        assert issubclass(RuntimeExhausted, ProtocolViolation)


# -- one body, two runtimes --------------------------------------------------

class TestOneBodyTwoRuntimes:
    def test_reliable_broadcast_on_lockstep(self):
        outputs = run_reliable_broadcast(7, 2, sender=4, value=("v", 9))
        assert set(outputs.values()) == {("v", 9)}
        assert set(outputs) == set(range(1, 8))

    @pytest.mark.parametrize("seed", range(6))
    def test_reliable_broadcast_async_with_crashes(self, seed):
        runtime = AsyncRuntime(7, scheduler=RandomOrderScheduler(seed))
        outputs = run_reliable_broadcast(
            7, 2, sender=4, value=("v", 9), runtime=runtime,
            crashed={2, 6},
        )
        assert set(outputs) == {1, 3, 4, 5, 7}
        assert set(outputs.values()) == {("v", 9)}

    def test_reliable_broadcast_needs_n_over_3t(self):
        with pytest.raises(ValueError):
            reliable_broadcast_program(6, 2, 1, 1)

    def test_coin_program_identical_output_on_both_runtimes(self):
        secret, shares = make_dealer_coin(FIELD, 7, 2, "c", random.Random(5))

        def programs():
            return {
                pid: async_coin_program(FIELD, 7, pid, shares[pid])
                for pid in range(1, 8)
            }

        lockstep = SynchronousNetwork(7, field=FIELD).run(programs())
        async_rt = AsyncRuntime(
            7, field=FIELD, scheduler=RandomOrderScheduler(11)
        )
        async_out = async_rt.run(programs())
        assert set(lockstep.values()) == {secret}
        assert set(async_out.values()) == {secret}

    def test_guarded_coin_on_permuted_lockstep(self):
        secret, shares = make_dealer_coin(FIELD, 7, 2, "c", random.Random(5))
        net = SynchronousNetwork(
            7, field=FIELD, scheduler=PermutedDeliveryScheduler(3)
        )
        outputs = net.run({
            pid: async_coin_program(FIELD, 7, pid, shares[pid])
            for pid in range(1, 8)
        })
        assert set(outputs.values()) == {secret}


# -- the acceptance property -------------------------------------------------

class TestAsyncCoinUnanimity:
    @pytest.mark.parametrize("seed", range(22))
    def test_unanimous_under_22_delivery_orders_with_crashes(self, seed):
        """≥ 20 seeded random delivery orders, ≤ t crashed players."""
        rng = random.Random(seed * 31 + 7)
        crashed_start = rng.choice(range(1, 8))
        crash_mid = rng.choice(
            [pid for pid in range(1, 8) if pid != crashed_start]
        )
        faults = FaultPlane().crash(crash_mid, rng.randrange(1, 30))
        outputs, secret, runtime = run_async_coin(
            FIELD, 7, 2, seed=99,
            scheduler=RandomOrderScheduler(seed),
            faults=faults, crashed={crashed_start},
        )
        assert crashed_start not in outputs
        live = set(outputs.values())
        assert live == {secret}
        assert runtime.delivery_count <= runtime.logical_time

    def test_unanimous_with_context_entry_point(self):
        ctx = ProtocolContext.create(FIELD, 7, 2, seed=41)
        outputs, secret, runtime = run_async_coin(ctx)
        assert set(outputs.values()) == {secret}
        # context metrics absorbed the run
        assert ctx.metrics.rounds == runtime.delivery_count


# -- observability parity ----------------------------------------------------

class TestAsyncObservability:
    def _run_with_recorders(self, seed, faults=None):
        flight = FlightRecorder(n=7, t=2, field=FIELD, seed=0)
        outputs, secret, runtime = run_async_coin(
            FIELD, 7, 2, seed=13,
            scheduler=RandomOrderScheduler(seed),
            faults=faults, flight=flight,
        )
        return outputs, secret, runtime, flight

    def _assert_graph_matches_the_live_counts(self, runtime, flight):
        """What the loop counted live is what the log's graph holds: one
        edge per delivery, each its own logical tick, and a longest chain
        that fits inside them."""
        offline = graph_from_log(flight.log())
        assert len(offline.edges) == runtime.delivery_count
        assert runtime.delivery_count == runtime.metrics.rounds
        ticks = [edge.send_round for edge in offline.edges]
        assert ticks == sorted(set(ticks))
        assert max(ticks) <= runtime.logical_time
        assert 1 <= offline.depth() <= runtime.delivery_count
        return offline

    @pytest.mark.parametrize("seed", range(4))
    def test_live_equals_offline_causal_graph(self, seed):
        _, _, runtime, flight = self._run_with_recorders(seed)
        offline = self._assert_graph_matches_the_live_counts(runtime, flight)
        # fault-free, everything sent is an expose share that arrived
        # or was still in flight when the last player finished
        assert len(offline.edges) <= runtime.metrics.unicast_messages
        assert not flight.log().faults

    def test_live_equals_offline_with_mid_run_crash(self):
        faults = FaultPlane().crash(3, 5)
        _, _, runtime, flight = self._run_with_recorders(2, faults=faults)
        self._assert_graph_matches_the_live_counts(runtime, flight)

    def test_dropped_edges_become_dropped_emissions(self):
        """A dropped message has a ``drop`` fault event and no edge."""
        faults = FaultPlane().drop(src=1, dst=2)
        _, _, runtime, flight = self._run_with_recorders(1, faults=faults)
        log = flight.log()
        assert any((f.kind, f.src, f.dst) == ("drop", 1, 2)
                   for f in log.faults)
        graph = self._assert_graph_matches_the_live_counts(runtime, flight)
        assert not any((e.src, e.dst) == (1, 2) for e in graph.edges)

    def test_replay_of_async_flight_log_is_unanimous(self):
        outputs, secret, _, flight = self._run_with_recorders(3)
        assert set(outputs.values()) == {secret}
        (values,) = replay(flight.log()).decoded_values().values()
        assert values == {pid: secret for pid in range(1, 8)}

    def test_async_run_without_subscribers_is_silent(self):
        """A dark run — guards parking and firing, a fault rule firing —
        calls no recorder method and builds no delivery event."""
        def refuse(*_args, **_kwargs):
            raise AssertionError("a dark run reached the flight recorder")

        runtime = AsyncRuntime(2, scheduler=RandomOrderScheduler(0),
                               faults=FaultPlane().duplicate(src=1))
        assert runtime.flight is None
        noted = mock.Mock(wraps=runtime._note_fault)
        runtime._note_fault = noted
        with mock.patch.multiple(FlightRecorder, on_run=refuse,
                                 on_round=refuse, on_fault=refuse,
                                 on_guard=refuse), \
                mock.patch.object(flight_module, "RoundEvent", refuse):
            outputs = runtime.run(echo_pair_programs())
        assert outputs == {1: [2], 2: [1]}
        assert [call.args[1:] for call in noted.call_args_list] == [
            ("duplicate", 1, 2)
        ]
