"""Unit tests for the layered runtime: transport, scheduler, faults.

The stack under test (DESIGN.md, "Runtime architecture"):
``Transport`` (channel primitives + metering) -> ``Scheduler`` (stepping
and delivery order) -> ``FaultPlane`` (optional message/player faults)
-> ``SynchronousNetwork`` (the synchronous round loop).
"""

from dataclasses import dataclass

import pytest

from repro.net import (
    ALL,
    FaultPlane,
    LockstepScheduler,
    PermutedDeliveryScheduler,
    ProtocolViolation,
    Send,
    SynchronousNetwork,
    Transport,
    broadcast,
    multicast,
    unicast,
)
from repro.net.metrics import NetworkMetrics, payload_tag
from repro.obs.flight import FlightRecorder
from repro.protocols.context import ProtocolContext, as_context
from repro.fields import GF2k
from tests.test_trace import round_tallies


def echo_program(n, me, rounds=1):
    """Multicast ("ping", me) each round; return the inboxes seen."""
    seen = []
    for _ in range(rounds):
        inbox = yield [multicast(("ping", me))]
        seen.append({src: list(msgs) for src, msgs in inbox.items()})
    return seen


# ---------------------------------------------------------------------------
# transport layer
# ---------------------------------------------------------------------------

class TestTransport:
    def test_unicast_expansion_and_metering(self):
        metrics = NetworkMetrics(element_bits=8)
        transport = Transport(3, metrics)
        routed = transport.expand(1, [unicast(2, 7), unicast(3, 9)])
        assert routed == [(2, 7), (3, 9)]
        assert metrics.unicast_messages == 2
        assert metrics.bits == 16  # one element each, k=8

    def test_multicast_expands_to_all(self):
        metrics = NetworkMetrics()
        transport = Transport(3, metrics)
        routed = transport.expand(2, [multicast("x")])
        assert routed == [(1, "x"), (2, "x"), (3, "x")]
        assert metrics.unicast_messages == 3

    def test_broadcast_counts_once(self):
        metrics = NetworkMetrics(element_bits=4)
        transport = Transport(3, metrics)
        routed = transport.expand(1, [broadcast(5)])
        assert routed == [(1, 5), (2, 5), (3, 5)]
        assert metrics.broadcast_messages == 1
        assert metrics.unicast_messages == 0
        assert metrics.bits == 4  # one channel use, per the paper

    def test_private_transport_rejects_broadcast(self):
        transport = Transport(3, NetworkMetrics(), allow_broadcast=False)
        assert not transport.allow_broadcast
        with pytest.raises(ProtocolViolation):
            transport.expand(1, [broadcast("x")])

    def test_invalid_destination_rejected(self):
        transport = Transport(3, NetworkMetrics())
        with pytest.raises(ProtocolViolation):
            transport.expand(1, [unicast(9, "x")])
        with pytest.raises(ProtocolViolation):
            transport.expand(1, ["not-a-send"])
        with pytest.raises(ProtocolViolation):
            transport.expand(1, [Send(2, "x", broadcast=True)])


# ---------------------------------------------------------------------------
# scheduler layer
# ---------------------------------------------------------------------------

class TestScheduler:
    DELIVERIES = [(1, 2, "a"), (2, 1, "b"), (3, 1, "c"), (1, 3, "d")]

    def test_lockstep_is_identity(self):
        sched = LockstepScheduler()
        assert sched.arrange(1, list(self.DELIVERIES)) == self.DELIVERIES

    def test_permuted_preserves_multiset(self):
        sched = PermutedDeliveryScheduler(seed=5)
        arranged = sched.arrange(1, list(self.DELIVERIES))
        assert sorted(arranged) == sorted(self.DELIVERIES)

    def test_permuted_is_deterministic_per_seed_and_round(self):
        a = PermutedDeliveryScheduler(seed=5).arrange(3, list(self.DELIVERIES))
        b = PermutedDeliveryScheduler(seed=5).arrange(3, list(self.DELIVERIES))
        assert a == b

    def test_permuted_varies_with_round(self):
        sched = PermutedDeliveryScheduler(seed=5)
        rounds = {tuple(sched.arrange(r, list(self.DELIVERIES))) for r in range(12)}
        assert len(rounds) > 1

    def test_rushing_set_frozen_and_merged(self):
        sched = PermutedDeliveryScheduler(seed=1, rushing=(3,))
        net = SynchronousNetwork(4, rushing=(2,), scheduler=sched)
        assert net.scheduler.rushing == frozenset({2, 3})
        # the shared scheduler instance is not mutated by the network
        assert sched.rushing == frozenset({3})


# ---------------------------------------------------------------------------
# fault plane
# ---------------------------------------------------------------------------

class TestFaultPlane:
    def test_drop_rule(self):
        plane = FaultPlane().drop(src=2, dst=1)
        out = plane.apply(1, [(1, 2, "x"), (1, 3, "y"), (2, 2, "z")])
        assert out == [(1, 3, "y"), (2, 2, "z")]

    def test_drop_restricted_to_rounds(self):
        plane = FaultPlane().drop(src=2, rounds=[2])
        assert plane.apply(1, [(1, 2, "x")]) == [(1, 2, "x")]
        assert plane.apply(2, [(1, 2, "x")]) == []

    def test_duplicate_rule(self):
        plane = FaultPlane().duplicate(src=2)
        assert plane.apply(1, [(1, 2, "x")]) == [(1, 2, "x"), (1, 2, "x")]

    def test_delay_matures_later(self):
        plane = FaultPlane().delay(src=2, by=2)
        assert plane.apply(1, [(1, 2, "x")]) == []
        assert plane.apply(2, []) == []
        assert plane.apply(3, []) == [(1, 2, "x")]

    def test_delay_requires_positive(self):
        with pytest.raises(ValueError):
            FaultPlane().delay(src=1, by=0)

    def test_first_matching_rule_wins(self):
        plane = FaultPlane().drop(src=2).duplicate(src=2)
        assert plane.apply(1, [(1, 2, "x")]) == []

    def test_crash_keeps_earliest_round(self):
        plane = FaultPlane().crash(4, at_round=5).crash(4, at_round=2)
        assert not plane.is_crashed(4, 1)
        assert plane.is_crashed(4, 2)
        assert plane.crashed_players() == {4}

    def test_silence_rounds_accumulate(self):
        plane = FaultPlane().silence(3, [1]).silence(3, [4])
        assert plane.is_silenced(3, 1)
        assert not plane.is_silenced(3, 2)
        assert plane.is_silenced(3, 4)


# ---------------------------------------------------------------------------
# runtime integration
# ---------------------------------------------------------------------------

class TestRuntimeFaults:
    def test_crashed_player_stops_sending_and_is_not_waited(self):
        n = 4
        plane = FaultPlane().crash(4, at_round=2)
        net = SynchronousNetwork(n, faults=plane)
        programs = {pid: echo_program(n, pid, rounds=3) for pid in range(1, n + 1)}
        outputs = net.run(programs)
        # player 4 never finished (crashed mid-run), others did
        assert set(outputs) == {1, 2, 3}
        seen = outputs[1]
        assert 4 in seen[0]      # round-1 traffic arrived before the crash
        assert 4 not in seen[1]  # nothing from round 2 on
        assert 4 not in seen[2]

    def test_silenced_player_resumes(self):
        n = 3
        plane = FaultPlane().silence(2, [2])
        net = SynchronousNetwork(n, faults=plane)
        programs = {pid: echo_program(n, pid, rounds=3) for pid in range(1, n + 1)}
        outputs = net.run(programs)
        seen = outputs[1]
        assert 2 in seen[0]
        assert 2 not in seen[1]  # silenced round
        assert 2 in seen[2]      # back online

    def test_delayed_traffic_does_not_leak_into_the_next_run(self):
        """A plane shared between runs (ProtocolContext.faults hands one
        to every network) starts each run with nothing pending: round
        numbers restart, so run A's delayed "A" payloads used to mature
        inside run B's rounds 4 and 5."""
        n = 3
        plane = FaultPlane().delay(src=2, by=3)

        def chatter(label, rounds):
            for r in range(rounds):
                yield [multicast((label, r))]

        def delivered(label, rounds):
            net = SynchronousNetwork(n, faults=plane, allow_broadcast=False)
            flight = FlightRecorder(n=n, t=0).attach(net)
            net.run({pid: chatter(label, rounds) for pid in range(1, n + 1)})
            return {payload[0] for event in flight.log().rounds
                    for _dst, _src, payload in event.deliveries}

        assert delivered("A", 2) == {"A"}
        assert delivered("B", 6) == {"B"}
        delivered("C", 2)
        # what is still pending is the last run's alone
        assert {
            payload[0]
            for batch in plane._delayed.values()
            for _dst, _src, payload in batch
        } == {"C"}

    def test_dropped_edge_is_still_metered(self):
        n = 3
        net_clean = SynchronousNetwork(n)
        net_clean.run({pid: echo_program(n, pid) for pid in range(1, n + 1)})
        plane = FaultPlane().drop(src=1)
        net_faulty = SynchronousNetwork(n, faults=plane)
        net_faulty.run({pid: echo_program(n, pid) for pid in range(1, n + 1)})
        # faults apply after metering: the sender still paid for the sends
        assert (
            net_faulty.metrics.unicast_messages
            == net_clean.metrics.unicast_messages
        )

    def test_permuted_scheduler_preserves_inboxes(self):
        n = 4
        base = SynchronousNetwork(n)
        base_out = base.run(
            {pid: echo_program(n, pid, rounds=2) for pid in range(1, n + 1)}
        )
        perm = SynchronousNetwork(
            n, scheduler=PermutedDeliveryScheduler(seed=77)
        )
        perm_out = perm.run(
            {pid: echo_program(n, pid, rounds=2) for pid in range(1, n + 1)}
        )
        assert base_out == perm_out


# ---------------------------------------------------------------------------
# round tallies read off an attached flight recorder + payload tagging
# ---------------------------------------------------------------------------

@dataclass
class DemoPayload:
    value: int


class TestTracer:
    def test_tracer_attaches_via_runtime(self):
        n = 3
        net = SynchronousNetwork(n)
        flight = FlightRecorder(n=n, t=0).attach(net)
        net.run({pid: echo_program(n, pid, rounds=2) for pid in range(1, n + 1)})
        tracer = round_tallies(flight.log())
        assert len(tracer) == net.metrics.rounds
        # every sending round is recorded (the final round is the empty
        # StopIteration step)
        assert all(tracer[:-1])
        assert {tag for _src, tag in tracer[0]} == {"ping"}

    def test_tracer_identical_under_schedulers(self):
        n = 3
        lockstep = SynchronousNetwork(n)
        permuted = SynchronousNetwork(
            n, scheduler=PermutedDeliveryScheduler(seed=3)
        )
        f_lock = FlightRecorder(n=n, t=0).attach(lockstep)
        f_perm = FlightRecorder(n=n, t=0).attach(permuted)
        lockstep.run({pid: echo_program(n, pid) for pid in range(1, n + 1)})
        permuted.run({pid: echo_program(n, pid) for pid in range(1, n + 1)})
        assert round_tallies(f_lock.log()) == round_tallies(f_perm.log())

    def test_payload_tag_tuple(self):
        assert payload_tag(("vss/share", 1, 2)) == "vss/share"

    def test_payload_tag_dataclass_uses_class_name(self):
        assert payload_tag(DemoPayload(3)) == "DemoPayload"

    def test_payload_tag_unknown(self):
        assert payload_tag(42) == "?"


# ---------------------------------------------------------------------------
# ProtocolContext plumbing
# ---------------------------------------------------------------------------

class TestProtocolContext:
    def test_create_and_network_wiring(self):
        field = GF2k(8)
        plane = FaultPlane().drop(src=5)
        sched = PermutedDeliveryScheduler(seed=2)
        ctx = ProtocolContext.create(
            field, n=7, t=1, seed=11, scheduler=sched, faults=plane
        )
        net = ctx.network(allow_broadcast=False)
        assert isinstance(net, SynchronousNetwork)
        assert net.scheduler is sched
        assert net.faults is plane
        assert not net.transport.allow_broadcast
        assert net.metrics is not ctx.metrics  # fresh per-run metrics

    def test_player_rng_matches_legacy_derivation(self):
        import random

        field = GF2k(8)
        ctx = ProtocolContext.create(field, n=7, t=1, seed=3)
        legacy = random.Random(3 * 1_000_003 + 4)
        derived = ctx.player_rng(4)
        assert [derived.randrange(100) for _ in range(5)] == [
            legacy.randrange(100) for _ in range(5)
        ]

    def test_child_rng_is_reproducible(self):
        field = GF2k(8)
        a = ProtocolContext.create(field, n=7, t=1, seed=9)
        b = ProtocolContext.create(field, n=7, t=1, seed=9)
        assert (
            a.child_rng().randrange(1 << 30)
            == b.child_rng().randrange(1 << 30)
        )

    def test_wire_bytes_survive_the_merge(self):
        """``wire_bytes`` is a metrics field like any other: the context
        total is the sum over its runs (it used to be an attribute
        patched onto per-run metrics that ``merged_from`` dropped)."""
        from repro.protocols.coin_gen import run_coin_gen

        ctx = ProtocolContext.create(GF2k(16), 7, 1, enforce_codec=True)
        _, first = run_coin_gen(ctx, M=2)
        _, second = run_coin_gen(ctx, M=2, tag="again")
        assert first.wire_bytes > 0 and second.wire_bytes > 0
        assert ctx.metrics.wire_bytes == first.wire_bytes + second.wire_bytes
        dark = ProtocolContext.create(GF2k(16), 7, 1)
        run_coin_gen(dark, M=2)
        assert dark.metrics.wire_bytes == 0
        assert "wire_bytes" not in dark.metrics.summary()

    def test_absorb_accumulates(self):
        field = GF2k(8)
        ctx = ProtocolContext.create(field, n=3, t=0)
        net = ctx.network()
        net.run({pid: echo_program(3, pid) for pid in range(1, 4)})
        ctx.absorb(net.metrics)
        assert ctx.metrics.unicast_messages == net.metrics.unicast_messages
        assert ctx.metrics.rounds == net.metrics.rounds

    def test_as_context_passthrough_and_legacy(self):
        field = GF2k(8)
        ctx = ProtocolContext.create(field, n=7, t=1)
        assert as_context(ctx) is ctx
        built = as_context(field, 7, 1, seed=5)
        assert built.n == 7 and built.seed == 5
        with pytest.raises(TypeError):
            as_context(field)

    def test_validation(self):
        field = GF2k(8)
        with pytest.raises(ValueError):
            ProtocolContext.create(field, n=0, t=0)
        with pytest.raises(ValueError):
            ProtocolContext.create(field, n=3, t=-1)
