"""The flight log's rounds as a protocol trace, and wire-codec
enforcement."""

import random
from collections import Counter

import pytest

from repro.fields import GF2k
from repro.net.metrics import payload_tag
from repro.net.simulator import SynchronousNetwork, multicast
from repro.obs.flight import FlightRecorder
from repro.protocols.coin_gen import coin_gen_program, make_seed_coins

F = GF2k(32)
N, T = 7, 1


def round_tallies(log):
    """One ``Counter({(src, tag): deliveries})`` per settled round of a
    flight log."""
    return [
        Counter((src, payload_tag(payload))
                for _dst, src, payload in event.deliveries)
        for event in log.rounds
    ]


def by_tag(rounds):
    """Total deliveries per tag over every round."""
    totals = Counter()
    for tally in rounds:
        for (_src, tag), count in tally.items():
            totals[tag] += count
    return totals


def run_coin_gen_traced(enforce_codec=False):
    seeds = make_seed_coins(F, N, T, 4, random.Random(0))
    net = SynchronousNetwork(
        N, field=F, allow_broadcast=False, enforce_codec=enforce_codec,
    )
    flight = FlightRecorder(n=N, t=T).attach(net)
    programs = {
        pid: coin_gen_program(F, N, T, pid, 2, seeds[pid], random.Random(pid))
        for pid in range(1, N + 1)
    }
    outputs = net.run(programs)
    return outputs, round_tallies(flight.log()), net


class TestTracer:
    def test_rounds_recorded(self):
        outputs, tracer, net = run_coin_gen_traced()
        assert all(o.success for o in outputs.values())
        assert len(tracer) == net.metrics.rounds

    def test_phase_structure_visible(self):
        _, tracer, _ = run_coin_gen_traced()
        tags = by_tag(tracer)
        # the Coin-Gen phases all appear in the trace
        assert "cg/sh" in tags
        assert "cg/nu" in tags
        assert any(tag.startswith("cg/gc/") for tag in tags)
        assert any(tag.startswith("cg/ba0/") for tag in tags)
        assert any(tag.startswith("expose/") for tag in tags)

    def test_dealing_round_message_count(self):
        """Round 1 carries exactly n^2 share messages (Theorem 2)."""
        _, tracer, _ = run_coin_gen_traced()
        first = tracer[0]
        assert first[(1, "cg/sh")] == N
        assert sum(first.values()) == N * N

    def test_payload_tag(self):
        assert payload_tag(("x/y", 1)) == "x/y"
        assert payload_tag(42) == "?"
        assert payload_tag(()) == "?"


class TestTracerUnderFaults:
    """The logged rounds must reflect what the FaultPlane actually
    delivered."""

    @staticmethod
    def _ping(pid, n):
        def program():
            yield [multicast(("ping", pid))]

        return program()

    def _run(self, plane):
        n = 3
        net = SynchronousNetwork(
            n, field=F, allow_broadcast=False, faults=plane
        )
        flight = FlightRecorder(n=n, t=0).attach(net)
        net.run({pid: self._ping(pid, n) for pid in range(1, n + 1)})
        return round_tallies(flight.log()), net

    def test_dropped_messages_absent_from_trace(self):
        from repro.net.faults import FaultPlane

        tracer, _ = self._run(FaultPlane().drop(src=3))
        first = tracer[0]
        # players 1 and 2 each reach all 3; player 3's sends vanish
        assert first.get((1, "ping")) == 3
        assert first.get((2, "ping")) == 3
        assert (3, "ping") not in first
        assert by_tag(tracer)["ping"] == 6

    def test_duplicated_messages_doubled_in_trace(self):
        from repro.net.faults import FaultPlane

        tracer, _ = self._run(FaultPlane().duplicate(src=2, dst=1))
        first = tracer[0]
        # the 2 -> 1 edge delivers twice; 2's other two sends once each
        assert first.get((2, "ping")) == 4
        assert by_tag(tracer)["ping"] == 10

    def test_fault_events_published_to_recorder(self):
        from repro.net.faults import FaultPlane
        from repro.obs.spans import SpanRecorder

        n = 3
        recorder = SpanRecorder()
        plane = FaultPlane().drop(src=3).duplicate(src=2, dst=1)
        net = SynchronousNetwork(
            n, field=F, allow_broadcast=False, faults=plane,
            recorder=recorder,
        )
        net.run({pid: self._ping(pid, n) for pid in range(1, n + 1)})
        kinds = sorted(f["kind"] for f in recorder.faults)
        # 3 drops (3 -> everyone) + 1 duplicate (2 -> 1)
        assert kinds == ["drop", "drop", "drop", "duplicate"]

    def test_timeline_consistent_with_faulted_delivery(self):
        from repro.net.faults import FaultPlane

        tracer, net = self._run(FaultPlane().drop(src=3))
        assert len(tracer) == net.metrics.rounds
        assert "ping" in by_tag(tracer)


class TestCodecEnforcement:
    def test_coin_gen_payloads_all_encodable(self):
        outputs, _, net = run_coin_gen_traced(enforce_codec=True)
        assert all(o.success for o in outputs.values())
        assert net.metrics.wire_bytes > 0

    def test_wire_bytes_close_to_paper_accounting(self):
        """The paper's k-bit accounting and the real wire bytes agree
        within framing overhead (a sanity check on the metrics model)."""
        _, _, net = run_coin_gen_traced(enforce_codec=True)
        paper_bytes = net.metrics.bits / 8
        wire = net.metrics.wire_bytes
        assert 0.3 * paper_bytes < wire < 4 * paper_bytes

    def test_unencodable_payload_raises(self):
        def bad():
            yield [multicast(("tag", [1, 2]))]  # lists are off-vocabulary

        from repro.net.codec import CodecError

        net = SynchronousNetwork(2, enforce_codec=True)
        with pytest.raises(CodecError):
            net.run({1: bad()})
