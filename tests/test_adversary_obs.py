"""Flight-log round and SpanRecorder tallies under adversary programs.

Expectations here are hand-computed from the protocol's round shape at
n=7, t=1, M=1: an all-to-all round carries n^2 = 49 deliveries (every
player multicasts one tagged message), a king round carries n = 7, and
the round-1 deal has each of the 7 players sending 7 ``cg/sh`` shares.
A crash at round r removes exactly that player's n sends from every
round >= r; an equivocator twists each multicast into n per-receiver
sends with the *same* tag, so every (sender, tag) tally is preserved
even though the payload bodies differ.
"""

import random

import pytest

from repro.fields import GF2k
from repro.net.adversary import crash_program, equivocator_program
from repro.obs.flight import FlightRecorder
from repro.obs.spans import SpanRecorder
from repro.protocols.coin_gen import run_coin_gen
from repro.protocols.context import ProtocolContext
from tests.test_trace import round_tallies

N, T, SEED = 7, 1, 3
FULL_ROUND = N * N          # all-to-all: 49
KING_ROUND = N              # one player multicasts: 7
CRASH_ROUND = 3
CORRUPT = 4


def total(tally):
    return sum(tally.values())


def senders(tally):
    return sorted({src for src, _tag in tally})


def traced_coin_gen(faulty_programs=None, seed=SEED):
    """(per-round {(src, tag): deliveries} tallies, recorder, outputs)."""
    flight = FlightRecorder(n=N, t=T)
    recorder = SpanRecorder()
    ctx = ProtocolContext.create(GF2k(16), n=N, t=T, seed=seed,
                                 flight=flight, recorder=recorder)
    outputs, _ = run_coin_gen(ctx, M=1, tag="cg",
                              faulty_programs=faulty_programs)
    return round_tallies(flight.log()), recorder, outputs


@pytest.fixture(scope="module")
def honest():
    return traced_coin_gen()


@pytest.fixture(scope="module")
def crashed():
    return traced_coin_gen({
        CORRUPT: lambda honest_program: crash_program(
            CRASH_ROUND, honest_program
        ),
    })


@pytest.fixture(scope="module")
def equivocated():
    rng = random.Random(SEED + 100)
    return traced_coin_gen({
        CORRUPT: lambda honest_program: equivocator_program(
            N, rng, honest_program
        ),
    })


class TestHonestBaseline:
    def test_deal_round_is_n_squared_shares(self, honest):
        tracer, _, _ = honest
        first = tracer[0]
        assert total(first) == FULL_ROUND
        assert {tag for _src, tag in first} == {"cg/sh"}
        assert senders(first) == list(range(1, N + 1))
        assert all(count == N for count in first.values())

    def test_round_totals_match_protocol_shape(self, honest):
        # every round is all-to-all, a king round, or a final no-send
        tracer, _, _ = honest
        assert {total(r) for r in tracer} <= {
            FULL_ROUND, KING_ROUND, 0,
        }

    def test_king_rounds_have_one_sender(self, honest):
        tracer, _, _ = honest
        kings = [r for r in tracer if total(r) == KING_ROUND]
        assert kings, "BA phase includes king rounds"
        for r in kings:
            assert len(senders(r)) == 1


class TestCrashTallies:
    def test_pre_crash_rounds_identical_to_honest(self, honest, crashed):
        honest_tracer = honest[0]
        crash_tracer = crashed[0]
        for index in range(CRASH_ROUND - 1):
            assert crash_tracer[index] == honest_tracer[index]

    def test_no_messages_from_crashed_player_after_crash(self, crashed):
        tracer, _, _ = crashed
        for r in tracer[CRASH_ROUND - 1:]:
            assert CORRUPT not in senders(r)

    def test_crashed_player_total_is_two_full_rounds(self, crashed):
        # sends n deals in round 1, n expose shares in round 2, nothing after
        tracer, _, _ = crashed
        from_corrupt = sum(
            count
            for r in tracer
            for (src, _tag), count in r.items()
            if src == CORRUPT
        )
        assert from_corrupt == (CRASH_ROUND - 1) * N

    def test_crash_round_loses_exactly_n_messages(self, crashed):
        # round 3 is all-to-all for the n-1 live players: (n-1) * n
        tracer, _, _ = crashed
        crash_round = tracer[CRASH_ROUND - 1]
        assert total(crash_round) == (N - 1) * N
        assert len(senders(crash_round)) == N - 1


class TestEquivocatorTallies:
    def test_deal_round_untouched(self, honest, equivocated):
        # round-1 deals are per-receiver unicasts, which the equivocator
        # passes through: the tally is byte-for-byte the honest one
        assert equivocated[0][0] == honest[0][0]

    def test_twisted_multicasts_preserve_tag_tallies(self, honest,
                                                     equivocated):
        # round 2: the corrupt player's expose multicast became n
        # per-receiver sends with the same tag — (src, tag) counts are
        # indistinguishable from honest even though bodies differ
        honest_r2 = honest[0][1]
        equivocated_r2 = equivocated[0][1]
        assert equivocated_r2 == honest_r2
        assert equivocated_r2[(CORRUPT, "expose/cg-seed0")] == N

    def test_equivocator_never_goes_silent(self, equivocated):
        tracer, _, _ = equivocated
        for r in tracer:
            if total(r) == FULL_ROUND:
                assert CORRUPT in senders(r)

    def test_honest_players_still_succeed(self, equivocated):
        _, _, outputs = equivocated
        assert all(outputs[pid].success for pid in range(1, N + 1)
                   if pid != CORRUPT)


class TestSpanTallies:
    @pytest.mark.parametrize("scenario", ["honest", "crashed", "equivocated"])
    def test_round_span_messages_match_tracer(self, scenario, request):
        tracer, recorder, _ = request.getfixturevalue(scenario)
        round_spans = sorted(recorder.by_kind("round"), key=lambda s: s.t0)
        assert len(round_spans) == len(tracer)
        for span, tally in zip(round_spans, tracer):
            assert span.attrs.get("messages") == total(tally)

    @pytest.mark.parametrize("scenario", ["honest", "crashed", "equivocated"])
    def test_phase_spans_partition_the_message_total(self, scenario, request):
        tracer, recorder, _ = request.getfixturevalue(scenario)
        assert sum(s.attrs["messages"] for s in recorder.phase_spans()) \
            == sum(total(r) for r in tracer)

    def test_crash_shrinks_the_span_totals(self, honest, crashed):
        honest_total = sum(
            s.attrs["messages"] for s in honest[1].phase_spans()
        )
        crashed_total = sum(
            s.attrs["messages"] for s in crashed[1].phase_spans()
        )
        assert crashed_total < honest_total

    def test_single_protocol_span(self, honest):
        _, recorder, _ = honest
        assert [s.name for s in recorder.by_kind("protocol")] == ["coin_gen"]
