"""Flight recorder: lossless capture, replay, and divergence detection.

The log must be a *faithful* record: serialization round-trips byte for
byte across schedulers and fields, replay reconstructs exactly the
inboxes the runtime delivered, and attaching a recorder never changes
the run it observes (the NULL_RECORDER discipline, asserted here).
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.fields import GF2k
from repro.fields.gfp import GFp
from repro.net import (
    AsyncRuntime,
    PermutedDeliveryScheduler,
    RandomOrderScheduler,
    codec,
)
from repro.net.faults import FaultPlane
from repro.net.simulator import Send, SynchronousNetwork
from repro.obs.flight import (
    Divergence,
    FlightLog,
    FlightRecorder,
    OpaquePayload,
    RoundEvent,
    diff,
    field_from_spec,
    field_spec,
    replay,
)
from repro.protocols.async_coin import async_coin_program
from repro.protocols.broadcast import run_reliable_broadcast
from repro.protocols.coin_expose import (
    coin_expose,
    expose_tag,
    make_dealer_coin,
)
from repro.protocols.coin_gen import run_coin_gen
from repro.protocols.context import ProtocolContext, run_players


def record_coin_gen(field, n=7, t=1, seed=3, scheduler=None, faults=None,
                    M=1, **kwargs):
    """One recorded Coin-Gen run; returns (log, outputs, ctx)."""
    ctx = ProtocolContext.create(field, n=n, t=t, seed=seed,
                                 scheduler=scheduler, faults=faults)
    recorder = FlightRecorder(n=n, t=t, field=field, seed=seed).attach(ctx)
    outputs, _ = run_coin_gen(ctx, M=M, tag="cg", **kwargs)
    return recorder.log(), outputs, ctx


class TestFieldSpec:
    def test_gf2k_round_trip(self):
        field = GF2k(32)
        rebuilt = field_from_spec(field_spec(field))
        assert isinstance(rebuilt, GF2k)
        assert rebuilt.k == 32 and rebuilt.modulus == field.modulus

    def test_gfp_round_trip(self):
        rebuilt = field_from_spec(field_spec(GFp(10007)))
        assert isinstance(rebuilt, GFp)
        assert rebuilt.p == 10007

    def test_unknown_spec_raises(self):
        with pytest.raises(ValueError):
            field_from_spec("weird:5")


class TestLosslessRoundTrip:
    """dumps -> loads -> dumps is a fixed point, for real protocol runs."""

    @pytest.mark.parametrize("make_scheduler", [
        lambda: None,
        lambda: PermutedDeliveryScheduler(seed=9),
    ], ids=["lockstep", "permuted"])
    @pytest.mark.parametrize("make_field", [
        lambda: GF2k(16),
        lambda: GF2k(32),
        lambda: GFp(2**31 - 1),
    ], ids=["gf2k16", "gf2k32", "gfp_mersenne31"])
    def test_coin_gen_round_trip(self, make_field, make_scheduler):
        log, outputs, _ = record_coin_gen(
            make_field(), scheduler=make_scheduler()
        )
        assert any(o.success for o in outputs.values())
        text = log.dumps()
        reloaded = FlightLog.loads(text)
        assert reloaded.dumps() == text
        assert diff(log, reloaded) is None
        # deliveries decode to identical python payloads, order included
        assert [e.deliveries for e in reloaded.rounds] == [
            e.deliveries for e in log.rounds
        ]

    def test_fault_events_round_trip(self):
        plane = FaultPlane().crash(5, at_round=4).drop(src=5)
        log, _, _ = record_coin_gen(GF2k(16), faults=plane)
        reloaded = FlightLog.loads(log.dumps())
        assert reloaded.dumps() == log.dumps()
        assert [(f.run, f.round, f.kind, f.src, f.dst)
                for f in reloaded.faults] == [
            (f.run, f.round, f.kind, f.src, f.dst) for f in log.faults
        ]
        assert any(f.kind == "crash" for f in reloaded.faults)

    def test_dump_and_load_files(self, tmp_path):
        log, _, _ = record_coin_gen(GF2k(16))
        path = tmp_path / "run.flightlog"
        log.dump(str(path))
        assert FlightLog.load(str(path)).dumps() == log.dumps()

    def test_multi_run_log_keeps_run_boundaries(self):
        # several protocol runs recorded through one context: round
        # numbers restart per run, the run markers keep them apart
        field = GF2k(16)
        ctx = ProtocolContext.create(field, n=7, t=1, seed=3)
        recorder = FlightRecorder(n=7, t=1, field=field, seed=3).attach(ctx)
        run_coin_gen(ctx, M=1, tag="one")
        run_coin_gen(ctx, M=1, tag="two")
        log = recorder.log()
        assert log.runs() == [1, 2]
        reloaded = FlightLog.loads(log.dumps())
        assert reloaded.runs() == [1, 2]
        keys = [(e.run, e.round) for e in reloaded.rounds]
        assert len(set(keys)) == len(keys), "run/round keys must be unique"

    def test_an_async_silence_stays_in_its_run(self):
        """One ``run()`` is one run of the log.  The async loop notes a
        silence at the tick that just settled, after that tick's round
        event; the parent read the round number that did not advance as
        a new run and split this run into three."""
        flight = FlightRecorder(n=7, t=2)
        runtime = AsyncRuntime(
            7, field=GF2k(16), scheduler=RandomOrderScheduler(9),
            faults=FaultPlane().silence(4, range(2, 5000)), flight=flight,
        )
        run_reliable_broadcast(7, 2, 1, ("v", 7), runtime=runtime)
        log = flight.log()
        assert log.faults and {f.kind for f in log.faults} == {"silence"}
        for view in (log, FlightLog.loads(log.dumps())):
            assert {e.run for e in view.events()} == {1}


# payloads drawn from the full wire vocabulary the codec supports
payloads = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**40), 2**40)
    | st.text(max_size=8),
    lambda children: st.tuples(children, children),
    max_leaves=6,
)
deliveries = st.lists(
    st.tuples(st.integers(1, 7), st.integers(1, 7), payloads),
    max_size=12,
)


class TestRoundTripProperty:
    @given(rounds=st.lists(deliveries, min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_payload_streams_round_trip(self, rounds):
        log = FlightLog(n=7, t=1, field="gf2k:16", seed=0)
        index = 0
        for round_no, dels in enumerate(rounds, start=1):
            log.rounds.append(RoundEvent(
                index=index, run=1, round=round_no,
                deliveries=tuple(dels),
            ))
            index += 1
        log.event_count = index
        text = log.dumps()
        reloaded = FlightLog.loads(text)
        assert reloaded.dumps() == text
        assert [e.deliveries for e in reloaded.rounds] == [
            e.deliveries for e in log.rounds
        ]

    def test_non_codec_payload_becomes_opaque(self):
        log = FlightLog(n=3, t=0, event_count=1)
        log.rounds.append(RoundEvent(
            index=0, run=1, round=1,
            deliveries=((1, 2, ["not", "wire", "vocab"]),),
        ))
        reloaded = FlightLog.loads(log.dumps())
        (dst, src, payload), = reloaded.rounds[0].deliveries
        assert (dst, src) == (1, 2)
        assert payload == OpaquePayload("['not', 'wire', 'vocab']")


class TestReplay:
    def test_inboxes_match_runtime_delivery(self):
        log, _, _ = record_coin_gen(GF2k(16))
        result = replay(log)
        for event in log.rounds:
            inboxes = result.inboxes[(event.run, event.round)]
            rebuilt = {}
            for dst, src, payload in event.deliveries:
                rebuilt.setdefault(dst, {}).setdefault(src, []).append(payload)
            assert inboxes == rebuilt

    def test_expose_decodes_are_unanimous_for_honest_run(self):
        log, _, _ = record_coin_gen(GF2k(16))
        result = replay(log)
        decoded = result.decoded_values()
        assert decoded, "a Coin-Gen run exposes challenge/leader coins"
        for values in decoded.values():
            assert len(set(values.values())) == 1
            assert None not in values.values()

    def test_replay_serialization_byte_identical(self):
        # the CI acceptance check: replay(loaded) == replay(original)
        log, _, _ = record_coin_gen(GF2k(32), seed=5)
        reloaded = FlightLog.loads(log.dumps())
        original, rerun = replay(log), replay(reloaded)
        assert original.inboxes == rerun.inboxes
        assert original.tags == rerun.tags
        assert original.expose_decodes == rerun.expose_decodes


def _liar(field, n, coin_id, rng):
    """A faulty holder: its own garbage share to every receiver."""
    yield [Send(dst, (expose_tag(coin_id), field.random(rng)))
           for dst in range(1, n + 1)]


class TestReplayEqualsLive:
    """The replay rule (``coin_expose.exposure_shares``): a receiver's
    decode over every share that reached it in the run is the value it
    decoded live — with up to t liars, whenever their shares land."""

    N, T = 7, 2

    def _exposure(self, seed, liars):
        field = GF2k(16)
        rng = random.Random(seed)
        secret, shares = make_dealer_coin(field, self.N, self.T, "c", rng)
        flight = FlightRecorder(n=self.N, t=self.T, field=field)
        faulty = {pid: _liar(field, self.N, "c", rng) for pid in liars}
        return field, secret, shares, flight, faulty

    def _assert_replay_is_live(self, flight, outputs, secret, liars):
        (replayed,) = replay(flight.log()).decoded_values().values()
        for pid in range(1, self.N + 1):
            if pid not in liars:
                assert replayed[pid] == outputs[pid] == secret

    @given(seed=st.integers(0, 10_000),
           delays=st.dictionaries(st.integers(1, 7), st.integers(0, 2),
                                  max_size=2))
    @settings(max_examples=25, deadline=None)
    def test_lockstep_liars_delayed_by_up_to_two_rounds(self, seed, delays):
        field, secret, shares, flight, faulty = self._exposure(seed, delays)
        plane = FaultPlane()
        for liar, by in delays.items():
            if by:
                plane.delay(src=liar, by=by)
        network = SynchronousNetwork(self.N, field=field, flight=flight,
                                     faults=plane, allow_broadcast=False)
        outputs = run_players(
            network, self.N,
            lambda pid: coin_expose(field, pid, shares[pid]), faulty,
        )
        self._assert_replay_is_live(flight, outputs, secret, delays)

    @given(seed=st.integers(0, 10_000), sched_seed=st.integers(0, 10_000),
           liars=st.sets(st.integers(1, 7), max_size=2))
    @settings(max_examples=25, deadline=None)
    def test_async_liars_under_random_schedules(self, seed, sched_seed,
                                                liars):
        field, secret, shares, flight, faulty = self._exposure(seed, liars)
        runtime = AsyncRuntime(self.N, field=field, flight=flight,
                               scheduler=RandomOrderScheduler(sched_seed))
        outputs = run_players(
            runtime, self.N,
            lambda pid: async_coin_program(field, self.N, pid, shares[pid]),
            faulty,
        )
        self._assert_replay_is_live(flight, outputs, secret, liars)

    def test_a_share_delayed_to_one_receiver_does_not_split_the_replay(self):
        """The parent decoded the late share alone, in the drain round,
        and overwrote player 2's good value with None."""
        field, secret, shares, flight, faulty = self._exposure(5, {7})
        network = SynchronousNetwork(
            self.N, field=field, flight=flight, allow_broadcast=False,
            faults=FaultPlane().delay(src=7, dst=2, by=1),
        )
        run_players(network, self.N,
                    lambda pid: coin_expose(field, pid, shares[pid]), faulty)
        log = flight.log()
        assert [len(event.deliveries) for event in log.rounds] == [48, 1]
        (replayed,) = replay(log).decoded_values().values()
        assert set(replayed.values()) == {secret}


class TestDiff:
    def test_identical_logs_no_divergence(self):
        log, _, _ = record_coin_gen(GF2k(16))
        assert diff(log, FlightLog.loads(log.dumps())) is None

    def test_same_seed_runs_identical(self):
        log_a, _, _ = record_coin_gen(GF2k(16), seed=4)
        log_b, _, _ = record_coin_gen(GF2k(16), seed=4)
        assert diff(log_a, log_b) is None

    def test_different_seeds_diverge(self):
        log_a, _, _ = record_coin_gen(GF2k(16), seed=4)
        log_b, _, _ = record_coin_gen(GF2k(16), seed=5)
        divergence = diff(log_a, log_b)
        assert isinstance(divergence, Divergence)

    def test_tampering_pinpointed(self):
        log, _, _ = record_coin_gen(GF2k(16))
        tampered = FlightLog.loads(log.dumps())
        event = tampered.rounds[3]
        dst, src, payload = event.deliveries[0]
        mutated = event.deliveries[1:] + ((dst, src, ("cg/nu", 0xBAD)),)
        tampered.rounds[3] = RoundEvent(
            index=event.index, run=event.run, round=event.round,
            deliveries=mutated,
        )
        divergence = diff(log, tampered)
        assert divergence is not None
        assert (divergence.run, divergence.round) == (event.run, event.round)
        assert divergence.sender == src
        assert divergence.receiver == dst

    def test_header_mismatch_reported(self):
        log_a = FlightLog(n=7, t=1)
        log_b = FlightLog(n=13, t=2)
        divergence = diff(log_a, log_b)
        assert divergence is not None and "header" in divergence.reason

    def test_scheduler_permutation_is_not_divergence(self):
        # arrival *order* differs under the permuted scheduler, but the
        # delivered multiset per round is scheduler-invariant
        log_a, _, _ = record_coin_gen(GF2k(16), seed=4)
        log_b, _, _ = record_coin_gen(
            GF2k(16), seed=4, scheduler=PermutedDeliveryScheduler(seed=99)
        )
        assert diff(log_a, log_b) is None


class TestVersioning:
    def test_future_version_rejected(self):
        log, _, _ = record_coin_gen(GF2k(16))
        lines = log.dumps().splitlines()
        header = json.loads(lines[0])
        header["flight"] = 999
        with pytest.raises(ValueError, match="version"):
            FlightLog.loads("\n".join([json.dumps(header)] + lines[1:]))

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            FlightLog.loads("")


HEADER = '{"flight": 1, "n": 7, "t": 1}'
ROUND = '{"e": "round", "i": 1, "run": 1, "r": 1, "d": [[2, 1, "690101"]]}'

FAULT = '{"e": "fault", "i": 1, "r": 1, "k": "crash", "src": 4, "dst": 0}'

ARMED = ('{"e": "armed", "i": 1, "run": 1, "r": 0, "pid": 2, '
         '"w": [[["rbc/echo"], 5], [["rbc/ready"], 3]]}')
FIRED = '{"e": "fired", "i": 2, "run": 1, "r": 4, "pid": 2}'

MALFORMED = {
    "header_without_n": '{"flight": 1}',
    "header_is_a_list": '[1, 2, 3]',
    "header_is_not_json": 'flight log',
    "mistyped_header_key": '{"flight": 1, "n": "seven", "t": 1}',
    "round_without_deliveries":
        HEADER + '\n{"e": "round", "i": 1, "run": 1, "r": 1}',
    "round_without_index":
        HEADER + '\n{"e": "round", "run": 1, "r": 1, "d": []}',
    "mistyped_index": HEADER + '\n' + ROUND.replace('"i": 1', '"i": "1"'),
    "non_object_line": HEADER + '\n42',
    "truncated_line": HEADER + '\n' + ROUND[:30],
    "event_without_kind": HEADER + '\n{"i": 1}',
    "unknown_event_kind": HEADER + '\n{"e": "teleport", "i": 1}',
    "undecodable_payload": HEADER + '\n' + ROUND.replace("690101", "ff"),
    "bad_hex_payload": HEADER + '\n' + ROUND.replace("690101", "zz"),
    # tuples nested 100,000 deep: a RecursionError inside the decoder
    # before the codec bounded the depth
    "nesting_bomb_payload": HEADER + '\n' + ROUND.replace(
        "690101", (b"(\x01" * 100_000 + b"N").hex()),
    "delivery_is_not_a_triple":
        HEADER + '\n' + ROUND.replace('[2, 1, "690101"]', '[2, 1]'),
    "delivery_is_a_number":
        HEADER + '\n' + ROUND.replace('[2, 1, "690101"]', '7'),
    "opaque_payload_without_repr":
        HEADER + '\n' + ROUND.replace('"690101"', '{"text": "x"}'),
    "fault_without_kind":
        HEADER + '\n{"e": "fault", "i": 1, "r": 1, "src": 4, "dst": 0}',
    # ids that are not players 1..n of the header (n = 7)
    "delivery_from_player_zero":
        HEADER + '\n' + ROUND.replace('[2, 1,', '[2, 0,'),
    "delivery_from_a_negative_player":
        HEADER + '\n' + ROUND.replace('[2, 1,', '[2, -3,'),
    "delivery_from_beyond_n":
        HEADER + '\n' + ROUND.replace('[2, 1,', '[2, 50,'),
    "delivery_from_beyond_the_field":
        HEADER + '\n' + ROUND.replace('[2, 1,', '[2, 99999999999,'),
    "delivery_to_player_zero":
        HEADER + '\n' + ROUND.replace('[2, 1,', '[0, 1,'),
    "delivery_to_beyond_n":
        HEADER + '\n' + ROUND.replace('[2, 1,', '[8, 1,'),
    "fault_by_beyond_n": HEADER + '\n' + FAULT.replace('"src": 4', '"src": 8'),
    "fault_by_player_zero":
        HEADER + '\n' + FAULT.replace('"src": 4', '"src": 0'),
    "fault_at_beyond_n": HEADER + '\n' + FAULT.replace('"dst": 0', '"dst": 8'),
    "fault_at_a_negative_player":
        HEADER + '\n' + FAULT.replace('"dst": 0', '"dst": -1'),
}

#: guard lines: a parked or woken pid that is not a player 1..n, a guard
#: that is not a list of [[tag, ...], quorum] branches, a quorum that is
#: not a count — each with what its error must name
GUARD_MALFORMED = {
    "armed_by_player_zero": (ARMED.replace('"pid": 2', '"pid": 0'), "pid"),
    "armed_by_beyond_n": (ARMED.replace('"pid": 2', '"pid": 8'), "pid"),
    "armed_by_true": (ARMED.replace('"pid": 2', '"pid": true'), "pid"),
    "fired_by_player_zero": (FIRED.replace('"pid": 2', '"pid": 0'), "pid"),
    "fired_by_beyond_n": (FIRED.replace('"pid": 2', '"pid": 8'), "pid"),
    "fired_by_true": (FIRED.replace('"pid": 2', '"pid": true'), "pid"),
    "fired_without_pid": (FIRED.replace(', "pid": 2', ''), "pid"),
    "guard_is_not_a_list": (ARMED.replace(
        '[[["rbc/echo"], 5], [["rbc/ready"], 3]]', '{"rbc/echo": 5}'),
        "guard"),
    "guard_is_empty": (ARMED.replace(
        '[[["rbc/echo"], 5], [["rbc/ready"], 3]]', '[]'), "guard"),
    "armed_without_guard": (ARMED.replace(
        ', "w": [[["rbc/echo"], 5], [["rbc/ready"], 3]]', ''), "guard"),
    "branch_is_not_a_pair":
        (ARMED.replace('[["rbc/ready"], 3]', '["x"]'), "guard branch"),
    "branch_with_empty_tags":
        (ARMED.replace('[["rbc/ready"], 3]', '[[], 3]'), "guard tags"),
    "branch_with_a_non_string_tag":
        (ARMED.replace('["rbc/ready"]', '["rbc/ready", 7]'), "guard tags"),
    "negative_quorum": (ARMED.replace('], 3]', '], -1]'), "guard quorum"),
    "boolean_quorum": (ARMED.replace('], 3]', '], true]'), "guard quorum"),
    "string_quorum": (ARMED.replace('], 3]', '], "3"]'), "guard quorum"),
}
MALFORMED.update({case: HEADER + '\n' + line
                  for case, (line, _what) in GUARD_MALFORMED.items()})


class TestMalformedLogs:
    """Every malformed log is a ``ValueError`` from ``FlightLog.loads`` —
    what the CLI's loader turns into exit 2 — never a ``KeyError``, an
    ``AttributeError`` or a ``CodecError`` from inside the parser."""

    def test_the_well_formed_fixture_parses(self):
        log = FlightLog.loads(HEADER + "\n" + ROUND + "\n")
        assert log.rounds[0].deliveries == ((2, 1, 1),)

    def test_a_fault_on_every_destination_parses(self):
        # dst 0 is "all destinations" (a player-level fault), not a player
        log = FlightLog.loads(HEADER + "\n" + FAULT + "\n")
        assert (log.faults[0].src, log.faults[0].dst) == (4, 0)

    def test_the_guard_lines_parse_and_round_trip(self):
        text = "\n".join([HEADER, ARMED, FIRED, ROUND.replace('"i": 1',
                                                            '"i": 3')])
        log = FlightLog.loads(text + "\n")
        armed, fired = log.guards
        assert (armed.pid, armed.round, armed.waits) == (
            2, 0, ((("rbc/echo",), 5), (("rbc/ready",), 3)),
        )
        assert (fired.pid, fired.round, fired.waits) == (2, 4, ())
        assert FlightLog.loads(log.dumps()) == log
        # readers of deliveries never see them
        assert [event.index for event in log.rounds] == [3]
        assert replay(log).inboxes == replay(
            FlightLog.loads(HEADER + "\n" + ROUND + "\n")).inboxes

    @pytest.mark.parametrize("case", sorted(GUARD_MALFORMED))
    def test_a_hostile_guard_line_names_its_fault(self, case, tmp_path,
                                                  capsys):
        """Named, not merely refused as an unknown kind of line — and
        ``repro replay`` exits 2 on it."""
        what = GUARD_MALFORMED[case][1]
        with pytest.raises(ValueError, match=f"^line 2: .*{what}"):
            FlightLog.loads(MALFORMED[case] + "\n")
        path = tmp_path / "hostile.flightlog"
        path.write_text(MALFORMED[case] + "\n")
        assert main(["replay", str(path)]) == 2
        assert what in capsys.readouterr().err

    def test_a_nesting_bomb_is_a_usage_error(self, tmp_path, capsys):
        """``repro replay`` on a valid async log with one payload swapped
        for the bomb exits 2 with a message, not a traceback."""
        flight = FlightRecorder(n=7, t=2, field=GF2k(16))
        _, shares = make_dealer_coin(GF2k(16), 7, 2, "c", random.Random(1))
        AsyncRuntime(7, field=GF2k(16), flight=flight).run({
            pid: async_coin_program(GF2k(16), 7, pid, shares[pid])
            for pid in range(1, 8)
        })
        text = flight.log().dumps()
        wire = flight.log().rounds[0].deliveries[0][2]
        bomb = (b"(\x01" * 100_000 + b"N").hex()
        path = tmp_path / "bomb.flightlog"
        path.write_text(text.replace(codec.encode(wire).hex(), bomb, 1))
        assert main(["replay", str(path)]) == 2
        assert "nested deeper" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_input_is_a_value_error(self, case):
        with pytest.raises(ValueError):
            FlightLog.loads(MALFORMED[case] + "\n")

    def test_the_error_names_the_line(self):
        with pytest.raises(ValueError, match="line 3"):
            FlightLog.loads(
                HEADER + "\n" + ROUND + "\n" + ROUND.replace("690101", "ff")
            )

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_log_parses_or_raises_value_error(self, data):
        lines = _VALID_LOG.splitlines()
        number = data.draw(st.integers(0, len(lines) - 1))
        line = lines[number]
        mutation = data.draw(st.sampled_from(["delete_key", "truncate", "flip"]))
        if mutation == "delete_key":
            record = json.loads(line)
            del record[data.draw(st.sampled_from(sorted(record)))]
            line = json.dumps(record)
        elif mutation == "truncate":
            line = line[:data.draw(st.integers(0, len(line) - 1))]
        else:
            # flip one character of a hex payload (or of the header)
            at = data.draw(st.integers(0, len(line) - 1))
            line = line[:at] + data.draw(
                st.sampled_from("0123456789abcdefz\"[{")
            ) + line[at + 1:]
        lines[number] = line
        try:
            parsed = FlightLog.loads("\n".join(lines) + "\n")
        except ValueError:
            return
        assert isinstance(parsed, FlightLog)


#: a real recorded run, faults included, for the mutation property
_VALID_LOG = record_coin_gen(
    GF2k(16), faults=FaultPlane().crash(5, at_round=4).drop(src=5)
)[0].dumps()


class TestZeroCostDiscipline:
    def test_run_without_recorder_is_byte_identical(self):
        """Attaching a flight recorder must not perturb the run."""
        def run(with_recorder):
            ctx = ProtocolContext.create(GF2k(16), n=7, t=1, seed=11)
            if with_recorder:
                FlightRecorder(n=7, t=1, field=ctx.field, seed=11).attach(ctx)
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
