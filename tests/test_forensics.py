"""Forensics: soundness and completeness of the accusation engine.

Soundness — an honest player following the protocol is *never* accused,
under any adversary or fault scenario.  Completeness — every player the
scenario corrupts is implicated.  Both are exercised across every
adversary program in :mod:`repro.net.adversary`, fault-plane crash and
silence scenarios, and a seed matrix (the accusation rules must hold for
arbitrary protocol randomness, not one lucky transcript).
"""

import random

import pytest

from repro.fields import GF2k
from repro.net.adversary import (
    crash_program,
    echo_noise_program,
    equivocator_program,
    silent_program,
)
from repro.net.faults import FaultPlane
from repro.net.simulator import SynchronousNetwork, multicast
from repro.obs.flight import FlightLog, FlightRecorder
from repro.obs.forensics import Accusation, AccusationReport, analyze_log
from repro.protocols.coin_gen import run_coin_gen
from repro.protocols.context import ProtocolContext


def forensics_run(field, n, t, seed, faulty_programs=None, faults=None):
    """Record one Coin-Gen under the scenario; return the analyzed report."""
    ctx = ProtocolContext.create(field, n=n, t=t, seed=seed, faults=faults)
    recorder = FlightRecorder(n=n, t=t, field=field, seed=seed)
    recorder.attach(ctx)
    run_coin_gen(ctx, M=1, tag="cg", faulty_programs=faulty_programs)
    return analyze_log(recorder.log())


def scenario_programs(kind, corrupt, n, seed):
    """The faulty_programs dict for one named adversary scenario."""
    rng = random.Random(seed * 977 + 13)
    programs = {}
    for pid in corrupt:
        if kind == "equivocator":
            programs[pid] = (
                lambda honest, r=rng: equivocator_program(n, r, honest)
            )
        elif kind == "silent":
            programs[pid] = silent_program()
        elif kind == "crash":
            programs[pid] = (
                lambda honest, r=rng: crash_program(
                    2 + r.randrange(4), honest
                )
            )
        elif kind == "echo":
            programs[pid] = echo_noise_program(n, rng)
        else:  # pragma: no cover
            raise ValueError(kind)
    return programs


SCENARIOS = ("equivocator", "silent", "crash", "echo")
SEEDS = (1, 2, 3, 5, 8)


class TestAdversaryProgramMatrix:
    """4 adversary programs x 5 seeds at n=7, t=1: 20 scenario runs."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", SCENARIOS)
    def test_exactly_the_corrupt_player_implicated(self, kind, seed):
        n, t, corrupt = 7, 1, {4}
        report = forensics_run(
            GF2k(16), n, t, seed,
            faulty_programs=scenario_programs(kind, corrupt, n, seed),
        )
        assert report.corrupt_players() == corrupt, (
            f"{kind}/seed{seed}: implicated "
            f"{sorted(report.corrupt_players())}, expected {sorted(corrupt)}"
            f"\n{report.summary()}"
        )


class TestFaultPlaneScenarios:
    @pytest.mark.parametrize("seed", (1, 3, 7))
    def test_fault_plane_crash(self, seed):
        plane = FaultPlane().crash(5, at_round=3)
        report = forensics_run(GF2k(16), 7, 1, seed, faults=plane)
        assert report.corrupt_players() == {5}
        kinds = {a.kind for a in report.against(5)}
        # both behaviourally detected and backed by the recorded event
        assert "injected" in kinds
        assert "silence" in kinds

    @pytest.mark.parametrize("seed", (1, 3, 7))
    def test_fault_plane_silence(self, seed):
        plane = FaultPlane().silence(2, rounds=[3, 4])
        report = forensics_run(GF2k(16), 7, 1, seed, faults=plane)
        assert report.corrupt_players() == {2}

    def test_fault_plane_full_drop_caught_as_silence(self):
        # dropping every send of player 6 makes it behaviourally silent
        plane = FaultPlane().drop(src=6)
        report = forensics_run(GF2k(16), 7, 1, seed=2, faults=plane)
        assert report.corrupt_players() == {6}
        assert {a.kind for a in report.against(6)} == {"silence"}


class TestTwoCorrupt:
    """n=13, t=2 with two simultaneously corrupt players."""

    @pytest.mark.parametrize("kinds", [
        ("silent", "equivocator"),
        ("crash", "echo"),
    ])
    def test_both_corrupt_players_implicated(self, kinds):
        n, t, seed = 13, 2, 3
        corrupt = {4, 9}
        programs = {}
        for pid, kind in zip(sorted(corrupt), kinds):
            programs.update(scenario_programs(kind, {pid}, n, seed + pid))
        report = forensics_run(GF2k(16), n, t, seed,
                               faulty_programs=programs)
        assert report.corrupt_players() == corrupt, report.summary()


class TestSoundness:
    @pytest.mark.parametrize("seed", SEEDS + (13, 21))
    def test_honest_runs_produce_zero_accusations(self, seed):
        report = forensics_run(GF2k(16), 7, 1, seed)
        assert report.accusations == []
        assert report.corrupt_players() == set()

    def test_unregistered_tag_with_quorum_is_not_accused(self):
        # an unregistered honest protocol (all n players sending an
        # unknown tag) must NOT be mistaken for off-protocol behaviour
        n = 5

        def program(me):
            yield [multicast(("customproto/x", me))]
            return None

        network = SynchronousNetwork(n, allow_broadcast=False)
        recorder = FlightRecorder(n=n, t=1)
        recorder.attach(network)
        network.run({pid: program(pid) for pid in range(1, n + 1)})
        report = analyze_log(recorder.log())
        assert report.accusations == []

    def test_unregistered_tag_from_minority_is_accused(self):
        # ... but the same tag from <= t players is off-protocol noise
        n = 5

        def honest(me):
            yield [multicast(("cg/nu", me))]
            return None

        def weirdo(me):
            yield [multicast(("customproto/x", me))]
            return None

        network = SynchronousNetwork(n, allow_broadcast=False)
        recorder = FlightRecorder(n=n, t=1)
        recorder.attach(network)
        programs = {pid: honest(pid) for pid in range(1, n)}
        programs[n] = weirdo(n)
        network.run(programs)
        report = analyze_log(recorder.log())
        assert report.corrupt_players() == {n}
        assert {a.kind for a in report.against(n)} >= {"off-protocol"}

    def test_deal_phase_per_receiver_shares_not_equivocation(self):
        # deal messages legitimately differ per receiver (Shamir shares);
        # an honest Coin-Gen run's /sh traffic must never be flagged —
        # implied by test_honest_runs_produce_zero_accusations, asserted
        # directly here on the rule itself
        n = 5
        from repro.net.simulator import Send

        def dealer(me):
            yield [Send(dst, ("cg/sh", me * 100 + dst))
                   for dst in range(1, n + 1)]
            return None

        network = SynchronousNetwork(n, allow_broadcast=False)
        recorder = FlightRecorder(n=n, t=1)
        recorder.attach(network)
        network.run({pid: dealer(pid) for pid in range(1, n + 1)})
        report = analyze_log(recorder.log())
        assert report.accusations == []


class TestReportShape:
    def test_evidence_indices_point_into_the_log(self):
        ctx = ProtocolContext.create(GF2k(16), n=7, t=1, seed=3)
        recorder = FlightRecorder(n=7, t=1, field=ctx.field, seed=3)
        recorder.attach(ctx)
        rng = random.Random(7)
        run_coin_gen(
            ctx, M=1, tag="cg",
            faulty_programs={
                4: lambda honest: equivocator_program(7, rng, honest)
            },
        )
        log = recorder.log()
        report = analyze_log(log)
        assert report.accusations
        indices = {event.index for event in log.rounds}
        indices.update(event.index for event in log.faults)
        for accusation in report.accusations:
            assert accusation.event_index in indices
            assert 1 <= accusation.player <= 7
            assert accusation.kind in (
                "equivocation", "silence", "off-protocol", "stale-phase",
                "bad-share", "injected",
            )

    def test_report_survives_serialization_round_trip(self):
        # forensics over loads(dumps(log)) gives the identical verdict
        ctx = ProtocolContext.create(GF2k(16), n=7, t=1, seed=5)
        recorder = FlightRecorder(n=7, t=1, field=ctx.field, seed=5)
        recorder.attach(ctx)
        run_coin_gen(ctx, M=1, tag="cg",
                     faulty_programs={3: silent_program()})
        log = recorder.log()
        direct = analyze_log(log)
        reloaded = analyze_log(FlightLog.loads(log.dumps()))
        assert direct.accusations == reloaded.accusations

    def test_summary_and_verdicts(self):
        report = AccusationReport(n=4, t=1)
        report.accusations.append(Accusation(
            player=2, kind="silence", run=1, round=3, tag="cg/nu",
            detail="missed a quorum tag", event_index=5,
        ))
        # the verdict the CLI reads (``repro forensics --expect``)
        assert report.corrupt_players() == {2}
        text = report.summary()
        assert "player 2" in text and "silence" in text
