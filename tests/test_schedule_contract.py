"""Provenance names the seeded-pick mapping (DESIGN.md §11).

Every async delivery order is a function of ``(seed, pick mapping)``.
``RandomOrderScheduler.contract`` names the mapping; a run's manifest
records it wherever the CLI or the campaign say ``scheduler="random"``,
and two flight logs recorded under different mappings diff as a header
mismatch, not as a divergence at the first delivery.
"""

import dataclasses

from repro.campaign.space import Scenario
from repro.cli import main
from repro.fields import GF2k
from repro.net import RandomOrderScheduler
from repro.obs.flight import FlightLog, FlightRecorder, diff
from repro.obs.manifest import RunManifest
from repro.protocols.async_coin import run_async_coin

CONTRACT = "random-order/2"


def test_the_contract_is_a_class_constant():
    assert RandomOrderScheduler.contract == CONTRACT
    assert RandomOrderScheduler(7).contract == CONTRACT


class TestManifest:
    def test_capture_records_the_contract_for_the_random_axis(self):
        assert RunManifest.capture(scheduler="random").scheduler == CONTRACT
        assert RunManifest.capture(scheduler="permuted").scheduler == "permuted"
        assert RunManifest.capture().scheduler is None

    def test_a_different_mapping_is_a_different_fingerprint(self):
        now = RunManifest.capture(scheduler="random", runtime="async", n=7)
        earlier = dataclasses.replace(now, scheduler="random-order/1")
        assert now.fingerprint() != earlier.fingerprint()
        # and the contract is the one semantic field that differs
        assert now.semantic_dict().items() ^ earlier.semantic_dict().items() == {
            ("scheduler", CONTRACT), ("scheduler", "random-order/1"),
        }

    def test_campaign_cells_on_the_random_axis_carry_it(self):
        cell = Scenario(runtime="async", scheduler="random")
        assert cell.manifest().scheduler == CONTRACT
        assert Scenario(scheduler="random").manifest().scheduler == CONTRACT
        assert Scenario().manifest().scheduler == "lockstep"


class TestCommandLine:
    def record(self, tmp_path, name, *flags):
        path = tmp_path / name
        assert main(["toss", "--count", "2", "--n", "7", "--t", "1",
                     "--flight-log", str(path), *flags]) == 0
        return FlightLog.load(str(path))

    def test_async_toss_names_the_scheduler_it_ran(self, tmp_path, capsys):
        log = self.record(tmp_path, "a.flightlog", "--runtime", "async",
                          "--sched-seed", "1")
        assert log.manifest["scheduler"] == CONTRACT
        assert log.manifest["runtime"] == "async"
        assert diff(log, log) is None

    def test_the_random_axis_on_either_runtime(self, tmp_path, capsys):
        for runtime in ("async", "lockstep"):
            log = self.record(tmp_path, f"{runtime}.flightlog", "--runtime",
                              runtime, "--scheduler", "random", "--batch", "2")
            assert log.manifest["scheduler"] == CONTRACT

    def test_lockstep_defaults_are_named_as_before(self, tmp_path, capsys):
        log = self.record(tmp_path, "l.flightlog", "--batch", "2")
        assert log.manifest["scheduler"] == "lockstep"


class TestDiff:
    FIELD = GF2k(16)

    def recorded(self, sched_seed, scheduler):
        flight = FlightRecorder(
            n=7, t=2, field=self.FIELD, seed=0,
            manifest={"scheduler": scheduler, "runtime": "async"},
        )
        run_async_coin(self.FIELD, 7, 2, seed=3, flight=flight,
                       scheduler=RandomOrderScheduler(sched_seed))
        return flight.log()

    def test_different_contracts_are_a_header_mismatch_naming_both(self):
        ours = self.recorded(1, CONTRACT)
        theirs = self.recorded(2, "random-order/1")  # some other order
        divergence = diff(ours, theirs)
        assert (divergence.run, divergence.round) == (0, 0)
        assert "header mismatch" in divergence.reason
        assert CONTRACT in divergence.reason
        assert "random-order/1" in divergence.reason

    def test_the_same_contract_still_reports_the_delivery(self):
        divergence = diff(self.recorded(1, CONTRACT), self.recorded(2, CONTRACT))
        assert divergence.round >= 1
        assert "header mismatch" not in divergence.reason

    def test_equal_deliveries_are_equal_whatever_the_headers_say(self):
        """Lockstep logs under different arrival orders stay comparable."""
        assert diff(self.recorded(1, "lockstep"),
                    self.recorded(1, "permuted")) is None
