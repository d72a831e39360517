"""Trace audit vs. the round-complexity model (``analysis.rounds``).

Cross-checks the *observed* rounds of instrumented runs against the
closed-form predictions: fault-free the comparison is exact per
protocol; under fault injection the report carries the observed fault
count so a deviation reads as expected, not as a regression.
"""

import pytest

from repro.analysis.rounds import coin_gen_rounds, predicted_rounds
from repro.fields import GF2k
from repro.net.faults import FaultPlane
from repro.obs import SpanRecorder, audit_rounds
from repro.obs.audit import RoundsCheck
from repro.protocols.coin_gen import expose_coin, run_coin_gen
from repro.protocols.context import ProtocolContext


def recorded_run(n=7, t=1, seed=3, faults=None, expose=True, M=1):
    recorder = SpanRecorder()
    ctx = ProtocolContext.create(GF2k(16), n=n, t=t, seed=seed,
                                 faults=faults, recorder=recorder)
    outputs, _ = run_coin_gen(ctx, M=M, tag="cg")
    if expose:
        expose_coin(ctx, outputs=outputs, h=0)
    return recorder


def checks_by_protocol(recorder):
    return {check.protocol: check for check in audit_rounds(recorder)}


class TestPredictedRounds:
    def test_known_protocols_return_the_formulas(self):
        assert predicted_rounds("coin_gen", t=1) == coin_gen_rounds(1, 1)
        assert predicted_rounds("coin_gen", t=2, iterations=3) == (
            coin_gen_rounds(2, 3)
        )
        assert predicted_rounds("expose") == 1

    def test_unknown_protocol_returns_none(self):
        assert predicted_rounds("mystery") is None


class TestFaultFreeExact:
    def test_coin_gen_and_expose_match_exactly(self):
        checks = checks_by_protocol(recorded_run())
        assert set(checks) == {"coin_gen", "expose"}
        for check in checks.values():
            assert check.ok, check
            assert check.deviation == 0
            assert check.faults == 0
        assert checks["coin_gen"].expected == predicted_rounds(
            "coin_gen", t=1
        )
        assert checks["expose"].expected == 1

    def test_larger_system_still_exact(self):
        checks = checks_by_protocol(recorded_run(n=13, t=2, expose=False))
        assert checks["coin_gen"].ok
        assert checks["coin_gen"].expected == predicted_rounds(
            "coin_gen", t=2
        )

    def test_iterations_parameter_is_read_off_the_span(self):
        # the BA runner stamps iterations on the protocol span; the
        # prediction must be parameterized by it, so a fault-free run
        # matches whatever iteration count the election actually took
        recorder = recorded_run(seed=5, expose=False)
        (protocol,) = recorder.by_kind("protocol")
        iterations = protocol.attrs.get("iterations", 1)
        (check,) = audit_rounds(recorder)
        assert check.expected == predicted_rounds(
            "coin_gen", t=1, iterations=iterations
        )
        assert check.ok

    def test_unknown_protocol_spans_are_skipped(self):
        recorder = recorded_run()
        names = {check.protocol for check in audit_rounds(recorder)}
        assert names <= {"coin_gen", "expose"}


class TestUnderFaultInjection:
    def test_crash_fault_is_reported_alongside_any_delta(self):
        plane = FaultPlane().crash(5, at_round=3)
        checks = checks_by_protocol(recorded_run(faults=plane, expose=False))
        check = checks["coin_gen"]
        assert check.faults > 0
        assert check.deviation == check.measured - check.expected

    def test_silence_fault_does_not_empty_other_senders_rounds(self):
        # silencing one player leaves every round message-carrying, so
        # the count still matches — but the faults field flags the run
        plane = FaultPlane().silence(2, rounds=[3, 4])
        checks = checks_by_protocol(recorded_run(faults=plane, expose=False))
        check = checks["coin_gen"]
        assert check.faults > 0
        assert check.ok


class TestRoundsCheckShape:
    def test_deviation_and_ok(self):
        check = RoundsCheck(protocol="coin_gen", expected=11, measured=9,
                            faults=1)
        assert check.deviation == -2
        assert not check.ok

    @pytest.mark.parametrize("measured,ok", [(11, True), (12, False)])
    def test_exactness(self, measured, ok):
        assert RoundsCheck("coin_gen", 11, measured).ok is ok
