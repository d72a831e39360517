"""Round-complexity formulas vs live protocol traces.

The simulator counts one extra "drain" round in which the final inboxes
are delivered and programs return, so every measured count is
``formula <= measured <= formula + 1``.
"""

import random

import pytest

from repro.analysis import rounds as rm
from repro.fields import GF2k
from repro.protocols.ba import run_phase_king
from repro.protocols.batch_vss import run_batch_vss
from repro.protocols.bit_gen import run_bit_gen
from repro.protocols.coin_gen import run_coin_gen
from repro.protocols.recovery import run_recovery
from repro.protocols.refresh import run_refresh
from repro.protocols.vss import run_vss

F = GF2k(32)


def assert_rounds(metrics, expected):
    assert expected <= metrics.rounds <= expected + 1, (
        metrics.rounds,
        expected,
    )


class TestRoundFormulas:
    def test_vss(self):
        _, metrics = run_vss(F, 7, 2, seed=1)
        assert_rounds(metrics, rm.vss_rounds())

    def test_batch_vss(self):
        _, metrics = run_batch_vss(F, 7, 2, M=16, seed=2)
        assert_rounds(metrics, rm.batch_vss_rounds())

    def test_bit_gen(self):
        _, metrics = run_bit_gen(F, 7, 1, M=8, seed=3)
        assert_rounds(metrics, rm.bit_gen_rounds())

    @pytest.mark.parametrize("n,t", [(7, 1), (9, 2)])
    def test_phase_king(self, n, t):
        _, metrics = run_phase_king(n, t, {pid: 1 for pid in range(1, n + 1)})
        assert_rounds(metrics, rm.phase_king_rounds(t))

    def test_coin_gen_single_iteration(self):
        outputs, metrics = run_coin_gen(F, 7, 1, M=2, seed=4)
        iterations = outputs[1].iterations
        assert_rounds(metrics, rm.coin_gen_rounds(1, iterations))

    def test_refresh(self):
        from repro.protocols.coin_expose import make_dealer_coin

        rng = random.Random(5)
        table = {pid: [] for pid in range(1, 8)}
        _, shares = make_dealer_coin(F, 7, 1, "r0", rng)
        for pid in range(1, 8):
            table[pid].append(shares[pid])
        outputs, metrics = run_refresh(F, 7, 1, table, seed=6)
        iterations = outputs[1].iterations
        assert_rounds(metrics, rm.refresh_rounds(1, iterations))

    def test_recovery(self):
        from repro.protocols.coin_expose import make_dealer_coin

        rng = random.Random(7)
        table = {pid: [] for pid in range(1, 8)}
        _, shares = make_dealer_coin(F, 7, 1, "r1", rng)
        for pid in range(1, 8):
            table[pid].append(shares[pid])
        outputs, metrics = run_recovery(F, 7, 1, recovering=3,
                                        coin_table=table, seed=8)
        iterations = outputs[1].iterations
        assert_rounds(metrics, rm.recovery_rounds(1, iterations))

    def test_rounds_independent_of_data(self):
        """The same protocol always occupies the same schedule."""
        counts = set()
        for seed in range(4):
            _, metrics = run_bit_gen(F, 7, 1, M=8, seed=seed)
            counts.add(metrics.rounds)
        assert len(counts) == 1
