"""Fault-injection regressions: Coin-Gen under scripted faults.

The paper's guarantees hold with up to ``t`` arbitrarily faulty players
(``n >= 6t+1``).  These tests script concrete fault scenarios with the
:class:`~repro.net.faults.FaultPlane` — message drops, duplication,
delays, and crashes confined to at most ``t`` players — and check the
end-to-end guarantees: every honest player still gets a coin, exposures
are unanimous, and a crashed dealer is excluded from the agreed clique
without aborting the run.
"""

import pytest

from repro.fields import GF2k
from repro.net import FaultPlane, PermutedDeliveryScheduler
from repro.protocols.coin_gen import expose_coin, run_coin_gen
from repro.protocols.context import ProtocolContext

N, T = 7, 1  # n = 6t+1
FIELD = GF2k(8)


def run_with_faults(faults, scheduler=None, M=2, seed=3, faulty_pids=()):
    ctx = ProtocolContext.create(
        FIELD, N, T, seed=seed, scheduler=scheduler, faults=faults
    )
    faulty_programs = {pid: None for pid in faulty_pids}
    outputs, _ = run_coin_gen(ctx, M=M, faulty_programs=faulty_programs)
    return ctx, outputs


def assert_unanimous_coins(ctx, outputs, M, exclude=()):
    honest = [pid for pid in outputs if pid not in exclude]
    assert honest, "no honest outputs"
    for pid in honest:
        assert outputs[pid].success, f"player {pid} failed"
    cliques = {outputs[pid].clique for pid in honest}
    assert len(cliques) == 1, f"clique disagreement: {cliques}"
    for h in range(M):
        results, _ = expose_coin(
            ctx, outputs=outputs, h=h,
            faulty_programs={pid: None for pid in exclude},
        )
        values = {results[pid] for pid in results if pid not in exclude}
        assert len(values) == 1, f"coin {h} not unanimous: {values}"
        assert values.pop() is not None, f"coin {h} undecodable"
    return cliques.pop()


class TestMessageFaults:
    def test_dropped_player_traffic_still_unanimous(self):
        """All of player 7's outgoing traffic is lost; coins still agree."""
        faults = FaultPlane().drop(src=7)
        ctx, outputs = run_with_faults(faults)
        clique = assert_unanimous_coins(ctx, outputs, M=2, exclude=(7,))
        assert 7 not in clique

    def test_duplicated_traffic_is_harmless(self):
        """Player 6's messages all arrive twice; outcome matches a clean run."""
        clean_ctx, clean_outputs = run_with_faults(None)
        faults = FaultPlane().duplicate(src=6)
        ctx, outputs = run_with_faults(faults)
        assert_unanimous_coins(ctx, outputs, M=2)
        assert {p: outputs[p].clique for p in outputs} == {
            p: clean_outputs[p].clique for p in clean_outputs
        }

    def test_delayed_edge_confined_to_t_players(self):
        """One player's traffic to one receiver lags a round.

        Stale tags are ignored by honest receive filters, so this is
        equivalent to dropping the edge — still within the t-fault budget.
        """
        faults = FaultPlane().delay(src=7, dst=1, by=1)
        ctx, outputs = run_with_faults(faults)
        assert_unanimous_coins(ctx, outputs, M=2, exclude=(7,))

    def test_mixed_faults_single_player_budget(self):
        """Drop+duplicate+delay all confined to player 7 (<= t players)."""
        faults = (
            FaultPlane()
            .drop(src=7, dst=2)
            .duplicate(src=7, dst=3)
            .delay(src=7, dst=4, by=2)
        )
        ctx, outputs = run_with_faults(faults)
        assert_unanimous_coins(ctx, outputs, M=2, exclude=(7,))

    def test_faults_compose_with_permuted_scheduler(self):
        """The fault plane works identically under a permuted scheduler."""
        faults = FaultPlane().drop(src=7)
        ctx, outputs = run_with_faults(
            faults, scheduler=PermutedDeliveryScheduler(seed=11)
        )
        clique = assert_unanimous_coins(ctx, outputs, M=2, exclude=(7,))
        assert 7 not in clique


class TestCrashFaults:
    @pytest.mark.parametrize("crash_round", [1, 2, 3])
    def test_crashed_dealer_excluded_without_abort(self, crash_round):
        """A dealer crashing at round r is dropped from the clique.

        The run must neither abort nor stall: the surviving 6 >= n - t
        players agree on a clique excluding the crashed dealer and their
        coins expose unanimously.
        """
        faults = FaultPlane().crash(7, at_round=crash_round)
        ctx, outputs = run_with_faults(faults)
        assert 7 not in outputs  # crashed mid-protocol, never finished
        clique = assert_unanimous_coins(ctx, outputs, M=2, exclude=(7,))
        assert 7 not in clique
        assert len(clique) >= N - 2 * T

    def test_crash_after_dealing_keeps_dealer_in_clique(self):
        """Crashing long after the dealing phase no longer hurts the clique.

        By then player 7's polynomials are decoded and grade-cast; its
        later silence cannot retract them.  (With t=1 the runtime still
        terminates: the wait set excludes the crashed player.)
        """
        faults = FaultPlane().crash(7, at_round=30)
        ctx, outputs = run_with_faults(faults)
        clique = assert_unanimous_coins(ctx, outputs, M=2, exclude=(7,))
        assert 7 in clique

    def test_silence_window_tolerated(self):
        """A t-sized player set silenced for a whole phase still converges."""
        faults = FaultPlane().silence(7, rounds=range(1, 6))
        ctx, outputs = run_with_faults(faults)
        assert_unanimous_coins(ctx, outputs, M=2, exclude=(7,))
