"""End-to-end pipelines across modules (the paper's Fig. 1 in motion)."""

import random

import pytest

from repro.fields import GF2k
from repro.fields.extension import build_special_field
from repro.fields.gfp import GFp
from repro.analysis import stats
from repro.apps import CommonCoinBA
from repro.core import BootstrapCoinSource
from repro.net.adversary import Adversary, MobileAdversary


class TestFullPipeline:
    def test_long_bit_stream_is_statistically_random(self):
        """Seed -> several D-PRBG batches -> bit battery (experiment E12's
        honest arm)."""
        source = BootstrapCoinSource(GF2k(32), 7, 1, batch_size=16, seed=100)
        bits = source.tosses(1024)
        results = stats.battery(bits)
        assert all(r.passed for r in results.values()), results
        assert stats.bias(bits) < 0.06

    def test_bit_stream_under_byzantine_faults(self):
        schedule = lambda epoch: Adversary({(epoch % 7) + 1}, behaviour="noise",
                                           seed=epoch)
        source = BootstrapCoinSource(
            GF2k(32), 7, 1, batch_size=16, seed=101,
            adversary_schedule=schedule,
        )
        bits = source.tosses(512)
        assert stats.monobit(bits).passed
        assert stats.bias(bits) < 0.09

    def test_proactive_mobile_adversary_long_run(self):
        mobile = MobileAdversary(7, 1, behaviour="silent", seed=102)
        source = BootstrapCoinSource(
            GF2k(32), 7, 1, batch_size=8, seed=103,
            adversary_schedule=lambda e: mobile.next_epoch(),
        )
        values = [source.toss_element() for _ in range(24)]
        assert len(set(values)) == 24
        assert len(set(mobile.history)) >= 2


class TestOtherFields:
    def test_pipeline_over_prime_field(self):
        """The model says the field 'is not necessarily a prime' — and
        conversely the pipeline also runs over one."""
        source = BootstrapCoinSource(GFp(2**31 - 1), 7, 1, batch_size=4, seed=104)
        values = [source.toss_element() for _ in range(6)]
        assert len(set(values)) == 6

    def test_pipeline_over_special_field(self):
        """The O(k log k) field of Section 2 drives the same protocols."""
        field = build_special_field(32)
        source = BootstrapCoinSource(field, 7, 1, batch_size=4, seed=105)
        values = [source.toss_element() for _ in range(4)]
        assert len(set(values)) == 4

    def test_small_field_unanimity_errors_exist(self):
        """Over a tiny field (p=16) the Mn/2^k failure probability is
        non-negligible; the pipeline must either agree or fail loudly —
        never split silently."""
        from repro.core.coin import UnanimityError
        from repro.core.dprbg import GenerationError

        failures = 0
        successes = 0
        for seed in range(12):
            try:
                source = BootstrapCoinSource(GF2k(4), 7, 1, batch_size=2,
                                             seed=200 + seed)
                for _ in range(2):
                    source.toss_element()
                successes += 1
            except (UnanimityError, GenerationError):
                failures += 1
        assert successes + failures == 12
        assert successes > 0


class TestApplicationLoop:
    def test_ba_service_over_many_executions(self):
        """The paper's motivating loop: a BA service fed by one bootstrap
        source, across mobile corruption epochs."""
        mobile = MobileAdversary(7, 1, behaviour="silent", seed=106)
        source = BootstrapCoinSource(
            GF2k(32), 7, 1, batch_size=8, seed=107,
            adversary_schedule=lambda e: mobile.next_epoch(),
        )
        ba = CommonCoinBA(source)
        rng = random.Random(108)
        for execution in range(6):
            inputs = {pid: rng.randrange(2) for pid in range(1, 8)}
            outcome = ba.agree(inputs)
            assert outcome.agreed
            decided = set(outcome.decisions.values()).pop()
            if len(set(inputs[pid] for pid in outcome.decisions)) == 1:
                assert decided == inputs[next(iter(outcome.decisions))]


class TestDeterminism:
    """Reproducibility guarantee: equal seeds, equal everything."""

    def test_bootstrap_streams_identical(self):
        from repro.core import BootstrapCoinSource
        from repro.fields import GF2k

        a = BootstrapCoinSource(GF2k(32), 7, 1, batch_size=8, seed=99)
        b = BootstrapCoinSource(GF2k(32), 7, 1, batch_size=8, seed=99)
        assert a.tosses(96) == b.tosses(96)

    def test_coin_gen_outputs_identical(self):
        from repro.fields import GF2k
        from repro.protocols.coin_gen import run_coin_gen

        out1, m1 = run_coin_gen(GF2k(32), 7, 1, M=3, seed=123)
        out2, m2 = run_coin_gen(GF2k(32), 7, 1, M=3, seed=123)
        assert out1[1].clique == out2[1].clique
        assert [c.my_value for c in out1[4].coins] == [
            c.my_value for c in out2[4].coins
        ]
        assert m1.bits == m2.bits
