"""The bootstrap coin source (Fig. 1): self-sufficiency, thresholds,
proactive adversaries, amortization."""

import pytest

from repro.fields import GF2k
from repro.core import BootstrapCoinSource
from repro.net.adversary import Adversary, MobileAdversary

F = GF2k(32)
N, T = 7, 1


class TestBasicOperation:
    def test_toss_bits(self):
        source = BootstrapCoinSource(F, N, T, batch_size=8, seed=1)
        bits = source.tosses(50)
        assert len(bits) == 50
        assert set(bits) <= {0, 1}

    def test_toss_elements(self):
        source = BootstrapCoinSource(F, N, T, batch_size=4, seed=2)
        values = [source.toss_element() for _ in range(10)]
        assert len(set(values)) == 10

    def test_bit_buffer_consumes_one_element_per_k_bits(self):
        source = BootstrapCoinSource(F, N, T, batch_size=4, seed=3)
        source.tosses(F.bit_length)  # exactly one element
        assert source.coins_consumed == 1
        source.toss()
        assert source.coins_consumed == 2

    def test_batches_triggered_on_demand(self):
        source = BootstrapCoinSource(F, N, T, batch_size=3, seed=4)
        assert source.epoch == 0
        source.toss_element()
        assert source.epoch == 1
        for _ in range(12):
            source.toss_element()
        assert source.epoch >= 2  # recycled seed overflow slows the cadence

    def test_low_watermark_pregenerates(self):
        source = BootstrapCoinSource(F, N, T, batch_size=8, low_watermark=5, seed=5)
        source.toss_element()
        assert source.sealed_coins_available >= 5


    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_a_batch_below_one_is_refused_at_construction(self, batch_size):
        """A batch of 0 ran a whole Coin-Gen per seed's worth of reserve
        coins; -1 dropped a coin from the next seed, so a later stretch
        ran short of seeds."""
        with pytest.raises(ValueError, match="batch_size"):
            BootstrapCoinSource(F, N, T, batch_size=batch_size)

class TestSelfSufficiency:
    def test_dealer_used_exactly_once(self):
        """Section 1.2: the trusted dealer is consulted only for the
        initial seed; afterwards the loop feeds itself."""
        source = BootstrapCoinSource(F, N, T, batch_size=4, seed=6)
        initial = source.initial_seed_size
        for _ in range(25):
            source.toss_element()
        assert source.epoch >= 3
        # the dealer object is not even retained — it cannot be re-used
        assert not hasattr(source, "_dealer")
        # coins handed out vastly exceed the one-time dealer contribution
        assert source.coins_generated > 2 * initial
        # fresh seeds are generator-made (dealer-made ones only linger
        # until recycled)
        assert any(
            coin.origin.startswith("batch") for coin in source._seed_coins
        )

    def test_seed_store_bounded(self):
        """The seed store stays O(1)-sized across many batches."""
        source = BootstrapCoinSource(F, N, T, batch_size=2, seed=60)
        for _ in range(12):
            source.toss_element()
        assert source.seed_coins_available <= 2 * source.dprbg.seed_requirement

    def test_seed_never_runs_dry(self):
        source = BootstrapCoinSource(F, N, T, batch_size=2, seed=7)
        for _ in range(12):
            source.toss_element()
        assert source.seed_coins_available >= source.dprbg.seed_requirement


class TestAdversaries:
    def test_static_adversary(self):
        schedule = lambda epoch: Adversary({4})
        source = BootstrapCoinSource(
            F, N, T, batch_size=4, seed=8, adversary_schedule=schedule
        )
        bits = source.tosses(40)
        assert set(bits) <= {0, 1}

    def test_mobile_adversary_across_batches(self):
        """Proactive setting: the corrupt player changes between batches
        and the pipeline keeps producing unanimous coins."""
        mobile = MobileAdversary(N, T, behaviour="silent", seed=9)
        source = BootstrapCoinSource(
            F, N, T, batch_size=2, seed=10,
            adversary_schedule=lambda epoch: mobile.next_epoch(),
        )
        for _ in range(16):
            source.toss_element()
        assert source.epoch >= 2
        assert len(set(mobile.history)) > 1

    def test_noise_adversary(self):
        schedule = lambda epoch: Adversary({2}, behaviour="noise", seed=epoch)
        source = BootstrapCoinSource(
            F, N, T, batch_size=3, seed=11, adversary_schedule=schedule
        )
        values = [source.toss_element() for _ in range(6)]
        assert len(set(values)) == 6


class TestAmortization:
    def test_summary_fields(self):
        source = BootstrapCoinSource(F, N, T, batch_size=8, seed=12)
        source.tosses(8)
        summary = source.amortized_cost_summary()
        assert summary["batches"] >= 1
        assert summary["coins_generated"] >= 8
        assert summary["bits_per_coin"] > 0

    def test_amortized_interpolations_approach_constant(self):
        """Corollary 3's spirit: per-coin interpolation cost is bounded by
        a constant once batches amortize the per-run overhead."""
        small = BootstrapCoinSource(F, N, T, batch_size=2, seed=13)
        big = BootstrapCoinSource(F, N, T, batch_size=32, seed=13)
        for _ in range(2):
            small.toss_element()
            big.toss_element()
        s_small = small.amortized_cost_summary()
        s_big = big.amortized_cost_summary()
        assert (
            s_big["interpolations_per_coin_busiest_player"]
            < s_small["interpolations_per_coin_busiest_player"]
        )
        assert s_big["bits_per_coin"] < s_small["bits_per_coin"]
