"""The bootstrap coin source (Fig. 1).

"An initial distributed seed is generated via some known, not necessarily
fast protocol.  Then the generator is run to produce as many coins as the
current execution of the application needs, plus another (distributed)
seed.  ...  Once the number of remaining coins drops beneath a certain
level, a new batch is generated exploiting the (small amount of)
remaining coins.  ...  we envision an adaptive mechanism, in which coins
are generated on demand, with a constant threshold triggering the
generation of new coins." (Section 1.2)

:class:`BootstrapCoinSource` is that mechanism: a long-lived object whose
``toss()`` / ``toss_element()`` hand out shared coin bits / k-ary coins,
transparently regenerating batches when the pool hits the low watermark.
It supports a mobile adversary re-corrupting players between batches
(the proactive setting).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional

from repro.fields.base import Element, Field
from repro.net.adversary import Adversary
from repro.core.coin import SharedCoin, UnanimityError
from repro.core.dprbg import DPRBG, GenerationError, SharedCoinSystem, StretchResult
from repro.core.seed import TrustedDealer

if TYPE_CHECKING:  # pragma: no cover
    from repro.protocols.context import ProtocolContext


class BootstrapCoinSource:
    """An endless, self-sufficient source of shared coins.

    Parameters
    ----------
    field, n, t:
        System parameters (``n >= 6t+1``).
    batch_size:
        Coins generated per D-PRBG stretch, beyond the reserved next seed;
        at least 1 (``ValueError`` otherwise).
    low_watermark:
        Regenerate when the pool drops below this many sealed coins
        (the paper's "constant threshold"); default 1 (fully lazy).
    seed:
        Master randomness seed for reproducible simulations.
    adversary_schedule:
        Optional callable ``epoch -> Adversary | None`` invoked before
        each batch, modelling the mobile adversary of the proactive
        setting.  ``epoch`` 0 is the first batch.
    max_iterations:
        Leader-election budget per Coin-Gen run.
    expose_retries:
        How many times to re-run a failed coin exposure before
        propagating the error (default 0: fail fast, the historical
        behaviour).  Exposure failure is the paper's ``<= Mn/2^k``
        probability event; a long-lived beacon prefers to retry the
        same shares (exposure is deterministic in the honest case, so
        retries only help against transient adversarial interference).

    When the context carries a health monitor (see
    :attr:`~repro.protocols.context.ProtocolContext.health`), the source
    calls it directly — ``on_coin`` per exposed coin, ``on_batch`` per
    stretch, ``on_failure`` / ``on_retry`` per exposure mishap.  Without
    one, nothing is reported and runs are byte-identical.
    """

    def __init__(
        self,
        field: Optional[Field] = None,
        n: Optional[int] = None,
        t: Optional[int] = None,
        batch_size: int = 32,
        low_watermark: int = 1,
        seed: int = 0,
        adversary_schedule: Optional[Callable[[int], Optional[Adversary]]] = None,
        max_iterations: Optional[int] = None,
        blinding: bool = True,
        context: Optional["ProtocolContext"] = None,
        expose_retries: int = 0,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size}")
        self.system = SharedCoinSystem(field, n, t, seed=seed, context=context)
        field, n, t = self.system.field, self.system.n, self.system.t
        seed = self.system.context.seed
        self.dprbg = DPRBG(
            self.system, max_iterations=max_iterations, blinding=blinding
        )
        self.batch_size = batch_size
        self.low_watermark = max(1, low_watermark)
        self.adversary_schedule = adversary_schedule
        self.expose_retries = max(0, expose_retries)

        # One-time trusted dealer (Rabin [17]); never used again after this.
        dealer = TrustedDealer(field, n, t, seed=seed + 1)
        with self.system.context.recorder.span(
            "trusted_dealer", "protocol",
            n=n, coins=self.dprbg.seed_requirement,
        ):
            self._seed_coins: List[SharedCoin] = dealer.deal_seed(
                self.dprbg.seed_requirement
            )
        self.initial_seed_size = len(self._seed_coins)

        #: sealed coins, consumed oldest first
        self.pool: Deque[SharedCoin] = deque()
        self._bit_buffer: Deque[int] = deque()
        self.epoch = 0
        self.coins_generated = 0
        self.coins_consumed = 0
        self.batch_history: List[StretchResult] = []

    # -- internal ---------------------------------------------------------------
    def _refill(self) -> None:
        if self.adversary_schedule is not None:
            self.system.set_adversary(self.adversary_schedule(self.epoch))
        result = self.dprbg.stretch(
            self._seed_coins,
            self.batch_size,
            tag=f"batch{self.epoch}",
        )
        health = self.system.context.health
        if health is not None:
            health.on_batch(self.epoch, len(result.coins), result.iterations,
                            result.seed_consumed)
        self.pool.extend(result.coins)
        # next seed = freshly reserved coins + any unconsumed old seeds;
        # overflow beyond twice the requirement is recycled into the pool
        # (a sealed seed coin is just a sealed coin), keeping the seed
        # store O(1)-sized as Fig. 1 depicts.
        seeds = result.next_seed + result.unused_seed
        keep = 2 * self.dprbg.seed_requirement
        self._seed_coins = seeds[:keep]
        self.pool.extend(seeds[keep:])
        self.coins_generated += len(result.coins) + len(result.next_seed)
        self.batch_history.append(result)
        self.epoch += 1

    def _ensure(self) -> None:
        while len(self.pool) < self.low_watermark:
            self._refill()

    # -- public API ----------------------------------------------------------------
    def toss_element(self) -> Element:
        """Expose and return one k-ary shared coin (a full field element).

        Exposure failures (unanimity breaks, undecodable shares) are
        retried up to ``expose_retries`` times before propagating; each
        failure and retry is reported to the context's health monitor.
        """
        self._ensure()
        coin = self.pool.popleft()
        self.coins_consumed += 1
        health = self.system.context.health
        attempt = 0
        while True:
            try:
                value = self.system.expose(coin)
            except (UnanimityError, GenerationError) as error:
                kind = (
                    "unanimity" if isinstance(error, UnanimityError)
                    else "decode"
                )
                if health is not None:
                    health.on_failure(kind, coin.coin_id)
                if attempt >= self.expose_retries:
                    raise
                attempt += 1
                if health is not None:
                    health.on_retry(coin.coin_id, attempt)
                continue
            if health is not None:
                health.on_coin(coin.coin_id, value)
            return value

    def toss(self) -> int:
        """One shared coin bit.

        Each k-ary coin yields k bits ("each coin generates in fact k
        random coins in {0,1}", Section 3.1); bits are buffered so
        consecutive tosses consume one element per k calls.  On a field
        whose order is not a power of two a coin may yield no bits
        (:meth:`~repro.fields.base.Field.coin_bits`), and the next coin
        is tossed.
        """
        while not self._bit_buffer:
            element = self.toss_element()
            self._bit_buffer.extend(self.system.field.coin_bits(element))
        return self._bit_buffer.popleft()

    def tosses(self, count: int) -> List[int]:
        """A batch of ``count`` shared coin bits."""
        return [self.toss() for _ in range(count)]

    # -- introspection ---------------------------------------------------------------
    @property
    def sealed_coins_available(self) -> int:
        return len(self.pool)

    @property
    def seed_coins_available(self) -> int:
        return len(self._seed_coins)

    def amortized_cost_summary(self) -> dict:
        """Cumulative cost per generated coin (the paper's amortized view)."""
        metrics = self.system.total_metrics
        coins = max(1, self.coins_generated)
        busiest = metrics.max_player_ops()
        return {
            "batches": self.epoch,
            "coins_generated": self.coins_generated,
            "messages_per_coin": metrics.paper_messages / coins,
            "bits_per_coin": metrics.bits / coins,
            "adds_per_coin_busiest_player": busiest.adds / coins,
            "muls_per_coin_busiest_player": busiest.muls / coins,
            "interpolations_per_coin_busiest_player": busiest.interpolations / coins,
        }
