"""The D-PRBG: stretch a distributed seed into many shared coins.

Section 1.1: "a D-PRBG is a distributed protocol [whose] input is a
distributed input consisting of some shared coins ... the output is a
distributed output consisting of (a larger number of) shared coins ...
we want that the distributed stretching protocol be more efficient, per
coin generated, than from-scratch methods."

:class:`SharedCoinSystem` is the simulation harness holding the player
set, the (possibly mobile) adversary, and accumulated metrics.
:class:`DPRBG` implements one *stretch*: it consumes a few seed coins
(one batching challenge plus one per leader-election iteration) and
produces ``M`` fresh coins **plus the seed for the next stretch** in a
single Coin-Gen execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fields.base import Element, Field
from repro.net.adversary import Adversary
from repro.net.metrics import NetworkMetrics
from repro.protocols.coin_gen import run_coin_gen_players
from repro.protocols.context import ProtocolContext, as_context
from repro.core.coin import SharedCoin, UnanimityError


class GenerationError(Exception):
    """A Coin-Gen run failed (e.g. the seed ran out of leader coins)."""


@dataclass
class StretchResult:
    """Outcome of one D-PRBG stretch."""

    #: the M coins available to the application
    coins: List[SharedCoin]
    #: the reserved coins that seed the next stretch (Fig. 1's feedback arc)
    next_seed: List[SharedCoin]
    #: seed coins left unconsumed by this stretch (still sealed, reusable)
    unused_seed: List[SharedCoin]
    #: number of leader-election/BA iterations (Lemma 8: expected O(1))
    iterations: int
    #: number of seed coins consumed (challenges + leader elections)
    seed_consumed: int
    #: the agreed clique C_l
    clique: Tuple[int, ...]
    #: communication/computation tallies for this stretch only
    metrics: NetworkMetrics


class SharedCoinSystem:
    """An n-player system on a simulated synchronous network.

    Owns the adversary (settable between protocol executions, enabling the
    proactive/mobile setting of Section 1.2) and accumulates metrics
    across every protocol run it hosts.
    """

    def __init__(
        self,
        field: Optional[Field] = None,
        n: Optional[int] = None,
        t: Optional[int] = None,
        seed: int = 0,
        adversary: Optional[Adversary] = None,
        context: Optional[ProtocolContext] = None,
    ):
        if context is None:
            context = as_context(field, n, t, seed=seed)
        if context.n < 6 * context.t + 1:
            raise ValueError(
                f"the coin pipeline requires n >= 6t+1 "
                f"(n={context.n}, t={context.t})"
            )
        self.context = context
        self.field = context.field
        self.n = context.n
        self.t = context.t
        self.adversary = adversary
        self.rng = context.rng
        self.total_metrics = context.metrics
        self.runs = 0

    # -- adversary control -------------------------------------------------
    def set_adversary(self, adversary: Optional[Adversary]) -> None:
        """Swap the corrupt set (the mobile-adversary hook)."""
        self.adversary = adversary

    @property
    def corrupt(self) -> frozenset:
        return self.adversary.corrupt if self.adversary else frozenset()

    def honest_players(self) -> List[int]:
        corrupt = self.corrupt
        return [pid for pid in range(1, self.n + 1) if pid not in corrupt]

    def _faulty_programs(self) -> Dict[int, object]:
        if not self.adversary:
            return {}
        return self.adversary.programs(self.n)

    def _rushing(self) -> frozenset:
        """The corrupt players, when the adversary rushes."""
        if self.adversary and self.adversary.rushing:
            return self.corrupt
        return frozenset()

    # -- coin generation ------------------------------------------------------
    def generate(
        self,
        seed_coins: Sequence[SharedCoin],
        M: int,
        tag: Optional[str] = None,
        blinding: bool = True,
        shared_challenge: bool = True,
    ) -> StretchResult:
        """Run one Coin-Gen over ``seed_coins``, producing M sealed coins."""
        if tag is None:
            tag = f"gen{self.runs}"
        self.runs += 1
        # one child generator per honest player, drawn in pid order:
        # the draw order is part of the seeded run
        outputs, metrics = run_coin_gen_players(
            self.context, M,
            lambda pid: [coin.share_for(pid) for coin in seed_coins],
            lambda pid: self.context.child_rng(),
            tag, blinding=blinding, shared_challenge=shared_challenge,
            faulty=self._faulty_programs(), rushing=self._rushing(),
        )

        honest_outputs = {pid: outputs[pid] for pid in self.honest_players()}
        if not all(o.success for o in honest_outputs.values()):
            raise GenerationError(
                f"Coin-Gen {tag} failed for some honest player "
                f"(seed had {len(seed_coins)} coins)"
            )
        cliques = {o.clique for o in honest_outputs.values()}
        iterations = {o.iterations for o in honest_outputs.values()}
        if len(cliques) != 1 or len(iterations) != 1:
            raise UnanimityError(f"honest players disagree on Coin-Gen {tag} outcome")
        clique = cliques.pop()
        iters = iterations.pop()
        consumed = next(iter(honest_outputs.values())).seed_coins_used

        coins = []
        for h in range(M):
            shares = {
                pid: honest_outputs[pid].coins[h] for pid in honest_outputs
            }
            coin_id = next(iter(shares.values())).coin_id
            coins.append(SharedCoin(coin_id, shares, self.t, origin=tag))
        unused = list(seed_coins[consumed:])
        return StretchResult(
            coins=coins,
            next_seed=[],
            unused_seed=unused,
            iterations=iters,
            seed_consumed=consumed,
            clique=clique,
            metrics=metrics,
        )

    # -- coin exposure -----------------------------------------------------------
    def expose(self, coin: SharedCoin) -> Element:
        """Run Coin-Expose for one coin; returns the unanimous value.

        Raises :class:`UnanimityError` if honest players disagree (the
        paper's <= Mn/2^k failure event) and :class:`GenerationError` if
        the coin cannot be decoded at all.
        """
        return self.expose_many([coin])[0]

    def expose_many(self, coins) -> list:
        """Expose several coins in a single communication round.

        All share announcements travel together (distinct tags per coin),
        so a batch of H exposures costs one round instead of H — the
        natural way to reveal a Coin-Gen batch that is consumed at once.
        """
        from repro.protocols.coin_expose import coin_expose_many

        coins = list(coins)
        if not coins:
            return []
        honest = self.honest_players()
        senders_total = 0
        if self.context.recorder.enabled:
            senders_total = sum(
                1
                for coin in coins
                for pid in honest
                if pid in coin.share_for(pid).senders
                and coin.share_for(pid).my_value is not None
            )
        outputs, _ = self.context.run(
            lambda pid: coin_expose_many(
                self.field, pid, [coin.share_for(pid) for coin in coins]
            ),
            faulty=self._faulty_programs(), allow_broadcast=False,
            rushing=self._rushing(),
            span="expose", n=self.n, coins=len(coins),
            senders_total=senders_total,
        )

        results = []
        for index, coin in enumerate(coins):
            values = {outputs[pid][index] for pid in honest}
            if len(values) != 1:
                raise UnanimityError(
                    f"coin {coin.coin_id}: honest views "
                    f"{sorted(map(repr, values))}"
                )
            value = values.pop()
            if value is None:
                raise GenerationError(
                    f"coin {coin.coin_id} could not be decoded"
                )
            results.append(value)
        return results


class DPRBG:
    """The distributed pseudo-random bit generator.

    One :meth:`stretch` consumes a handful of seed coins and emits ``M``
    application coins *plus* the next seed (``reserve`` coins), realizing
    Fig. 1's feedback loop in a single Coin-Gen execution.
    """

    def __init__(
        self,
        system: SharedCoinSystem,
        max_iterations: Optional[int] = None,
        blinding: bool = True,
        shared_challenge: bool = True,
    ):
        self.system = system
        self.max_iterations = (
            max_iterations if max_iterations is not None else 2 * system.t + 4
        )
        if self.max_iterations < 1:
            raise ValueError("need at least one leader-election iteration")
        self.blinding = blinding
        self.shared_challenge = shared_challenge

    @property
    def seed_requirement(self) -> int:
        """Seed coins needed per stretch: challenges + leader elections."""
        challenges = 1 if self.shared_challenge else self.system.n
        return challenges + self.max_iterations

    def stretch(
        self,
        seed_coins: Sequence[SharedCoin],
        M: int,
        tag: Optional[str] = None,
        reserve: Optional[int] = None,
    ) -> StretchResult:
        """Expand ``seed_coins`` into M coins + the next seed.

        ``reserve`` (default: :attr:`seed_requirement`) extra coins are
        generated and earmarked as the next stretch's seed.
        """
        if reserve is None:
            reserve = self.seed_requirement
        if len(seed_coins) < self.seed_requirement:
            raise GenerationError(
                f"need {self.seed_requirement} seed coins, have {len(seed_coins)}"
            )
        result = self.system.generate(
            list(seed_coins)[: self.seed_requirement],
            M + reserve,
            tag=tag,
            blinding=self.blinding,
            shared_challenge=self.shared_challenge,
        )
        result.next_seed = result.coins[M:]
        result.coins = result.coins[:M]
        result.unused_seed += list(seed_coins)[self.seed_requirement:]
        return result
