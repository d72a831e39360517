"""Fair leader election from shared coins.

A second consumer application (Coin-Gen itself uses the same idea in
Fig. 5 step 9: "Set l <- Coin-Expose(k-ary-coin) mod n").  Electing a
uniformly random, unpredictable, unanimously-agreed leader is a standard
committee primitive — rotation of proposers, auditors, or block leaders
— and each election costs exactly one shared coin.

Fairness caveat handled here: ``coin mod n`` is biased when ``2^k mod n
!= 0``.  The residual bias is ``< n / 2^k`` (negligible for k=32), but
:class:`LeaderElection` also offers rejection sampling for exact
uniformity at an expected ``2^k / (2^k - (2^k mod n))`` coins per
election (< 2 always).

Off the coin path (docs/CENSUS.md, class ii); run by
`examples/secret_escrow.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.bootstrap import BootstrapCoinSource


@dataclass
class ElectionResult:
    leader: int
    coins_used: int


class LeaderElection:
    """Repeated unanimous leader elections over a coin source."""

    def __init__(
        self,
        source: BootstrapCoinSource,
        candidates: Optional[Sequence[int]] = None,
        exact_uniform: bool = False,
    ):
        self.source = source
        self.candidates = list(
            candidates
            if candidates is not None
            else range(1, source.system.n + 1)
        )
        if not self.candidates:
            raise ValueError("need at least one candidate")
        self.exact_uniform = exact_uniform
        self.history: List[ElectionResult] = []

    def elect(self) -> int:
        """Elect one leader; returns the candidate id."""
        field = self.source.system.field
        count = len(self.candidates)
        coins_used = 0
        if self.exact_uniform:
            # rejection sampling: discard draws above the largest multiple
            # of ``count`` below the field order
            limit = field.order - (field.order % count)
            while True:
                draw = field.to_int(self.source.toss_element())
                coins_used += 1
                if draw < limit:
                    index = draw % count
                    break
        else:
            draw = field.to_int(self.source.toss_element())
            coins_used += 1
            index = draw % count
        leader = self.candidates[index]
        self.history.append(ElectionResult(leader, coins_used))
        return leader

    def elect_many(self, rounds: int) -> List[int]:
        return [self.elect() for _ in range(rounds)]

    def total_coins_used(self) -> int:
        return sum(result.coins_used for result in self.history)
