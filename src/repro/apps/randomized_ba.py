"""Randomized Byzantine agreement from a common coin (Rabin [17] style).

This is the paper's motivating consumer: "an execution of an application
using shared coins needs not one, but many coins ... a distributed
application is typically executed not once, but regularly" (Section 1).

The protocol per round, for ``n >= 5t+1`` (with equivocating adversaries,
each honest player ``i`` has its *own* view of the vote counts —
byzantine voters may tell different players different bits):

1. every player sends its current bit to all;
2. if ``cnt_i(b) >= n - t`` for some bit b: *decide* b (and keep voting b);
3. elif ``cnt_i(b) >= n - 2t``: adopt b;
4. else: adopt the round's shared coin.

Safety: two honest players cannot adopt different bits in step 3 (each
implies ``>= n - 3t`` honest votes for its bit, and ``2(n - 3t) > n - t``
when ``n > 5t``); a decision at one player forces every player through at
least step 3 with the same bit, so all decide by the next round.
Liveness: when the adversary keeps the honest votes split, every honest
player falls through to the coin — which is *common* — so the very next
round is unanimous; when some players adopt b and the rest flip the coin,
the coin matches b with probability 1/2.  Expected O(1) rounds and O(1)
coins per agreement: this is what makes a cheap coin supply matter.

Off the coin path (docs/CENSUS.md, class ii); run by
`examples/randomized_agreement.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.bootstrap import BootstrapCoinSource

#: adversarial vote oracle: (round, corrupt_pid, honest_receiver, honest_values) -> bit
ByzantineVotes = Callable[[int, int, int, Dict[int, int]], int]


@dataclass
class BAOutcome:
    """Result of one randomized-BA execution."""

    decisions: Dict[int, int]
    rounds: int
    coins_used: int

    @property
    def agreed(self) -> bool:
        return len(set(self.decisions.values())) == 1


class CommonCoinBA:
    """Randomized BA whose per-round coins come from a coin source.

    The BA vote exchange is simulated directly with per-receiver
    adversarial equivocation (it is the *consumer*, not the object of
    study); the coins are genuine shared coins exposed through the
    source's full Coin-Expose protocol.
    """

    def __init__(self, source: BootstrapCoinSource, max_rounds: int = 64):
        self.source = source
        self.max_rounds = max_rounds

    def agree(
        self,
        inputs: Dict[int, int],
        byzantine_votes: Optional[ByzantineVotes] = None,
    ) -> BAOutcome:
        """Run one agreement over ``inputs`` ({player: bit}).

        ``byzantine_votes(round, corrupt_pid, receiver, honest_values)``
        supplies the bit each corrupt player shows each honest receiver —
        full equivocation power.
        """
        n = self.source.system.n
        t = self.source.system.t
        if n < 5 * t + 1:
            raise ValueError("this randomized BA variant needs n >= 5t+1")
        corrupt = self.source.system.corrupt
        honest = [pid for pid in range(1, n + 1) if pid not in corrupt]
        values = {pid: 1 if inputs.get(pid) else 0 for pid in honest}
        decided: Dict[int, int] = {}
        coins_used = 0

        for round_no in range(1, self.max_rounds + 1):
            # one fresh shared coin per round, exposed lazily
            coin_bit: Optional[int] = None
            new_values = {}
            for me in honest:
                ones = sum(values.values())
                if byzantine_votes is not None:
                    ones += sum(
                        1
                        for pid in corrupt
                        if byzantine_votes(round_no, pid, me, dict(values)) == 1
                    )
                zeros = (len(values) + len(corrupt if byzantine_votes else ())) - ones
                majority = 1 if ones >= zeros else 0
                count = max(ones, zeros)
                if count >= n - t:
                    decided.setdefault(me, majority)
                    new_values[me] = majority
                elif count >= n - 2 * t:
                    new_values[me] = majority
                else:
                    if coin_bit is None:
                        coin_bit = self.source.toss()
                        coins_used += 1
                    new_values[me] = coin_bit
            values = new_values
            if len(decided) == len(honest):
                return BAOutcome(decided, round_no, coins_used)
        return BAOutcome(decided, self.max_rounds, coins_used)


def run_randomized_ba(
    source: BootstrapCoinSource,
    inputs: Dict[int, int],
    executions: int = 1,
    byzantine_votes: Optional[ByzantineVotes] = None,
) -> List[BAOutcome]:
    """Run several BA executions back-to-back from one coin source.

    This is exactly the repeated-application setting of Section 1.2 — the
    source regenerates batches on demand while the application keeps
    consuming.
    """
    ba = CommonCoinBA(source)
    return [ba.agree(inputs, byzantine_votes) for _ in range(executions)]
