"""A verified secret store: Batch-VSS as a library service.

The paper presents batch VSS as "of independent interest" (Section 1.3);
this is the corresponding API: a dealer deposits many secrets into the
committee at once, the committee *verifies all deposits with a single
interpolation* (Fig. 3), and any secret can later be opened on demand by
the committee — robustly, through the same Berlekamp-Welch machinery as
Coin-Expose.

The batch is always blinded (one extra random dealing) so the public
verification value constrains none of the deposited secrets.

Off the coin path (docs/CENSUS.md, class ii); run by
`examples/secret_escrow.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.fields.base import Element, Field
from repro.protocols.batch_vss import batch_vss_program
from repro.protocols.coin_expose import CoinShare, coin_expose, make_dealer_coin
from repro.protocols.context import ProtocolContext
from repro.sharing.shamir import ShamirScheme


class DepositRejected(Exception):
    """The committee's batch verification rejected the dealing."""


@dataclass
class _StoredSecret:
    """Committee-side record of one verified secret."""

    secret_id: str
    shares: Dict[int, CoinShare]


class VerifiedSecretStore:
    """Deposit-many / open-on-demand secret storage for an n-committee.

    The simulation plays both the dealer and the committee; deposits run
    the real Batch-VSS protocol over the simulated network and openings
    run the robust exposure protocol, so all soundness/robustness
    properties are the tested protocol ones.
    """

    def __init__(self, field: Field, n: int, t: int, seed: int = 0):
        if n < 3 * t + 1:
            raise ValueError("the broadcast-model store needs n >= 3t+1")
        self.field = field
        self.n = n
        self.t = t
        self.context = ProtocolContext(field, n, t, seed=seed)
        self.rng = self.context.rng
        self.scheme = ShamirScheme(field, n, t)
        self._stored: Dict[str, _StoredSecret] = {}
        self._deposits = 0
        #: tallies over every deposit and opening
        self.metrics = self.context.metrics

    # -- deposit ------------------------------------------------------------
    def deposit(
        self,
        secrets: Sequence[Element],
        cheat_offsets: Optional[Dict[int, Dict[int, Element]]] = None,
    ) -> List[str]:
        """Deal and batch-verify ``secrets``; returns their ids.

        Raises :class:`DepositRejected` when verification fails (e.g. a
        cheating dealer, injectable via ``cheat_offsets`` for testing).
        All-or-nothing: a rejected batch stores nothing.
        """
        batch_index = self._deposits
        self._deposits += 1
        total = len(secrets) + 1  # + blinding dealing

        share_table: Dict[int, list] = {pid: [] for pid in range(1, self.n + 1)}
        ids = []
        for index, secret in enumerate(list(secrets) + [self.field.random(self.rng)]):
            _, shares = self.scheme.deal(secret, self.rng)
            values = {s.player_id: s.value for s in shares}
            if cheat_offsets and index in cheat_offsets:
                for pid, offset in cheat_offsets[index].items():
                    values[pid] = self.field.add(values[pid], offset)
            for pid in range(1, self.n + 1):
                share_table[pid].append(values[pid])
            if index < len(secrets):
                ids.append(f"secret-{batch_index}-{index}")

        _, challenge_shares = make_dealer_coin(
            self.field, self.n, self.t, f"store-challenge-{batch_index}",
            self.rng,
        )
        outputs, _ = self.context.run(
            lambda pid: batch_vss_program(
                self.field, self.n, self.t, pid,
                share_table[pid], challenge_shares[pid],
                tag=f"store{batch_index}",
            )
        )
        if not all(r.accepted for r in outputs.values()):
            raise DepositRejected(
                f"batch {batch_index}: committee rejected the dealing"
            )

        everyone = frozenset(range(1, self.n + 1))
        for index, secret_id in enumerate(ids):
            self._stored[secret_id] = _StoredSecret(
                secret_id,
                {
                    pid: CoinShare(
                        secret_id, everyone, self.t, share_table[pid][index]
                    )
                    for pid in range(1, self.n + 1)
                },
            )
        return ids

    # -- open ---------------------------------------------------------------
    def open(self, secret_id: str) -> Element:
        """Robustly open one stored secret (committee-wide exposure)."""
        record = self._stored[secret_id]
        outputs, _ = self.context.run(
            lambda pid: coin_expose(self.field, pid, record.shares[pid]),
            allow_broadcast=False,
        )
        values = set(outputs.values())
        if len(values) != 1 or None in values:
            raise DepositRejected(f"{secret_id}: opening failed")
        return values.pop()

    # -- introspection --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._stored)

    def __contains__(self, secret_id: str) -> bool:
        return secret_id in self._stored

    def amortized_verification_cost(self) -> float:
        """Interpolations per stored secret (Corollary 1's headline)."""
        if not self._stored:
            return 0.0
        busiest = self.metrics.max_player_ops()
        return busiest.interpolations / len(self._stored)
