"""Protocol Coin-Gen (Fig. 5): generate M sealed shared coins.

Point-to-point model, ``n >= 6t+1``.  The protocol is decomposed into
phase modules mirroring Fig. 5's structure:

* :mod:`~repro.protocols.coin_gen.dealing` — steps 1-5: n parallel
  verified dealings, one shared batching challenge, local decoding;
* :mod:`~repro.protocols.coin_gen.agreement` — steps 6-11: consistency
  graph, Gavril clique, grade-cast, leader election + BA loop;
* :mod:`~repro.protocols.coin_gen.finalize` — step 12 plus whole-protocol
  runners: coin-share assembly, trusted-dealer seed coins, ``run_coin_gen``
  and ``expose_coin``.

This package re-exports the historical ``repro.protocols.coin_gen``
module surface, so existing imports keep working unchanged.
"""

from repro.protocols.coin_gen.dealing import (
    DealingState,
    dealt_columns,
    random_vanishing,
    verified_dealing,
)
from repro.protocols.coin_gen.agreement import (
    DealingAgreement,
    consistency_clique,
    dealing_agreement_program,
    proposal_support,
    validate_proposal,
)
from repro.protocols.coin_gen.finalize import (
    CoinGenOutput,
    coin_gen_program,
    expose_coin,
    make_seed_coins,
    run_coin_gen,
    run_coin_gen_players,
)

__all__ = [
    "DealingState",
    "dealt_columns",
    "random_vanishing",
    "verified_dealing",
    "DealingAgreement",
    "consistency_clique",
    "dealing_agreement_program",
    "proposal_support",
    "validate_proposal",
    "CoinGenOutput",
    "coin_gen_program",
    "expose_coin",
    "make_seed_coins",
    "run_coin_gen",
    "run_coin_gen_players",
]
