"""Applications built on shared coins — the paper's motivation.

"Shared coins are needed, amongst other things, for Byzantine agreement
(BA) and broadcast" (Section 1.1).  :mod:`repro.apps.randomized_ba` is a
coin-driven randomized BA that consumes coins from a
:class:`~repro.core.bootstrap.BootstrapCoinSource`, demonstrating the
bulk-consumption pattern the D-PRBG was designed for.

Off the coin path (docs/CENSUS.md, class ii); run by
`examples/randomized_agreement.py` and `examples/secret_escrow.py`.
"""

from repro.apps.randomized_ba import CommonCoinBA, run_randomized_ba
from repro.apps.leader_election import LeaderElection, ElectionResult

__all__ = [
    "CommonCoinBA",
    "run_randomized_ba",
    "LeaderElection",
    "ElectionResult",
]
