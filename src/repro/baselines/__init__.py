"""Comparison baselines from the paper's Section 1.4.

* :mod:`repro.baselines.from_scratch` — the "straightforward way": one
  verified dealing per fault to tolerate, t+1 interpolations per coin.
* :mod:`repro.baselines.cut_and_choose` — the Chaum-Crepeau-Damgard [9]
  style cut-and-choose VSS: k companion polynomials, k interpolations,
  error 2^-k.
* :mod:`repro.baselines.feldman` — Feldman's [12] non-interactive VSS via
  discrete-log commitments: t exponentiations (t log p multiplications)
  per party.
* :mod:`repro.baselines.rabin_dealer` — Rabin's [17] trusted dealer that
  must "continuously provide" pre-generated coins.
* :mod:`repro.baselines.beaver_so` — the Beaver-So [2] factoring-based
  generator shape: pre-set bit budget, big-modulus multiplications.

Off the coin path (docs/CENSUS.md, class ii); run by claims rows E5, E9,
E10 and E15.
"""

from repro.baselines.from_scratch import run_from_scratch_coin
from repro.baselines.cut_and_choose import run_cut_and_choose_vss
from repro.baselines.feldman import run_feldman_vss
from repro.baselines.rabin_dealer import RabinDealerService
from repro.baselines.beaver_so import BeaverSoGenerator, BudgetExhausted

__all__ = [
    "run_from_scratch_coin",
    "run_cut_and_choose_vss",
    "run_feldman_vss",
    "RabinDealerService",
    "BeaverSoGenerator",
    "BudgetExhausted",
]
