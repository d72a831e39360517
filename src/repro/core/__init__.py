"""The paper's primary contribution: D-PRBGs and bootstrapping (Fig. 1).

* :class:`~repro.core.dprbg.DPRBG` — the distributed pseudo-random bit
  generator: "a protocol which expands a distributed seed, consisting of
  shared coins, into a longer sequence of shared coins, at low amortized
  cost per coin produced" (abstract).
* :class:`~repro.core.bootstrap.BootstrapCoinSource` — the bootstrap loop:
  "each run of the D-PRBG produces not only the coins for the current
  execution but also the seed for the next execution", with an adaptive
  low-watermark trigger ("a constant threshold triggering the generation
  of new coins", Section 1.2).
* :class:`~repro.core.seed.TrustedDealer` — the one-time initial seed
  (Rabin [17]'s trusted party, used exactly once).

Off the coin path, imported from their own modules:
:mod:`repro.core.sequence` (random access to sealed coins, Section 1.4)
and :mod:`repro.core.secret_store` (Batch-VSS as a deposit service).
"""

from repro.core.coin import SharedCoin, UnanimityError
from repro.core.seed import TrustedDealer
from repro.core.dprbg import DPRBG, SharedCoinSystem, StretchResult
from repro.core.bootstrap import BootstrapCoinSource

__all__ = [
    "SharedCoin",
    "UnanimityError",
    "TrustedDealer",
    "DPRBG",
    "SharedCoinSystem",
    "StretchResult",
    "BootstrapCoinSource",
]
