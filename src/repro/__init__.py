"""repro — Distributed Pseudo-Random Bit Generators (PODC 1996).

A reimplementation of Bellare, Garay & Rabin, "Distributed Pseudo-Random
Bit Generators — A New Way to Speed-Up Shared Coin Tossing".  The paper
is a cost claim about one pipeline — Bit-Gen -> Coin-Gen -> Coin-Expose
behind the bootstrap loop of Fig. 1 — and this package re-exports
exactly that pipeline: the field it runs over, Shamir sharing, the two
generation protocols, the D-PRBG core and the bootstrap coin source.
``import repro`` loads nothing else.

Everything off that path (VSS / Batch-VSS, the Section 1.4 baselines,
the special field, applications, analysis, observability recorders,
the campaign engine) is imported from its own module and backs one row
of the paper-claims table in ``benchmarks/claims.py``, an example, or a
CI step; ``docs/CENSUS.md`` lists which.

Quick start::

    from repro import BootstrapCoinSource, GF2k

    source = BootstrapCoinSource(field=GF2k(32), n=7, t=1, batch_size=16)
    bit = source.toss()          # one shared coin bit, unanimous across players
    word = source.toss_element() # a full k-ary shared coin
"""

from repro.fields import GF2k
from repro.sharing import Share, ShamirScheme
from repro.protocols import CoinShare, run_bit_gen, run_coin_gen
from repro.core import (
    DPRBG,
    BootstrapCoinSource,
    SharedCoin,
    SharedCoinSystem,
    StretchResult,
    TrustedDealer,
    UnanimityError,
)

__all__ = [
    "GF2k",
    "Share",
    "ShamirScheme",
    "CoinShare",
    "run_bit_gen",
    "run_coin_gen",
    "DPRBG",
    "BootstrapCoinSource",
    "SharedCoin",
    "SharedCoinSystem",
    "StretchResult",
    "TrustedDealer",
    "UnanimityError",
]

__version__ = "1.0.0"
