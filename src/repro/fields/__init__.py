"""Finite-field arithmetic substrates (paper Section 2).

The paper's protocols work over a finite field of size ``p``.  Three
implementations are provided; the coin path runs over the first, which
is the one re-exported here:

* :class:`~repro.fields.gf2k.GF2k` — the binary extension field GF(2^k) that
  the paper's algorithm descriptions assume, with naive carry-less
  multiplication (O(k^2) bit operations) and optional log/exp tables for
  small ``k``.
* :class:`~repro.fields.gfp.GFp` — a prime field Z_p, used by the Feldman-VSS
  baseline (Section 1.4) and internally by the NTT.
* :class:`~repro.fields.extension.SpecialField` — the paper's "specially
  constructed finite field" GF(q^l) in which multiplication costs
  O(k log k) additions via discrete Fourier transforms (Section 2).

All fields share the :class:`~repro.fields.base.Field` interface and meter
their own operation counts (:class:`~repro.fields.base.OpCounter`), which is
how the benchmark harness reproduces the paper's addition/interpolation
cost accounting.
"""

from repro.fields.base import Field, OpCounter
from repro.fields.gf2k import GF2k

__all__ = [
    "Field",
    "OpCounter",
    "GF2k",
]
