"""Random access to generated coins.

Section 1.4: "As in [2], our scheme also provides 'random access' to the
bits."  A Coin-Gen batch seals M independent k-ary coins; nothing forces
them to be revealed in order.  :class:`CoinSequence` exposes a batch as
an indexable sequence of coins/bits, exposing each coin lazily on first
access and caching the (unanimous) result.

Off the coin path (docs/CENSUS.md, class ii); run by claims row E15
(Section 1.4's random access).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.fields.base import Element
from repro.core.coin import SharedCoin
from repro.core.dprbg import SharedCoinSystem


class CoinSequence:
    """An indexable window onto sealed shared coins.

    ``sequence[i]`` exposes (once) and returns the i-th k-ary coin;
    :meth:`bit` addresses the underlying bit stream — coin ``i // k``,
    bit ``i % k`` — so the sequence behaves as ``len(coins) * k``
    random-access shared bits.
    """

    def __init__(self, system: SharedCoinSystem, coins: Sequence[SharedCoin]):
        self.system = system
        self.coins = list(coins)
        self._cache: Dict[int, Element] = {}

    def __len__(self) -> int:
        return len(self.coins)

    @property
    def bit_length(self) -> int:
        """Total random bits addressable through :meth:`bit`."""
        return len(self.coins) * self.system.field.bit_length

    def exposed(self, index: int) -> bool:
        """Has coin ``index`` been revealed yet?"""
        return index in self._cache

    def __getitem__(self, index: int) -> Element:
        if not -len(self.coins) <= index < len(self.coins):
            raise IndexError(index)
        index %= len(self.coins)
        if index not in self._cache:
            self._cache[index] = self.system.expose(self.coins[index])
        return self._cache[index]

    def bit(self, index: int) -> int:
        """The ``index``-th bit of the sealed bit stream (random access)."""
        k = self.system.field.bit_length
        if not 0 <= index < self.bit_length:
            raise IndexError(index)
        element = self[index // k]
        return (self.system.field.to_int(element) >> (index % k)) & 1

    def bits(self, start: int = 0, stop: Optional[int] = None) -> List[int]:
        """A slice of the bit stream (exposing only the coins it covers)."""
        stop = self.bit_length if stop is None else stop
        return [self.bit(i) for i in range(start, stop)]
