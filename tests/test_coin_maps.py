"""Every map from a coin to what a consumer sees, over every element.

A D-PRBG coin is a uniform field element.  Consumers see values derived
from it: the bits of :meth:`Field.coin_bits` (``BootstrapCoinSource.toss``
and ``HealthMonitor``), the leader id of
:func:`~repro.protocols.coin_expose.coin_to_index` (Fig. 5 step 9) and
the paper's ``F(0) mod 2`` bit of :meth:`Field.coin_bit` and
:func:`~repro.protocols.async_coin.async_coin_bit`.  Enumerating each
small field the repo builds gives each map's exact output distribution
under a uniform coin — no sampling, no tolerance.  ``CoinSequence.bit``
(random access, a fixed bit count per coin) reads all ``k`` bits of a
coin, so it accepts exactly the fields of order ``2^k``.
"""

from collections import Counter

import pytest

from repro.core import BootstrapCoinSource
from repro.core.dprbg import SharedCoinSystem
from repro.core.sequence import CoinSequence
from repro.fields import GF2k
from repro.fields.extension import SpecialField
from repro.fields.gfp import GFp
from repro.protocols.async_coin import async_coin_bit
from repro.protocols.coin_expose import coin_to_index

FIELDS = {f"GF(2^{k})": (lambda k=k: GF2k(k)) for k in range(1, 17)}
FIELDS.update({
    "GFp(17)": lambda: GFp(17),
    "GFp(257)": lambda: GFp(257),
    "GFp(65537)": lambda: GFp(65537),
    "SpecialField(11, 3)": lambda: SpecialField(11, 3),
})


@pytest.fixture(scope="module", params=sorted(FIELDS))
def field(request):
    return FIELDS[request.param]()


def test_coin_bits_are_exactly_uniform(field):
    """Every emitted bit string has one length ``L`` and each of the
    ``2^L`` strings comes from exactly one element; ``L`` is ``k`` on
    GF(2^k) and ``floor(log2(order))`` otherwise, so a coin yields bits
    with probability ``2^L / order``."""
    order = field.order
    width = order.bit_length() - 1
    strings = Counter(tuple(field.coin_bits(a)) for a in field.elements())
    empty = strings.pop((), 0)
    assert empty == order - (1 << width)
    assert {len(bits) for bits in strings} == {width}
    assert len(strings) == 1 << width
    assert set(strings.values()) == {1}


@pytest.mark.parametrize("n", [4, 7, 10, 13, 16])
def test_coin_to_index_has_exactly_its_documented_skew(field, n):
    """Id ``l`` is elected by ``ceil(p/n)`` elements when ``l mod n`` is
    below ``p mod n`` and by ``floor(p/n)`` otherwise — uniform exactly
    when ``n`` divides the order."""
    order = field.order
    counts = Counter(coin_to_index(field, a, n) for a in field.elements())
    low, rest = divmod(order, n)
    want = {
        l: low + (1 if l % n < rest else 0)
        for l in range(1, n + 1)
        if low + (1 if l % n < rest else 0)
    }
    assert dict(counts) == want
    if rest == 0:
        assert len(set(counts.values())) == 1


def test_the_low_bit_has_exactly_its_documented_skew(field):
    """``F(0) mod 2`` is 1 for ``floor(order / 2)`` elements: fair on
    GF(2^k), ``(p - 1) / 2`` of p on an odd order (8/17 on GF(17))."""
    order = field.order
    ones = sum(field.coin_bit(a) for a in field.elements())
    assert ones == order // 2
    assert ones == sum(async_coin_bit(a, field) for a in field.elements())
    assert (2 * ones == order) == (order % 2 == 0)


def test_coin_sequence_accepts_exactly_the_power_of_two_orders(field):
    """Every bit ``CoinSequence.bit`` reads is uniform on GF(2^k); on any
    other order the top bit of a coin is biased, so it is refused."""
    system = SharedCoinSystem(field, 1, 0)
    if isinstance(field, GF2k):
        assert CoinSequence(system, []).bit_length == 0
    else:
        with pytest.raises(ValueError, match=f"order {field.order} "):
            CoinSequence(system, [])


def test_the_gf16_leader_skew_named_in_the_docstring():
    counts = Counter(coin_to_index(GF2k(4), a, 7) for a in GF2k(4).elements())
    assert counts[1] == counts[7] == 3
    assert all(counts[l] == 2 for l in range(2, 7))


def test_a_prime_field_source_has_no_constant_bit():
    """The top bit of a GFp(65537) element is 1 once in 65537; the
    source used to emit it, so every 17th toss read 0.  Now a coin
    yields 16 bits or none, and ``toss`` draws until it has one."""
    field = GFp(65537)
    source = BootstrapCoinSource(field, n=7, t=1, batch_size=16, seed=3)
    bits = source.tosses(3400)
    assert len(bits) == 3400
    for phase in range(17):
        assert 1 in bits[phase::17]
    assert source.coins_consumed == -(-3400 // 16)
