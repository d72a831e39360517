"""Protocol Coin-Expose (Fig. 6): reveal a secretly-held shared coin.

Every qualified holder sends its share of the coin's polynomial to all
players; everyone decodes with the Berlekamp-Welch decoder and takes
``F(0)`` (``F(0) mod 2`` for a binary coin).  One round, ``|S| * n``
point-to-point messages of size ``k``, one interpolation per player —
"it is equivalent in computation to the interpolation of the shares being
examined" (Section 3.1).

Robust acceptance rule
----------------------
The paper's Fig. 6 takes exactly 3t+1 senders.  Our senders *self-select*
(a holder abstains when its own shares failed verification — see
DESIGN.md Section 5), so the receiver accepts a decoded polynomial only if
it matches at least ``max(2t+1, N-t)`` of the ``N`` valid shares received.
Such a polynomial is unique and identical across honest receivers'
(possibly different) views, because any two qualifying polynomials agree
on at least t+1 honestly-sent (hence common) points.  This preserves
unanimity even when faulty senders equivocate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.fields.base import Element, Field
from repro.obs.phases import register_tag_phase
from repro.poly.berlekamp_welch import DecodingError, berlekamp_welch
from repro.net.simulator import Send, multicast
from repro.protocols.common import filter_tag, valid_element

# every Coin-Expose message (seed challenges, leader coins, generated
# batches) is tagged "expose/<coin_id>"
register_tag_phase("expose", prefix="expose/")


@dataclass(frozen=True)
class CoinShare:
    """One player's local piece of a shared (sealed) k-ary coin.

    Attributes
    ----------
    coin_id:
        Globally unique identifier; doubles as the expose message tag, so
        all honest players must agree on it (they do: it is derived from
        common protocol state).
    senders:
        The qualified set whose members hold shares and send them at
        expose time (the trusted dealer's seed coins use all players; a
        Coin-Gen batch uses the agreed clique).
    t:
        Degree of the sharing polynomial = maximum faults tolerated.
    my_value:
        This player's share, or None when the player holds no (valid)
        share and must abstain.
    """

    coin_id: str
    senders: frozenset
    t: int
    my_value: Optional[Element] = None


def coin_expose(
    field: Field, me: int, coin: CoinShare
) -> Generator:
    """Sub-protocol generator: expose ``coin``; returns ``F(0)`` or None.

    Usable via ``yield from`` inside a larger player program.  Takes
    exactly one communication round.  Returns None (an unusable coin) only
    when decoding fails, which for a correctly generated coin happens with
    probability 0.
    """
    values = yield from coin_expose_many(field, me, [coin])
    return values[0]


def coin_expose_many(field: Field, me: int, coins) -> Generator:
    """Expose several coins in a single communication round.

    Returns a list of exposed values (None entries for failures).  Used by
    the ``shared_challenge=False`` ablation of Coin-Gen, where every
    Bit-Gen instance consumes its own challenge coin.
    """
    sends = []
    for coin in coins:
        if me in coin.senders and coin.my_value is not None:
            sends.append(multicast(("expose/" + coin.coin_id, coin.my_value)))
    inbox = yield sends

    values = []
    for coin in coins:
        received = filter_tag(inbox, "expose/" + coin.coin_id)
        points = [
            (field.element_point(src), value)
            for src, value in sorted(received.items())
            if src in coin.senders and valid_element(field, value)
        ]
        values.append(decode_exposed(field, points, coin.t))
    return values


def decode_exposed(field: Field, points, t: int) -> Optional[Element]:
    """Robustly decode the exposed shares; None when undecodable.

    The Berlekamp-Welch call below takes its optimistic fast path in the
    common no-fault case: an inversion-free cached Newton build through
    the first t+1 shares, checked against the rest.  Because the
    bootstrap source exposes many coins against the *same* qualified set,
    every exposure after the first reuses the cached inverse differences
    — the per-coin cost drops to t(t+1) products plus the match check.
    """
    n_valid = len(points)
    threshold = max(2 * t + 1, n_valid - t) if t > 0 else n_valid
    if n_valid == 0 or n_valid < threshold:
        return None
    max_errors = n_valid - threshold
    try:
        poly, good = berlekamp_welch(field, points, t, max_errors)
    except DecodingError:
        return None
    if len(good) < threshold:
        return None
    return poly.coefficient(0)


def coin_to_index(field: Field, value: Element, n: int) -> int:
    """Fig. 5 step 9: ``l = coin mod n``, mapping 0 to n (ids are 1-based)."""
    l = field.to_int(value) % n
    return n if l == 0 else l


def make_dealer_coin(
    field: Field,
    n: int,
    t: int,
    coin_id: str,
    rng,
):
    """A trusted-dealer seed coin (Rabin [17], used once to bootstrap).

    Returns ``(secret, {player_id: CoinShare})``.  The dealer samples a
    uniform field element, Shamir-shares it with degree ``t``, and every
    player becomes a qualified sender.  "In our approach the services of a
    trusted dealer would be used only once, and for a small number of
    coins" (Section 1.2).
    """
    from repro.sharing.shamir import ShamirScheme

    scheme = ShamirScheme(field, n, t)
    secret = field.random(rng)
    _, shares = scheme.deal(secret, rng)
    everyone = frozenset(range(1, n + 1))
    coin_shares = {
        share.player_id: CoinShare(coin_id, everyone, t, share.value)
        for share in shares
    }
    return secret, coin_shares
