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
from typing import Any, Dict, Generator, Iterable, List, Optional, Tuple

from repro.fields.base import Element, Field
from repro.obs.phases import register_tag_phase
from repro.poly.berlekamp_welch import DecodingError, berlekamp_welch
from repro.poly.polynomial import Polynomial
from repro.net.simulator import Send, multicast
from repro.protocols.common import filter_tag, valid_element

#: every Coin-Expose message (seed challenges, leader coins, generated
#: batches) is tagged ``expose/<coin_id>``; nothing outside this module
#: spells the prefix
_PREFIX = "expose/"
register_tag_phase("expose", prefix=_PREFIX)


def expose_tag(coin_id: str) -> str:
    """The wire tag of ``coin_id``'s exposure shares."""
    return _PREFIX + coin_id


def exposed_coin_id(tag: Any) -> Optional[str]:
    """The coin an expose tag names; None for any other tag."""
    if isinstance(tag, str) and tag.startswith(_PREFIX):
        return tag[len(_PREFIX):]
    return None


def exposure_shares(
    deliveries: Iterable[Tuple[int, int, Any]],
) -> Dict[int, Dict[str, Dict[int, Any]]]:
    """``{receiver: {coin_id: {sender: share}}}`` out of ``(dst, src,
    payload)`` deliveries — which shares make up one exposure.

    A receiver keeps the *first* share each sender sent it under a
    coin's tag (what :func:`~repro.protocols.common.filter_tag` hands
    the live players), whenever it arrived.  That is the whole rule,
    for a lockstep round and an async delivery stream alike, because of
    what the decoder does with the result: inside the fault model the
    shares that reached a receiver hold every honest holder's valid one
    (at least ``n - t`` for a dealt coin) and at most ``t`` wrong ones,
    which is within the Berlekamp-Welch radius of
    :func:`decode_exposed`'s acceptance rule, and the polynomial it
    accepts is unique.  So a receiver's decode over
    *every* share that reached it in a run equals the decode it made
    live from whichever subset had arrived when it acted — a liar's
    share delayed past the round, or an async share landing after the
    quorum fired, changes the view and not the value.
    """
    views: Dict[int, Dict[str, Dict[int, Any]]] = {}
    for dst, src, payload in deliveries:
        if isinstance(payload, tuple) and len(payload) == 2:
            coin_id = exposed_coin_id(payload[0])
            if coin_id is not None:
                views.setdefault(dst, {}).setdefault(
                    coin_id, {}
                ).setdefault(src, payload[1])
    return views


def share_points(field: Field, by_sender: Dict[int, Any],
                 senders=None) -> List[Tuple[Element, Element]]:
    """The decoder's input: ``(x_sender, share)`` per well-formed share,
    in sender order — from ``senders`` only, when the qualified set is
    known (the log readers do not know it and take every sender)."""
    return [
        (field.element_point(src), value)
        for src, value in sorted(by_sender.items())
        if (senders is None or src in senders) and valid_element(field, value)
    ]


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
            sends.append(multicast((_PREFIX + coin.coin_id, coin.my_value)))
    inbox = yield sends

    values = []
    for coin in coins:
        received = filter_tag(inbox, _PREFIX + coin.coin_id)
        values.append(decode_exposed(
            field, share_points(field, received, coin.senders), coin.t
        ))
    return values


def decode_shares(
    field: Field, points, t: int
) -> Optional[Tuple[Polynomial, List[int]]]:
    """The accepted polynomial and the positions of ``points`` on it, or
    None when nothing meets the robust acceptance rule (module docstring).

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
    try:
        poly, good = berlekamp_welch(field, points, t, n_valid - threshold)
    except DecodingError:
        return None
    if len(good) < threshold:
        return None
    return poly, good


def decode_exposed(field: Field, points, t: int) -> Optional[Element]:
    """Robustly decode the exposed shares to ``F(0)``; None when
    undecodable."""
    accepted = decode_shares(field, points, t)
    return None if accepted is None else accepted[0].coefficient(0)


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
