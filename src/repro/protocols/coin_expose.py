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
from repro.poly.berlekamp_welch import DecodingError, decode_lists
from repro.net.simulator import multicast

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
) -> Dict[int, Dict[str, Dict[int, List[Any]]]]:
    """``{receiver: {coin_id: {sender: [payloads]}}}`` out of ``(dst,
    src, payload)`` deliveries: per receiver and exposed coin, the
    inbox of that coin's expose traffic over a whole run, in arrival
    order — what :func:`share_points` reads, so a log reader asks the
    very function the live players asked.
    """
    views: Dict[int, Dict[str, Dict[int, List[Any]]]] = {}
    for dst, src, payload in deliveries:
        if isinstance(payload, tuple) and len(payload) == 2:
            coin_id = exposed_coin_id(payload[0])
            if coin_id is not None:
                views.setdefault(dst, {}).setdefault(
                    coin_id, {}
                ).setdefault(src, []).append(payload)
    return views


def share_points(
    field: Field, inbox: Dict[Any, List[Any]], tag: str, senders
) -> Tuple[List[Element], List[Element]]:
    """The decoder's input for the exposure tagged ``tag``, as parallel
    lists ``(xs, ys)`` — which shares make up one exposure.

    One pass over ``senders`` (the coin's qualified set; every player of
    the system for a log reader, who does not know it) in id order: the
    *first* payload a sender put under the coin's tag, whenever it
    arrived, kept when its share is a well-formed element, at the
    sender's evaluation point.  That is the whole rule, for a lockstep
    round's inbox, an async player's cumulative one and a run's
    recorded deliveries alike, because of what the decoder does with
    the result: inside the fault model the shares that reached a
    receiver hold every honest holder's valid one (at least ``n - t``
    for a dealt coin) and at most ``t`` wrong ones, which is within the
    Berlekamp-Welch radius of :func:`decode_exposed`'s acceptance rule,
    and the polynomial it accepts is unique.  So a receiver's decode
    over *every* share that reached it in a run equals the decode it
    made live from whichever subset had arrived when it acted — a
    liar's share delayed past the round, or an async share landing
    after the quorum fired, changes the view and not the value.
    """
    ids: List[int] = []
    ys: List[Any] = []
    for src in sorted(senders):
        for payload in inbox.get(src, ()):
            if (
                isinstance(payload, tuple)
                and len(payload) == 2
                and payload[0] == tag
            ):
                ids.append(src)
                ys.append(payload[1])
                break
    if not field.contains_all(ys):  # a faulty sender's non-element
        kept = [i for i, y in enumerate(ys) if y in field]
        ids = [ids[i] for i in kept]
        ys = [ys[i] for i in kept]
    return field.element_points(ids), ys


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
        xs, ys = share_points(
            field, inbox, _PREFIX + coin.coin_id, coin.senders
        )
        values.append(decode_exposed(field, xs, ys, coin.t))
    return values


def decode_shares(
    field: Field, xs: List[Element], ys: List[Element], t: int
) -> Optional[Tuple[List[Element], List[int]]]:
    """The accepted polynomial's coefficients and the positions of the
    shares off it (:func:`~repro.poly.berlekamp_welch.decode_lists`'
    answer), or None when nothing meets the robust acceptance rule
    (module docstring).

    The decode takes its optimistic fast path in the common no-fault
    case: an inversion-free cached Newton build through the first t+1
    shares, checked against the rest.  Because the bootstrap source
    exposes many coins against the *same* qualified set, every exposure
    after the first reuses the cached inverse differences — the
    per-coin cost drops to t(t+1) products plus the match check.  And
    because every honest receiver of a clean round holds the same
    shares, only the first receiver of a view runs the decoder; the
    others replay its answer, metered at that warm cost
    (:func:`~repro.poly.berlekamp_welch.decode_lists`).
    """
    n_valid = len(xs)
    threshold = max(2 * t + 1, n_valid - t) if t > 0 else n_valid
    if n_valid == 0 or n_valid < threshold:
        return None
    try:
        coeffs, wrong = decode_lists(field, xs, ys, t, n_valid - threshold)
    except DecodingError:
        return None
    if n_valid - len(wrong) < threshold:
        return None
    return coeffs, wrong


def decode_exposed(
    field: Field, xs: List[Element], ys: List[Element], t: int
) -> Optional[Element]:
    """Robustly decode the exposed shares ``ys`` at ``xs`` to ``F(0)``;
    None when undecodable."""
    accepted = decode_shares(field, xs, ys, t)
    if accepted is None:
        return None
    coeffs = accepted[0]
    return coeffs[0] if coeffs else field.zero


def coin_to_index(field: Field, value: Element, n: int) -> int:
    """Fig. 5 step 9: ``l = coin mod n``, mapping 0 to n (ids are 1-based).

    The paper's map, kept as it is: on a field of order ``p`` that ``n``
    does not divide it is skewed.  With ``r = p mod n``, an id ``l``
    whose residue ``l mod n`` is below ``r`` is elected with probability
    ``ceil(p / n) / p`` and every other id with ``floor(p / n) / p``.  On
    GF(2^4) with n = 7 that is 3/16 for ids 7 and 1 and 2/16 for the
    rest; on GF(2^32) the skew is below 10^-9.
    """
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
