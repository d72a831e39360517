"""Each distinct exposure view is decoded once.

Every honest receiver of a clean multicast round holds the same shares,
so the shared interpolation cache remembers a successful decode under
its view ``(xs, ys, degree, max_errors)`` and replays it for the next
receiver of that view.  Pinned here, on the fields
``test_decode_straight_line`` parametrizes:

* **a replay is a warm decode to everything outside the arithmetic** —
  equal answer as new lists, the op delta of a warm decode of that view,
  the node-set hits it would have made, and no decoder stage run;
* **construction is charged once** — the first receiver of a view over
  an unseen node set pays the table construction, later receivers the
  warm cost, and nothing is decoded twice to learn it;
* **differing views decode apart** — an equivocating sender's receivers
  each get the decode of their own inbox;
* **the table is bounded** and **only ``"shared"`` uses it**.
"""

import importlib
import random
from unittest import mock

import pytest

from repro.fields import GF2k
from repro.fields.gfp import GFp
from repro.poly.barycentric import (
    InterpolationCache,
    interpolation_mode,
    shared_cache,
)
from repro.poly.polynomial import Polynomial
from repro.protocols.coin_expose import decode_shares, share_points

from test_decode_straight_line import TAG, reference_decode

#: the module: ``repro.poly.berlekamp_welch`` as an attribute is the function
bw = importlib.import_module("repro.poly.berlekamp_welch")

#: fresh field objects, so no other test's decodes are in their tables
FIELDS = {
    "gf2_8": lambda: GF2k(8),
    "gf2_16": lambda: GF2k(16),
    "gf2_32": lambda: GF2k(32),
    "gfp": lambda: GFp(2**31 - 1),
}

#: wrong-share positions at n=9, t=2 (heads [0,3) [3,6) [6,9)): a clean
#: view, a dirty first head, and a wrong share in every head — the last
#: is the key-equation solve
SPOILS = {"clean": (), "dirty_head": (1,), "key_equation": (1, 4, 7)}
#: node sets each decode looks up: one per head tried
HEADS_TRIED = {"clean": 1, "dirty_head": 2, "key_equation": 3}


def view(field, wrong, seed, n=9, t=2):
    """``(poly, xs, ys)``: shares of a random degree-t polynomial with
    the values at ``wrong`` moved off it."""
    rng = random.Random(seed)
    poly = Polynomial.random(field, t, rng)
    xs = field.element_points(range(1, n + 1))
    ys = [poly(x) for x in xs]
    for position in wrong:
        ys[position] = field.add(ys[position], field.random_nonzero(rng))
    return poly, xs, ys


def metered(field, call):
    before = field.counter.snapshot()
    result = call()
    return result, field.counter.delta(before)


def warm_cost(make_field, wrong, seed, t=2):
    """What a warm decode of ``view(..., wrong, seed)`` costs, measured
    on a field of its own whose node sets another view warmed."""
    field = make_field()
    bw.decode_lists(field, *view(field, wrong, seed + 1000)[1:], t)
    _, xs, ys = view(field, wrong, seed)
    return metered(field, lambda: bw.decode_lists(field, xs, ys, t))


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("spoil", sorted(SPOILS))
def test_a_repeated_view_is_a_warm_decode_without_the_arithmetic(
    name, spoil
):
    field = FIELDS[name]()
    poly, xs, ys = view(field, SPOILS[spoil], seed=3)
    (expected, warm) = warm_cost(FIELDS[name], SPOILS[spoil], seed=3)
    first = bw.decode_lists(field, xs, ys, 2)
    assert first == expected
    assert first[0] == list(poly.coeffs)
    cache = shared_cache(field)
    hits, misses = cache.hits, cache.misses
    with mock.patch.object(
        bw, "optimistic_candidate", wraps=bw.optimistic_candidate
    ) as candidates, mock.patch.object(
        bw, "full_decode", wraps=bw.full_decode
    ) as solves:
        second, ops = metered(field, lambda: bw.decode_lists(field, xs, ys, 2))
        third = bw.decode_lists(field, xs, ys, 2)
    assert candidates.call_count == solves.call_count == 0
    assert ops == warm
    assert second == third == first
    assert second[0] is not first[0] and second[1] is not first[1]
    second[0].append(field.one)
    second[1].append(99)
    assert bw.decode_lists(field, xs, ys, 2) == first
    # bookkeeping too: the node-set hits a warm decode would make
    looked_up = HEADS_TRIED[spoil]
    assert (cache.hits, cache.misses) == (hits + 3 * looked_up, misses)
    assert cache.stats()["views"] == 3


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("spoil", sorted(SPOILS))
def test_construction_is_charged_to_the_first_receiver_only(name, spoil):
    field = FIELDS[name]()
    _, xs, ys = view(field, SPOILS[spoil], seed=5)
    _, warm = warm_cost(FIELDS[name], SPOILS[spoil], seed=5)
    cache = shared_cache(field)
    built = cache.built.snapshot()
    with mock.patch.object(
        bw, "full_decode", wraps=bw.full_decode
    ) as solves:
        charges = [
            metered(field, lambda: bw.decode_lists(field, xs, ys, 2))[1]
            for _receiver in range(4)
        ]
    assert solves.call_count == (1 if spoil == "key_equation" else 0)
    construction = cache.built.delta(built)
    assert construction.invs >= 1
    assert charges[0] == warm + construction
    assert charges[1:] == [warm] * 3


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_an_equivocating_senders_receivers_decode_their_own_views(name):
    """Sender 1 lies differently to receivers 2 and 3 (and tells 4 the
    truth): three views, three decodes, each its own inbox's answer."""
    field = FIELDS[name]()
    n, t = 7, 1
    rng = random.Random(17)
    poly = Polynomial.random(field, t, rng)
    honest = {pid: poly(field.element_point(pid)) for pid in range(1, n + 1)}
    told = {
        2: field.add(honest[1], field.one),
        3: field.add(honest[1], field.from_int(2)),
        4: honest[1],
    }
    senders = frozenset(range(1, n + 1))
    answers = {}
    for receiver in (2, 3, 4, 2, 3, 4):  # the second pass replays
        inbox = {pid: [(TAG, honest[pid])] for pid in range(2, n + 1)}
        inbox[1] = [(TAG, told[receiver])]
        value, good, points = reference_decode(field, inbox, senders, t)
        xs, ys = share_points(field, inbox, TAG, senders)
        coeffs, wrong = decode_shares(field, xs, ys, t)
        assert coeffs[0] == value == poly.coefficient(0)
        assert [i for i in range(len(xs)) if i not in wrong] == good
        answers.setdefault(receiver, []).append(wrong)
    assert answers == {2: [[0], [0]], 3: [[0], [0]], 4: [[], []]}
    stats = shared_cache(field).stats()
    assert (stats["decoded"], stats["views"]) == (3, 3)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_the_table_holds_at_most_its_bound(name):
    field = FIELDS[name]()
    cache = shared_cache(field)
    bound = cache.max_sets
    views = [view(field, (), seed)[1:] for seed in range(bound + 5)]
    for xs, ys in views:
        bw.decode_lists(field, xs, ys, 2)
    assert cache.stats()["decoded"] == bound
    # least recently used out: the newest view replays, the oldest decodes
    bw.decode_lists(field, *views[-1], 2)
    assert cache.stats()["views"] == 1
    bw.decode_lists(field, *views[0], 2)
    assert cache.stats()["views"] == 1
    assert cache.stats()["decoded"] == bound


def test_an_evicted_node_set_is_rebuilt_not_replayed():
    """A replay is only a warm decode while the node sets the decode used
    are the ones in the table: after an eviction the next receiver
    decodes and pays the construction again, as it would without the
    view table."""
    field = GF2k(16)
    cache = shared_cache(field)
    cache.max_sets = 2
    _, xs, ys = view(field, (), seed=1)
    first = metered(field, lambda: bw.decode_lists(field, xs, ys, 2))[1]
    for start in (2, 3):  # two other heads push the view's one out
        bw.decode_lists(field, xs[start:], ys[start:], 2)
    again = metered(field, lambda: bw.decode_lists(field, xs, ys, 2))[1]
    assert again == first and again.invs >= 1
    assert cache.stats()["views"] == 0


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("mode", ["fresh", "off"])
def test_fresh_and_off_never_touch_the_table(name, mode):
    field = FIELDS[name]()
    _, xs, ys = view(field, (1,), seed=8)
    untouchable = mock.Mock(side_effect=AssertionError("table touched"))
    with mock.patch.object(InterpolationCache, "recall", untouchable), \
            mock.patch.object(InterpolationCache, "remember", untouchable), \
            interpolation_mode(mode):
        answers = [bw.decode_lists(field, xs, ys, 2) for _ in range(3)]
    assert answers[0] == answers[1] == answers[2]
    stats = shared_cache(field).stats()
    assert (stats["decoded"], stats["views"]) == (0, 0)


def test_a_failed_decode_is_never_remembered():
    field = GF2k(16)
    _, xs, ys = view(field, (0, 1, 2, 3), seed=2)  # past the radius
    with mock.patch.object(bw, "full_decode", wraps=bw.full_decode) as solves:
        for _ in range(2):
            with pytest.raises(bw.DecodingError):
                bw.decode_lists(field, xs, ys, 2)
    assert solves.call_count == 2
    for _ in range(2):
        with pytest.raises(ValueError, match="distinct"):
            bw.decode_lists(field, [1, 2, 2, 4], [5, 6, 7, 8], 1)
    assert shared_cache(field).stats()["decoded"] == 0

