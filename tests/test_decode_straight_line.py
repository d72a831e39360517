"""The straight line equals the decoder it replaces.

An exposure's clean path runs on parallel ``xs`` / ``ys`` lists from a
player's inbox to ``F(0)`` (``share_points`` -> ``decode_exposed`` ->
``decode_lists`` -> one optimistic stage).  Three things are pinned here:

* **equivalence** — whatever the view (missing senders, wrong shares in
  the head, the tail or both, non-elements on the wire), the value, the
  kept positions and the refused / raised outcomes are those of the
  key-equation decoder ``full_decode`` over the same well-formed shares,
  in every ``interpolation_mode``;
* **op counts** — a clean decode of N points of degree t meters exactly
  ``t(t+1) + t(N-t-1)`` multiplications, as many additions, one
  interpolation and no inversion on a cache hit; a dirty head costs one
  more candidate, nothing twice;
* **live == offline** — the points a lockstep player and an async player
  decode from are ``share_points`` over the same run's flight log.
"""

import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fields import GF2k
from repro.fields.backends import numpy_available
from repro.fields.base import OpCounter
from repro.fields.gfp import GFp
from repro.net import AsyncRuntime, RandomOrderScheduler
from repro.net.simulator import SynchronousNetwork
from repro.obs.flight import FlightRecorder
from repro.poly.barycentric import interpolation_mode, shared_cache
from repro.poly.berlekamp_welch import (
    DecodingError,
    berlekamp_welch,
    decode_lists,
    full_decode,
    max_correctable_errors,
)
from repro.poly.polynomial import Polynomial
from repro.protocols.coin_expose import (
    decode_exposed,
    decode_shares,
    expose_tag,
    exposure_shares,
    make_dealer_coin,
    share_points,
)
from repro.protocols.context import run_players


#: the modules: ``repro.protocols.coin_expose`` as an attribute is the function
coin_expose = importlib.import_module("repro.protocols.coin_expose")
async_coin = importlib.import_module("repro.protocols.async_coin")


class IntSubclass(int):
    """An ``int`` subclass: equal to a member, not one."""


FIELDS = {
    "gf2_8": GF2k(8),
    "gf2_16": GF2k(16),
    "gf2_32": GF2k(32),
    "gfp": GFp(2**31 - 1),
}
MODES = ("shared", "fresh", "off")
TAG = expose_tag("c")


def non_elements():
    """What a faulty sender can put where a share belongs."""
    values = [True, 1.0, Fraction(1), IntSubclass(1), None, "1", (1,)]
    if numpy_available():
        import numpy

        values += [numpy.int64(1), numpy.uint32(1)]
    return values


def well_formed(field, value):
    return type(value) is int and 0 <= value < field.order


# -- equivalence ------------------------------------------------------------

def reference_decode(field, inbox, senders, t):
    """The exposure rule spelt out, decoded by the key equation alone:
    ``(F(0), good positions, points)`` or ``(None, None, points)``."""
    points = []
    for src in sorted(senders):
        for payload in inbox.get(src, ()):
            if (isinstance(payload, tuple) and len(payload) == 2
                    and payload[0] == TAG):
                if well_formed(field, payload[1]):
                    points.append((field.element_point(src), payload[1]))
                break
    count = len(points)
    threshold = max(2 * t + 1, count - t) if t else count
    if count == 0 or count < threshold:
        return None, None, points
    max_errors = min(count - threshold, max_correctable_errors(count, t))
    try:
        poly, good = full_decode(field, points, t, max_errors)
    except DecodingError:
        return None, None, points
    if len(good) < threshold:
        return None, None, points
    return poly(field.zero), good, points


@st.composite
def views(draw):
    """One receiver's inbox of one exposure, and how it was spoilt."""
    t = draw(st.integers(0, 2))
    n = draw(st.integers(max(3 * t + 1, 2), 13))
    seed = draw(st.integers(0, 10_000))
    missing = draw(st.sets(st.integers(1, n), max_size=t + 1))
    # positions (among the present senders) whose share is wrong: drawn
    # from the head, the tail or both, up to one more than is correctable
    wrong = draw(st.sets(st.integers(0, n - 1), max_size=t + 1))
    junk = draw(st.dictionaries(
        st.integers(1, n), st.integers(0, len(non_elements()) - 1),
        max_size=2,
    ))
    outsider = draw(st.booleans())
    return t, n, seed, missing, wrong, junk, outsider


def build_inbox(field, t, n, seed, missing, wrong, junk, outsider):
    rng = random.Random(seed)
    poly = Polynomial.random(field, t, rng)
    present = [pid for pid in range(1, n + 1) if pid not in missing]
    inbox = {}
    for position, pid in enumerate(present):
        share = poly(field.element_point(pid))
        if position in wrong:
            share = field.add(share, field.random_nonzero(rng))
        # a second payload under the tag never counts; a foreign tag
        # ahead of the share is skipped
        inbox[pid] = [("other/tag", 5), (TAG, share),
                      (TAG, field.random(rng))]
    for pid, which in junk.items():
        inbox[pid] = [(TAG, non_elements()[which])]
    if outsider:  # an id that is no player of this system
        inbox[n + 37] = [(TAG, field.random(rng))]
    inbox["rush_peek"] = {1: [(TAG, 0)]}
    return inbox


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None)
@given(view=views())
def test_the_exposure_decode_is_the_key_equation_decode(name, mode, view):
    field = FIELDS[name]
    t, n = view[0], view[1]
    inbox = build_inbox(field, *view)
    senders = frozenset(range(1, n + 1))
    value, good, points = reference_decode(field, inbox, senders, t)
    with interpolation_mode(mode):
        xs, ys = share_points(field, inbox, TAG, senders)
        assert list(zip(xs, ys)) == points
        accepted = decode_shares(field, xs, ys, t)
        assert decode_exposed(field, xs, ys, t) == value
    if value is None:
        assert accepted is None
    else:
        coeffs, wrong = accepted
        assert (coeffs[0] if coeffs else field.zero) == value
        assert [i for i in range(len(xs)) if i not in wrong] == good


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None)
@given(
    t=st.integers(0, 2), extra=st.integers(0, 10),
    seed=st.integers(0, 10_000),
    wrong=st.sets(st.integers(0, 12), max_size=4),
    allowed=st.one_of(st.none(), st.integers(0, 6)),
    shuffled=st.booleans(),
)
def test_berlekamp_welch_is_full_decode(name, mode, t, extra, seed, wrong,
                                        allowed, shuffled):
    """At the ``poly`` boundary, any ``max_errors`` and any point order:
    the same polynomial and kept positions, or both raise."""
    field = FIELDS[name]
    rng = random.Random(seed)
    count = t + 1 + extra
    poly = Polynomial.random(field, t, rng)
    points = [(field.element_point(i), poly(field.element_point(i)))
              for i in range(1, count + 1)]
    for position in wrong:
        if position < count:
            x, y = points[position]
            points[position] = (x, field.add(y, field.random_nonzero(rng)))
    if shuffled:
        rng.shuffle(points)
    capped = max_correctable_errors(count, t)
    max_errors = capped if allowed is None else min(allowed, capped)
    try:
        expected = full_decode(field, points, t, max_errors)
    except DecodingError:
        expected = None
    with interpolation_mode(mode):
        before = field.counter.interpolations
        try:
            decoded = berlekamp_welch(field, points, t, allowed)
        except DecodingError:
            decoded = None
        assert field.counter.interpolations == before + 1
    assert decoded == expected


def test_a_repeated_abscissa_is_still_a_value_error():
    field = FIELDS["gf2_16"]
    with pytest.raises(ValueError, match="distinct"):
        decode_lists(field, [1, 2, 2, 4], [5, 6, 7, 8], 1)
    with pytest.raises(ValueError, match="distinct"):
        berlekamp_welch(field, [(1, 5), (2, 6), (2, 7), (4, 8)], 1)


def test_too_few_points_is_a_decoding_error():
    field = FIELDS["gf2_16"]
    with pytest.raises(DecodingError, match="at least 3"):
        decode_lists(field, [1, 2], [5, 6], 2)
    assert decode_exposed(field, [], [], 1) is None


def test_shares_come_from_the_systems_players_only():
    """Ids outside ``senders`` never reach the decoder, whatever they
    sent — a forged ``src`` in a log cannot pick the threshold."""
    field = FIELDS["gf2_32"]
    inbox = {pid: [(TAG, pid * 3)] for pid in (1, 2, 3, 50, 0, -3)}
    xs, ys = share_points(field, inbox, TAG, range(1, 8))
    assert (xs, ys) == ([1, 2, 3], [3, 6, 9])


# -- op counts ----------------------------------------------------------------

def dealt(field, n, t, seed, wrong=()):
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


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("n,t", [(7, 1), (13, 2), (10, 3), (5, 0)])
def test_a_clean_decode_meters_its_multiplications_and_nothing_else(
    name, n, t
):
    field = FIELDS[name]
    poly, xs, ys = dealt(field, n, t, seed=n * 31 + t)
    assert poly.degree == t  # a zero leading coefficient takes fewer steps
    decode_lists(field, xs, ys, t)  # the node set is seen once
    cache = shared_cache(field)
    hits, misses = cache.hits, cache.misses
    (coeffs, wrong), ops = metered(
        field, lambda: decode_lists(field, xs, ys, t)
    )
    assert (tuple(coeffs), wrong) == (poly.coeffs, [])
    products = t * (t + 1) + t * (n - t - 1)
    assert ops == OpCounter(adds=products, muls=products, interpolations=1)
    assert (cache.hits, cache.misses) == (hits + 1, misses)
    # the public wrapper and the exposure pay the same
    _, ops = metered(
        field, lambda: berlekamp_welch(field, list(zip(xs, ys)), t)
    )
    assert ops == OpCounter(adds=products, muls=products, interpolations=1)
    value, ops = metered(field, lambda: decode_exposed(field, xs, ys, t))
    assert value == poly.coefficient(0)
    assert ops == OpCounter(adds=products, muls=products, interpolations=1)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_a_zero_leading_coefficient_is_not_a_horner_step(name):
    """The sweep runs on the candidate's own degree, as
    ``Polynomial.evaluate_many`` always did: shares of a degree-1
    polynomial decoded at t = 2 pay one step a point, not two."""
    field = FIELDS[name]
    n, t = 13, 2
    xs = field.element_points(range(1, n + 1))
    line = Polynomial(field, [field.from_int(5), field.from_int(9)])
    ys = [line(x) for x in xs]
    decode_lists(field, xs, ys, t)
    (coeffs, wrong), ops = metered(
        field, lambda: decode_lists(field, xs, ys, t)
    )
    assert (tuple(coeffs), wrong) == (line.coeffs, [])
    products = t * (t + 1) + 1 * (n - t - 1)
    assert ops == OpCounter(adds=products, muls=products, interpolations=1)
    assert decode_exposed(field, xs, [field.zero] * n, t) == field.zero


@pytest.mark.parametrize("name", sorted(FIELDS))
@pytest.mark.parametrize("n,t", [(7, 1), (13, 2)])
def test_a_dirty_first_head_costs_one_more_candidate(name, n, t):
    """The hand-over to the second head counts nothing twice: two
    candidates, two sweeps over the points outside a head, still one
    interpolation and (warm) no inversion."""
    field = FIELDS[name]
    poly, xs, ys = dealt(field, n, t, seed=n + t, wrong=(0,))
    decode_lists(field, xs, ys, t)
    (coeffs, wrong), ops = metered(
        field, lambda: decode_lists(field, xs, ys, t)
    )
    assert (tuple(coeffs), wrong) == (poly.coeffs, [0])
    products = 2 * (t * (t + 1) + t * (n - t - 1))
    assert ops == OpCounter(adds=products, muls=products, interpolations=1)


# -- live == offline ------------------------------------------------------------

@pytest.fixture
def decoder_inputs(monkeypatch):
    """The ``(xs, ys)`` each live player last handed its decoder.

    ``stepping(pid, program)`` wraps a player's program so the spy knows
    whose step is running.
    """
    seen, current = {}, []

    def stepping(pid, program):
        sends = next(program)
        try:
            while True:
                inbox = yield sends
                current[:] = [pid]
                sends = program.send(inbox)
        except StopIteration as stop:
            return stop.value

    def spy(module):
        real = module.share_points

        def spying(field, inbox, tag, senders):
            seen[current[0]] = real(field, inbox, tag, senders)
            return seen[current[0]]

        monkeypatch.setattr(module, "share_points", spying)

    spy(coin_expose)
    spy(async_coin)
    return seen, stepping


def _liar(field, n, rng):
    from repro.net.simulator import Send

    yield [Send(dst, (TAG, field.random(rng))) for dst in range(1, n + 1)]


@pytest.mark.parametrize("runtime", ["lockstep", "async"])
@pytest.mark.parametrize("liars", [(), (2,), (1, 7)])
def test_live_points_are_the_logs_points(runtime, liars, decoder_inputs):
    n, t = 7, 2
    field = GF2k(16)
    rng = random.Random(len(liars) + 11)
    secret, shares = make_dealer_coin(field, n, t, "c", rng)
    flight = FlightRecorder(n=n, t=t, field=field)
    faulty = {pid: _liar(field, n, rng) for pid in liars}
    if runtime == "lockstep":
        network = SynchronousNetwork(n, field=field, flight=flight,
                                     allow_broadcast=False)
        program = lambda pid: coin_expose.coin_expose(  # noqa: E731
            field, pid, shares[pid]
        )
    else:
        network = AsyncRuntime(n, field=field, flight=flight,
                               scheduler=RandomOrderScheduler(5))
        program = lambda pid: async_coin.async_coin_program(  # noqa: E731
            field, n, pid, shares[pid]
        )
    live, stepping = decoder_inputs
    outputs = run_players(
        network, n, lambda pid: stepping(pid, program(pid)), faulty
    )
    honest = [pid for pid in range(1, n + 1) if pid not in liars]
    assert {outputs[pid] for pid in honest} == {secret}

    log = flight.log()
    views = exposure_shares(
        delivery for event in log.rounds for delivery in event.deliveries
    )
    offline = {
        receiver: share_points(field, coins["c"], TAG, range(1, n + 1))
        for receiver, coins in views.items()
    }
    assert sorted(live) == honest
    for pid in honest:
        if runtime == "lockstep":
            # one round: a player's inbox is all the log holds for it
            assert live[pid] == offline[pid]
        else:
            # a quorum fires on a prefix of what the run delivers: the
            # player decoded from a sub-view of the log's, same value
            logged = dict(zip(*offline[pid]))
            assert all(logged[x] == y for x, y in zip(*live[pid]))
            assert decode_exposed(field, *offline[pid], t) == secret
