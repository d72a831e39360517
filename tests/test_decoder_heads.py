"""A liar in the head: wrong shares from the lowest ids stay cheap.

``berlekamp_welch`` and ``decode_batched_many`` test one optimistic
candidate through the first t+1 shares (senders sorted by id).  Before
the later disjoint heads were tried, t faulty players with the lowest
ids turned every honest decode into the O(n^3) key-equation solve
(ROADMAP item 7: 6 / 11 / 11 ``full_decode`` calls per exposure on the
three shapes below, 20-30x the clean latency).  These tests count
``full_decode`` calls, not wall time.
"""

import importlib
import random
from unittest import mock

import pytest

from repro.fields import GF2k
from repro.net.transport import multicast
from repro.poly.barycentric import interpolation_mode
from repro.poly.polynomial import Polynomial
from repro.protocols.bit_gen import decode_batched_many
from repro.protocols.coin_expose import coin_expose, make_dealer_coin
from repro.protocols.context import ProtocolContext

#: the module: ``repro.poly.berlekamp_welch`` as an attribute is the function
bw = importlib.import_module("repro.poly.berlekamp_welch")

#: the ROADMAP item 7 table: (field bits, n, t)
SHAPES = [(32, 7, 1), (16, 13, 2), (32, 13, 2)]


@pytest.fixture
def full_decodes(monkeypatch):
    """Every ``full_decode`` call of the test, as a counting wrapper."""
    counted = mock.Mock(wraps=bw.full_decode)
    monkeypatch.setattr(bw, "full_decode", counted)
    return counted


def bad_share_program(field, coin_id, rng):
    """One round: a uniform field element under the coin's real tag."""
    yield [multicast(("expose/" + coin_id, field.random(rng)))]


def expose_with_liars(k, n, t, liars, seed=4):
    """One Coin-Expose run; (dealt secret, honest outputs, metrics)."""
    field = GF2k(k)
    ctx = ProtocolContext.create(field, n, t, seed=seed)
    secret, shares = make_dealer_coin(field, n, t, "c", ctx.rng)
    outputs, metrics = ctx.run(
        lambda pid: coin_expose(field, pid, shares[pid]),
        faulty={
            pid: bad_share_program(field, "c", random.Random(seed * 31 + pid))
            for pid in liars
        },
        allow_broadcast=False,
    )
    honest = {pid: outputs[pid] for pid in outputs if pid not in liars}
    return secret, honest, metrics


class TestLiarsWithTheLowestIds:
    @pytest.mark.parametrize("k,n,t", SHAPES)
    def test_no_honest_decode_solves_the_key_equation(
        self, k, n, t, full_decodes
    ):
        liars = range(1, t + 1)
        secret, outputs, metrics = expose_with_liars(k, n, t, liars)
        honest = set(range(1, n + 1)) - set(liars)
        assert set(outputs) == honest
        assert set(outputs.values()) == {secret}
        assert full_decodes.call_count == 0
        # still the paper's accounting: one interpolation per decode
        for pid in honest:
            assert metrics.ops(pid).interpolations == 1

    @pytest.mark.parametrize("k,n,t", SHAPES)
    def test_a_clean_run_never_leaves_the_first_head(self, k, n, t):
        with mock.patch.object(
            bw, "decode_past_first_head", wraps=bw.decode_past_first_head
        ) as later:
            secret, outputs, _ = expose_with_liars(k, n, t, liars=())
        assert set(outputs.values()) == {secret}
        assert later.call_count == 0

    @pytest.mark.parametrize("k,n,t", SHAPES)
    def test_liars_with_the_highest_ids_cost_nothing_extra(
        self, k, n, t, full_decodes
    ):
        liars = range(n - t + 1, n + 1)
        with mock.patch.object(
            bw, "decode_past_first_head", wraps=bw.decode_past_first_head
        ) as later:
            secret, outputs, _ = expose_with_liars(k, n, t, liars)
        assert set(outputs.values()) == {secret}
        assert later.call_count == full_decodes.call_count == 0


def corrupted_points(field, degree, n, wrong, seed=9):
    rng = random.Random(seed)
    poly = Polynomial.random(field, degree, rng)
    points = [(field.element_point(i), poly(field.element_point(i)))
              for i in range(1, n + 1)]
    for index in wrong:
        x, y = points[index]
        points[index] = (x, field.add(y, 1 + rng.randrange(field.order - 1)))
    return poly, points


class TestDecoderHeads:
    FIELD = GF2k(16)

    def test_a_later_head_returns_what_the_key_equation_returns(
        self, full_decodes
    ):
        # degree 2, nine points: heads [0,3) [3,6) [6,9); two wrong shares
        # dirty the first two, the third is clean
        poly, points = corrupted_points(self.FIELD, 2, 9, wrong=(1, 4))
        decoded, good = bw.berlekamp_welch(self.FIELD, points, 2)
        assert full_decodes.call_count == 0
        with interpolation_mode("off"):  # straight to the key equation
            reference, reference_good = bw.berlekamp_welch(
                self.FIELD, points, 2
            )
        assert decoded == reference == poly
        assert good == reference_good == [0, 2, 3, 5, 6, 7, 8]

    def test_a_wrong_share_in_every_head_still_decodes(self, full_decodes):
        poly, points = corrupted_points(self.FIELD, 2, 9, wrong=(1, 4, 7))
        before = self.FIELD.counter.snapshot()
        decoded, good = bw.berlekamp_welch(self.FIELD, points, 2)
        assert decoded == poly
        assert good == [0, 2, 3, 5, 6, 8]
        assert full_decodes.call_count == 1
        assert self.FIELD.counter.delta(before).interpolations == 1

    def test_no_head_is_tried_once_failure_is_conclusive(self, full_decodes):
        """With ``max_errors`` wrong shares allowed, ``max_errors + 1``
        dirty heads prove nothing decodes: a consistency check
        (``max_errors=0``) pays exactly what it always paid."""
        _, points = corrupted_points(self.FIELD, 2, 9, wrong=(1,))
        with mock.patch.object(
            bw, "optimistic_candidate", wraps=bw.optimistic_candidate
        ) as candidates:
            with pytest.raises(bw.DecodingError):
                bw.berlekamp_welch(self.FIELD, points, 2, max_errors=0)
        assert candidates.call_count == 1
        assert full_decodes.call_count == 1

    def test_undecodable_points_are_still_rejected(self):
        _, points = corrupted_points(self.FIELD, 2, 9, wrong=(0, 1, 3, 4, 6))
        with pytest.raises(bw.DecodingError):
            bw.berlekamp_welch(self.FIELD, points, 2)

    @pytest.mark.parametrize("k,n,t", SHAPES)
    def test_the_batched_decoder_takes_the_same_heads(
        self, k, n, t, full_decodes
    ):
        """Bit-Gen / Coin-Gen step 5: every dealer's announcements with
        the t lowest-id announcers lying."""
        field = GF2k(k)
        truths, point_sets = zip(*(
            corrupted_points(field, t, n, wrong=range(t), seed=dealer)
            for dealer in range(n)
        ))
        before = field.counter.snapshot()
        decoded = decode_batched_many(field, point_sets, t, n)
        assert list(decoded) == list(truths)
        assert full_decodes.call_count == 0
        assert field.counter.delta(before).interpolations == n
        one_by_one = [
            bw.berlekamp_welch(field, points, t, t)[0] for points in point_sets
        ]
        assert one_by_one == list(truths)
