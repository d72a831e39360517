"""Protocol Coin-Expose (Fig. 6): robustness and unanimity."""

import random

import pytest

from repro.fields import GF2k
from repro.net.simulator import Send, SynchronousNetwork, multicast
from repro.protocols.coin_expose import (
    CoinShare,
    coin_expose,
    coin_expose_many,
    coin_to_index,
    decode_exposed,
    make_dealer_coin,
)

F = GF2k(16)
N, T = 7, 1


def run_expose(coin_shares, faulty=None, n=N):
    """Run one expose round; faulty maps pid -> replacement program."""
    net = SynchronousNetwork(n, field=F, allow_broadcast=False)
    programs = {}
    faulty = faulty or {}
    for pid in range(1, n + 1):
        if pid in faulty:
            if faulty[pid] is not None:
                programs[pid] = faulty[pid]
            continue
        programs[pid] = coin_expose(F, pid, coin_shares[pid])
    honest = [pid for pid in programs if pid not in faulty]
    out = net.run(programs, wait_for=honest)
    return {pid: out[pid] for pid in honest}, net.metrics


class TestHonestExpose:
    def test_everyone_sees_dealt_secret(self, rng):
        secret, shares = make_dealer_coin(F, N, T, "c0", rng)
        values, metrics = run_expose(shares)
        assert set(values.values()) == {secret}
        # one round, each of the n senders multicasts one share
        assert metrics.rounds <= 2
        assert metrics.unicast_messages == N * N

    def test_one_interpolation_per_player(self, rng):
        _, shares = make_dealer_coin(F, N, T, "c1", rng)
        _, metrics = run_expose(shares)
        for pid in range(1, N + 1):
            assert metrics.ops(pid).interpolations == 1


class TestFaultTolerance:
    def test_silent_holders_tolerated(self, rng):
        from repro.net.adversary import silent_program

        secret, shares = make_dealer_coin(F, N, T, "c2", rng)
        values, _ = run_expose(shares, faulty={4: silent_program()})
        assert set(values.values()) == {secret}

    def test_lying_holder_corrected(self, rng):
        secret, shares = make_dealer_coin(F, N, T, "c3", rng)

        def liar():
            yield [multicast(("expose/c3", 12345))]

        values, _ = run_expose(shares, faulty={2: liar()})
        assert set(values.values()) == {secret}

    def test_equivocating_holder_keeps_unanimity(self, rng):
        """A faulty holder sending different shares to different players
        must not break agreement on the exposed value."""
        secret, shares = make_dealer_coin(F, N, T, "c4", rng)

        def equivocator():
            yield [
                Send(dst, ("expose/c4", (dst * 7919) % F.order))
                for dst in range(1, N + 1)
            ]

        values, _ = run_expose(shares, faulty={5: equivocator()})
        assert len(set(values.values())) == 1
        assert set(values.values()) == {secret}

    def test_abstaining_share(self, rng):
        """Holders with my_value=None abstain; expose still works."""
        secret, shares = make_dealer_coin(F, N, T, "c5", rng)
        shares[3] = CoinShare("c5", shares[3].senders, T, None)
        values, _ = run_expose(shares)
        assert set(values.values()) == {secret}

    def test_too_few_senders_yields_none(self, rng):
        secret, shares = make_dealer_coin(F, N, T, "c6", rng)
        for pid in range(2, N + 1):  # only player 1 keeps a share
            shares[pid] = CoinShare("c6", shares[pid].senders, T, None)
        values, _ = run_expose(shares)
        assert set(values.values()) == {None}


def decode_points(field, points, t):
    """``decode_exposed`` of ``(x, share)`` pairs."""
    return decode_exposed(
        field, [x for x, _ in points], [y for _, y in points], t
    )


class TestDecodeRule:
    def test_threshold_formula(self, rng):
        """decode_exposed accepts only with >= max(2t+1, N-t) agreement."""
        from repro.poly.polynomial import Polynomial

        t = 2
        poly = Polynomial.random(F, t, rng)
        pts = [(F.element_point(i), poly(F.element_point(i))) for i in range(1, 8)]
        assert decode_points(F, pts, t) == poly(F.zero)
        # corrupt t of 7: still decodes (7 - 2 = 5 >= max(5,5))
        bad = list(pts)
        bad[0] = (bad[0][0], F.add(bad[0][1], 1))
        bad[1] = (bad[1][0], F.add(bad[1][1], 1))
        assert decode_points(F, bad, t) == poly(F.zero)
        # corrupt t+1 of 7: must refuse rather than guess
        bad[2] = (bad[2][0], F.add(bad[2][1], 1))
        assert decode_points(F, bad, t) is None

    def test_empty(self):
        assert decode_points(F, [], 1) is None

    def test_t_zero_requires_unanimous_points(self, rng):
        from repro.poly.polynomial import Polynomial

        poly = Polynomial.constant(F, 9)
        pts = [(F.element_point(i), 9) for i in range(1, 4)]
        assert decode_points(F, pts, 0) == 9
        assert decode_points(F, pts + [(F.element_point(4), 8)], 0) is None


class TestHelpers:
    def test_coin_to_index_range(self):
        for value in range(0, 50):
            l = coin_to_index(F, value, N)
            assert 1 <= l <= N
        assert coin_to_index(F, 0, N) == N
        assert coin_to_index(F, N, N) == N
        assert coin_to_index(F, 3, N) == 3

    def test_expose_many_single_round(self, rng):
        secrets, share_maps = [], []
        for i in range(3):
            s, m = make_dealer_coin(F, N, T, f"m{i}", rng)
            secrets.append(s)
            share_maps.append(m)

        net = SynchronousNetwork(N, field=F, allow_broadcast=False)
        programs = {
            pid: coin_expose_many(
                F, pid, [share_maps[i][pid] for i in range(3)]
            )
            for pid in range(1, N + 1)
        }
        out = net.run(programs)
        for pid in range(1, N + 1):
            assert out[pid] == secrets
        assert net.metrics.rounds <= 2

    def test_dealer_coin_secrecy(self, rng):
        """t shares of a dealer coin are consistent with every secret."""
        from repro.poly.lagrange import interpolate

        secret, shares = make_dealer_coin(F, N, 2, "priv", rng)
        observed = [
            (F.element_point(pid), shares[pid].my_value) for pid in (1, 2)
        ]
        for candidate in [0, 1, 9999, F.order - 1]:
            poly = interpolate(F, observed + [(F.zero, candidate)])
            assert poly.degree <= 2
