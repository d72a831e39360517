"""The async delivery loop: same answers, constant work per delivery.

Three contracts of :class:`repro.net.async_runtime.AsyncRuntime`'s loop
(DESIGN.md §11, "What one delivery costs"):

* **same answers** — four seeded runs (clean; crashed from the start; a
  drop + duplicate + delay + mid-run-crash plane; a delay-everything
  plane that forces idle ticks) reproduce pinned sha256 digests of their
  flight log, plus their logical clock and delivery count, and a lit
  pass — the same coin followed by a Bracha broadcast with ``AnyWait``
  guards, a delay and a crash, both into one recorder — reproduces a
  second flight-log digest.  The pins state that delivery order, fault
  events and guard events do not move, on either field backend.  The
  coin's were re-recorded when the pick mapping became
  ``random-order/2`` (a stateless 64-bit hash; every async delivery
  order for a given seed differs from ``random-order/1``, no protocol
  output does) and when liveness became a view of the flight log (the
  log gained ``armed`` / ``fired`` lines, which shift the event indices
  after them).  The lit pass's was recorded on ee3aec8 by attaching the
  recorder to the lit pass's event bus, where the slot held a digest of
  every event on every bus topic; the runtimes now call the recorder
  directly and the digest did not move.  A third digest, of the log's
  deliveries and faults alone, was recorded before guard lines and did
  not move: the delivery order and the fault stream are the same, and
  so are the logical clocks and delivery counts;
* **constant work** — a dark 60-round guarded all-to-all run computes at
  most two payload tags per delivery (the parent re-tagged the player's
  whole history on every delivery), never scans the in-flight pool
  unless a delay rule has fired, and never seeds a generator;
* **the seeded pick** — ``RandomOrderScheduler.choose`` is a pure
  function of ``(seed, time, count)`` whichever instance is asked and
  whatever was asked before, uniform enough over times and over seeds,
  and reads all 64 bits of the seed.
"""

import collections
import hashlib
import json
import random
from unittest import mock

import pytest

from repro.fields import GF2k
from repro.fields.backends import numpy_available
from repro.net import AsyncRuntime, FaultPlane, RandomOrderScheduler, guarded
from repro.net import async_runtime, codec, guards, simulator
from repro.net.metrics import payload_tag
from repro.net.transport import multicast
from repro.obs.flight import FlightRecorder
from repro.protocols.async_coin import run_async_coin
from repro.protocols.broadcast import run_reliable_broadcast

N, T = 7, 2

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


# -- same answers ------------------------------------------------------------

def _planes():
    return {
        "clean": {},
        "crashed_from_start": {"crashed": (2, 6)},
        "drop_dup_delay_crash": {
            "faults": FaultPlane().drop(src=1, dst=2).duplicate(src=4, dst=1)
            .delay(src=5, by=3).crash(3, 5),
        },
        "delay_everything": {"faults": FaultPlane().delay(by=4)},
    }


#: scenario -> (coin flight-log sha256, lit-pass flight-log sha256,
#: logical_time, delivery_count), recorded under the ``random-order/2``
#: pick, guard lines in the log
PINNED = {
    "clean": (
        "93a80b187cc9e3db1d5cdbaf431b748139b1a79ce8ae41d3edbbe1ac51d27aa3",
        "eff24f62afe50ef43b273d5624d0d91691d34f556097113efa0991519644b783",
        45, 45,
    ),
    "crashed_from_start": (
        "6b7b4ebdfb3d71b8f41d56e4c4072efa061f80ac4e797d0f77c2789ae8b52cc5",
        "095e0680c21400b0cf25b082c5b780e7283d0baede0c303a36b7a02987a5b447",
        31, 31,
    ),
    "drop_dup_delay_crash": (
        "c03c7b1c269d66c6b649eb155992cc2eef9f59c72ba15775ecea67e0c9c6328b",
        "c77c2cfd32cb5f1320116a238685ad01a62a68e27fda5a43f06f50dd5de53920",
        48, 48,
    ),
    "delay_everything": (
        "d9f55a79afa1348745300a4052d6df5f03443a12d69240c23fd61db6441ecce0",
        "917e14e14a7d63c5080e025e3da4d91ba2275bef8b2cee5f427acc94c3b101dc",
        46, 41,
    ),
}

#: scenario -> sha256 of the flight log's ``[[run, round, dst, src,
#: payload hex] ...]`` deliveries and ``[[run, round, kind, src, dst]
#: ...]`` faults, recorded before the log had guard lines
DELIVERIES = {
    "clean":
        "4de8b19e9eddb2edb8ffb1d26a35bdbabcbb55274ea2c8b00d9ed7f8d19e95b3",
    "crashed_from_start":
        "ad9923b8f2a440fc898f2991bea222034aea452d8c512b19b1aa86d3878e956f",
    "drop_dup_delay_crash":
        "c2ea3be89cef935c36455698c2f6e96aa4eaf71e42839371f7a3cf762586c199",
    "delay_everything":
        "61cade998450688c802b0c8bbb1145a7c6b56fc87611a5a4d395c6312d4ce073",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def seeded_run(scenario: str, backend: str):
    """One scenario, recorded alone, then as the lit pass.

    The lit pass follows the coin with a Bracha broadcast (multi-phase,
    ``AnyWait`` guards, its own delay and crash) into the same recorder,
    so its log covers guard lines of both guard kinds.
    """
    field = GF2k(16, backend=backend)
    flight = FlightRecorder(n=N, t=T, field=field, seed=0)
    _, _, coin_runtime = run_async_coin(
        field, N, T, seed=13, scheduler=RandomOrderScheduler(5),
        flight=flight, **_planes()[scenario],
    )

    lit = FlightRecorder(n=N, t=T, field=field, seed=0)
    run_async_coin(
        field, N, T, seed=13, scheduler=RandomOrderScheduler(5), flight=lit,
        **_planes()[scenario],
    )
    broadcast_runtime = AsyncRuntime(
        N, field=field, scheduler=RandomOrderScheduler(9), flight=lit,
        faults=FaultPlane().delay(src=2, by=2).crash(6, 9),
    )
    run_reliable_broadcast(N, T, 1, ("v", 7), runtime=broadcast_runtime,
                           crashed=(4,))
    return (
        _sha(flight.log().dumps()), _sha(lit.log().dumps()),
        coin_runtime.logical_time, coin_runtime.delivery_count,
    )


def _deliveries_digest(log) -> str:
    deliveries = [
        [event.run, event.round, dst, src, codec.encode(payload).hex()]
        for event in log.rounds for dst, src, payload in event.deliveries
    ]
    faults = [[event.run, event.round, event.kind, event.src, event.dst]
              for event in log.faults]
    return _sha(json.dumps([deliveries, faults]))


class TestSameAnswers:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scenario", sorted(PINNED))
    def test_seeded_runs_reproduce_the_pinned_digests(self, scenario, backend):
        assert seeded_run(scenario, backend) == PINNED[scenario]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scenario", sorted(DELIVERIES))
    def test_the_delivery_order_and_faults_did_not_move(self, scenario,
                                                        backend):
        field = GF2k(16, backend=backend)
        flight = FlightRecorder(n=N, t=T, field=field, seed=0)
        run_async_coin(field, N, T, seed=13, scheduler=RandomOrderScheduler(5),
                       flight=flight, **_planes()[scenario])
        assert _deliveries_digest(flight.log()) == DELIVERIES[scenario]

    def test_the_delay_plane_forces_idle_ticks(self):
        """The fourth pin covers the immature-pool branch of the loop."""
        _, _, logical_time, delivery_count = PINNED["delay_everything"]
        assert logical_time > delivery_count


# -- constant work -----------------------------------------------------------

def _all_to_all(n: int, rounds: int):
    for round_no in range(rounds):
        tag = f"ping/{round_no}"
        yield guarded([multicast((tag, round_no))], tags=tag, quorum=n)


def _run_counted(monkeypatch, rounds: int, faults=None):
    """A dark all-to-all run; (deliveries, payload_tag calls, pool scans)."""
    tags = mock.Mock(wraps=payload_tag)
    for module in (async_runtime, guards, simulator):
        monkeypatch.setattr(module, "payload_tag", tags)
    # the loop's only pass over the pool is ``enumerate(pending)``; a
    # module global of that name shadows the builtin and counts them
    scans = mock.Mock(wraps=enumerate)
    monkeypatch.setattr(async_runtime, "enumerate", scans, raising=False)
    network = AsyncRuntime(N, allow_broadcast=False, faults=faults,
                           scheduler=RandomOrderScheduler(3))
    outputs = network.run(
        {pid: _all_to_all(N, rounds) for pid in range(1, N + 1)}
    )
    assert set(outputs) == set(range(1, N + 1))
    return network.delivery_count, tags.call_count, scans.call_count


class TestConstantWorkPerDelivery:
    def test_tags_per_delivery_do_not_grow_with_history(self, monkeypatch):
        deliveries, tag_calls, scans = _run_counted(monkeypatch, rounds=60)
        assert deliveries == 60 * N * N
        assert tag_calls <= 2 * deliveries
        assert scans == 0

    def test_a_fired_delay_rule_is_what_scans_the_pool(self, monkeypatch):
        """Positive control: the scan counter sees the immature branch."""
        faults = FaultPlane().delay(src=2, by=5, rounds=range(1, 40))
        deliveries, _, scans = _run_counted(monkeypatch, 4, faults=faults)
        assert deliveries == 4 * N * N
        assert 0 < scans < deliveries

    def test_no_generator_is_seeded_inside_the_loop(self, monkeypatch):
        """The pick is arithmetic: a run seeds nothing (one per delivery
        on the parent, whose pick reseeded a Mersenne Twister)."""
        seeds = []
        seed = random.Random.seed

        def counting_seed(self, *args, **kwargs):
            seeds.append(args)
            return seed(self, *args, **kwargs)

        monkeypatch.setattr(random.Random, "seed", counting_seed)
        deliveries, _, _ = _run_counted(monkeypatch, rounds=60)
        assert deliveries == 60 * N * N
        assert seeds == []


# -- the seeded pick ---------------------------------------------------------

#: chi-square 0.999 quantiles at ``count - 1`` degrees of freedom
CHI2_999 = {2: 10.828, 3: 13.816, 7: 22.458, 49: 84.037}


class TestSeededPick:
    def test_choose_is_stateless_in_seed_and_time(self):
        grid = [
            (seed, time, count)
            for seed in (0, 1, 5, 2**31 + 7, 2**63 + 11)
            for time in (0, 1, 2, 69, 10_000, 2**40)
            for count in (1, 2, 3, 49, 1000)
        ]
        # two instances per seed, each asked the whole grid in its own
        # order: what one was asked before must not matter to the other
        forward = {
            point: RandomOrderScheduler(point[0]).choose(*point[1:])
            for point in grid
        }
        schedulers = {}
        for index, (seed, time, count) in enumerate(reversed(grid)):
            scheduler = schedulers.setdefault(
                (seed, index % 2), RandomOrderScheduler(seed)
            )
            pick = scheduler.choose(time, count)
            assert pick == forward[seed, time, count]
            assert 0 <= pick < count
            if count == 1:
                assert pick == 0

    @pytest.mark.parametrize("count", sorted(CHI2_999))
    @pytest.mark.parametrize("seed", [1, 5, 2**31 + 7])
    def test_picks_are_uniform_over_consecutive_times(self, seed, count):
        scheduler = RandomOrderScheduler(seed)
        samples = 20_000
        seen = collections.Counter(
            scheduler.choose(time, count) for time in range(samples)
        )
        expected = samples / count
        chi2 = sum(
            (seen[pick] - expected) ** 2 / expected for pick in range(count)
        )
        assert chi2 < CHI2_999[count]

    def test_every_order_of_a_small_pool_occurs_over_seeds(self):
        orders = set()
        for seed in range(2_000):
            scheduler = RandomOrderScheduler(seed)
            pool = list("abcd")
            orders.add("".join(
                pool.pop(scheduler.choose(time, len(pool)))
                for time in range(4)
            ))
        assert len(orders) == 24

    @pytest.mark.parametrize("seed", [0, 1, 5, 77])
    def test_the_high_seed_bits_reach_the_pick(self, seed):
        """``random-order/1`` masked ``(seed, time)`` to 31 bits, so these
        two streams were identical."""
        low, high = RandomOrderScheduler(seed), RandomOrderScheduler(seed + 2**31)
        differing = sum(
            low.choose(time, 49) != high.choose(time, 49) for time in range(70)
        )
        assert differing >= 35

    def test_arrange_is_the_same_shuffle(self):
        deliveries = [(dst, src, ("x", dst)) for dst in range(5)
                      for src in range(5)]
        scheduler = RandomOrderScheduler(11)
        scheduler.choose(3, 10)  # an interleaved pick must not matter
        expected = list(deliveries)
        random.Random((11 * 2_000_003 + 4 * 7_919) & 0x7FFFFFFF).shuffle(
            expected
        )
        assert scheduler.arrange(4, deliveries) == expected
