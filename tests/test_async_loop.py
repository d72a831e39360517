"""The async delivery loop: same answers, constant work per delivery.

Three contracts of :class:`repro.net.async_runtime.AsyncRuntime`'s loop
(DESIGN.md §11, "What one delivery costs"):

* **same answers** — four seeded runs (clean; crashed from the start; a
  drop + duplicate + delay + mid-run-crash plane; a delay-everything
  plane that forces idle ticks) reproduce pinned sha256 digests of their
  flight log and of every event published on any bus topic, plus their
  logical clock and delivery count.  The pins were recorded on commit
  14c2e5f, *before* the pool and the guards were made scan-free; they
  state that delivery order, fault events, guard telemetry and pool
  gauges did not move, on either field backend;
* **constant work** — a dark 60-round guarded all-to-all run computes at
  most two payload tags per delivery (the parent re-tagged the player's
  whole history on every delivery) and never scans the in-flight pool
  unless a delay rule has fired;
* **the seeded pick** — ``RandomOrderScheduler.choose`` is a pure
  function of ``(seed, time, count)`` whichever instance is asked and
  whatever was asked before.
"""

import dataclasses
import hashlib
import json
import random
from unittest import mock

import pytest

from repro.fields import GF2k
from repro.fields.backends import numpy_available
from repro.net import AsyncRuntime, FaultPlane, RandomOrderScheduler, guarded
from repro.net import async_runtime, guards, simulator
from repro.net.metrics import payload_tag
from repro.net.transport import multicast
from repro.obs.bus import ALL_TOPICS, EventBus
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


#: scenario -> (flight-log sha256, every-topic sha256, logical_time,
#: delivery_count), recorded on the parent commit
PINNED = {
    "clean": (
        "a6888df18829527d59bda5c134e3a6901f18105cfa1a6d1df83f53ea7086efd5",
        "32fd6d50a4009f6d714d5e89c12f2fd2bcae36246d01607514ec236957455f8e",
        42, 42,
    ),
    "crashed_from_start": (
        "30f97be453a6f7f6124b7d84635119e13d4270ffc75f1c2b597a5a221afc1b10",
        "a7fecb6636a6242df0bd08c2ba7a56d7d1285792b881f9ff8df60d9d66200e1d",
        35, 35,
    ),
    "drop_dup_delay_crash": (
        "08d785e3c23f4af7c8be86216b589426fc8a89142b1bb694e9f09ebafe87d584",
        "2ef2963949f19b8bfab4db998dec66b7532ed5401eb0e895bb7d4d8820514105",
        45, 45,
    ),
    "delay_everything": (
        "02881ecb4198b6661faa35c50c30e6de16ad880d52ccd2f91d0c20c3a35df29e",
        "3b8d06e31a7eaeb64719f7af909256ad048594e4cf8018864b9c822b34d9e4a0",
        44, 39,
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def seeded_run(scenario: str, backend: str):
    """One scenario, dark but for a flight recorder, then fully lit.

    The lit pass subscribes to every topic and follows the coin with a
    Bracha broadcast (multi-phase, ``AnyWait`` guards, its own delay and
    crash) on the same bus, so the transcript covers GUARD_* and POOL
    payloads of both guard kinds.  Backlog dicts are compared as dicts
    (``sort_keys``), guards by their dataclass fields.
    """
    field = GF2k(16, backend=backend)
    bus = EventBus()
    flight = FlightRecorder(n=N, t=T, field=field, seed=0).attach(bus)
    _, _, coin_runtime = run_async_coin(
        field, N, T, seed=13, scheduler=RandomOrderScheduler(5), bus=bus,
        **_planes()[scenario],
    )

    bus = EventBus()
    transcript = []
    for topic in ALL_TOPICS:
        bus.subscribe(topic, lambda *args, _topic=topic: transcript.append(
            json.dumps([_topic, args], sort_keys=True,
                       default=dataclasses.asdict)
        ))
    run_async_coin(
        field, N, T, seed=13, scheduler=RandomOrderScheduler(5), bus=bus,
        **_planes()[scenario],
    )
    broadcast_runtime = AsyncRuntime(
        N, field=field, scheduler=RandomOrderScheduler(9), bus=bus,
        faults=FaultPlane().delay(src=2, by=2).crash(6, 9),
    )
    run_reliable_broadcast(N, T, 1, ("v", 7), runtime=broadcast_runtime,
                           crashed=(4,))
    return (
        _sha(flight.log().dumps()), _sha("\n".join(transcript)),
        coin_runtime.logical_time, coin_runtime.delivery_count,
    )


class TestSameAnswers:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("scenario", sorted(PINNED))
    def test_seeded_runs_reproduce_the_pinned_digests(self, scenario, backend):
        assert seeded_run(scenario, backend) == PINNED[scenario]

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


# -- the seeded pick ---------------------------------------------------------

class TestSeededPick:
    def test_choose_is_stateless_in_seed_and_time(self):
        grid = [
            (seed, time, count)
            for seed in (0, 1, 5, 2**31 + 7)
            for time in (0, 1, 2, 69, 10_000)
            for count in (1, 2, 3, 49, 1000)
        ]
        schedulers = {}
        for index, (seed, time, count) in enumerate(grid):
            # two instances per seed, asked alternately
            scheduler = schedulers.setdefault(
                (seed, index % 2), RandomOrderScheduler(seed)
            )
            expected = random.Random(
                (seed * 2_000_003 + time * 7_919) & 0x7FFFFFFF
            ).randrange(count)
            assert scheduler.choose(time, count) == expected

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
