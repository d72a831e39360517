#!/usr/bin/env python
"""Watch one Coin-Gen execution round by round.

Attaches a flight recorder to the network (its log holds every settled
delivery, round by round) and prints the protocol's timeline — the
concrete shape behind Fig. 5's step list — together with per-tag message
totals and the per-player cost meter that backs the claims table.

Run:  python examples/trace_walkthrough.py
"""

import random
from collections import Counter

from repro.fields import GF2k
from repro.net.metrics import payload_tag
from repro.net.simulator import SynchronousNetwork
from repro.obs.flight import FlightRecorder
from repro.protocols.coin_gen import coin_gen_program, make_seed_coins


def main() -> None:
    field = GF2k(32)
    n, t, M = 7, 1, 4

    seeds = make_seed_coins(field, n, t, 4, random.Random(1))
    network = SynchronousNetwork(
        n, field=field, allow_broadcast=False, enforce_codec=True,
    )
    flight = FlightRecorder(n=n, t=t, field=field).attach(network)
    programs = {
        pid: coin_gen_program(
            field, n, t, pid, M, seeds[pid], random.Random(pid)
        )
        for pid in range(1, n + 1)
    }
    outputs = network.run(programs)
    assert all(o.success for o in outputs.values())
    # one Counter({tag: deliveries}) per settled round
    rounds = [
        Counter(payload_tag(payload) for _dst, _src, payload in event.deliveries)
        for event in flight.log().rounds
    ]

    print(f"Coin-Gen: n={n}, t={t}, M={M}, field GF(2^32)\n")
    print("round | msgs | tags")
    print("------+------+-----")
    for number, tally in enumerate(rounds, start=1):
        print(f"{number:5d} | {sum(tally.values()):4d} | "
              f"{', '.join(sorted(tally)) or '-'}")

    print("\nmessage totals by tag:")
    for tag, count in sorted(sum(rounds, Counter()).items()):
        print(f"  {tag:24s} {count:5d}")

    print("\ncost meter:")
    summary = network.metrics.summary()
    for key in ("rounds", "messages", "bits"):
        print(f"  {key:10s} {summary[key]:,}")
    print(f"  wire bytes {network.metrics.wire_bytes:,} "
          f"(binary codec ground truth)")
    busiest = network.metrics.max_player_ops()
    print(f"  busiest player: {busiest.adds:,} adds, {busiest.muls:,} muls, "
          f"{busiest.interpolations} interpolations")

    print(f"\nagreed clique: {outputs[1].clique}, "
          f"iterations: {outputs[1].iterations}")
    print(f"{M} sealed coins ready: "
          f"{', '.join(c.coin_id for c in outputs[1].coins)}")


if __name__ == "__main__":
    main()
