#!/usr/bin/env python
"""Catch an equivocating player from the flight log alone.

The adversarial observability smoke (also run in CI): inject a seeded
equivocator into one Coin-Gen run, record the delivered message stream
with a :class:`~repro.obs.flight.FlightRecorder`, then

1. run :func:`~repro.obs.forensics.analyze_log` over the log and check
   that *exactly* the injected player is implicated — every corrupt
   player flagged, zero honest players accused;
2. serialize the log to disk, load it back, and assert the replayed
   decode results (reconstructed inboxes, re-driven Berlekamp-Welch
   exposures) are byte-identical to the in-memory log's — the lossless
   round-trip that makes a flight log trustworthy evidence.

Run:  python examples/forensics_demo.py [corrupt_player] [seed]
"""

import random
import sys
import tempfile

from repro.fields import GF2k
from repro.net.adversary import equivocator_program
from repro.obs.flight import FlightLog, FlightRecorder, diff, replay
from repro.obs.forensics import analyze_log
from repro.protocols.coin_gen import run_coin_gen
from repro.protocols.context import ProtocolContext


def main() -> int:
    corrupt = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    field = GF2k(32)
    n, t, M = 7, 1, 2

    ctx = ProtocolContext.create(field, n=n, t=t, seed=seed)
    recorder = FlightRecorder(n=n, t=t, field=field, seed=seed)
    recorder.attach(ctx)

    adversary_rng = random.Random(seed + 100)
    outputs, _ = run_coin_gen(
        ctx, M=M, tag="demo",
        faulty_programs={
            corrupt: lambda honest: equivocator_program(
                n, adversary_rng, honest
            ),
        },
    )
    honest_outputs = [o for pid, o in outputs.items() if pid != corrupt]
    assert all(o.success for o in honest_outputs), "honest players failed"

    log = recorder.log()
    print(f"recorded {len(log.rounds)} rounds, "
          f"{sum(len(e.deliveries) for e in log.rounds)} deliveries\n")

    # 1. forensics: exactly the injected player, nobody else
    report = analyze_log(log)
    print(report.summary())
    implicated = report.corrupt_players()
    assert implicated == {corrupt}, (
        f"expected exactly {{{corrupt}}} implicated, got {sorted(implicated)}"
    )
    print(f"\nforensics verdict: player {corrupt} implicated, "
          f"{n - 1} honest players clean")

    # 2. lossless round-trip: dumped+loaded log replays byte-identically
    with tempfile.NamedTemporaryFile("w", suffix=".flightlog") as handle:
        log.dump(handle.name)
        reloaded = FlightLog.load(handle.name)
    assert diff(log, reloaded) is None, "round-tripped log diverges"
    original, replayed = replay(log), replay(reloaded)
    assert original.inboxes == replayed.inboxes, "inboxes diverge"
    assert original.expose_decodes == replayed.expose_decodes, (
        "expose decodes diverge"
    )
    print(f"replay: {len(original.expose_decodes)} expose decodes "
          f"byte-identical after serialization round-trip")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
