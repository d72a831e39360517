#!/usr/bin/env python
"""Secret escrow: batch VSS + coin-driven auditing, composed.

A committee escrows a batch of secrets (think: recovery keys), verifying
all deposits with ONE interpolation (Batch-VSS as a service), then uses
shared coins to elect an unpredictable auditor and to pick an
unpredictable spot-check sample — the "applications consume coins in
bulk, repeatedly" story with two library layers working together.

Run:  python examples/secret_escrow.py
"""

from repro.apps import LeaderElection
from repro.core import BootstrapCoinSource
from repro.core.secret_store import DepositRejected, VerifiedSecretStore
from repro.fields import GF2k


def main() -> None:
    field = GF2k(32)
    n, t = 7, 2  # the store runs in the broadcast model (n >= 3t+1)

    print("== depositing 64 escrowed secrets (one batch verification) ==")
    store = VerifiedSecretStore(field, n, t, seed=1)
    secrets = [1000 + i for i in range(64)]
    ids = store.deposit(secrets)
    print(f"deposited {len(ids)} secrets; amortized verification cost: "
          f"{store.amortized_verification_cost():.3f} interpolations/secret")

    print("\n== a cheating depositor is caught (all-or-nothing) ==")
    try:
        store.deposit([1, 2, 3], cheat_offsets={1: {4: 0xBAD}})
    except DepositRejected as exc:
        print(f"rejected: {exc}")
    print(f"store still holds exactly {len(store)} secrets")

    print("\n== electing an unpredictable auditor (n >= 6t'+1 committee) ==")
    source = BootstrapCoinSource(field, 7, 1, batch_size=8, seed=2)
    election = LeaderElection(source, exact_uniform=True)
    auditor = election.elect()
    print(f"auditor: player {auditor} "
          f"({election.total_coins_used()} coin(s) used)")

    print("\n== coin-driven spot check: open 5 random escrows ==")
    for _ in range(5):
        index = field.to_int(source.toss_element()) % len(ids)
        opened = store.open(ids[index])
        expected = secrets[index]
        status = "ok" if opened == expected else "MISMATCH"
        print(f"  escrow {ids[index]:>12s} -> {opened} ({status})")
        assert opened == expected

    print("\ncoins consumed in total:", source.coins_consumed)


if __name__ == "__main__":
    main()
