"""The lockstep run path: same transcript, same outputs, both schedulers.

Every runner reaches ``run(programs)`` through one player harness
(:func:`repro.protocols.context.run_players`).  What a harness can move
without any test noticing is *order*: which pids ``make_program`` is
called for and in what sequence decides the draws taken from the
context's master rng (``SharedCoinSystem.generate`` draws one
``child_rng`` per honest player, in pid order), and the order programs
enter the table decides stepping order.  The pins below — sha256 of the
flight log and of the honest players' outputs — were recorded on commit
d37430e, *before* the 13 hand copies of the harness were folded into
one, under the default :class:`LockstepScheduler` and under
``PermutedDeliveryScheduler(9)``.
"""

import dataclasses
import hashlib
import json
import random

import pytest

from repro.core.bootstrap import BootstrapCoinSource
from repro.fields import GF2k
from repro.net import PermutedDeliveryScheduler
from repro.net.adversary import MobileAdversary, equivocator_program
from repro.obs.flight import FlightRecorder
from repro.poly.polynomial import Polynomial
from repro.protocols.ba import phase_king, run_phase_king
from repro.protocols.batch_vss import run_batch_vss
from repro.protocols.bit_gen import run_bit_gen
from repro.protocols.coin_expose import make_dealer_coin
from repro.protocols.coin_gen import run_coin_gen
from repro.protocols.context import ProtocolContext
from repro.protocols.refresh import run_refresh

N, T, SEED = 7, 1, 3


def _canon(value):
    """A JSON-able form of a protocol output, independent of dict order."""
    if isinstance(value, Polynomial):
        return ["poly", list(value.coeffs)]
    if dataclasses.is_dataclass(value):
        return [type(value).__name__, {
            f.name: _canon(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }]
    if isinstance(value, dict):
        return [[_canon(k), _canon(v)] for k, v in sorted(value.items())]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    return value


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _coin_table(field, count):
    rng = random.Random(11)
    table = {pid: [] for pid in range(1, N + 1)}
    for index in range(count):
        _, shares = make_dealer_coin(field, N, T, f"lc{index}", rng)
        for pid, share in shares.items():
            table[pid].append(share)
    return table


def _coin_gen(ctx, faulty=None):
    outputs, _ = run_coin_gen(ctx, M=2, tag="cg", faulty_programs=faulty)
    return outputs, faulty or {}


def _equivocated(ctx):
    return _coin_gen(ctx, {
        4: lambda honest: equivocator_program(N, random.Random(8), honest)
    })


def _phase_king(ctx):
    # run_phase_king takes (n, t, inputs, field=) and builds its own
    # context; the harness it calls is driven here under the recorded one
    outputs, _ = ctx.run(
        lambda pid: phase_king(N, T, pid, pid & 1, "ba"),
        allow_broadcast=False,
    )
    bare, _ = run_phase_king(
        N, T, {pid: pid & 1 for pid in range(1, N + 1)}, field=ctx.field
    )
    assert bare == outputs
    return outputs, {}


def _bootstrap(ctx):
    mobile = MobileAdversary(N, T, "noise", seed=5)
    source = BootstrapCoinSource(
        context=ctx, batch_size=3,
        adversary_schedule=lambda epoch: mobile.next_epoch(),
    )
    values = []
    while source.epoch < 2:
        values.append(source.toss_element())
    return {0: values, 1: [sorted(c) for c in mobile.history]}, {}


SCENARIOS = {
    "coin_gen_clean": _coin_gen,
    "coin_gen_equivocator": _equivocated,
    "coin_gen_crashed_from_start": lambda ctx: _coin_gen(ctx, {6: None}),
    "bit_gen": lambda ctx: (run_bit_gen(ctx, M=3, dealer=2)[0], {}),
    "batch_vss": lambda ctx: (run_batch_vss(ctx, M=3)[0], {}),
    "refresh": lambda ctx: (
        run_refresh(ctx, coin_table=_coin_table(ctx.field, 2))[0], {}
    ),
    "phase_king": _phase_king,
    "bootstrap_mobile": _bootstrap,
}

SCHEDULERS = {
    "lockstep": lambda: None,
    "permuted": lambda: PermutedDeliveryScheduler(9),
}

#: scenario -> (lockstep flight-log sha256, permuted flight-log sha256,
#: honest-outputs sha256 — the same under both schedulers), recorded on
#: the parent commit.  The flight logs of every scenario that grade-casts
#: (the three Coin-Gens, refresh, bootstrap) were re-recorded when honest
#: echoes began naming a value equal to the echoer's own proposal by
#: sender id: the echo payloads changed, the outputs digests did not.
PINNED = {
    "batch_vss": (
        "f518ba1cdd736392e40171e395a39e35dba2ca4dba213f674ecdbb589812a76f",
        "705d886f4db3e1871e752e176439c1d148da87dbd0f4f8f7286da2161428bff0",
        "d260daa57a6c254b7dfeac3581469dbdbfc4bc27fa0ca1e5f0d36c4835577fc3",
    ),
    "bit_gen": (
        "0c17ef286669d1cfe7f1f6bc5231b7a4ca750e46065d6bf50e6b43ac9134b8a9",
        "18e6808f524c47f14b896025d339d433d22d9356f24b90e53fabae5cf827124b",
        "dca5e0eb53298d7891a39036788bdaa828f2e7b6abbdfc42955d2a5a6ff72a66",
    ),
    "bootstrap_mobile": (
        "36860a09fd5827b47ee073a5eb2d401c2f874f3b92a1530826f607394877fd9f",
        "f0a9d9b38affc39c91d16a0d0bc73ef9261041886b2d3d2b543d053d6e0ece71",
        "8dceef344b5201a5ebd96cf10281cc3102475b4d21d254dddedb395b1ad18cd7",
    ),
    "coin_gen_clean": (
        "4a0a8a66d3d3a81d211f5f4012b1aa2d982f047a1fcca5cb87bb754541de68ae",
        "819b73325c0f57885cb2cb7080745e79ecdf2cef51361d2d002ceaf80346e0d4",
        "ea66de893aad033cca9e1e734758054875d15e13f036ea7bdeba9b2d96513332",
    ),
    "coin_gen_crashed_from_start": (
        "0bc7ce91a4fc3f37faf37c15e129871a544f0120899f7adde5ee90ea355ff5bd",
        "84394d7a0cea0298426acdb85c837f9e9fb64d548eeabb46f25e0802ede70db4",
        "f7ef4978de2d730e21f044151e1cf102bff58d84c72bb01fc61bfac2ae2cf7d8",
    ),
    "coin_gen_equivocator": (
        "be38320498197dfdbcf242191b9ca5d5f08340cede882a83422ddf41a5f92591",
        "51360a6814376ac2fe887dc75759dec6ae2eb0bfd0bea9250c6dd1d408f490ed",
        "5150d588f58fa9b0b6bb118bbf2afb2c214ab4ffd28cb7bdcfbb2e8e0518ef75",
    ),
    "phase_king": (
        "f5fb89c11d8022c65b6e18b3abd02b671f044def7d75917aae1168279876fbaa",
        "7999d69023b1771610ab6166469e0678b7de674e63153198d6a696ca0b691de4",
        "846db9b14f3e4543729589e42d0aee5fb2dad7cdb433f92986049020931726e6",
    ),
    "refresh": (
        "f09018da1734248915e61065e234e3956d4d376aee339a25ad9e486c23042c87",
        "5b5fbc2b2a94f3fbb747f68411f15807df66a314e1d08d681c0be746902d2c24",
        "2218e81212eccb61224454faf3643a7d8f5a487d897da81af306fb75fbf0273a",
    ),
}


def seeded_run(scenario: str, scheduler: str):
    field = GF2k(16)
    ctx = ProtocolContext.create(
        field, N, T, seed=SEED, scheduler=SCHEDULERS[scheduler]()
    )
    flight = FlightRecorder(n=N, t=T, field=field, seed=SEED)
    flight.attach(ctx.ensure_bus())
    outputs, faulty = SCENARIOS[scenario](ctx)
    honest = {pid: out for pid, out in outputs.items() if pid not in faulty}
    return (
        _sha(flight.log().dumps()),
        _sha(json.dumps(_canon(honest), sort_keys=True)),
    )


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_seeded_runs_reproduce_the_pinned_digests(scenario, scheduler):
    lockstep_log, permuted_log, outputs = PINNED[scenario]
    log = lockstep_log if scheduler == "lockstep" else permuted_log
    assert seeded_run(scenario, scheduler) == (log, outputs)
