"""Adversary-kind registry: corrupt-player programs per campaign cell.

Each :class:`AdversaryKind` names one misbehaviour family and knows how
to build the ``faulty_programs`` dicts that
:func:`~repro.protocols.coin_gen.finalize.run_coin_gen` and
:func:`~repro.protocols.coin_gen.finalize.expose_coin` accept.  The
registry also carries the two facts the violation oracle needs:

* ``detectable`` — does this kind misbehave *deterministically* enough
  that forensics must implicate every corrupt player (a completeness /
  false-negative check)?  Soundness (no honest player accused) is
  checked for every kind regardless.
* ``runtimes`` — behavioural adversaries speak the round-based
  ``List[Send]`` protocol and are lockstep-only; the async runtime's
  adversary axis is the scheduler + fault chain instead.

Two kinds exist purely to arm the oracle's negative controls:
``bad_share`` (honest until expose, then garbage shares — inside the
decoding radius at ≤ t corruptions, undecodable beyond it) and
``lurker`` (declared corrupt, behaves honestly — a forced forensics
false negative; see :func:`repro.campaign.space.known_bad_scenarios`).

Off the coin path (docs/CENSUS.md, class ii); run by CI's campaign-soak
job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

from repro.net.adversary import (
    crash_program,
    echo_noise_program,
    equivocator_program,
    silent_program,
)
from repro.net.simulator import multicast
from repro.protocols.coin_expose import expose_tag

LOCKSTEP = "lockstep"
ASYNC = "async"


def _rng_for(seed: int, pid: int) -> random.Random:
    """Per-(scenario seed, player) rng: adversary noise is cell-pinned."""
    return random.Random(seed * 9_176_941 + pid)


def _bad_share_expose(field, n: int, coin, rng: random.Random):
    """Expose-time traitor: multicast a garbage share of ``coin``.

    The share is a uniform field element under the coin's real tag, so
    it passes every syntactic filter and is only caught (at ≤ t
    corruptions) by Berlekamp-Welch exclusion — the deepest rule in
    :mod:`repro.obs.forensics`.  At t + 1 corruptions the honest
    decoders drop below the robust acceptance threshold and exposure
    fails: the campaign's canonical known-bad cell.
    """
    tag = expose_tag(coin.coin_id)

    def program():
        yield [multicast((tag, field.random(rng)))]
        return None

    return program()


@dataclass(frozen=True)
class AdversaryKind:
    """One misbehaviour family and its oracle-relevant facts."""

    name: str
    detectable: bool  #: forensics must implicate every corrupt player
    runtimes: Tuple[str, ...] = (LOCKSTEP,)
    in_default_space: bool = True


KINDS: Dict[str, AdversaryKind] = {
    "honest": AdversaryKind("honest", detectable=False,
                            runtimes=(LOCKSTEP, ASYNC)),
    # deterministic misbehaviour: forensics completeness is checked
    "silent": AdversaryKind("silent", detectable=True),
    "crash": AdversaryKind("crash", detectable=True),
    "equivocator": AdversaryKind("equivocator", detectable=True),
    "echo": AdversaryKind("echo", detectable=True),
    "bad_share": AdversaryKind("bad_share", detectable=True),
    # negative control: honest behaviour under a corrupt declaration
    # forces a forensics false negative (see known_bad_scenarios)
    "lurker": AdversaryKind("lurker", detectable=True,
                            in_default_space=False),
}


def kind_for(name: str) -> AdversaryKind:
    try:
        return KINDS[name]
    except KeyError:
        raise ValueError(f"unknown adversary kind {name!r}") from None


def coin_gen_programs(
    kind: str, corrupt: Tuple[int, ...], n: int, seed: int
) -> Dict[int, Any]:
    """The ``faulty_programs`` dict for ``run_coin_gen`` under ``kind``."""
    kind_for(kind)  # validate early
    programs: Dict[int, Any] = {}
    for pid in corrupt:
        rng = _rng_for(seed, pid)
        if kind == "silent":
            programs[pid] = silent_program()
        elif kind == "crash":
            crash_round = 2 + (seed + pid) % 3
            programs[pid] = _crash_factory(crash_round)
        elif kind == "equivocator":
            programs[pid] = _equivocator_factory(n, rng)
        elif kind == "echo":
            programs[pid] = echo_noise_program(n, rng)
        # honest / lurker / bad_share: honest during Coin-Gen
    return programs


def expose_programs(
    kind: str, corrupt: Tuple[int, ...], field, n: int, outputs, h: int,
    seed: int,
) -> Dict[int, Any]:
    """The ``faulty_programs`` dict for ``expose_coin`` under ``kind``."""
    kind_for(kind)
    programs: Dict[int, Any] = {}
    for pid in corrupt:
        if kind == "bad_share":
            output = outputs.get(pid)
            if output is not None and output.success:
                programs[pid] = _bad_share_expose(
                    field, n, output.coins[h], _rng_for(seed, pid)
                )
            else:
                programs[pid] = None
        elif kind not in ("honest", "lurker"):
            # silent / crash / equivocator / echo corrupt players are
            # out of the protocol by expose time: absent, like a crash
            programs[pid] = None
    return programs


def _crash_factory(crash_round: int) -> Callable:
    return lambda honest: crash_program(crash_round, honest)


def _equivocator_factory(n: int, rng: random.Random) -> Callable:
    return lambda honest: equivocator_program(n, rng, honest)


__all__ = [
    "KINDS", "AdversaryKind", "coin_gen_programs", "expose_programs",
    "kind_for",
]
