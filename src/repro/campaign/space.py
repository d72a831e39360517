"""Scenario space: the joint grid the campaign driver sweeps.

A :class:`Scenario` pins every knob that makes two protocol executions
*different things*: runtime, scheduler policy, field, (n, t), batch size
M, protocol seed, scheduler seed, adversary program + corrupt set, and
the :class:`~repro.net.faults.FaultPlane` chain.  It is frozen and
hashable, round-trips through JSON, and fingerprints via
:class:`~repro.obs.manifest.RunManifest` — one scenario is one cell of
the campaign's coverage map, and the same scenario always denotes the
same execution.

A :class:`ScenarioSpace` is a cartesian grid over those axes with the
model-validity rules applied (see :meth:`Scenario.valid`): enumeration
is deterministic, and :meth:`ScenarioSpace.sample` draws a seeded random
slice for bounded CI soaks.  Adversary axis entries use the compact
``"kind:pid+pid"`` spelling so the whole space definition stays
hashable and JSON-trivial, like fault-op specs.

Off the coin path (docs/CENSUS.md, class ii); run by CI's campaign-soak
job.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.net.faults import fault_targets
from repro.obs.manifest import RunManifest

LOCKSTEP = "lockstep"
ASYNC = "async"
RUNTIMES = (LOCKSTEP, ASYNC)

SCHEDULERS = ("lockstep", "permuted", "random")

HONEST = "honest"


def parse_adversary(spec: str) -> Tuple[str, Tuple[int, ...]]:
    """``"silent:4+7"`` -> ``("silent", (4, 7))``; ``"honest"`` -> no set."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    corrupt: Tuple[int, ...] = ()
    if rest.strip():
        corrupt = tuple(sorted(int(x) for x in rest.split("+")))
    if kind == HONEST and corrupt:
        raise ValueError(f"honest adversary takes no corrupt set: {spec!r}")
    if kind != HONEST and not corrupt:
        raise ValueError(f"adversary {kind!r} needs a corrupt set: {spec!r}")
    return kind, corrupt


@dataclass(frozen=True)
class Scenario:
    """One cell of the campaign space: a fully pinned protocol execution."""

    runtime: str = LOCKSTEP
    scheduler: str = "lockstep"
    field: str = "gf2k:16"
    n: int = 7
    t: int = 1
    M: int = 1
    seed: int = 0
    sched_seed: int = 0
    adversary: str = HONEST  #: adversary kind (see repro.campaign.adversaries)
    corrupt: Tuple[int, ...] = ()  #: declared-corrupt player ids (sorted)
    faults: Tuple[str, ...] = ()  #: fault-op chain spec (parse_fault_op grammar)

    # -- identity ---------------------------------------------------------
    def cell_id(self) -> str:
        """10-hex-char content id over the canonical JSON encoding."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:10]

    def manifest(self, field=None) -> RunManifest:
        """The cell's :class:`RunManifest` (pass the live field for backend)."""
        return RunManifest.capture(
            field=field if field is not None else self.field,
            protocol="async_coin" if self.runtime == ASYNC else "coin_gen",
            n=self.n, t=self.t, M=self.M, seed=self.seed,
            sched_seed=self.sched_seed, scheduler=self.scheduler,
            runtime=self.runtime,
            adversary=None if self.adversary == HONEST else self.adversary,
            corrupt=",".join(map(str, self.corrupt)) or None,
            faults=";".join(self.faults) or None,
        )

    # -- model ------------------------------------------------------------
    def suspects(self) -> Set[int]:
        """Players whose participation this cell corrupts.

        The union of the declared corrupt set and the fault chain's
        targets — oracles exclude exactly these from unanimity and
        conformance checks, and forensics accusations must stay inside
        this set (soundness) and cover the corrupt set (completeness,
        for deterministically detectable adversaries).
        """
        return set(self.corrupt) | fault_targets(self.faults)

    def within_fault_model(self) -> bool:
        """At most ``t`` interfered-with players (the paper's model)."""
        return len(self.suspects()) <= self.t

    def valid(self) -> bool:
        """Is this combination of axes runnable at all?

        Async cells run the guarded exposure under a random-order
        scheduler; lockstep-only adversary programs (everything beyond
        ``honest``/``lurker``) speak the round-based ``List[Send]``
        protocol and cannot ride the async runtime.  Destination-only
        drops starve an async receiver's quorum forever, so they are
        lockstep-only too.
        """
        if self.runtime not in RUNTIMES:
            return False
        if self.scheduler not in SCHEDULERS:
            return False
        if not all(1 <= pid <= self.n for pid in self.corrupt):
            return False
        if self.runtime == ASYNC:
            from repro.campaign.adversaries import kind_for

            if self.scheduler != "random":
                return False
            if ASYNC not in kind_for(self.adversary).runtimes:
                return False
            for op in self.faults:
                if not _async_safe_fault(op):
                    return False
        return True

    # -- (de)serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "runtime": self.runtime, "scheduler": self.scheduler,
            "field": self.field, "n": self.n, "t": self.t, "M": self.M,
            "seed": self.seed, "sched_seed": self.sched_seed,
            "adversary": self.adversary, "corrupt": list(self.corrupt),
            "faults": list(self.faults),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Scenario":
        known = {f.name for f in dataclass_fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        if "corrupt" in kwargs:
            kwargs["corrupt"] = tuple(kwargs["corrupt"])
        if "faults" in kwargs:
            kwargs["faults"] = tuple(kwargs["faults"])
        return cls(**kwargs)


def _async_safe_fault(op: str) -> bool:
    """Can this fault op run on the async runtime without starving it?"""
    from repro.net.faults import DROP, SILENCE, parse_fault_op

    params = parse_fault_op(op)
    if params["kind"] == SILENCE:
        return False
    if params["kind"] == DROP:
        # a source-targeted drop removes one sender, which ≤ t quorums
        # tolerate; a destination-only drop starves that receiver forever
        return params.get("src") is not None
    return True


@dataclass(frozen=True)
class ScenarioSpace:
    """A cartesian grid over scenario axes, with validity rules applied.

    ``adversaries`` entries are compact ``"kind:pid+pid"`` strings
    (``"honest"`` for none); ``fault_chains`` entries are tuples of
    fault-op spec strings (``()`` for a clean network).  Cells that fail
    :meth:`Scenario.valid` — or, when ``enforce_fault_model`` is set,
    leave the ≤ t fault model — are skipped during enumeration, so a
    space can declare generous axes and still only yield runnable cells.
    """

    runtimes: Tuple[str, ...] = (LOCKSTEP,)
    schedulers: Tuple[str, ...] = ("lockstep",)
    fields: Tuple[str, ...] = ("gf2k:16",)
    sizes: Tuple[Tuple[int, int], ...] = ((7, 1),)  #: (n, t) pairs
    Ms: Tuple[int, ...] = (1,)
    seeds: Tuple[int, ...] = (0,)
    sched_seeds: Tuple[int, ...] = (0,)
    adversaries: Tuple[str, ...] = (HONEST,)
    fault_chains: Tuple[Tuple[str, ...], ...] = ((),)
    enforce_fault_model: bool = True

    def enumerate(self) -> Iterator[Scenario]:
        """All valid cells, in deterministic axis order."""
        for (runtime, scheduler, field, (n, t), M, seed, sched_seed,
             adversary, chain) in itertools.product(
                self.runtimes, self.schedulers, self.fields, self.sizes,
                self.Ms, self.seeds, self.sched_seeds, self.adversaries,
                self.fault_chains):
            kind, corrupt = parse_adversary(adversary)
            cell = Scenario(
                runtime=runtime, scheduler=scheduler, field=field,
                n=n, t=t, M=M, seed=seed, sched_seed=sched_seed,
                adversary=kind, corrupt=corrupt, faults=tuple(chain),
            )
            if not cell.valid():
                continue
            if self.enforce_fault_model and not cell.within_fault_model():
                continue
            yield cell

    def cells(self) -> List[Scenario]:
        return list(self.enumerate())

    def sample(self, count: int, seed: int = 0) -> List[Scenario]:
        """A seeded random slice of the space (for ``--budget`` soaks).

        Same ``(space, count, seed)`` ⇒ same slice, in the same order —
        the determinism the byte-identical-ledger contract rests on.
        """
        cells = self.cells()
        if count >= len(cells):
            return cells
        rng = random.Random(seed)
        return rng.sample(cells, count)


def default_space(
    runtime: str = "both",
    seeds: Tuple[int, ...] = (0, 1, 2),
    sched_seeds: Tuple[int, ...] = (0, 1),
    clean_only: bool = False,
) -> ScenarioSpace:
    """The stock campaign space at (n, t) = (7, 1).

    Lockstep cells sweep all three scheduler policies, every adversary
    kind that misbehaves deterministically enough for soak use, and
    single-target fault chains of every kind; async cells sweep the
    random-order delivery space with the async-safe fault kinds.  All
    cells stay inside the ≤ t fault model, so a full run of this space
    is expected to report **zero** violations — any violation is a bug
    in the protocol stack, not an artifact of an over-powered adversary.
    """
    runtimes = RUNTIMES if runtime == "both" else (runtime,)
    adversaries: Tuple[str, ...] = (HONEST,)
    fault_chains: Tuple[Tuple[str, ...], ...] = ((),)
    if not clean_only:
        adversaries += ("silent:7", "crash:7", "equivocator:7", "echo:7",
                        "bad_share:7")
        fault_chains += (
            ("drop:src=7",),
            ("duplicate:src=7",),
            ("delay:src=7,by=2",),
            ("crash:pid=7,at=2",),
            ("silence:pid=7,rounds=2+3",),
            ("duplicate:src=7,dst=1", "delay:src=7,by=1"),
        )
    return ScenarioSpace(
        runtimes=runtimes,
        schedulers=SCHEDULERS,
        sizes=((7, 1),),
        seeds=seeds,
        sched_seeds=sched_seeds,
        adversaries=adversaries,
        fault_chains=fault_chains,
    )


def known_bad_scenarios() -> List[Scenario]:
    """Seeded scenarios that *must* trip the oracle (negative controls).

    Two deliberate breakages, one per failure mode the oracle guards:

    * ``bad_share`` with **t + 1** corrupt senders — beyond the decoding
      radius, so honest exposure fails (and any decode that did succeed
      could disagree): trips the coin oracle.
    * a ``lurker`` — declared corrupt but behaving honestly, so
      forensics (correctly) accuses nobody: a forced false negative
      that trips the forensics-completeness oracle.

    These are excluded from :func:`default_space`; the campaign CLI and
    tests run them to prove the oracle, shrinker, and triage report
    actually fire.
    """
    return [
        Scenario(adversary="bad_share", corrupt=(4, 7), seed=3),
        Scenario(adversary="lurker", corrupt=(5,), seed=1),
    ]


def shrink_reductions(cell: Scenario) -> Iterator[Scenario]:
    """Candidate one-step reductions of ``cell``, most aggressive first.

    The shrinker's deterministic agenda: halve M (then to 1), drop fault
    ops left to right, drop corrupt players in sorted order, zero the
    seeds.  Each candidate changes exactly one axis, so greedy descent
    terminates and is reproducible.
    """
    if cell.M > 1:
        yield replace(cell, M=1)
        if cell.M > 2:
            yield replace(cell, M=cell.M // 2)
        yield replace(cell, M=cell.M - 1)
    for index in range(len(cell.faults)):
        yield replace(
            cell, faults=cell.faults[:index] + cell.faults[index + 1:]
        )
    if len(cell.corrupt) > 1:
        for pid in cell.corrupt:
            remaining = tuple(p for p in cell.corrupt if p != pid)
            yield replace(cell, corrupt=remaining)
    if cell.seed != 0:
        yield replace(cell, seed=0)
    if cell.sched_seed != 0:
        yield replace(cell, sched_seed=0)


__all__ = [
    "ASYNC", "HONEST", "LOCKSTEP", "RUNTIMES", "SCHEDULERS",
    "Scenario", "ScenarioSpace", "default_space", "known_bad_scenarios",
    "parse_adversary", "shrink_reductions",
]
