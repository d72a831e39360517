"""ProtocolContext: the execution context every protocol runs under.

Protocols used to thread ``field, n, t, rng, metrics`` by hand through
every runner and player factory.  A :class:`ProtocolContext` carries
them (plus the runtime layers — scheduler and fault plane) as one
object:

* **field, n, t** — the system parameters;
* **rng** — the *single* seeded :class:`random.Random` a run's
  randomness derives from.  Protocol bodies never construct their own
  ``random.Random(seed)``; per-player generators come from
  :meth:`player_rng` and fresh sub-generators from :meth:`child_rng`,
  so an entire run is reproducible from one top-level seed;
* **metrics** — the accumulating :class:`NetworkMetrics` for the
  context's lifetime (individual runs get fresh per-run metrics that
  are merged in);
* **scheduler / faults** — the delivery policy and fault plane every
  network built from this context uses;
* **recorder / flight / health** — the optional observers: a span
  recorder and a flight recorder handed to every network, and a health
  monitor the long-lived coin pipeline reports to.

Everything between a runner's arguments and ``run(programs)`` lives
here, once: :func:`run_players` is the player harness (honest programs,
faulty substitutes, wait for the honest) and :meth:`ProtocolContext.run`
wraps it with the context's network, protocol span and metrics merge::

    ctx = ProtocolContext.create(field, n=7, t=1, seed=3,
                                 scheduler=PermutedDeliveryScheduler(9))
    outputs, metrics = ctx.run(
        lambda pid: phase_king(7, 1, pid, inputs[pid]),
        faulty={4: silent_program()}, allow_broadcast=False,
    )

No module outside :mod:`repro.net` and this one constructs a runtime
(``tests/test_census.py`` walks the tree to check).
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.fields.base import Field
from repro.net.faults import FaultPlane
from repro.net.metrics import NetworkMetrics
from repro.net.runtime import Program, RuntimeBase
from repro.net.scheduler import Scheduler
from repro.net.simulator import SynchronousNetwork
from repro.obs.spans import NULL_RECORDER, NullRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.flight import FlightRecorder
    from repro.obs.health import HealthMonitor


def run_players(
    runtime: RuntimeBase,
    n: int,
    make_program: Callable[[int], Optional[Program]],
    faulty: Optional[Dict[int, Any]] = None,
) -> Dict[int, Any]:
    """Run players ``1..n`` on ``runtime``; returns ``{pid: output}``.

    ``make_program(pid)`` builds a player's honest program (None: the
    player takes no part).  It is called in pid order, for exactly the
    players that run or wrap their honest program — building one may
    draw from a shared generator, so call order is part of a seeded run.
    ``faulty`` maps a player id to what runs in its place: ``None``
    (crashed from the start), a replacement program, or a factory that
    receives the honest program and returns the one to run — how
    wrapping adversaries (equivocators, crash-at-round-r) get the
    player's dealt inputs.  Only the honest players are waited for, so
    a never-terminating adversary program cannot stall the run.
    """
    faulty = faulty or {}
    programs: Dict[int, Program] = {}
    for pid in range(1, n + 1):
        if pid in faulty and not callable(faulty[pid]):
            program = faulty[pid]  # a replacement, or None
        else:
            program = make_program(pid)
            if program is not None and pid in faulty:
                program = faulty[pid](program)
        if program is not None:
            programs[pid] = program
    honest = [pid for pid in programs if pid not in faulty]
    return runtime.run(programs, wait_for=honest)


@dataclass
class ProtocolContext:
    """Everything a protocol execution needs, in one object.

    ``field`` may be None for protocols that compute over no field
    (EIG, phase king on bare bits): nothing is metered per element then.
    """

    field: Optional[Field]
    n: int
    t: int
    seed: int = 0
    rng: random.Random = None  # type: ignore[assignment]  # derived from seed
    metrics: NetworkMetrics = None  # type: ignore[assignment]
    scheduler: Optional[Scheduler] = None
    faults: Optional[FaultPlane] = None
    enforce_codec: bool = False
    #: span recorder threaded into every network this context builds;
    #: the default NULL_RECORDER makes all instrumentation a no-op
    recorder: NullRecorder = NULL_RECORDER
    #: flight recorder handed to every network this context builds, so
    #: one log covers a whole session (set by ``FlightRecorder.attach``)
    flight: Optional["FlightRecorder"] = None
    #: health monitor a ``BootstrapCoinSource`` on this context reports
    #: its coins, batches, failures and retries to (``HealthMonitor.attach``)
    health: Optional["HealthMonitor"] = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one player")
        if self.t < 0:
            raise ValueError("t must be non-negative")
        if self.rng is None:
            self.rng = random.Random(self.seed)
        if self.metrics is None:
            self.metrics = NetworkMetrics(
                element_bits=(
                    self.field.bit_length if self.field is not None else 1
                )
            )

    @classmethod
    def create(cls, field: Field, n: int, t: int, seed: int = 0,
               **kwargs) -> "ProtocolContext":
        """The usual entry point: parameters + one top-level seed."""
        return cls(field=field, n=n, t=t, seed=seed, **kwargs)

    # -- deterministic randomness -------------------------------------------
    def player_rng(self, pid: int) -> random.Random:
        """The per-player generator for player ``pid``.

        Derived deterministically from the top-level seed (not from the
        master ``rng`` stream, so it is independent of how much of that
        stream the setup consumed).
        """
        return random.Random(self.seed * 1_000_003 + pid)

    def child_rng(self) -> random.Random:
        """A fresh generator drawn from the master stream.

        For sub-executions that need randomness independent of player
        identity (e.g. one generator per Coin-Gen run in a long-lived
        system).  Consumes one draw from ``rng``, so derivation order is
        part of the reproducible run.
        """
        return random.Random(self.rng.randrange(1 << 62))

    # -- runtime construction -----------------------------------------------
    def network(
        self,
        allow_broadcast: bool = True,
        rushing=(),
        metrics: Optional[NetworkMetrics] = None,
        **kwargs,
    ) -> SynchronousNetwork:
        """A network for one protocol run, wired to this context's layers.

        Each call gets a *fresh* per-run metrics object (pass
        ``metrics=`` to override); merge it into the context's
        accumulator with :meth:`absorb` when the run's tallies should
        count toward the context's lifetime totals.
        """
        return SynchronousNetwork(
            self.n,
            field=self.field,
            metrics=metrics,
            rushing=rushing,
            allow_broadcast=allow_broadcast,
            scheduler=self.scheduler,
            faults=self.faults,
            recorder=self.recorder,
            flight=self.flight,
            enforce_codec=self.enforce_codec,
            **kwargs,
        )

    def async_runtime(
        self,
        scheduler: Optional[Scheduler] = None,
        faults: Optional[FaultPlane] = None,
        metrics: Optional[NetworkMetrics] = None,
        **kwargs,
    ):
        """An event-driven runtime for one run, wired to this context.

        The async sibling of :meth:`network`: same layer wiring (fault
        plane, recorders, codec enforcement), but deliveries land
        one at a time in the order an
        :class:`~repro.net.scheduler.RandomOrderScheduler` picks.  When
        neither ``scheduler=`` nor the context's own scheduler is set,
        the delivery order is seeded from the context seed — so a run
        is reproducible from the same top-level seed that drives its
        randomness.
        """
        from repro.net.async_runtime import AsyncRuntime
        from repro.net.scheduler import RandomOrderScheduler

        if scheduler is None:
            scheduler = self.scheduler or RandomOrderScheduler(self.seed)
        return AsyncRuntime(
            self.n,
            field=self.field,
            metrics=metrics,
            scheduler=scheduler,
            faults=faults if faults is not None else self.faults,
            recorder=self.recorder,
            flight=self.flight,
            enforce_codec=self.enforce_codec,
            **kwargs,
        )

    def run(
        self,
        make_program: Callable[[int], Optional[Program]],
        *,
        faulty: Optional[Dict[int, Any]] = None,
        allow_broadcast: bool = True,
        rushing=(),
        span: Optional[str] = None,
        **span_attrs,
    ) -> Tuple[Dict[int, Any], NetworkMetrics]:
        """One lockstep protocol run; returns ``(outputs, run metrics)``.

        :func:`run_players` on a fresh :meth:`network`, inside a
        ``"protocol"`` span named ``span`` (none when omitted), with the
        run's tallies absorbed into the context's totals.
        """
        network = self.network(allow_broadcast=allow_broadcast, rushing=rushing)
        with (
            self.recorder.span(span, "protocol", **span_attrs)
            if span is not None else nullcontext()
        ):
            outputs = run_players(network, self.n, make_program, faulty)
        self.absorb(network.metrics)
        return outputs, network.metrics

    def ensure_bus(self) -> "ProtocolContext":
        """This context: what ``bench/workloads.py`` attaches recorders to.

        An alias kept only for that caller; ROADMAP item 10(b) moves
        ``bench/`` onto ``attach(context)``, as everything else is, and
        deletes it.
        """
        return self

    def absorb(self, run_metrics: NetworkMetrics) -> None:
        """Accumulate one run's tallies into the context's totals."""
        if run_metrics is not self.metrics:
            self.metrics.merged_from(run_metrics)


def as_context(field_or_ctx, n: Optional[int] = None, t: Optional[int] = None,
               seed: int = 0, **kwargs) -> ProtocolContext:
    """Normalize the two calling conventions runners accept.

    ``(field, n, t, seed=...)`` builds a fresh context; a ready
    :class:`ProtocolContext` as first argument is returned as is, and
    its scheduler, fault plane and recorders are what the run uses.
    """
    if isinstance(field_or_ctx, ProtocolContext):
        return field_or_ctx
    if n is None or t is None:
        raise TypeError("need n and t when not passing a ProtocolContext")
    return ProtocolContext.create(field_or_ctx, n, t, seed=seed, **kwargs)
