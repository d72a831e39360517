"""Lock-step synchronous network simulator (compatibility facade).

Historically this module held the whole execution engine; it is now a
thin facade over the layered runtime:

* :mod:`repro.net.transport` — channel primitives (:class:`Send`,
  :func:`unicast`, :func:`multicast`, :func:`broadcast`) and metered
  message expansion;
* :mod:`repro.net.scheduler` — stepping/delivery policy (lock-step,
  permuted delivery, rushing);
* :mod:`repro.net.faults` — optional fault injection;
* :mod:`repro.net.runtime` — the synchronous round loop.

:class:`SynchronousNetwork` keeps its historical constructor and
behaviour byte for byte (its default scheduler is the
:class:`~repro.net.scheduler.LockstepScheduler`), while accepting the
``scheduler`` and ``faults`` layers as keyword arguments.  See
DESIGN.md, "Runtime architecture".

Fault model (paper Section 2):

* private channels — a player sees only payloads addressed to it;
* up to ``t`` arbitrarily faulty players — faulty programs may send
  different values to different players (equivocation) and go silent;
* optional *rushing* — a player registered as rushing receives, each
  round, the current round's honest traffic addressed to it *before*
  choosing its own messages (the strongest scheduling the synchronous
  model permits).  A rushing program's first ``yield`` is a registration
  step whose sends are discarded; every subsequent yield receives the
  usual inbox plus a ``"rush_peek"`` entry holding the in-flight traffic;
* an optional ideal broadcast channel (``Send(..., broadcast=True)``)
  which delivers one identical copy to every player — the Section 3
  protocols assume it, the Section 4 protocols never use it.
"""

from __future__ import annotations

import copy
from typing import Iterable, Optional

from repro.fields.base import Field
from repro.net.faults import FaultPlane
from repro.net.metrics import NetworkMetrics
from repro.net.runtime import Inbox, Payload, Program, ProtocolRuntime
from repro.net.scheduler import LockstepScheduler, Scheduler
from repro.net.transport import (  # noqa: F401  (re-exported wire primitives)
    ALL,
    ProtocolViolation,
    Send,
    broadcast,
    multicast,
    unicast,
)

__all__ = [
    "ALL",
    "Send",
    "unicast",
    "multicast",
    "broadcast",
    "ProtocolViolation",
    "Payload",
    "Inbox",
    "Program",
    "SynchronousNetwork",
]


class SynchronousNetwork(ProtocolRuntime):
    """Runs ``n`` player programs in lock-step rounds.

    Parameters
    ----------
    n:
        Number of players, with ids ``1..n``.
    field:
        Optional field whose operation counter is attributed per player
        (snapshots around each program step).
    metrics:
        Optional pre-existing metrics object to accumulate into.
    rushing:
        Player ids that receive the current round's traffic addressed to
        them before emitting their own messages (merged into the
        scheduler's rushing set).
    allow_broadcast:
        Whether the ideal broadcast channel exists.  The Section 4 coin
        generation protocols set this to False, enforcing the paper's
        point-to-point-only model.
    scheduler:
        Delivery/stepping policy; default :class:`LockstepScheduler`
        reproduces the historical semantics exactly.
    faults:
        Optional :class:`~repro.net.faults.FaultPlane`.
    enforce_codec:
        When set, every payload is round-tripped through the binary wire
        codec (net.codec): unencodable payloads raise, and the metrics
        object accumulates the exact wire byte count in ``wire_bytes``.
    """

    def __init__(
        self,
        n: int,
        field: Optional[Field] = None,
        metrics: Optional[NetworkMetrics] = None,
        rushing: Iterable[int] = (),
        allow_broadcast: bool = True,
        max_rounds: int = 100_000,
        enforce_codec: bool = False,
        scheduler: Optional[Scheduler] = None,
        faults: Optional[FaultPlane] = None,
        recorder=None,
        bus=None,
    ):
        if scheduler is None:
            scheduler = LockstepScheduler(rushing=rushing)
        elif rushing:
            # widen the rushing set on a per-network copy, so a scheduler
            # shared across runs (e.g. via ProtocolContext) is not mutated
            scheduler = copy.copy(scheduler)
            scheduler.rushing = scheduler.rushing | frozenset(rushing)
        super().__init__(
            n,
            field=field,
            metrics=metrics,
            scheduler=scheduler,
            faults=faults,
            max_rounds=max_rounds,
            recorder=recorder,
            bus=bus,
            allow_broadcast=allow_broadcast,
            enforce_codec=enforce_codec,
        )

