"""A small synchronous event bus for runtime observability.

A runtime (:class:`~repro.net.runtime.RuntimeBase`) owns one bus per
execution (or shares the :class:`~repro.protocols.context.ProtocolContext`
bus when one is attached) and publishes:

* ``"run"``     — ``(n,)`` once at the start of every ``run()`` call;
  flight recorders use it to delimit protocol runs sharing one bus;
* ``"round"``   — ``(round_number, deliveries)`` once per settled round,
  after the fault plane and scheduler have decided what actually arrives
  (deliveries is a list of ``(dst, src, payload)``; this is the stream
  the flight recorder and ``examples/trace_walkthrough.py`` subscribe to);
* ``"fault"``   — ``(round_number, kind, src, dst)`` from the
  :class:`~repro.net.faults.FaultPlane`, once per rewritten delivery
  (kind is ``"drop"``, ``"duplicate"``, or ``"delay"``) and once per
  round a player fault suppresses (kind ``"crash"`` or ``"silence"``,
  with ``dst=0`` meaning "all destinations").

Guard topics (published **only when subscribed**, so unmonitored runs
stay byte-identical).  They carry the two guard facts a delivery log
cannot rebuild; the flight recorder writes them down and
:mod:`repro.obs.liveness` derives every wait record and stall from the
log:

* ``"guard_armed"`` — ``(time, pid, guard)`` when a guarded program
  parks on a :class:`~repro.net.guards.Wait`/``AnyWait`` (``time`` is
  the runtime's logical clock: delivery count for the async runtime,
  round number for lockstep);
* ``"guard_fired"`` — ``(time, pid)`` when a parked guard's quorum is
  met and the program steps.

Long-lived components publish health topics into a shared context bus:

* ``"coin"``    — ``(coin_id, element)`` per coin a
  :class:`~repro.core.bootstrap.BootstrapCoinSource` exposes;
* ``"batch"``   — ``(epoch, coins, iterations, seed_consumed)`` per
  D-PRBG stretch;
* ``"failure"`` — ``(kind, coin_id)`` per exposure failure (kind is
  ``"unanimity"`` or ``"decode"``);
* ``"retry"``   — ``(coin_id, attempt)`` per exposure retry.

Delivery contract (decided and relied upon by the observability layer):

* **ordering** — handlers run synchronously, in first-subscription order;
* **idempotent subscription** — subscribing the same handler to the same
  topic twice is a no-op, so components re-wired on every network
  construction (recorders sharing a context bus across runs) are
  invoked exactly once per event;
* **mutation-safe publish** — ``publish`` iterates over a snapshot of the
  subscriber list, so a handler may subscribe or unsubscribe (itself or
  others) mid-publish; newly subscribed handlers first see the *next*
  event, unsubscribed handlers may still receive the in-flight one;
* **exceptions propagate** — a failing handler aborts the publish and the
  protocol step that triggered it.  Observability must never silently
  corrupt a run; failing loudly in a simulator is the right trade, and
  handlers that prefer resilience must catch their own exceptions.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

Handler = Callable[..., Any]

#: topic names published by the runtime stack
RUN = "run"
ROUND = "round"
FAULT = "fault"
#: topic names published by the long-lived coin pipeline (health stream)
COIN = "coin"
BATCH = "batch"
FAILURE = "failure"
RETRY = "retry"
#: guard topics (a player parked / woke; see repro.obs.liveness)
GUARD_ARMED = "guard_armed"
GUARD_FIRED = "guard_fired"

#: every topic constant the runtime stack and coin pipeline publish.
#: Publishers and subscribers must name topics via these constants
#: (regression-tested in tests/test_bus_topics.py).
ALL_TOPICS = (
    RUN, ROUND, FAULT,
    COIN, BATCH, FAILURE, RETRY,
    GUARD_ARMED, GUARD_FIRED,
)


class RunCounter:
    """Which protocol run a recorded event stream is in.

    Round numbers restart with every run, so one rule delimits runs for
    every recorder: a ``RUN`` marker opens a new run, and so — for
    streams recorded without markers — does a round number that did not
    advance past the last settled round.
    """

    def __init__(self) -> None:
        #: 1-based number of the run in progress (0 before any event)
        self.run = 0
        self._last_round = 0
        self._marked = False

    def mark(self) -> None:
        """A ``RUN`` marker arrived: the next event starts a new run."""
        self.run += 1
        self._last_round = 0
        self._marked = True

    def observe(self, round_no: int, settles: bool = False) -> None:
        """Place an event of ``round_no`` in the run it belongs to.

        ``settles`` marks the round's ``ROUND`` event, after which the
        same round number can only belong to a later run.  (A marker's
        own run is opened by :meth:`mark`, not here.)
        """
        if self.run == 0:
            self.run = 1  # stream without markers: first event opens run 1
        elif not self._marked and round_no <= self._last_round:
            self.run += 1
            self._last_round = 0
        self._marked = False
        if settles:
            self._last_round = round_no


class EventBus:
    """Topic -> ordered handler list; publish loops over a snapshot."""

    def __init__(self) -> None:
        self._subscribers: Dict[str, List[Handler]] = {}

    def subscribe(self, topic: str, handler: Handler) -> None:
        """Append ``handler`` to ``topic``'s delivery list (idempotent)."""
        handlers = self._subscribers.setdefault(topic, [])
        if handler not in handlers:
            handlers.append(handler)

    def unsubscribe(self, topic: str, handler: Handler) -> None:
        """Remove a previously subscribed handler (no-op if absent)."""
        handlers = self._subscribers.get(topic, [])
        if handler in handlers:
            handlers.remove(handler)

    def is_subscribed(self, topic: str, handler: Handler) -> bool:
        return handler in self._subscribers.get(topic, ())

    def publish(self, topic: str, *args: Any, **kwargs: Any) -> None:
        """Invoke every subscriber of ``topic`` with the given payload.

        Iterates a snapshot, so handlers may (un)subscribe mid-publish;
        handler exceptions propagate (see the module docstring for the
        full delivery contract).
        """
        handlers = self._subscribers.get(topic)
        if not handlers:
            return
        for handler in list(handlers):
            handler(*args, **kwargs)

    def has_subscribers(self, topic: str) -> bool:
        return bool(self._subscribers.get(topic))
