"""Synchronous-network substrate (the paper's model, Section 2).

"We consider a synchronous network of n players P_1,...,P_n ... which
communicate by sending messages.  We assume that private channels are
available between the players.  Of the n players, a subset of size at most
t of them is assumed to be able to deviate arbitrarily from the protocol,
and even collude."

:class:`~repro.net.simulator.SynchronousNetwork` provides lock-step rounds
over private point-to-point channels plus an optional ideal broadcast
channel (assumed by the Section 3 protocols, dropped in Section 4).
Message, bit, and per-player field-operation metering reproduce the
quantities the paper's lemmas count.
:class:`~repro.net.async_runtime.AsyncRuntime` runs the same generator
programs under adversarial message-at-a-time delivery.  The two are the
only runtimes: each is one ``run()`` loop — its scheduling policy —
over the set-up, stepping, send-emission, fault-decision and span
plumbing of :class:`~repro.net.runtime.RuntimeBase`.  To watch a run,
attach a :class:`~repro.obs.flight.FlightRecorder` to the runtime (or
to the context that builds it) and read its log: every settled
delivery, fault and guard event is in it, and that log is the one way
to watch a run.
"""

from repro.net.simulator import (
    ALL,
    Send,
    SynchronousNetwork,
    broadcast,
    multicast,
    unicast,
)
from repro.net.transport import ProtocolViolation, Transport
from repro.net.scheduler import (
    LockstepScheduler,
    PermutedDeliveryScheduler,
    RandomOrderScheduler,
    Scheduler,
)
from repro.net.faults import FaultPlane
from repro.net.guards import AnyWait, Guarded, Wait, guarded, wait_any
from repro.net.runtime import RuntimeBase, RuntimeExhausted
from repro.net.async_runtime import AsyncRuntime
from repro.net.metrics import NetworkMetrics, payload_field_elements, payload_tag
from repro.net.adversary import (
    Adversary,
    crash_program,
    echo_noise_program,
    silent_program,
)

__all__ = [
    "ALL",
    "Send",
    "SynchronousNetwork",
    "broadcast",
    "multicast",
    "unicast",
    "Transport",
    "ProtocolViolation",
    "Scheduler",
    "LockstepScheduler",
    "PermutedDeliveryScheduler",
    "RandomOrderScheduler",
    "FaultPlane",
    "Wait",
    "AnyWait",
    "Guarded",
    "guarded",
    "wait_any",
    "RuntimeBase",
    "AsyncRuntime",
    "RuntimeExhausted",
    "NetworkMetrics",
    "payload_field_elements",
    "payload_tag",
    "Adversary",
    "silent_program",
    "crash_program",
    "echo_noise_program",
]
