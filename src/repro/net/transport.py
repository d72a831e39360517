"""Transport layer: channel primitives and message expansion.

The bottom layer of the protocol runtime (see DESIGN.md, "Runtime
architecture").  A transport knows *what channels exist* — private
unicast, multicast fan-out, and (optionally) an ideal broadcast channel —
and turns a program's :class:`Send` instructions into concrete
``(dst, payload)`` deliveries, metering each one and (optionally)
round-tripping payloads through the binary wire codec.

One flag covers the paper's two models: ``allow_broadcast=True`` is
private channels *plus* the ideal broadcast channel the Section 3
protocols assume; ``allow_broadcast=False`` is point-to-point only, the
Section 4 model ("every time a player needs to announce a message,
(s)he can only distribute it to each of the other players
individually"), and a ``broadcast`` send raises
:class:`ProtocolViolation`.

Delivery *timing* is not a transport concern — that is the scheduler
layer (:mod:`repro.net.scheduler`); message loss/delay is the fault
plane (:mod:`repro.net.faults`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

from repro.net.metrics import NetworkMetrics, payload_field_elements

#: destination sentinel: deliver to every player (n unicasts)
ALL = 0

Payload = Any
#: one concrete delivery produced by a transport: (dst, payload)
Delivery = Tuple[int, Payload]


@dataclass(frozen=True)
class Send:
    """One outgoing message: ``dst`` is a player id (1-based) or :data:`ALL`."""

    dst: int
    payload: Payload
    broadcast: bool = False


def unicast(dst: int, payload: Payload) -> Send:
    """Point-to-point message over a private channel."""
    return Send(dst, payload)


def multicast(payload: Payload) -> Send:
    """The same payload to every player as n point-to-point messages.

    This is the Section 4 substitute for broadcast: "every time a player
    needs to announce a message, (s)he can only distribute it to each of
    the other players individually."
    """
    return Send(ALL, payload)


def broadcast(payload: Payload) -> Send:
    """One use of the ideal broadcast channel (Section 3 model only)."""
    return Send(ALL, payload, broadcast=True)


class ProtocolViolation(Exception):
    """A program mis-used the runtime (honest-code bug, not a fault)."""


class Transport:
    """Expands sends into deliveries, metering each one.

    Parameters
    ----------
    n:
        Number of players (ids ``1..n``).
    metrics:
        The :class:`~repro.net.metrics.NetworkMetrics` that tallies every
        message at *send* time.  Fault-plane drops/duplicates happen
        after metering — the tallies count what honest code paid to
        transmit, matching the paper's accounting.
    allow_broadcast:
        Whether the ideal broadcast channel exists on this transport.
    enforce_codec:
        When set, every payload is round-tripped through the binary wire
        codec (:mod:`repro.net.codec`): unencodable payloads raise, and
        ``metrics.wire_bytes`` accumulates the exact wire byte count.
    """

    def __init__(
        self,
        n: int,
        metrics: NetworkMetrics,
        allow_broadcast: bool = True,
        enforce_codec: bool = False,
    ):
        self.n = n
        self.metrics = metrics
        self.allow_broadcast = allow_broadcast
        self.enforce_codec = enforce_codec

    def expand(self, src: int, sends: List[Send]) -> List[Delivery]:
        """Validate and expand a program's sends into (dst, payload)."""
        deliveries: List[Delivery] = []
        for send in sends or []:
            if not isinstance(send, Send):
                raise ProtocolViolation(
                    f"player {src} yielded {type(send).__name__}, expected Send"
                )
            if self.enforce_codec:
                from repro.net import codec

                wire = codec.encode(send.payload)
                # one transmission per receiver for point-to-point fan-out;
                # the ideal broadcast channel is one transmission
                copies = (
                    self.n if (send.dst == ALL and not send.broadcast) else 1
                )
                self.metrics.wire_bytes += copies * len(wire)
                send = Send(send.dst, codec.decode(wire), send.broadcast)
            if send.broadcast:
                if not self.allow_broadcast:
                    raise ProtocolViolation(
                        "broadcast channel not available in this model"
                    )
                if send.dst != ALL:
                    raise ProtocolViolation("broadcast must be addressed to ALL")
                self.metrics.record_broadcast(send.payload)
                payload = send.payload
                deliveries += [(dst, payload) for dst in range(1, self.n + 1)]
            elif send.dst == ALL:
                # size the payload once, not once per recipient
                payload = send.payload
                self.metrics.record_unicast_elements(
                    payload_field_elements(payload), copies=self.n
                )
                deliveries += [(dst, payload) for dst in range(1, self.n + 1)]
            else:
                if not 1 <= send.dst <= self.n:
                    raise ProtocolViolation(f"bad destination {send.dst}")
                self.metrics.record_unicast(send.payload)
                deliveries.append((send.dst, send.payload))
        return deliveries

