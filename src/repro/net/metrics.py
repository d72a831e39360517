"""Metering of communication and computation.

The paper states costs in three units: messages, bits (message size in
multiples of the security parameter ``k``), and field additions /
interpolations per player.  This module tallies all of them.

Bit accounting
--------------
A payload's size is ``k`` bits per field element it carries.  Payloads are
arbitrary nested tuples/lists/dicts; every ``int`` inside counts as one
field element (protocol tags are strings and count as free O(1) headers,
matching the paper's convention of measuring only the k-sized data).
This is exact for the int-element fields (GF(2^k), Z_p) that every metered
benchmark uses.

Broadcast accounting follows the paper: one use of the (assumed) broadcast
channel is one message of its size (Lemma 2 counts a round where every
player broadcasts as "n messages each of size k").  Physical unicast
fan-out is tallied separately so both accountings are available.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict

from repro.fields.base import OpCounter


def payload_tag(payload: Any) -> str:
    """A payload's tag, as every tally, guard and recorder names it.

    Conventional ``(tag, body)`` payloads are tagged by their string
    tag; dataclass payloads (e.g. structured adversary probes) by their
    class name; anything else by ``"?"``.
    """
    if isinstance(payload, tuple) and payload and isinstance(payload[0], str):
        return payload[0]
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        return type(payload).__name__
    return "?"


def payload_field_elements(payload: Any) -> int:
    """Number of field elements (ints) carried by a payload.

    An explicit-stack walk rather than recursion: payload accounting
    runs once per simulated message, which profiling showed dominated
    coin_gen wall-clock, so the common shapes — ints, strings, and flat
    tuples of ints (share vectors) — are dispatched on exact types
    before the general traversal.
    """
    total = 0
    stack = [payload]
    while stack:
        item = stack.pop()
        tp = type(item)
        if tp is int:
            total += 1
        elif tp is tuple or tp is list:
            for sub in item:
                sub_tp = type(sub)
                if sub_tp is int:
                    total += 1
                elif sub_tp is not str:
                    stack.append(sub)
        elif tp is str or tp is bytes or item is None:
            pass
        elif tp is bool or isinstance(item, bool):
            pass
        elif isinstance(item, int):
            total += 1
        elif isinstance(item, (str, bytes)):
            pass
        elif isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (tuple, list, set, frozenset)):
            stack.extend(item)
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            # explicit field walk: ``__slots__`` dataclasses have no
            # ``__dict__``, so the vars() fallback below would count them
            # as empty and under-report bits
            stack.extend(
                getattr(item, f.name) for f in dataclasses.fields(item)
            )
        elif hasattr(item, "__dict__"):
            stack.append(vars(item))
    return total


@dataclass
class NetworkMetrics:
    """Tallies for one protocol execution."""

    #: bits per field element (the security parameter k)
    element_bits: int = 1
    rounds: int = 0
    #: point-to-point messages (a multicast to n players counts n)
    unicast_messages: int = 0
    #: uses of the ideal broadcast channel (each counts once, per the paper)
    broadcast_messages: int = 0
    #: total bits under the paper's accounting
    bits: int = 0
    #: per-player field-operation counters (player id -> OpCounter)
    player_ops: Dict[int, OpCounter] = dataclass_field(default_factory=dict)
    #: exact bytes of the binary wire codec, one transmission per
    #: receiver; tallied only by an ``enforce_codec`` transport
    wire_bytes: int = 0

    def record_unicast(self, payload: Any) -> None:
        self.unicast_messages += 1
        self.bits += self.element_bits * payload_field_elements(payload)

    def record_unicast_elements(self, elements: int, copies: int = 1) -> None:
        """Record ``copies`` unicasts of a payload already measured at
        ``elements`` field elements — multicast fan-out sizes the payload
        once instead of re-walking it per recipient."""
        self.unicast_messages += copies
        self.bits += self.element_bits * elements * copies

    def record_broadcast(self, payload: Any) -> None:
        self.broadcast_messages += 1
        self.bits += self.element_bits * payload_field_elements(payload)

    def add_player_ops(self, player_id: int, delta: OpCounter) -> None:
        current = self.player_ops.get(player_id)
        if current is None:
            current = self.player_ops[player_id] = OpCounter()
        current.adds += delta.adds
        current.muls += delta.muls
        current.invs += delta.invs
        current.interpolations += delta.interpolations

    # -- summaries -----------------------------------------------------------
    @property
    def paper_messages(self) -> int:
        """Messages under the paper's accounting (broadcast = 1 message)."""
        return self.unicast_messages + self.broadcast_messages

    def ops(self, player_id: int) -> OpCounter:
        """Operation counter for one player (zeros if it never computed)."""
        return self.player_ops.get(player_id, OpCounter())

    def max_player_ops(self) -> OpCounter:
        """The busiest player's counter — the paper's "per player" cost.

        Ordered by total work across *all* op kinds: a player whose load
        is dominated by inversions or interpolations (each worth many
        additions, see :meth:`OpCounter.total_additions`) must not be
        reported as idle just because its add/mul tally is smaller.
        """
        best = OpCounter()
        for counter in self.player_ops.values():
            if (
                counter.adds + counter.muls
                + counter.invs + counter.interpolations
                >= best.adds + best.muls + best.invs + best.interpolations
            ):
                best = counter
        return best

    def total_ops(self) -> OpCounter:
        total = OpCounter()
        for counter in self.player_ops.values():
            total = total + counter
        return total

    def merged_from(self, other: "NetworkMetrics") -> None:
        """Accumulate another run's tallies into this one."""
        self.rounds += other.rounds
        self.unicast_messages += other.unicast_messages
        self.broadcast_messages += other.broadcast_messages
        self.bits += other.bits
        self.wire_bytes += other.wire_bytes
        for pid, counter in other.player_ops.items():
            self.add_player_ops(pid, counter)

    def summary(self) -> Dict[str, int]:
        busiest = self.max_player_ops()
        return {
            "rounds": self.rounds,
            "messages": self.paper_messages,
            "unicast_messages": self.unicast_messages,
            "broadcast_messages": self.broadcast_messages,
            "bits": self.bits,
            "max_player_adds": busiest.adds,
            "max_player_muls": busiest.muls,
            "max_player_interpolations": busiest.interpolations,
        }
