"""Happens-before graphs: per-message provenance for protocol runs.

The runtime's synchronous round loop induces a causal order: player
``p``'s step in round ``r`` consumes the deliveries that settled in
round ``r-1`` and produces the messages that (fault-free) settle in
round ``r`` and are consumed in round ``r+1``.  This module materializes
that order as a DAG over *step nodes* ``(run, round, player)``:

* an implicit **local edge** links each player's consecutive steps
  ``(r, p) -> (r+1, p)`` (program state carries forward);
* an explicit :class:`MessageEdge` links the producing step to the
  consuming step for every delivered message, annotated with the wire
  tag, field-element payload size, channel kind, and — crucially — the
  *true origin round* even when the fault plane delayed delivery.

Two capture paths produce the same graph:

* **live** — :class:`CausalRecorder`, an EventBus subscriber pairing the
  pre-fault ``"sent"`` stream (published by the runtime only while this
  topic has subscribers — zero cost otherwise) with the settled
  ``"round"`` stream.  Emissions that never settle become
  :class:`DroppedEmission` records; deliveries whose origin round the
  fault plane moved keep their send round (``edge.delayed`` is True).
* **offline** — :func:`graph_from_log` rebuilds the DAG from a recorded
  :class:`~repro.obs.flight.FlightLog`.  A flight log only knows what
  *arrived*, so delayed messages fall back to ``send_round =
  settle round`` and channel kinds are unknown; for runs without delay
  faults the offline graph equals the live one (asserted by the
  property tests in ``tests/test_causality.py``).

Graph equality (``==``) compares the *canonical* form — the sorted
message-edge keys without channel annotations — so a live graph and its
offline reconstruction compare equal whenever they describe the same
causal structure.

The structural **depth** of a run — the longest chain of message edges —
is the number of message-carrying rounds, which fault-free equals the
:func:`repro.analysis.rounds.predicted_rounds` formula for the protocol
(the trailing drain round is empty and adds no depth).

Off the coin path (docs/CENSUS.md, class ii); run by CI's `repro
critpath` and `repro replay --causal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Optional, Tuple

from repro.net import codec
from repro.net.metrics import payload_field_elements
from repro.net.metrics import payload_tag
from repro.obs.bus import ROUND, RUN, SENT, EventBus, RunCounter
from repro.obs.phases import classify_tag


@dataclass(frozen=True)
class MessageEdge:
    """One delivered message: producing step -> consuming step.

    ``send_round`` is the round whose step *emitted* the message (the
    true origin, pre-fault); ``recv_round`` is the round whose step
    *consumes* it — one past the round the delivery settled in.
    """

    run: int
    send_round: int
    recv_round: int
    src: int
    dst: int
    tag: str
    elements: int
    channel: str = "?"  #: unicast / multicast / broadcast / "?" (unknown)

    @property
    def phase(self) -> str:
        """The pipeline phase of this message's tag."""
        return classify_tag(self.tag)

    @property
    def delayed(self) -> bool:
        """True when the fault plane moved delivery past the next round."""
        return self.recv_round > self.send_round + 1

    def key(self) -> Tuple:
        """Canonical identity — excludes the channel annotation, which
        only live capture knows."""
        return (self.run, self.send_round, self.recv_round,
                self.src, self.dst, self.tag, self.elements)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run": self.run, "send_round": self.send_round,
            "recv_round": self.recv_round, "src": self.src,
            "dst": self.dst, "tag": self.tag, "phase": self.phase,
            "elements": self.elements, "channel": self.channel,
            "delayed": self.delayed,
        }


@dataclass(frozen=True)
class DroppedEmission:
    """An emission that never settled (fault-plane drop, or a delay
    still pending when its run ended)."""

    run: int
    send_round: int
    src: int
    dst: int
    tag: str
    channel: str = "?"


@dataclass
class CausalGraph:
    """The happens-before DAG of one or more protocol runs."""

    n: int
    edges: List[MessageEdge] = dataclass_field(default_factory=list)
    dropped: List[DroppedEmission] = dataclass_field(default_factory=list)

    # -- construction -------------------------------------------------------
    def add(self, edge: MessageEdge) -> None:
        self.edges.append(edge)

    @classmethod
    def from_flight_log(cls, log) -> "CausalGraph":
        """Rebuild the DAG from a :class:`~repro.obs.flight.FlightLog`.

        The log records settled rounds only, so every edge's send round
        is its settle round (delayed messages lose their true origin)
        and channel kinds are unknown.  For runs without delay faults
        this equals the live-captured graph.
        """
        graph = cls(n=log.n)
        for event in log.rounds:
            for dst, src, payload in event.deliveries:
                graph.add(MessageEdge(
                    run=event.run, send_round=event.round,
                    recv_round=event.round + 1, src=src, dst=dst,
                    tag=payload_tag(payload),
                    elements=payload_field_elements(payload),
                ))
        return graph

    # -- views --------------------------------------------------------------
    def runs(self) -> List[int]:
        return sorted({edge.run for edge in self.edges})

    def edges_in_run(self, run: int) -> List[MessageEdge]:
        return [edge for edge in self.edges if edge.run == run]

    def in_edges(self, run: int) -> Dict[Tuple[int, int], List[MessageEdge]]:
        """``{(recv_round, dst): [edges]}`` for one run."""
        index: Dict[Tuple[int, int], List[MessageEdge]] = {}
        for edge in self.edges_in_run(run):
            index.setdefault((edge.recv_round, edge.dst), []).append(edge)
        return index

    def last_round(self, run: int) -> int:
        """The last step round of a run (the consuming round of its
        latest message — the runtime's trailing drain round)."""
        return max((edge.recv_round for edge in self.edges_in_run(run)),
                   default=0)

    def depth(self, run: Optional[int] = None) -> int:
        """Longest chain of message edges (the structural round depth).

        With ``run=None``, the maximum over all runs.  Fault-free this
        equals the :func:`repro.analysis.rounds.predicted_rounds`
        formula for the protocol that produced the run.
        """
        if run is None:
            return max((self.depth(r) for r in self.runs()), default=0)
        edges = sorted(self.edges_in_run(run),
                       key=lambda edge: edge.recv_round)
        # best[player][round] = longest edge-chain ending at that step
        best: Dict[int, Dict[int, int]] = {}
        deepest = 0
        for edge in edges:
            tail = max(
                (length
                 for round_no, length in best.get(edge.src, {}).items()
                 if round_no <= edge.send_round),
                default=0,
            )
            chain = tail + 1
            head = best.setdefault(edge.dst, {})
            if chain > head.get(edge.recv_round, 0):
                head[edge.recv_round] = chain
            deepest = max(deepest, chain)
        return deepest

    def depths(self) -> Dict[int, int]:
        return {run: self.depth(run) for run in self.runs()}

    # -- canonical form ------------------------------------------------------
    def canonical(self) -> Tuple:
        """Channel-free identity: what both capture paths must agree on."""
        return (self.n, tuple(sorted(edge.key() for edge in self.edges)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CausalGraph):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:  # pragma: no cover - dict use only
        return hash(self.canonical())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n": self.n,
            "runs": self.runs(),
            "depths": {str(run): depth
                       for run, depth in self.depths().items()},
            "edges": [edge.to_dict() for edge in self.edges],
            "dropped": [
                {"run": d.run, "send_round": d.send_round, "src": d.src,
                 "dst": d.dst, "tag": d.tag, "channel": d.channel}
                for d in self.dropped
            ],
        }


def graph_from_log(log) -> CausalGraph:
    """Offline reconstruction: :class:`CausalGraph` from a flight log."""
    return CausalGraph.from_flight_log(log)


class CausalRecorder:
    """Live happens-before capture as an EventBus subscriber.

    Subscribes to ``"run"``, ``"sent"``, and ``"round"``.  Because the
    runtime publishes ``"sent"`` only while that topic has subscribers,
    attaching this recorder is what *turns on* provenance capture — and
    a run without one attached is byte-identical to an unmonitored run
    (asserted in ``tests/test_causality.py``).

    Emission/arrival pairing is by ``(src, dst, wire_bytes)``: an
    arrival prefers an emission from its own settle round, falls back to
    the *earliest* pending emission (a fault-plane delay), and — when no
    emission matches (e.g. a fault-plane duplicate's second copy) —
    records the settle round as the origin, which is exactly what the
    offline reconstruction does.
    """

    def __init__(self, n: int):
        self.n = n
        self._edges: List[MessageEdge] = []
        self._dropped: List[DroppedEmission] = []
        #: (src, dst, wire) -> [(send_round, channel, tag, elements)]
        self._pending: Dict[Tuple[int, int, str], List[Tuple]] = {}
        self._runs = RunCounter()

    # -- bus wiring ---------------------------------------------------------
    def attach(self, bus: EventBus) -> "CausalRecorder":
        bus.subscribe(RUN, self.on_run)
        bus.subscribe(SENT, self.on_sent)
        bus.subscribe(ROUND, self.on_round)
        return self

    # -- run delimiting (the FlightRecorder's RunCounter, same events) -------
    def on_run(self, n: int) -> None:
        self._flush_pending(self._runs.run)
        self._runs.mark()

    def _observe(self, round_no: int, settles: bool = False) -> None:
        if self._runs.observe(round_no, settles):
            # stream without markers: the previous run just ended
            self._flush_pending(self._runs.run - 1)

    def _flush_pending(self, run: int) -> None:
        """Emissions still unmatched when ``run`` ends were never
        delivered — record them as dropped."""
        for (src, dst, _wire), entries in sorted(self._pending.items()):
            for send_round, channel, tag, _elements in entries:
                self._dropped.append(DroppedEmission(
                    run=max(run, 1), send_round=send_round,
                    src=src, dst=dst, tag=tag, channel=channel,
                ))
        self._pending.clear()

    # -- topic handlers -----------------------------------------------------
    def on_sent(self, round_no: int, emissions) -> None:
        self._observe(round_no)
        for dst, src, payload, channel in emissions:
            self._pending.setdefault(
                (src, dst, codec.wire_key(payload)), []
            ).append((round_no, channel, payload_tag(payload),
                      payload_field_elements(payload)))

    def on_round(self, round_no: int, deliveries) -> None:
        self._observe(round_no, settles=True)
        run = self._runs.run
        for dst, src, payload in deliveries:
            key = (src, dst, codec.wire_key(payload))
            entries = self._pending.get(key)
            entry = None
            if entries:
                # prefer the emission from this very round; otherwise
                # the earliest pending one (a delayed delivery)
                for index, candidate in enumerate(entries):
                    if candidate[0] == round_no:
                        entry = entries.pop(index)
                        break
                else:
                    entry = entries.pop(0)
                if not entries:
                    del self._pending[key]
            if entry is not None:
                send_round, channel, tag, elements = entry
            else:
                # no matching emission (e.g. a duplicate's extra copy):
                # fall back to the settle round, like offline replay
                send_round, channel = round_no, "?"
                tag = payload_tag(payload)
                elements = payload_field_elements(payload)
            self._edges.append(MessageEdge(
                run=run, send_round=send_round, recv_round=round_no + 1,
                src=src, dst=dst, tag=tag, elements=elements,
                channel=channel,
            ))

    # -- output -------------------------------------------------------------
    def graph(self) -> CausalGraph:
        """The captured DAG; pending emissions flush to ``dropped``."""
        self._flush_pending(self._runs.run)
        return CausalGraph(n=self.n, edges=list(self._edges),
                           dropped=list(self._dropped))
