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
  tag and field-element payload size.

:func:`graph_from_log` is the one constructor: the DAG is a pure
function of a recorded :class:`~repro.obs.flight.FlightLog`, so a run
observed live (``repro trace --runtime async`` keeps an in-memory
:class:`~repro.obs.flight.FlightRecorder`) and a log read
back later (``repro replay --causal``) get the same graph by
construction.  A flight log records what *settled*: a message the fault
plane delayed is attributed to the round it settled in — the log's
``delay`` fault events are the record that it was delayed — and one it
dropped has a ``drop`` fault event and no edge.  On an async log a
"round" is one delivery, so every message is its own logical tick.

The structural **depth** of a run — the longest chain of message edges —
is the number of message-carrying rounds, which fault-free equals the
:func:`repro.analysis.rounds.predicted_rounds` formula for the protocol
(the trailing drain round is empty and adds no depth).

Off the coin path (docs/CENSUS.md, class ii); run by CI's `repro trace
--runtime async --audit` and `repro replay --causal`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Optional, Tuple

from repro.net.metrics import payload_field_elements
from repro.net.metrics import payload_tag
from repro.obs.phases import classify_tag


@dataclass(frozen=True)
class MessageEdge:
    """One delivered message: producing step -> consuming step.

    ``send_round`` is the round the message settled in (the step that
    emitted it, unless the fault plane delayed it); ``recv_round`` is
    the round whose step *consumes* it — one past ``send_round``.
    """

    run: int
    send_round: int
    recv_round: int
    src: int
    dst: int
    tag: str
    elements: int

    @property
    def phase(self) -> str:
        """The pipeline phase of this message's tag."""
        return classify_tag(self.tag)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run": self.run, "send_round": self.send_round,
            "recv_round": self.recv_round, "src": self.src,
            "dst": self.dst, "tag": self.tag, "phase": self.phase,
            "elements": self.elements,
        }


@dataclass
class CausalGraph:
    """The happens-before DAG of one or more protocol runs."""

    n: int
    edges: List[MessageEdge] = dataclass_field(default_factory=list)

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


def graph_from_log(log) -> CausalGraph:
    """The :class:`CausalGraph` of a :class:`~repro.obs.flight.FlightLog`:
    one edge per recorded delivery, from the round it settled in to the
    next."""
    return CausalGraph(n=log.n, edges=[
        MessageEdge(
            run=event.run, send_round=event.round,
            recv_round=event.round + 1, src=src, dst=dst,
            tag=payload_tag(payload),
            elements=payload_field_elements(payload),
        )
        for event in log.rounds
        for dst, src, payload in event.deliveries
    ])
