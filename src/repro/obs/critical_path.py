"""Critical-path latency attribution over happens-before graphs.

A :class:`~repro.obs.causality.CausalGraph` says *what depends on what*;
this module prices it.  A pluggable :class:`CostModel` assigns

* **compute seconds** to each step from its recorded
  :class:`~repro.fields.base.OpCounter` delta (per-op weights), and
* **latency seconds** to each message edge (base + per-element cost,
  scaled per link and per player — the straggler knob),

then a longest-path dynamic program over the DAG yields, per run, the
**makespan**, the **critical path** (the chain of steps and messages
that actually bounds completion), a per-phase attribution of where that
chain spends its time, and per-coin **exposure latencies** (when the
last receiver finishes consuming an ``expose/<coin>`` share).

The model is *asynchronous dataflow over the recorded dependencies*: a
step starts when its slowest input arrives, not when a global round
barrier fires.  That is deliberately not the synchronous simulator's
timing — it answers "how fast could this run have gone on real links?",
the latency axis RandSolomon-style beacon comparisons use.  Under the
default model (zero op weights, unit latency, homogeneous links) a run's
makespan equals its structural depth, which fault-free equals the
:func:`repro.analysis.rounds.predicted_rounds` formula.

:func:`what_if` re-prices the same graph under a perturbed model
(``model.with_straggler(player, scale)``) and reports which coins'
exposure latencies move, and by how much — no re-execution needed.

:func:`ops_from_recorder` bridges a :class:`~repro.obs.spans.SpanRecorder`
into the per-step op table: protocol spans in start order map onto run
numbers 1..K (each runner wraps exactly one ``network.run``), and each
player-step span's op delta lands on its ``(run, round, player)`` node.

Off the coin path (docs/CENSUS.md, class ii); run by CI's `repro
critpath --what-if ... --op-profile --assert-depth`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.causality import CausalGraph, MessageEdge
from repro.protocols.coin_expose import exposed_coin_id

#: the op-delta attribute names player-step spans carry
OP_KEYS = ("adds", "muls", "invs", "interpolations")

StepOps = Dict[Tuple[int, int, int], Dict[str, int]]


@dataclass(frozen=True)
class CostModel:
    """Prices steps and message edges of a causal graph.

    All weights default to the *structural* model: compute is free and
    every link costs one unit, so makespan = DAG depth.  Real profiles
    plug in per-op seconds (from microbenchmarks) and per-link
    latencies; ``player_link_scale`` models heterogeneous/straggler
    players (every link touching the player is scaled; a player's
    message to itself is local and never scaled).
    """

    add: float = 0.0
    mul: float = 0.0
    inv: float = 0.0
    interpolation: float = 0.0
    #: seconds per message edge before scaling
    base_latency: float = 1.0
    #: extra seconds per field element carried
    per_element_latency: float = 0.0
    #: per-link overrides: (src, dst) -> multiplier
    link_scale: Dict[Tuple[int, int], float] = dataclass_field(
        default_factory=dict
    )
    #: per-player link multiplier (applied to every non-self link the
    #: player touches, as sender or receiver)
    player_link_scale: Dict[int, float] = dataclass_field(
        default_factory=dict
    )
    #: per-player compute multiplier (slow CPU)
    player_compute_scale: Dict[int, float] = dataclass_field(
        default_factory=dict
    )

    def latency(self, edge: MessageEdge) -> float:
        seconds = self.base_latency + self.per_element_latency * edge.elements
        seconds *= self.link_scale.get((edge.src, edge.dst), 1.0)
        if edge.src != edge.dst:
            seconds *= self.player_link_scale.get(edge.src, 1.0)
            seconds *= self.player_link_scale.get(edge.dst, 1.0)
        return seconds

    def compute_seconds(self, player: int,
                        ops: Optional[Dict[str, int]]) -> float:
        if not ops:
            return 0.0
        seconds = (
            self.add * ops.get("adds", 0)
            + self.mul * ops.get("muls", 0)
            + self.inv * ops.get("invs", 0)
            + self.interpolation * ops.get("interpolations", 0)
        )
        return seconds * self.player_compute_scale.get(player, 1.0)

    def with_straggler(self, player: int, scale: float) -> "CostModel":
        """A copy where every link touching ``player`` is ``scale``×
        slower (on top of any existing per-player scaling)."""
        link_scale = dict(self.player_link_scale)
        link_scale[player] = link_scale.get(player, 1.0) * scale
        return CostModel(
            add=self.add, mul=self.mul, inv=self.inv,
            interpolation=self.interpolation,
            base_latency=self.base_latency,
            per_element_latency=self.per_element_latency,
            link_scale=dict(self.link_scale),
            player_link_scale=link_scale,
            player_compute_scale=dict(self.player_compute_scale),
        )


@dataclass(frozen=True)
class PathStep:
    """One node of a critical path, with the dependency that bound it."""

    run: int
    round: int
    player: int
    start: float
    finish: float
    #: the message edge whose arrival set ``start`` (None when the
    #: player's own previous step, or the run start, did)
    via: Optional[MessageEdge]

    @property
    def phase(self) -> str:
        return self.via.phase if self.via is not None else "other"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run": self.run, "round": self.round, "player": self.player,
            "start": self.start, "finish": self.finish,
            "via": self.via.to_dict() if self.via is not None else None,
        }


@dataclass
class RunPath:
    """Critical-path analysis of one protocol run."""

    run: int
    #: structural depth (longest message-edge chain)
    depth: int
    #: absolute time the run's first step may begin
    start: float
    #: absolute time the run's slowest chain finishes
    makespan: float
    #: the bounding chain, earliest step first
    path: List[PathStep] = dataclass_field(default_factory=list)
    #: seconds of the critical path attributed per pipeline phase
    phase_seconds: Dict[str, float] = dataclass_field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        return self.makespan - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run": self.run, "depth": self.depth, "start": self.start,
            "makespan": self.makespan, "elapsed": self.elapsed,
            "phase_seconds": dict(self.phase_seconds),
            "path": [step.to_dict() for step in self.path],
        }


@dataclass
class CriticalPathResult:
    """Full analysis of a causal graph under one cost model."""

    runs: List[RunPath] = dataclass_field(default_factory=list)
    #: (run, coin_id) -> absolute finish time of the last receiver's
    #: consuming step for that coin's expose shares
    coin_exposures: Dict[Tuple[int, str], float] = dataclass_field(
        default_factory=dict
    )

    @property
    def makespan(self) -> float:
        return max((run.makespan for run in self.runs), default=0.0)

    def phase_attribution(self) -> Dict[str, float]:
        """Critical-path seconds per phase, aggregated over runs."""
        totals: Dict[str, float] = {}
        for run in self.runs:
            for phase, seconds in run.phase_seconds.items():
                totals[phase] = totals.get(phase, 0.0) + seconds
        return totals

    def to_dict(self) -> Dict[str, Any]:
        return {
            "makespan": self.makespan,
            "runs": [run.to_dict() for run in self.runs],
            "phase_attribution": self.phase_attribution(),
            "coin_exposures": {
                f"run{run}:{coin}": latency
                for (run, coin), latency in sorted(self.coin_exposures.items())
            },
        }

    def table(self) -> str:
        """Fixed-width summary for the CLI."""
        lines = [
            f"{'run':>4} {'depth':>6} {'elapsed':>9} {'makespan':>9}  "
            "slowest chain (phase: seconds)"
        ]
        lines.append("-" * len(lines[0]))
        for run in self.runs:
            attribution = ", ".join(
                f"{phase}: {seconds:.3f}"
                for phase, seconds in sorted(
                    run.phase_seconds.items(),
                    key=lambda item: -item[1],
                )
                if seconds > 0
            ) or "-"
            lines.append(
                f"{run.run:>4} {run.depth:>6} {run.elapsed:>9.3f} "
                f"{run.makespan:>9.3f}  {attribution}"
            )
        if self.coin_exposures:
            lines.append("")
            lines.append(f"{'coin':<24} {'exposure':>10}")
            lines.append("-" * 35)
            for (run, coin), latency in sorted(self.coin_exposures.items()):
                lines.append(f"run{run}:{coin:<20} {latency:>10.3f}")
        return "\n".join(lines)


def _run_critical_path(
    graph: CausalGraph,
    model: CostModel,
    step_ops: StepOps,
    run: int,
    start_time: float,
) -> Tuple[RunPath, Dict[Tuple[int, int], float]]:
    """Longest-path DP over one run; returns the path and finish times.

    ``start(r, p)`` is the later of the player's own previous step
    finishing and the slowest in-edge arriving; ``finish`` adds the
    step's compute seconds.  Backpointers recover the bounding chain.
    """
    edges = graph.edges_in_run(run)
    in_edges = graph.in_edges(run)
    lo = min(edge.send_round for edge in edges)
    hi = max(edge.recv_round for edge in edges)
    players = range(1, graph.n + 1)
    # step_ops rounds are run-local (a recorder's round spans restart at
    # 1 per network.run), while graph rounds are the cumulative metrics
    # numbering; the run's first message round is its local round 1
    ops_offset = lo - 1

    finish: Dict[Tuple[int, int], float] = {}
    back: Dict[Tuple[int, int], Tuple[str, Any]] = {}
    for round_no in range(lo, hi + 1):
        for player in players:
            node = (round_no, player)
            if round_no == lo:
                start, via = start_time, ("start", None)
            else:
                start, via = finish[(round_no - 1, player)], ("local", None)
            for edge in in_edges.get(node, ()):
                arrival = (
                    finish.get((edge.send_round, edge.src), start_time)
                    + model.latency(edge)
                )
                if arrival > start:
                    start, via = arrival, ("edge", edge)
            compute = model.compute_seconds(
                player, step_ops.get((run, round_no - ops_offset, player))
            )
            finish[node] = start + compute
            back[node] = via

    tail = max(finish, key=lambda node: (finish[node], node))
    makespan = finish[tail]

    path: List[PathStep] = []
    phase_seconds: Dict[str, float] = {}
    node: Optional[Tuple[int, int]] = tail
    while node is not None:
        round_no, player = node
        kind, edge = back[node]
        via = edge if kind == "edge" else None
        if kind == "edge":
            start = finish[(edge.send_round, edge.src)] + model.latency(edge)
        elif kind == "local":
            start = finish[(round_no - 1, player)]
        else:
            start = start_time
        step = PathStep(run=run, round=round_no, player=player,
                       start=start, finish=finish[node], via=via)
        path.append(step)
        compute_phase = via.phase if via is not None else "other"
        compute = finish[node] - start
        if compute > 0:
            phase_seconds[compute_phase] = (
                phase_seconds.get(compute_phase, 0.0) + compute
            )
        if kind == "edge":
            latency = model.latency(edge)
            if latency > 0:
                phase_seconds[edge.phase] = (
                    phase_seconds.get(edge.phase, 0.0) + latency
                )
            node = (edge.send_round, edge.src)
        elif kind == "local":
            node = (round_no - 1, player)
        else:
            node = None
    path.reverse()

    run_path = RunPath(run=run, depth=graph.depth(run), start=start_time,
                       makespan=makespan, path=path,
                       phase_seconds=phase_seconds)
    return run_path, finish


def critical_path(
    graph: CausalGraph,
    model: Optional[CostModel] = None,
    step_ops: Optional[StepOps] = None,
    run: Optional[int] = None,
) -> CriticalPathResult:
    """Price ``graph`` under ``model`` and extract the bounding chains.

    Runs are chained sequentially (run k+1 starts at run k's makespan),
    matching how the runners execute.  ``step_ops`` maps
    ``(run, round, player)`` — with *run-local* 1-based rounds — to an
    op-delta dict (see :func:`ops_from_recorder`); missing steps cost
    zero compute.  ``run`` restricts the analysis to one run.
    """
    model = model if model is not None else CostModel()
    step_ops = step_ops or {}
    result = CriticalPathResult()
    clock = 0.0
    runs = graph.runs() if run is None else [run]
    for run_no in runs:
        if not graph.edges_in_run(run_no):
            continue
        run_path, finish = _run_critical_path(
            graph, model, step_ops, run_no, clock
        )
        result.runs.append(run_path)
        clock = run_path.makespan
        for edge in graph.edges_in_run(run_no):
            coin = exposed_coin_id(edge.tag)
            if coin is None:
                continue
            consumed = finish.get((edge.recv_round, edge.dst), 0.0)
            key = (run_no, coin)
            if consumed > result.coin_exposures.get(key, 0.0):
                result.coin_exposures[key] = consumed
    return result


@dataclass(frozen=True)
class OpProfileRow:
    """Critical-path contribution of one (phase, op-kind) pair."""

    phase: str
    op: str
    count: int
    seconds: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "phase": self.phase, "op": self.op,
            "count": self.count, "seconds": self.seconds,
        }


def op_profile(
    graph: CausalGraph,
    model: Optional[CostModel] = None,
    step_ops: Optional[StepOps] = None,
    run: Optional[int] = None,
) -> List[OpProfileRow]:
    """Rank (phase, op) pairs by their critical-path contribution.

    Walks the bounding chain of every run and attributes each on-path
    step's recorded op counts to the phase of the dependency that bound
    the step — i.e. only work that actually delays completion is
    counted, which is what makes this the vectorization target list
    rather than a flat op histogram.  Rows are ordered by priced seconds
    when the model carries nonzero op weights, by raw counts under the
    structural (free-compute) model.
    """
    model = model if model is not None else CostModel()
    step_ops = step_ops or {}
    result = critical_path(graph, model, step_ops, run)
    weights = {
        "adds": model.add,
        "muls": model.mul,
        "invs": model.inv,
        "interpolations": model.interpolation,
    }
    counts: Dict[Tuple[str, str], int] = {}
    seconds: Dict[Tuple[str, str], float] = {}
    for run_path in result.runs:
        edges = graph.edges_in_run(run_path.run)
        ops_offset = min(edge.send_round for edge in edges) - 1
        for step in run_path.path:
            ops = step_ops.get(
                (run_path.run, step.round - ops_offset, step.player)
            )
            if not ops:
                continue
            scale = model.player_compute_scale.get(step.player, 1.0)
            for key in OP_KEYS:
                count = ops.get(key, 0)
                if not count:
                    continue
                pair = (step.phase, key)
                counts[pair] = counts.get(pair, 0) + count
                seconds[pair] = (
                    seconds.get(pair, 0.0) + weights[key] * count * scale
                )
    priced = any(weight > 0 for weight in weights.values())
    rows = [
        OpProfileRow(phase=phase, op=op, count=counts[(phase, op)],
                     seconds=seconds[(phase, op)])
        for phase, op in counts
    ]
    rows.sort(
        key=lambda row: (
            -(row.seconds if priced else row.count), row.phase, row.op
        )
    )
    return rows


def op_profile_table(rows: List[OpProfileRow]) -> str:
    """Fixed-width rendering of :func:`op_profile` for the CLI."""
    header = f"{'phase':<16} {'op':<16} {'count':>12} {'seconds':>12}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.phase:<16} {row.op:<16} {row.count:>12} "
            f"{row.seconds:>12.6f}"
        )
    if not rows:
        lines.append("(no on-path op deltas recorded)")
    return "\n".join(lines)


@dataclass
class WhatIf:
    """A straggler counterfactual: same graph, perturbed cost model."""

    player: int
    scale: float
    base: CriticalPathResult
    perturbed: CriticalPathResult

    @property
    def makespan_delta(self) -> float:
        return self.perturbed.makespan - self.base.makespan

    def exposure_deltas(self) -> Dict[Tuple[int, str], Tuple[float, float]]:
        """``{(run, coin): (before, after)}`` for every exposed coin."""
        out: Dict[Tuple[int, str], Tuple[float, float]] = {}
        for key in sorted(set(self.base.coin_exposures)
                          | set(self.perturbed.coin_exposures)):
            out[key] = (
                self.base.coin_exposures.get(key, 0.0),
                self.perturbed.coin_exposures.get(key, 0.0),
            )
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "player": self.player,
            "scale": self.scale,
            "makespan_before": self.base.makespan,
            "makespan_after": self.perturbed.makespan,
            "makespan_delta": self.makespan_delta,
            "exposures": {
                f"run{run}:{coin}": {
                    "before": before, "after": after,
                    "delta": after - before,
                }
                for (run, coin), (before, after)
                in self.exposure_deltas().items()
            },
        }

    def table(self) -> str:
        lines = [
            f"what-if: player {self.player} links x{self.scale:g} — "
            f"makespan {self.base.makespan:.3f} -> "
            f"{self.perturbed.makespan:.3f} "
            f"({self.makespan_delta:+.3f})"
        ]
        deltas = self.exposure_deltas()
        if deltas:
            header = (f"{'coin':<24} {'before':>10} {'after':>10} "
                      f"{'delta':>10}")
            lines.append(header)
            lines.append("-" * len(header))
            for (run, coin), (before, after) in deltas.items():
                lines.append(
                    f"run{run}:{coin:<20} {before:>10.3f} {after:>10.3f} "
                    f"{after - before:>+10.3f}"
                )
        return "\n".join(lines)


def what_if(
    graph: CausalGraph,
    model: Optional[CostModel] = None,
    player: int = 1,
    scale: float = 10.0,
    step_ops: Optional[StepOps] = None,
) -> WhatIf:
    """Re-price the graph with ``player``'s links ``scale``× slower."""
    model = model if model is not None else CostModel()
    return WhatIf(
        player=player,
        scale=scale,
        base=critical_path(graph, model, step_ops),
        perturbed=critical_path(
            graph, model.with_straggler(player, scale), step_ops
        ),
    )


def ops_from_recorder(recorder) -> Tuple[StepOps, Dict[int, str]]:
    """Per-step op deltas out of a :class:`~repro.obs.spans.SpanRecorder`.

    Protocol spans in start order map to run numbers 1..K — valid
    because every shipped runner wraps exactly one ``network.run()``
    call per protocol span, and the runtime opens one run of the flight
    log per call.  Returns ``(step_ops, run_labels)`` where
    ``run_labels`` names each run after its protocol span.
    """
    step_ops: StepOps = {}
    labels: Dict[int, str] = {}
    protocols = sorted(recorder.by_kind("protocol"), key=lambda s: s.t0)
    for run_no, protocol in enumerate(protocols, start=1):
        labels[run_no] = protocol.name
        for round_span in recorder.children(protocol):
            if round_span.kind != "round":
                continue
            for step in recorder.children(round_span):
                if step.kind != "player":
                    continue
                player = step.attrs.get("player")
                round_no = step.attrs.get("round")
                if player is None or round_no is None:
                    continue
                ops = step_ops.setdefault(
                    (run_no, round_no, player),
                    {key: 0 for key in OP_KEYS},
                )
                for key in OP_KEYS:
                    ops[key] += step.attrs.get(key, 0)
    return step_ops, labels
