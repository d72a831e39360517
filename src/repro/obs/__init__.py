"""Observability: span tracing, exporters, and lemma-conformance auditing.

The paper's contribution is a *cost* claim — ``O(n^2 log k)`` additions,
``O(n)`` messages, one interpolation per batch (Lemmas 2/4/6,
Corollary 1).  This package makes those costs observable on live runs:

* :mod:`repro.obs.bus` — a small synchronous event bus the runtime
  publishes round/fault events through; the existing
  :class:`~repro.net.trace.Tracer` and legacy ``observer=`` hooks are
  subscribers, and the :class:`~repro.net.faults.FaultPlane` is a
  publisher;
* :mod:`repro.obs.spans` — nested spans (protocol -> phase -> round ->
  per-player step) carrying wall-clock time, an
  :class:`~repro.fields.base.OpCounter` delta, and message/bit tallies
  snapshotted from :class:`~repro.net.metrics.NetworkMetrics`.  The
  default :data:`NULL_RECORDER` is a no-op, so instrumentation is free
  unless a :class:`SpanRecorder` is attached;
* :mod:`repro.obs.phases` — the tag -> protocol-phase registry (deal /
  clique / gradecast / ba / expose) that protocol modules populate;
* :mod:`repro.obs.export` — JSONL, Chrome trace-event (Perfetto), and
  Prometheus text exporters;
* :mod:`repro.obs.audit` — the lemma-conformance auditor comparing live
  span tallies against :mod:`repro.analysis.complexity` predictions;
* :mod:`repro.obs.flight` — the flight recorder: capture the delivered
  message stream to a versioned JSONL log, :func:`~repro.obs.flight.replay`
  its decode paths offline, :func:`~repro.obs.flight.diff` two logs;
* :mod:`repro.obs.forensics` — replay a flight log through a per-player
  behaviour model and name the misbehaving players, with event-index
  evidence;
* :mod:`repro.obs.health` — gauges/counters/rolling statistics for a
  long-lived :class:`~repro.core.bootstrap.BootstrapCoinSource`;
* :mod:`repro.obs.causality` — per-message provenance as a
  happens-before DAG (:class:`~repro.obs.causality.CausalGraph`),
  captured live by a :class:`~repro.obs.causality.CausalRecorder` or
  rebuilt offline from a flight log;
* :mod:`repro.obs.critical_path` — pluggable
  :class:`~repro.obs.critical_path.CostModel` pricing of a causal
  graph: per-coin exposure latency, slowest-chain phase attribution,
  and straggler :func:`~repro.obs.critical_path.what_if` analysis;
* :mod:`repro.obs.liveness` — the liveness observatory over the
  guard wait-state topics: per-wait quorum latency with pivotal-sender
  attribution (:class:`~repro.obs.liveness.QuorumLatencyRecorder`) and
  an online :class:`~repro.obs.liveness.StallWatchdog` classifying
  stalls as crash-induced vs. unexplained withholding;
* :mod:`repro.obs.manifest` — :class:`~repro.obs.manifest.RunManifest`,
  the provenance stamp (parameters, backend, runtime, environment) with
  a stable semantic fingerprint, attached to exports;
* :mod:`repro.obs.diffing` — cross-run analysis: reduce any recording
  to a per-phase metric table (:class:`~repro.obs.diffing.RunProfile`),
  diff two of them, and price the op deltas into a makespan attribution
  ("clique-phase interpolations account for 78% of the slowdown");
* :mod:`repro.obs.profile` — an opt-in sampling profiler aligned to
  the open span stack (protocol → phase → round frames), with folded
  stacks, flame JSON and Chrome export; byte-identical runs when off.
"""

from repro.obs.bus import EventBus
from repro.obs.spans import (
    NULL_RECORDER,
    NullRecorder,
    Span,
    SpanRecorder,
)
from repro.obs.phases import classify_tag, classify_tags, register_tag_phase
from repro.obs.export import (
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
    waits_to_chrome,
    waits_to_jsonl,
)
from repro.obs.audit import (
    ConformanceReport,
    PhaseCheck,
    RoundsCheck,
    audit_coin_gen,
    audit_liveness,
    audit_recorder,
    audit_rounds,
)
from repro.obs.liveness import (
    QuorumLatencyRecorder,
    Stall,
    StallWatchdog,
    WaitRecord,
    default_threshold,
)
from repro.obs.causality import (
    CausalGraph,
    CausalRecorder,
    MessageEdge,
    graph_from_log,
)
from repro.obs.critical_path import (
    CostModel,
    CriticalPathResult,
    WhatIf,
    critical_path,
    ops_from_recorder,
    what_if,
)
from repro.obs.flight import (
    Divergence,
    FlightLog,
    FlightRecorder,
    diff,
    replay,
)
from repro.obs.forensics import AccusationReport, analyze_log
from repro.obs.health import HealthMonitor
from repro.obs.manifest import RunManifest
from repro.obs.diffing import (
    Attribution,
    DiffRow,
    ProfileDiff,
    RunProfile,
    diff_profiles,
    diff_recordings,
    profile_from_jsonl,
    profile_from_recorder,
)
from repro.obs.profile import Sample, SamplingProfiler

__all__ = [
    "EventBus",
    "Span",
    "SpanRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "classify_tag",
    "classify_tags",
    "register_tag_phase",
    "to_chrome_trace",
    "to_jsonl",
    "to_prometheus",
    "waits_to_chrome",
    "waits_to_jsonl",
    "ConformanceReport",
    "PhaseCheck",
    "RoundsCheck",
    "audit_coin_gen",
    "audit_liveness",
    "audit_recorder",
    "audit_rounds",
    "QuorumLatencyRecorder",
    "StallWatchdog",
    "WaitRecord",
    "Stall",
    "default_threshold",
    "CausalGraph",
    "CausalRecorder",
    "MessageEdge",
    "graph_from_log",
    "CostModel",
    "CriticalPathResult",
    "WhatIf",
    "critical_path",
    "ops_from_recorder",
    "what_if",
    "FlightRecorder",
    "FlightLog",
    "Divergence",
    "replay",
    "diff",
    "AccusationReport",
    "analyze_log",
    "HealthMonitor",
    "RunManifest",
    "RunProfile",
    "ProfileDiff",
    "DiffRow",
    "Attribution",
    "diff_profiles",
    "diff_recordings",
    "profile_from_recorder",
    "profile_from_jsonl",
    "SamplingProfiler",
    "Sample",
]
