"""Observability: span tracing, exporters, and lemma-conformance auditing.

The paper's contribution is a *cost* claim — ``O(n^2 log k)`` additions,
``O(n)`` messages, one interpolation per batch (Lemmas 2/4/6,
Corollary 1).  This package makes those costs observable on live runs.

Two modules are on the coin path — the runtimes import them, so they
load with ``import repro.core`` and are imported here eagerly:

* :mod:`repro.obs.spans` — nested spans (protocol -> phase -> round ->
  per-player step) carrying wall-clock time, an
  :class:`~repro.fields.base.OpCounter` delta, and message/bit tallies
  snapshotted from :class:`~repro.net.metrics.NetworkMetrics`.  The
  default :data:`NULL_RECORDER` is a no-op, so instrumentation is free
  unless a :class:`SpanRecorder` is attached;
* :mod:`repro.obs.phases` — the tag -> protocol-phase registry (deal /
  clique / gradecast / ba / expose) that protocol modules populate.

Everything else loads on first use: ``from repro.obs import
FlightRecorder`` (or any other name in ``__all__``) imports the one
submodule that defines it, so a dark run never pays for a recorder it
does not attach.  Nothing is published or subscribed: a runtime calls
the :class:`~repro.obs.flight.FlightRecorder` attached to it (or to its
context), and a coin source calls its context's
:class:`~repro.obs.health.HealthMonitor`, each behind one ``is not
None`` test.  Each of these names its evidence — the ladder
workload, CI step or example that runs it — in its module docstring
(see ``docs/CENSUS.md``):

* :mod:`repro.obs.export` — Chrome trace-event (Perfetto) and
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
  happens-before DAG (:class:`~repro.obs.causality.CausalGraph`), a
  pure function of a flight log
  (:func:`~repro.obs.causality.graph_from_log`);
* :mod:`repro.obs.liveness` — liveness as views of a flight log:
  per-wait quorum latency with pivotal-sender attribution
  (:func:`~repro.obs.liveness.wait_records`) and the guards that
  waited past a threshold (:func:`~repro.obs.liveness.stalls`),
  classified as crash-induced vs. unexplained withholding;
* :mod:`repro.obs.manifest` — :class:`~repro.obs.manifest.RunManifest`,
  the provenance stamp (parameters, backend, runtime, environment) with
  a stable semantic fingerprint, attached to exports and flight logs.
"""

from importlib import import_module

from repro.obs.spans import (
    NULL_RECORDER,
    NullRecorder,
    Span,
    SpanRecorder,
)
from repro.obs.phases import classify_tag, classify_tags, register_tag_phase

#: public name -> the submodule that defines it, imported on first access
_LAZY = {
    name: module
    for module, names in {
        "export": ("to_chrome_trace", "to_prometheus"),
        "audit": ("ConformanceReport", "PhaseCheck", "RoundsCheck",
                  "audit_coin_gen", "audit_liveness", "audit_recorder",
                  "audit_rounds"),
        "liveness": ("Stall", "WaitRecord", "default_threshold", "stalls",
                     "wait_records"),
        "causality": ("CausalGraph", "MessageEdge", "graph_from_log"),
        "flight": ("Divergence", "FlightLog", "FlightRecorder", "diff",
                   "replay"),
        "forensics": ("AccusationReport", "analyze_log"),
        "health": ("HealthMonitor",),
        "manifest": ("RunManifest",),
    }.items()
    for name in names
}

__all__ = [
    "Span",
    "SpanRecorder",
    "NullRecorder",
    "NULL_RECORDER",
    "classify_tag",
    "classify_tags",
    "register_tag_phase",
    *_LAZY,
]


def __getattr__(name: str):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(import_module(f"{__name__}.{module}"), name)
