"""Span exporters: Chrome trace-event JSON and Prometheus text.

* :func:`to_chrome_trace` — the Trace Event Format understood by
  Perfetto / ``chrome://tracing``.  Lanes: protocol runs, synthesized
  phases, rounds, and one lane per player, so the Fig. 5 pipeline reads
  as a flame chart.
* :func:`to_prometheus` — a text exposition of counters (rounds,
  messages, bits, per-player ops) and span-duration histograms, suitable
  for scraping.  Every metric family carries ``# HELP`` and ``# TYPE``
  lines and label values are escaped per the text-format rules
  (regression-tested by a strict parser in
  ``tests/test_prometheus_format.py``).  Pass a flight log as
  ``liveness=`` (and a stall threshold as ``watchdog=``) to append its
  guard-wait latency histogram (in logical ticks), pivotal-sender
  counters and stall counters (see :mod:`repro.obs.liveness`).

Off the coin path (docs/CENSUS.md, class ii); run by CI's `repro toss
--export chrome` and `repro waits --export prom`.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.net.metrics import NetworkMetrics
from repro.obs.liveness import pivotal_counts, stalls, wait_records
from repro.obs.spans import Span, SpanRecorder

#: Chrome trace lane ids (tid) per span kind; players get PLAYER_TID + pid
PROTOCOL_TID = 0
PHASE_TID = 1
ROUND_TID = 2
PLAYER_TID = 10


def _trace_event(span: Span, origin: float) -> Dict:
    if span.kind == "protocol" or span.kind == "root":
        tid = PROTOCOL_TID
    elif span.kind == "phase":
        tid = PHASE_TID
    elif span.kind == "round":
        tid = ROUND_TID
    elif span.kind == "player":
        tid = PLAYER_TID + int(span.attrs.get("player", 0))
    else:
        tid = PROTOCOL_TID
    args = {
        key: value
        for key, value in span.attrs.items()
        if isinstance(value, (int, float, str, bool))
    }
    return {
        "name": span.name,
        "cat": span.kind,
        "ph": "X",  # complete event: begin + duration in one record
        "ts": (span.t0 - origin) * 1e6,
        "dur": span.duration * 1e6,
        "pid": 1,
        "tid": tid,
        "args": args,
    }


def to_chrome_trace(recorder: SpanRecorder, manifest=None) -> str:
    """Trace Event Format JSON (open with Perfetto or chrome://tracing).

    ``manifest`` lands in the trace's top-level ``metadata`` object
    (Perfetto shows it in the trace-info view).
    """
    spans = recorder.all_spans()
    origin = min((s.t0 for s in spans), default=0.0)
    events: List[Dict] = [
        {"name": "process_name", "ph": "M", "pid": 1,
         "args": {"name": "repro"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": PROTOCOL_TID,
         "args": {"name": "protocols"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": PHASE_TID,
         "args": {"name": "phases"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": ROUND_TID,
         "args": {"name": "rounds"}},
    ]
    players = sorted({
        int(s.attrs["player"]) for s in spans
        if s.kind == "player" and "player" in s.attrs
    })
    for pid in players:
        events.append({"name": "thread_name", "ph": "M", "pid": 1,
                       "tid": PLAYER_TID + pid,
                       "args": {"name": f"player {pid}"}})
    events.extend(_trace_event(span, origin) for span in spans)
    for fault in recorder.faults:
        events.append({
            "name": f"fault:{fault['kind']}",
            "cat": "fault",
            "ph": "i",  # instant event
            "ts": 0,
            "pid": 1,
            "tid": ROUND_TID,
            "s": "t",
            "args": fault,
        })
    payload: Dict = {"traceEvents": events, "displayTimeUnit": "ms"}
    if manifest is not None:
        payload["metadata"] = manifest.to_dict()
    return json.dumps(payload, indent=1)


#: wall-clock span-duration buckets (seconds)
_HISTOGRAM_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)
#: logical-time buckets (ticks) for guard-wait latency histograms
_LOGICAL_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000)


def _escape_label(value) -> str:
    """Escape a label value per the Prometheus text-format rules."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _family(lines: List[str], name: str, kind: str, help_text: str) -> None:
    """Open a metric family: its ``# HELP`` and ``# TYPE`` lines."""
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")


def _histogram(lines: List[str], metric: str, labels: str,
               values, buckets=_HISTOGRAM_BUCKETS) -> None:
    values = list(values)

    def series(suffix: str, extra: str, value) -> None:
        body = ",".join(part for part in (labels, extra) if part)
        braces = f"{{{body}}}" if body else ""
        lines.append(f"{metric}{suffix}{braces} {value}")

    for bound in buckets:
        cumulative = sum(1 for d in values if d <= bound)
        series("_bucket", f'le="{bound:g}"', cumulative)
    series("_bucket", 'le="+Inf"', len(values))
    series("_sum", "", f"{sum(values):.9f}")
    series("_count", "", len(values))


def to_prometheus(
    metrics: Optional[NetworkMetrics] = None,
    recorder: Optional[SpanRecorder] = None,
    prefix: str = "repro",
    health=None,
    liveness=None,
    watchdog: Optional[int] = None,
) -> str:
    """Prometheus text exposition of counters and span histograms.

    ``health`` optionally appends a
    :class:`~repro.obs.health.HealthMonitor`'s pipeline gauges and
    counters; ``liveness`` (a :class:`~repro.obs.flight.FlightLog`)
    appends its guard-wait counters, logical-tick latency histogram and
    pivotal-sender attribution; ``watchdog`` (a threshold in logical
    ticks) appends the log's stall counters at that threshold.
    """
    lines: List[str] = []
    if metrics is not None:
        _family(lines, f"{prefix}_rounds_total", "counter",
                "Settled rounds (lockstep) or logical ticks (async).")
        lines.append(f"{prefix}_rounds_total {metrics.rounds}")
        _family(lines, f"{prefix}_messages_total", "counter",
                "Messages sent, by channel.")
        lines.append(
            f'{prefix}_messages_total{{channel="unicast"}} '
            f"{metrics.unicast_messages}"
        )
        lines.append(
            f'{prefix}_messages_total{{channel="broadcast"}} '
            f"{metrics.broadcast_messages}"
        )
        _family(lines, f"{prefix}_bits_total", "counter",
                "Payload bits sent over the transport.")
        lines.append(f"{prefix}_bits_total {metrics.bits}")
        _family(lines, f"{prefix}_player_ops_total", "counter",
                "Field operations per player, by op kind.")
        for pid in sorted(metrics.player_ops):
            ops = metrics.player_ops[pid]
            for op in ("adds", "muls", "invs", "interpolations"):
                lines.append(
                    f'{prefix}_player_ops_total{{player="{pid}",op="{op}"}} '
                    f"{getattr(ops, op)}"
                )
    if recorder is not None:
        _family(lines, f"{prefix}_span_duration_seconds", "histogram",
                "Recorded span durations, by span kind.")
        spans = recorder.all_spans()
        for kind in ("protocol", "phase", "round", "player"):
            durations = [s.duration for s in spans if s.kind == kind]
            if durations:
                _histogram(lines, f"{prefix}_span_duration_seconds",
                           f'kind="{kind}"', durations)
        phase_wall: Dict[str, float] = {}
        phase_msgs: Dict[str, int] = {}
        for span in spans:
            if span.kind == "phase":
                phase = span.attrs.get("phase", "other")
                phase_wall[phase] = phase_wall.get(phase, 0.0) + span.duration
                phase_msgs[phase] = (
                    phase_msgs.get(phase, 0) + span.attrs.get("messages", 0)
                )
        _family(lines, f"{prefix}_phase_wall_seconds", "counter",
                "Wall time attributed to each protocol phase.")
        for phase in sorted(phase_wall):
            lines.append(
                f'{prefix}_phase_wall_seconds{{phase="{_escape_label(phase)}"}} '
                f"{phase_wall[phase]:.9f}"
            )
        _family(lines, f"{prefix}_phase_messages_total", "counter",
                "Messages attributed to each protocol phase.")
        for phase in sorted(phase_msgs):
            lines.append(
                f'{prefix}_phase_messages_total{{phase="{_escape_label(phase)}"}} '
                f"{phase_msgs[phase]}"
            )
        if recorder.faults:
            _family(lines, f"{prefix}_faults_total", "counter",
                    "Fault-plane events observed, by kind.")
            by_kind: Dict[str, int] = {}
            for fault in recorder.faults:
                by_kind[fault["kind"]] = by_kind.get(fault["kind"], 0) + 1
            for kind in sorted(by_kind):
                lines.append(
                    f'{prefix}_faults_total{{kind="{_escape_label(kind)}"}} '
                    f"{by_kind[kind]}"
                )
    if liveness is not None:
        records = wait_records(liveness)
        waited = [r.wait_time for r in records if r.fired]
        pending = len(records) - len(waited)
        _family(lines, f"{prefix}_guard_waits_total", "counter",
                "Armed guards observed, by outcome.")
        lines.append(
            f'{prefix}_guard_waits_total{{state="fired"}} {len(waited)}'
        )
        lines.append(
            f'{prefix}_guard_waits_total{{state="pending"}} {pending}'
        )
        _family(lines, f"{prefix}_guard_wait_ticks", "histogram",
                "Armed-to-fired guard wait in logical ticks.")
        _histogram(lines, f"{prefix}_guard_wait_ticks", "",
                   waited, buckets=_LOGICAL_BUCKETS)
        counts = pivotal_counts(records)
        if counts:
            _family(lines, f"{prefix}_guard_pivotal_total", "counter",
                    "Waits completed per pivotal (quorum-completing) sender.")
            for player in sorted(counts):
                lines.append(
                    f'{prefix}_guard_pivotal_total{{player="{player}"}} '
                    f"{counts[player]}"
                )
    if watchdog is not None:
        found = stalls(liveness, watchdog)
        _family(lines, f"{prefix}_guard_stalls_total", "counter",
                "Guards that waited past the watchdog threshold, by class.")
        for cls in ("crash", "unexplained"):
            count = sum(1 for s in found if s.classification == cls)
            lines.append(
                f'{prefix}_guard_stalls_total{{class="{cls}"}} {count}'
            )
        _family(lines, f"{prefix}_watchdog_threshold_ticks", "gauge",
                "Logical-time threshold the stall watchdog applies.")
        lines.append(f"{prefix}_watchdog_threshold_ticks {watchdog}")
    if health is not None:
        lines.extend(health.prometheus_lines(prefix))
    return "\n".join(lines) + "\n"
