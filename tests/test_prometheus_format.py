"""Strict Prometheus text-exposition conformance for every exporter.

The exposition format is a real protocol, not just lines that look
about right: every metric family needs ``# HELP`` and ``# TYPE``
before its samples, label values have an escaping discipline
(backslash, double-quote, newline), duplicate samples are rejected by
scrapers, and histogram series obey ``le`` bucket monotonicity with
``_count`` equal to the ``+Inf`` bucket.  This module implements a
strict parser and runs every exposition the repo can produce through
it — span metrics, pipeline health, and the liveness observatory.
"""

import math
import re

from repro.core import BootstrapCoinSource
from repro.fields import GF2k
from repro.net import RandomOrderScheduler
from repro.obs import FlightRecorder, SpanRecorder, to_prometheus
from repro.obs.health import HealthMonitor
from repro.protocols.async_coin import run_async_coin
from repro.protocols.context import ProtocolContext

_NAME = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_HELP_RE = re.compile(rf"^# HELP ({_NAME}) (.+)$")
_TYPE_RE = re.compile(
    rf"^# TYPE ({_NAME}) (counter|gauge|histogram|summary|untyped)$"
)
#: one label: name="value" where value has no raw ", \ or newline
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\.)*)"')
_SAMPLE_RE = re.compile(
    rf"^({_NAME})(?:\{{(.*)\}})? ([^ ]+)(?: ([0-9]+))?$"
)


def _family_of(name):
    """Sample name -> metric family (histogram series fold in)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def _parse_value(text):
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)  # raises on malformed values — part of the check


def parse_exposition(text):
    """Parse strictly; raise AssertionError on any format deviation.

    Returns ``(families, samples)`` where ``families`` maps family name
    to its TYPE and ``samples`` maps ``(name, labelset)`` to value.
    """
    families = {}
    helped = set()
    samples = {}
    family_order = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP"):
            match = _HELP_RE.match(line)
            assert match, f"line {lineno}: malformed HELP: {line!r}"
            assert match.group(1) not in helped, (
                f"line {lineno}: duplicate HELP for {match.group(1)}"
            )
            helped.add(match.group(1))
            continue
        if line.startswith("# TYPE"):
            match = _TYPE_RE.match(line)
            assert match, f"line {lineno}: malformed TYPE: {line!r}"
            name = match.group(1)
            assert name in helped, f"line {lineno}: TYPE before HELP: {name}"
            assert name not in families, (
                f"line {lineno}: duplicate TYPE for {name}"
            )
            families[name] = match.group(2)
            family_order.append(name)
            continue
        assert not line.startswith("#"), (
            f"line {lineno}: unknown comment: {line!r}"
        )
        match = _SAMPLE_RE.match(line)
        assert match, f"line {lineno}: malformed sample: {line!r}"
        name, label_body, value_text = match.group(1, 2, 3)
        family = _family_of(name)
        assert family in families, (
            f"line {lineno}: sample {name} outside a declared family"
        )
        labels = ()
        if label_body:
            consumed = ",".join(
                f'{k}="{v}"' for k, v in _LABEL_RE.findall(label_body)
            )
            assert consumed == label_body, (
                f"line {lineno}: malformed label body {label_body!r}"
            )
            labels = tuple(sorted(_LABEL_RE.findall(label_body)))
        key = (name, labels)
        assert key not in samples, f"line {lineno}: duplicate sample {key}"
        samples[key] = _parse_value(value_text)
    assert helped == set(families), "HELP without TYPE (or vice versa)"
    return families, samples


def check_histograms(families, samples):
    """le-monotonicity, cumulative counts, and _count == +Inf bucket."""
    for family, kind in families.items():
        if kind != "histogram":
            continue
        series = {}
        for (name, labels), value in samples.items():
            if name != f"{family}_bucket":
                continue
            le = dict(labels).get("le")
            assert le is not None, f"{family} bucket without le label"
            rest = tuple(kv for kv in labels if kv[0] != "le")
            series.setdefault(rest, []).append((_parse_value(le), value))
        assert series, f"histogram {family} has no buckets"
        for rest, buckets in series.items():
            buckets.sort()
            les = [le for le, _ in buckets]
            counts = [count for _, count in buckets]
            assert les[-1] == math.inf, f"{family}{rest}: no +Inf bucket"
            assert counts == sorted(counts), (
                f"{family}{rest}: bucket counts not cumulative: {counts}"
            )
            count_key = (f"{family}_count", rest)
            assert count_key in samples, f"missing {family}_count"
            assert samples[count_key] == counts[-1], (
                f"{family}{rest}: _count != +Inf bucket"
            )
            assert (f"{family}_sum", rest) in samples, (
                f"missing {family}_sum"
            )


def assert_strict(text):
    families, samples = parse_exposition(text)
    assert samples, "empty exposition"
    check_histograms(families, samples)
    return families, samples


class TestSpanExposition:
    def test_coin_gen_metrics_and_spans(self):
        recorder = SpanRecorder()
        ctx = ProtocolContext.create(GF2k(32), 7, 1, seed=3,
                                     recorder=recorder)
        source = BootstrapCoinSource(context=ctx, batch_size=8)
        source.tosses(8)
        families, samples = assert_strict(
            to_prometheus(metrics=ctx.metrics, recorder=recorder)
        )
        assert families["repro_rounds_total"] == "counter"
        assert families["repro_span_duration_seconds"] == "histogram"

    def test_label_escaping_round_trips(self):
        recorder = SpanRecorder()
        span = recorder.begin('we"ird\\name\n', "protocol")
        recorder.end(span)
        families, samples = assert_strict(to_prometheus(recorder=recorder))
        assert families["repro_span_duration_seconds"] == "histogram"


class TestHealthExposition:
    def test_health_monitor_lines(self):
        ctx = ProtocolContext.create(GF2k(32), 7, 1, seed=5)
        source = BootstrapCoinSource(context=ctx, batch_size=8)
        monitor = HealthMonitor(source=source).attach(ctx)
        source.tosses(8)
        families, samples = assert_strict(
            to_prometheus(metrics=ctx.metrics, health=monitor)
        )
        assert families["repro_coins_emitted_total"] == "counter"
        assert families["repro_rolling_bias"] == "gauge"
        assert ("repro_seed_depletion", ()) in samples


class TestLivenessExposition:
    def test_liveness_and_watchdog_lines(self):
        ctx = ProtocolContext.create(GF2k(8), 7, 2, seed=11)
        flight = FlightRecorder(n=7, t=2).attach(ctx)
        run_async_coin(ctx, scheduler=RandomOrderScheduler(2),
                       crashed={5})
        families, samples = assert_strict(
            to_prometheus(metrics=ctx.metrics, liveness=flight.log(),
                          watchdog=3)
        )
        assert families["repro_guard_wait_ticks"] == "histogram"
        assert samples[
            ("repro_guard_stalls_total", (("class", "crash"),))
        ] > 0
        assert samples[("repro_watchdog_threshold_ticks", ())] == 3
        assert samples[("repro_guard_waits_total", (("state", "fired"),))] > 0
