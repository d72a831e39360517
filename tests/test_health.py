"""Health monitor: counters, gauges, rolling statistics, and CLI gating."""

import json

import pytest

from repro.analysis import stats
from repro.cli import main as cli_main
from repro.core import BootstrapCoinSource
from repro.core.coin import UnanimityError
from repro.core.dprbg import GenerationError
from repro.fields import GF2k
from repro.obs.export import to_prometheus
from repro.obs.health import HealthMonitor
from repro.protocols.context import ProtocolContext


def monitored_source(seed=0, coins=6, expose_retries=0, window=4096):
    """A BootstrapCoinSource + attached monitor after ``coins`` tosses."""
    ctx = ProtocolContext.create(GF2k(16), n=7, t=1, seed=seed)
    source = BootstrapCoinSource(context=ctx, batch_size=8,
                                 expose_retries=expose_retries)
    monitor = HealthMonitor(source=source, window=window).attach(ctx)
    elements = [source.toss_element() for _ in range(coins)]
    return source, monitor, elements


class TestCounters:
    def test_coins_and_batches_counted(self):
        source, monitor, elements = monitored_source(coins=6)
        assert monitor.coins_emitted == 6
        assert monitor.batches == source.epoch >= 1
        assert monitor.iterations_total >= monitor.batches
        assert monitor.seed_consumed_total >= monitor.batches
        assert monitor.failure_total == 0
        assert monitor.retries == 0

    def test_rolling_window_tracks_emitted_bits(self):
        source, monitor, elements = monitored_source(coins=6)
        field = source.system.field
        expected = [bit for element in elements
                    for bit in field.coin_bits(element)]
        assert monitor.rolling_bits() == expected
        assert monitor.rolling_bias() == pytest.approx(
            stats.bias(expected)
        )

    def test_window_is_bounded(self):
        _, monitor, _ = monitored_source(coins=6, window=20)
        assert len(monitor.rolling_bits()) == 20

    def test_gauges_read_source_live(self):
        source, monitor, _ = monitored_source(coins=6)
        snapshot = monitor.snapshot()
        assert snapshot["sealed_coins_available"] == len(source.pool)
        assert snapshot["seed_coins_available"] == len(source._seed_coins)
        assert 0.0 <= snapshot["seed_depletion"] <= 1.0
        assert snapshot["coins_emitted"] == 6
        assert "rolling_tests" in snapshot

    def test_snapshot_is_json_serializable(self):
        _, monitor, _ = monitored_source(coins=3)
        parsed = json.loads(json.dumps(monitor.snapshot()))
        assert parsed["coins_emitted"] == 3


class TestFailureStream:
    def test_retry_recovers_and_is_counted(self, monkeypatch):
        ctx = ProtocolContext.create(GF2k(16), n=7, t=1, seed=1)
        source = BootstrapCoinSource(context=ctx, batch_size=8,
                                     expose_retries=2)
        monitor = HealthMonitor(source=source).attach(ctx)
        real_expose = source.system.expose
        failures = iter([UnanimityError("split"), GenerationError("bad")])

        def flaky_expose(coin):
            try:
                raise next(failures)
            except StopIteration:
                return real_expose(coin)

        monkeypatch.setattr(source.system, "expose", flaky_expose)
        value = source.toss_element()
        assert value is not None
        assert monitor.failures == {"unanimity": 1, "decode": 1}
        assert monitor.retries == 2
        assert monitor.coins_emitted == 1

    def test_exhausted_retries_propagate(self, monkeypatch):
        ctx = ProtocolContext.create(GF2k(16), n=7, t=1, seed=1)
        source = BootstrapCoinSource(context=ctx, batch_size=8,
                                     expose_retries=0)
        monitor = HealthMonitor(source=source).attach(ctx)
        monkeypatch.setattr(
            source.system, "expose",
            lambda coin: (_ for _ in ()).throw(UnanimityError("split")),
        )
        with pytest.raises(UnanimityError):
            source.toss_element()
        assert monitor.failures == {"unanimity": 1}
        assert monitor.retries == 0
        assert monitor.coins_emitted == 0


class TestCheck:
    def test_healthy_run_passes_thresholds(self):
        _, monitor, _ = monitored_source(coins=6)
        healthy, reasons = monitor.check(
            max_bias=0.49, max_failures=0, max_seed_depletion=1.0,
            require_battery=True,
        )
        assert healthy, reasons

    def test_bias_threshold_violation_reported(self):
        monitor = HealthMonitor(field=GF2k(8))
        monitor.on_coin("c", 0xFF)  # all-ones window: bias 0.5
        healthy, reasons = monitor.check(max_bias=0.25)
        assert not healthy
        assert any("bias" in reason for reason in reasons)

    def test_failure_threshold_violation_reported(self):
        monitor = HealthMonitor()
        monitor.on_failure("unanimity", "c0")
        healthy, reasons = monitor.check(max_failures=0)
        assert not healthy and "failure" in reasons[0]

    def test_no_thresholds_means_healthy(self):
        monitor = HealthMonitor()
        assert monitor.check() == (True, [])


class TestPrometheusExposition:
    def test_health_lines_in_exposition(self):
        _, monitor, _ = monitored_source(coins=4)
        text = to_prometheus(health=monitor)
        assert "repro_coins_emitted_total 4" in text
        assert "repro_batches_total" in text
        assert "repro_rolling_bias" in text
        assert "repro_sealed_coins_available" in text
        assert 'repro_rolling_test_statistic{test="monobit"}' in text

    def test_failure_kinds_labelled(self):
        monitor = HealthMonitor()
        monitor.on_failure("unanimity", "c0")
        monitor.on_failure("unanimity", "c1")
        text = "\n".join(monitor.prometheus_lines())
        assert 'repro_exposure_failures_total{kind="unanimity"} 2' in text


class TestZeroCostDiscipline:
    def test_unmonitored_source_byte_identical(self):
        """A source without a monitor emits exactly the same coins."""
        def run(with_monitor):
            ctx = ProtocolContext.create(GF2k(16), n=7, t=1, seed=9)
            source = BootstrapCoinSource(context=ctx, batch_size=8)
            if with_monitor:
                HealthMonitor(source=source).attach(ctx)
            return [source.toss_element() for _ in range(5)]

        assert run(False) == run(True)


class TestHealthCommand:
    def test_healthy_exit_zero(self, capsys):
        code = cli_main([
            "health", "--n", "7", "--t", "1", "--k", "16", "--seed", "3",
            "--coins", "4", "--threshold", "0.49", "--max-failures", "0",
        ])
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["coins_emitted"] == 4

    def test_threshold_violation_exit_one(self, capsys):
        code = cli_main([
            "health", "--n", "7", "--t", "1", "--k", "16", "--seed", "3",
            "--coins", "4", "--threshold", "0.0",
        ])
        assert code == 1
        assert "UNHEALTHY" in capsys.readouterr().err

    def test_prom_export(self, tmp_path, capsys):
        out = tmp_path / "health.prom"
        code = cli_main([
            "health", "--n", "7", "--t", "1", "--k", "16", "--seed", "3",
            "--coins", "2", "--export", "prom", "--export-out", str(out),
        ])
        assert code == 0
        assert "repro_coins_emitted_total 2" in out.read_text()
