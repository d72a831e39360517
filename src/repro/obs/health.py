"""Health monitoring for a long-lived coin pipeline.

The paper's Fig. 1 generator is meant to run forever — batches feed
seeds feed batches.  An operator of such a beacon needs to see, while
it runs: is the seed stock draining?  are exposures failing?  are the
emitted bits still unbiased?  :class:`HealthMonitor` answers those from
the calls a :class:`~repro.core.bootstrap.BootstrapCoinSource` makes on
the monitor attached to its context (:meth:`~HealthMonitor.on_coin`,
:meth:`~HealthMonitor.on_batch`, :meth:`~HealthMonitor.on_failure`,
:meth:`~HealthMonitor.on_retry`):

* **counters** — coins emitted, batches stretched, leader-election
  iterations, seed coins consumed, exposure failures by kind
  (``unanimity`` / ``decode``), exposure retries;
* **gauges** — sealed/seed coins available (read live from the source),
  seed-stock depletion relative to the initial dealing;
* **rolling statistics** — bias and the :mod:`repro.analysis.stats`
  battery (monobit, serial correlation, longest run, chi-square) over a
  sliding window of the most recently emitted coin bits.

Like every observability component here, the monitor only reads what
it is handed: a source running without one attached is byte-identical
to a monitored run.  :meth:`HealthMonitor.prometheus_lines` feeds the
existing Prometheus exposition (:func:`repro.obs.export.to_prometheus`),
and ``repro health`` turns :meth:`check` into a CI-friendly exit code.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.analysis import stats


class HealthMonitor:
    """Pipeline health as the source reports it, judged on demand.

    Parameters
    ----------
    source:
        Optional :class:`~repro.core.bootstrap.BootstrapCoinSource`;
        when given, pool/seed gauges are read from it live and coin
        bits for the rolling window are derived via its field.
    field:
        Field used to split emitted elements into bits (defaults to the
        source's); without either, rolling statistics stay empty.
    window:
        Size of the rolling bit window (default 4096 bits).
    """

    def __init__(self, source=None, field=None, window: int = 4096):
        self.source = source
        self.field = field if field is not None else (
            source.system.field if source is not None else None
        )
        self.coins_emitted = 0
        self.batches = 0
        self.iterations_total = 0
        self.seed_consumed_total = 0
        self.failures: Dict[str, int] = {}
        self.retries = 0
        self._bits: Deque[int] = deque(maxlen=max(8, window))

    def attach(self, context) -> "HealthMonitor":
        """Hear from every coin source on ``context`` (a
        :class:`~repro.protocols.context.ProtocolContext`)."""
        context.health = self
        return self

    # -- source calls -------------------------------------------------------
    def on_coin(self, coin_id: str, element) -> None:
        self.coins_emitted += 1
        if self.field is not None:
            self._bits.extend(self.field.coin_bits(element))

    def on_batch(self, epoch: int, coins: int, iterations: int,
                 seed_consumed: int) -> None:
        self.batches += 1
        self.iterations_total += iterations
        self.seed_consumed_total += seed_consumed

    def on_failure(self, kind: str, coin_id: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1

    def on_retry(self, coin_id: str, attempt: int) -> None:
        self.retries += 1

    # -- derived views ------------------------------------------------------
    @property
    def failure_total(self) -> int:
        return sum(self.failures.values())

    def rolling_bits(self) -> List[int]:
        return list(self._bits)

    def rolling_bias(self) -> float:
        """Signed deviation of the window's one-fraction from 1/2."""
        return stats.bias(self.rolling_bits()) if self._bits else 0.0

    def rolling_battery(self) -> Dict[str, stats.TestResult]:
        return stats.battery(self.rolling_bits())

    def seed_depletion(self) -> Optional[float]:
        """Fraction of the initial seed dealing no longer in stock.

        0.0 means the seed store is at (or above) its initial size;
        1.0 means it is empty.  None without an attached source.
        """
        if self.source is None:
            return None
        initial = max(1, self.source.initial_seed_size)
        return max(0.0, 1.0 - self.source.seed_coins_available / initial)

    def snapshot(self) -> Dict[str, object]:
        """Every gauge and counter as one JSON-friendly dict."""
        out: Dict[str, object] = {
            "coins_emitted": self.coins_emitted,
            "batches": self.batches,
            "iterations_total": self.iterations_total,
            "seed_consumed_total": self.seed_consumed_total,
            "failures": dict(self.failures),
            "failure_total": self.failure_total,
            "retries": self.retries,
            "rolling_bits": len(self._bits),
            "rolling_bias": self.rolling_bias(),
        }
        if self._bits:
            out["rolling_tests"] = {
                name: {"statistic": result.statistic, "passed": result.passed}
                for name, result in self.rolling_battery().items()
            }
        if self.source is not None:
            out["sealed_coins_available"] = self.source.sealed_coins_available
            out["seed_coins_available"] = self.source.seed_coins_available
            out["seed_depletion"] = self.seed_depletion()
        return out

    # -- judgement ----------------------------------------------------------
    def check(
        self,
        max_bias: Optional[float] = None,
        max_failures: Optional[int] = None,
        max_seed_depletion: Optional[float] = None,
        require_battery: bool = False,
    ) -> Tuple[bool, List[str]]:
        """Judge current health against thresholds.

        Returns ``(healthy, reasons)`` where ``reasons`` names every
        violated threshold — the basis of ``repro health``'s exit code.
        """
        reasons: List[str] = []
        if max_bias is not None:
            bias = abs(self.rolling_bias())
            if bias > max_bias:
                reasons.append(
                    f"rolling bias {bias:.4f} exceeds threshold {max_bias}"
                )
        if max_failures is not None and self.failure_total > max_failures:
            reasons.append(
                f"{self.failure_total} exposure failure(s) exceed "
                f"threshold {max_failures}"
            )
        if max_seed_depletion is not None:
            depletion = self.seed_depletion()
            if depletion is not None and depletion > max_seed_depletion:
                reasons.append(
                    f"seed depletion {depletion:.2f} exceeds "
                    f"threshold {max_seed_depletion}"
                )
        if require_battery and self._bits:
            for name, result in self.rolling_battery().items():
                if not result.passed:
                    reasons.append(
                        f"statistical test {name} failed "
                        f"(statistic {result.statistic:.3f})"
                    )
        return (not reasons, reasons)

    # -- exposition ---------------------------------------------------------
    def prometheus_lines(self, prefix: str = "repro") -> List[str]:
        """Text-exposition lines, appended by ``to_prometheus(health=...)``."""
        lines: List[str] = []

        def family(name: str, kind: str, help_text: str) -> None:
            lines.append(f"# HELP {prefix}_{name} {help_text}")
            lines.append(f"# TYPE {prefix}_{name} {kind}")

        family("coins_emitted_total", "counter",
               "Coins the pipeline exposed.")
        lines.append(f"{prefix}_coins_emitted_total {self.coins_emitted}")
        family("batches_total", "counter", "D-PRBG stretch batches run.")
        lines.append(f"{prefix}_batches_total {self.batches}")
        family("election_iterations_total", "counter",
               "Election iterations across all batches.")
        lines.append(f"{prefix}_election_iterations_total "
                     f"{self.iterations_total}")
        family("seed_consumed_total", "counter",
               "Seed coins consumed across all batches.")
        lines.append(f"{prefix}_seed_consumed_total "
                     f"{self.seed_consumed_total}")
        family("exposure_retries_total", "counter",
               "Coin exposures that needed a retry.")
        lines.append(f"{prefix}_exposure_retries_total {self.retries}")
        family("exposure_failures_total", "counter",
               "Failed coin exposures by kind.")
        for kind in sorted(self.failures):
            lines.append(
                f'{prefix}_exposure_failures_total{{kind="{kind}"}} '
                f"{self.failures[kind]}"
            )
        if not self.failures:
            lines.append(f"{prefix}_exposure_failures_total 0")
        family("rolling_bias", "gauge",
               "Bias of the rolling output-bit window.")
        lines.append(f"{prefix}_rolling_bias {self.rolling_bias():.6f}")
        family("rolling_bits", "gauge",
               "Output bits in the rolling window.")
        lines.append(f"{prefix}_rolling_bits {len(self._bits)}")
        if self._bits:
            family("rolling_test_statistic", "gauge",
                   "Statistical-test statistics over the rolling window.")
            for name, result in sorted(self.rolling_battery().items()):
                lines.append(
                    f'{prefix}_rolling_test_statistic{{test="{name}"}} '
                    f"{result.statistic:.6f}"
                )
        if self.source is not None:
            family("sealed_coins_available", "gauge",
                   "Sealed coins buffered in the source.")
            lines.append(f"{prefix}_sealed_coins_available "
                         f"{self.source.sealed_coins_available}")
            family("seed_coins_available", "gauge",
                   "Seed coins remaining in the source.")
            lines.append(f"{prefix}_seed_coins_available "
                         f"{self.source.seed_coins_available}")
            family("seed_depletion", "gauge",
                   "Fraction of the seed budget consumed.")
            lines.append(f"{prefix}_seed_depletion "
                         f"{self.seed_depletion():.6f}")
        return lines
