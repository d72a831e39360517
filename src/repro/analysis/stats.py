"""Statistical quality tests for shared coin output.

The paper's coins must be "random binary output, not known to any of them
beforehand" (Section 1.1); these tests give the empirical side of that
claim for experiment E12.  All tests return a z-score or p-value style
statistic together with a boolean verdict at a configurable significance.

Off the coin path (docs/CENSUS.md, class ii); run by claims rows E12 and
E14, CI's `repro health`, `examples/proactive_refresh.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence


@dataclass(frozen=True)
class TestResult:
    name: str
    statistic: float
    passed: bool


def monobit(bits: Sequence[int], z_threshold: float = 4.0) -> TestResult:
    """Frequency test: #ones should be ~ n/2 (z-score of the deviation)."""
    n = len(bits)
    if n == 0:
        return TestResult("monobit", 0.0, True)
    ones = sum(bits)
    z = abs(2 * ones - n) / math.sqrt(n)
    return TestResult("monobit", z, z <= z_threshold)


def serial_correlation(bits: Sequence[int], z_threshold: float = 4.0) -> TestResult:
    """Lag-1 autocorrelation of the bit stream."""
    n = len(bits)
    if n < 2:
        return TestResult("serial", 0.0, True)
    matches = sum(1 for a, b in zip(bits, bits[1:]) if a == b)
    pairs = n - 1
    z = abs(2 * matches - pairs) / math.sqrt(pairs)
    return TestResult("serial", z, z <= z_threshold)


def longest_run(bits: Sequence[int], slack: float = 4.0) -> TestResult:
    """Longest run of equal bits should be ~ log2(n) + O(1)."""
    n = len(bits)
    if n == 0:
        return TestResult("longest_run", 0.0, True)
    longest = current = 1
    for a, b in zip(bits, bits[1:]):
        current = current + 1 if a == b else 1
        longest = max(longest, current)
    expected = math.log2(n) + 1
    return TestResult("longest_run", float(longest), longest <= expected + slack)


def chi_square_bytes(bits: Sequence[int], threshold_sigma: float = 5.0) -> TestResult:
    """Chi-square uniformity over consecutive 4-bit nibbles."""
    nibbles = [
        bits[i] | (bits[i + 1] << 1) | (bits[i + 2] << 2) | (bits[i + 3] << 3)
        for i in range(0, len(bits) - 3, 4)
    ]
    if len(nibbles) < 16:
        return TestResult("chi2_nibbles", 0.0, True)
    counts = [0] * 16
    for v in nibbles:
        counts[v] += 1
    expected = len(nibbles) / 16
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # chi2 with 15 dof: mean 15, sd sqrt(30)
    z = (chi2 - 15) / math.sqrt(30)
    return TestResult("chi2_nibbles", chi2, z <= threshold_sigma)


def battery(bits: Sequence[int]) -> Dict[str, TestResult]:
    """Run the whole battery; keys are test names."""
    results = [
        monobit(bits),
        serial_correlation(bits),
        longest_run(bits),
        chi_square_bytes(bits),
    ]
    return {r.name: r for r in results}


def all_passed(bits: Sequence[int]) -> bool:
    return all(r.passed for r in battery(bits).values())


def bias(bits: Sequence[int]) -> float:
    """|P(1) - 1/2| of the stream."""
    if not bits:
        return 0.0
    return abs(sum(bits) / len(bits) - 0.5)
