"""Analytical companions to the experiments (nothing here is on the
coin path; import the submodule you need).

* :mod:`repro.analysis.complexity` — the paper's cost formulas (Lemmas 2,
  4, 6; Theorem 2; Corollaries 1-3) as executable functions, so the
  claims table and the conformance auditor can check measured counts
  against the claimed asymptotics.
* :mod:`repro.analysis.rounds` — predicted round counts per protocol.
* :mod:`repro.analysis.stats` — statistical tests on coin output (bias,
  uniformity, serial correlation, runs).

``benchmarks/claims.py`` is the one checker of these formulas against
live runs.
"""
