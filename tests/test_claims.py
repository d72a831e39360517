"""The paper's exact counts, in tier-1.

Every ``exact`` row of the claims table (``benchmarks/claims.py``: Lemmas
2, 4 and 6, Theorems 1 and 2) at its smallest parameter point; the full
table, the statistical and ordering rows and the EXPERIMENTS.md check
run in CI's "Paper claims" step.
"""

import pytest

from benchmarks.claims import EXACT, ROWS, evaluate, failures

EXACT_ROWS = [row for row in ROWS if row.compare == EXACT]


def test_every_claim_has_exactly_one_row():
    assert [row.id for row in ROWS] == [f"E{i}" for i in range(1, 18)]


@pytest.mark.parametrize("row", EXACT_ROWS, ids=[row.id for row in EXACT_ROWS])
def test_exact_row_at_its_smallest_point(row):
    assert not failures(evaluate(row, row.points[:1]))
