"""Gaussian elimination over finite fields."""

import pytest
from hypothesis import given, strategies as st

from repro.fields import GF2k
from repro.fields.gfp import GFp
from repro.poly.linalg import solve_linear_system


class TestSolve:
    def test_unique_solution_prime_field(self):
        f = GFp(101)
        # x + 2y = 5 ; 3x + 4y = 6
        sol = solve_linear_system(f, [[1, 2], [3, 4]], [5, 6])
        x, y = sol
        assert (x + 2 * y) % 101 == 5
        assert (3 * x + 4 * y) % 101 == 6

    def test_inconsistent(self):
        f = GFp(101)
        assert solve_linear_system(f, [[1, 1], [1, 1]], [1, 2]) is None

    def test_underdetermined_any_solution(self):
        f = GFp(101)
        sol = solve_linear_system(f, [[1, 1]], [7])
        assert sol is not None
        assert (sol[0] + sol[1]) % 101 == 7

    def test_zero_rows(self):
        f = GFp(101)
        assert solve_linear_system(f, [], []) == []

    def test_zero_matrix_nonzero_rhs(self):
        f = GFp(101)
        assert solve_linear_system(f, [[0, 0]], [3]) is None

    def test_zero_matrix_zero_rhs(self):
        f = GFp(101)
        assert solve_linear_system(f, [[0, 0]], [0]) == [0, 0]

    def test_overdetermined_consistent(self):
        f = GFp(101)
        sol = solve_linear_system(f, [[1, 0], [0, 1], [1, 1]], [2, 3, 5])
        assert sol == [2, 3]

    def test_overdetermined_inconsistent(self):
        f = GFp(101)
        assert solve_linear_system(f, [[1, 0], [0, 1], [1, 1]], [2, 3, 6]) is None

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size=st.integers(min_value=1, max_value=6),
    )
    def test_random_invertible_systems(self, seed, size):
        """Solve A x = A x0 and recover x0 whenever A is invertible."""
        import random

        f = GF2k(8)
        rng = random.Random(seed)
        matrix = [[f.random(rng) for _ in range(size)] for _ in range(size)]
        x0 = [f.random(rng) for _ in range(size)]
        rhs = []
        for row in matrix:
            acc = f.zero
            for a, x in zip(row, x0):
                acc = f.add(acc, f.mul(a, x))
            rhs.append(acc)
        sol = solve_linear_system(f, matrix, rhs)
        assert sol is not None
        # verify the solution satisfies the system (may differ from x0 if singular)
        for row, b in zip(matrix, rhs):
            acc = f.zero
            for a, x in zip(row, sol):
                acc = f.add(acc, f.mul(a, x))
            assert acc == b
