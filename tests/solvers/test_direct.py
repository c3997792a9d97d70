"""Unit tests for repro.solvers.direct."""

import numpy as np
import pytest

from repro.errors import NotSPDError, ShapeError
from repro.solvers.direct import (
    cholesky_factor,
    solve_lower_triangular,
    solve_spd,
    solve_upper_triangular,
)
from tests.conftest import random_spd_dense


class TestCholesky:
    def test_factorisation(self):
        a = random_spd_dense(8, seed=1)
        L = cholesky_factor(a)
        assert np.allclose(L @ L.T, a)
        assert np.allclose(L, np.tril(L))

    def test_matches_lapack(self):
        a = random_spd_dense(10, seed=2)
        assert np.allclose(cholesky_factor(a), np.linalg.cholesky(a))

    def test_rejects_indefinite(self):
        with pytest.raises(NotSPDError, match="pivot"):
            cholesky_factor(np.diag([1.0, -1.0]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            cholesky_factor(np.ones((2, 3)))

    def test_1x1(self):
        assert cholesky_factor(np.array([[4.0]]))[0, 0] == 2.0


class TestTriangularSolves:
    def test_forward(self, rng):
        L = np.tril(rng.standard_normal((6, 6))) + 6 * np.eye(6)
        b = rng.standard_normal(6)
        assert np.allclose(L @ solve_lower_triangular(L, b), b)

    def test_backward(self, rng):
        U = np.triu(rng.standard_normal((6, 6))) + 6 * np.eye(6)
        b = rng.standard_normal(6)
        assert np.allclose(U @ solve_upper_triangular(U, b), b)

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            solve_lower_triangular(np.eye(3), np.ones(2))
        with pytest.raises(ShapeError):
            solve_upper_triangular(np.eye(3), np.ones(2))

    def test_combined_solves_spd(self, rng):
        a = random_spd_dense(7, seed=3)
        b = rng.standard_normal(7)
        L = cholesky_factor(a)
        x = solve_upper_triangular(L.T, solve_lower_triangular(L, b))
        assert np.allclose(a @ x, b)


class TestSolveSPD:
    def test_solves(self, rng):
        a = random_spd_dense(9, seed=4)
        b = rng.standard_normal(9)
        assert np.allclose(a @ solve_spd(a, b), b)

    def test_empty(self):
        assert solve_spd(np.zeros((0, 0)), np.zeros(0)).shape == (0,)

    def test_indefinite_raises(self):
        with pytest.raises(NotSPDError):
            solve_spd(np.diag([1.0, -2.0]), np.ones(2))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            solve_spd(np.eye(3), np.ones(4))
