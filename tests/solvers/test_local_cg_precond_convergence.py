"""Unit tests for local_cg, preconditioners and convergence tracking."""

import numpy as np
import pytest

from repro.errors import NotSPDError, ShapeError
from repro.solvers.convergence import ConvergenceHistory, SolveResult
from repro.collection.generators.fd import poisson2d
from repro.fsai.frobenius import precalculate_g
from repro.fsai.patterns import fsai_initial_pattern
from repro.solvers.local_cg import solve_spd_approximate
from repro.solvers.preconditioners import (
    IdentityPreconditioner,
    JacobiPreconditioner,
    Preconditioner,
)
from repro.sparse.construct import csr_from_dense
from tests.conftest import random_spd_dense


class TestLocalCG:
    def test_converges_to_exact_with_budget(self, rng):
        a = random_spd_dense(10, seed=1)
        b = rng.standard_normal(10)
        x = solve_spd_approximate(a, b, rtol=1e-12, max_iterations=200)
        assert np.allclose(a @ x, b, atol=1e-6)

    def test_loose_tolerance_gives_magnitudes(self, rng):
        a = random_spd_dense(10, seed=2)
        b = rng.standard_normal(10)
        approx = solve_spd_approximate(a, b, rtol=1e-2, max_iterations=20)
        exact = np.linalg.solve(a, b)
        # Large entries must be approximated within a factor ~2.
        big = np.abs(exact) > 0.5 * np.abs(exact).max()
        assert np.all(np.abs(approx[big]) > 0.3 * np.abs(exact[big]))

    def test_zero_rhs(self):
        a = random_spd_dense(5)
        assert np.allclose(solve_spd_approximate(a, np.zeros(5)), 0.0)

    def test_never_raises_on_indefinite(self):
        # dq <= 0 path: returns the current iterate silently.
        a = np.diag([1.0, -1.0])
        out = solve_spd_approximate(a, np.array([1.0, 1.0]))
        assert out.shape == (2,)

    def test_empty(self):
        assert solve_spd_approximate(np.zeros((0, 0)), np.zeros(0)).shape == (0,)

    def test_shape_check(self):
        with pytest.raises(ShapeError):
            solve_spd_approximate(np.eye(3), np.ones(2))

    def test_batched_matches_single(self):
        """The batched ``fsai_precalc`` op agrees with one truncated CG per
        local system (this module's solve is its oracle)."""
        a = poisson2d(8)
        p = fsai_initial_pattern(a)
        g = precalculate_g(a, p, rtol=1e-10, max_iterations=100)
        dense = a.to_dense()
        for i in range(a.n_rows):
            cols = p.row(i)
            e = np.zeros(len(cols))
            e[-1] = 1.0
            single = solve_spd_approximate(
                dense[np.ix_(cols, cols)], e, rtol=1e-10, max_iterations=100
            )
            row = g.data[p.indptr[i]:p.indptr[i + 1]]
            assert np.allclose(row, single / np.sqrt(single[-1]), atol=1e-12)

    def test_batched_empty_bucket(self):
        a = csr_from_dense(np.zeros((0, 0)))
        assert precalculate_g(a, a.pattern).data.shape == (0,)


class TestPreconditioners:
    def test_identity(self):
        p = IdentityPreconditioner(4)
        r = np.arange(4.0)
        z = p.apply(r)
        assert np.array_equal(z, r) and z is not r
        assert p.flops_per_application() == 0

    def test_identity_shape_check(self):
        with pytest.raises(ShapeError):
            IdentityPreconditioner(4).apply(np.ones(5))

    def test_jacobi(self):
        a = csr_from_dense(np.diag([2.0, 4.0]))
        p = JacobiPreconditioner(a)
        assert np.allclose(p.apply(np.array([2.0, 4.0])), [1.0, 1.0])
        assert p.flops_per_application() == 2

    def test_jacobi_requires_positive_diagonal(self):
        with pytest.raises(NotSPDError):
            JacobiPreconditioner(csr_from_dense(np.diag([1.0, 0.0])))

    def test_protocol_runtime_checkable(self):
        assert isinstance(IdentityPreconditioner(3), Preconditioner)
        a = csr_from_dense(np.eye(3))
        assert isinstance(JacobiPreconditioner(a), Preconditioner)


class TestConvergenceHistory:
    def test_iterations_counting(self):
        h = ConvergenceHistory()
        assert h.iterations == 0
        for v in (1.0, 0.5, 0.1):
            h.record(v)
        assert h.iterations == 2
        assert h.initial == 1.0 and h.final == 0.1

    def test_relative(self):
        h = ConvergenceHistory()
        for v in (2.0, 1.0, 0.02):
            h.record(v)
        assert np.allclose(h.relative(), [1.0, 0.5, 0.01])

    def test_reduction_order(self):
        h = ConvergenceHistory()
        h.record(1.0)
        h.record(1e-8)
        assert h.reduction_order() == pytest.approx(8.0)

    def test_reduction_order_degenerate(self):
        h = ConvergenceHistory()
        assert h.reduction_order() == 0.0
        h.record(1.0)
        h.record(0.0)
        assert h.reduction_order() == float("inf")

    def test_solve_result_repr(self):
        r = SolveResult(
            x=np.zeros(2), converged=False, iterations=7,
            residual_norm=1.0, relative_residual=0.5,
        )
        assert "NOT converged" in repr(r)
