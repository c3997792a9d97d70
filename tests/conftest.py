"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.address import ArrayPlacement
from repro.collection.generators.fd import poisson2d
from repro.solvers.local_cg import solve_spd_approximate
from repro.sparse.construct import csr_from_dense


@pytest.fixture
def rng():
    """Deterministic RNG for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def placement64():
    """Line-aligned placement for a 64-byte-line machine."""
    return ArrayPlacement.aligned(64)


@pytest.fixture
def placement256():
    """Line-aligned placement for a 256-byte-line machine (A64FX)."""
    return ArrayPlacement.aligned(256)


@pytest.fixture
def poisson16():
    """Small 2D Poisson matrix (n = 256) — the workhorse SPD test case."""
    return poisson2d(16)


@pytest.fixture
def small_spd():
    """Dense-backed 6x6 SPD CSR matrix with a known inverse structure."""
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6))
    return csr_from_dense(m @ m.T + 6.0 * np.eye(6))


def random_spd_dense(n: int, seed: int = 0, *, density: float = 1.0) -> np.ndarray:
    """Dense random SPD matrix, optionally sparsified while staying SPD.

    Sparsification zeroes symmetric off-diagonal pairs and compensates on
    the diagonal (diagonal dominance), so the result remains SPD for any
    mask — used by property-based tests to build arbitrary SPD sparsity.
    """
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    if density < 1.0:
        mask = rng.uniform(size=(n, n)) < density
        mask = np.triu(mask, 1)
        keep = mask | mask.T | np.eye(n, dtype=bool)
        removed = a * ~keep
        a = a * keep
        a += np.diag(np.abs(removed).sum(axis=1) + 1e-6)
    return a


def _lower_symmetric_dense(a) -> np.ndarray:
    """``tril(A) + tril(A, -1)ᵀ``: the matrix FSAI set-up sees (it reads
    only the lower triangle)."""
    low = np.tril(a.to_dense())
    return low + np.tril(low, -1).T


def exact_g_oracle(a, pattern) -> np.ndarray:
    """Exact FSAI data on ``pattern``, one dense solve per row.

    Row ``i`` solves ``A_dense[S_i, S_i] ĝ = e_i`` (``A_dense`` mirrored
    from ``tril(A)``) with ``np.linalg.solve`` and normalises
    ``ĝ / sqrt(ĝ_i)`` — the set-up ops' independent oracle.
    Returns the ``pattern.nnz`` data array (NaN where ``ĝ_i <= 0``).
    """
    dense = _lower_symmetric_dense(a)
    data = np.empty(pattern.nnz)
    for i in range(pattern.n_rows):
        cols = pattern.row(i)
        e = np.zeros(len(cols))
        e[-1] = 1.0
        sol = np.linalg.solve(dense[np.ix_(cols, cols)], e)
        lo = pattern.indptr[i]
        with np.errstate(invalid="ignore"):
            data[lo:lo + len(cols)] = sol / np.sqrt(sol[-1])
    return data


def precalc_g_oracle(a, pattern, *, rtol: float, max_iterations: int) -> np.ndarray:
    """§5 precalculation data on ``pattern``, one truncated CG per row.

    Each row runs :func:`repro.solvers.local_cg.solve_spd_approximate` on
    ``A_dense[S_i, S_i]`` (mirrored from ``tril(A)``) and takes the op's
    Jacobi fallback (zeros, and
    ``1/sqrt(a_ii)`` — ``1.0`` when ``a_ii <= 0`` — in the diagonal slot)
    when the estimate's diagonal is non-positive or non-finite.
    """
    dense = _lower_symmetric_dense(a)
    data = np.empty(pattern.nnz)
    for i in range(pattern.n_rows):
        cols = pattern.row(i)
        e = np.zeros(len(cols))
        e[-1] = 1.0
        sol = solve_spd_approximate(
            dense[np.ix_(cols, cols)], e, rtol=rtol, max_iterations=max_iterations
        )
        pivot = sol[-1]
        if pivot > 0 and np.isfinite(pivot):
            row = sol / np.sqrt(pivot)
        else:
            row = np.zeros(len(cols))
            row[-1] = 1.0 / np.sqrt(dense[i, i]) if dense[i, i] > 0 else 1.0
        data[pattern.indptr[i]:pattern.indptr[i] + len(cols)] = row
    return data
