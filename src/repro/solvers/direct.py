"""Dense direct solvers for the FSAI local systems.

Every FSAI row requires the solution of a small dense SPD system
``A[S_i, S_i] g = e_i`` (paper §2.2).  The paper offloads these to MKL /
LAPACK / OpenBLAS (§7.1).  The production setup solves them batched in the
``fsai_setup`` kernel op (:mod:`repro.kernels.setup`); this module keeps the
single-system solves used as independent oracles by the test-suite:

* an explicit from-scratch Cholesky (:func:`cholesky_factor` +
  substitutions), for callers that want the SPD failure diagnosed at the
  exact pivot;
* :func:`solve_spd`, one LAPACK-backed Cholesky solve.
"""

from __future__ import annotations

import numpy as np

from repro._typing import FloatArray
from repro.errors import NotSPDError, ShapeError

__all__ = [
    "cholesky_factor",
    "solve_lower_triangular",
    "solve_upper_triangular",
    "solve_spd",
]


def cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor ``L`` with ``L @ L.T = a`` (from scratch).

    Raises :class:`NotSPDError` naming the offending pivot when ``a`` is not
    positive definite — the FSAI setup surfaces this as "matrix restriction
    not SPD", which is how indefinite inputs are detected in practice.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected square matrix, got {a.shape}")
    n = a.shape[0]
    L = np.zeros_like(a)
    for j in range(n):
        # d = a_jj - sum_k L_jk^2 must stay positive.
        d = a[j, j] - np.dot(L[j, :j], L[j, :j])
        if d <= 0.0 or not np.isfinite(d):
            raise NotSPDError(f"non-positive pivot {d:.3e} at index {j}")
        L[j, j] = np.sqrt(d)
        if j + 1 < n:
            L[j + 1:, j] = (
                a[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]
            ) / L[j, j]
    return L


def solve_lower_triangular(L: np.ndarray, b: FloatArray) -> FloatArray:
    """Forward substitution ``L y = b`` (unit-stride, row-oriented)."""
    L = np.asarray(L, dtype=np.float64)
    n = L.shape[0]
    if L.shape != (n, n) or b.shape != (n,):
        raise ShapeError("triangular solve shape mismatch")
    y = np.array(b, dtype=np.float64)
    for i in range(n):
        if i:
            y[i] -= np.dot(L[i, :i], y[:i])
        y[i] /= L[i, i]
    return y


def solve_upper_triangular(U: np.ndarray, b: FloatArray) -> FloatArray:
    """Back substitution ``U x = b``."""
    U = np.asarray(U, dtype=np.float64)
    n = U.shape[0]
    if U.shape != (n, n) or b.shape != (n,):
        raise ShapeError("triangular solve shape mismatch")
    x = np.array(b, dtype=np.float64)
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= np.dot(U[i, i + 1:], x[i + 1:])
        x[i] /= U[i, i]
    return x


def solve_spd(a: np.ndarray, b: FloatArray) -> FloatArray:
    """Solve one dense SPD system via Cholesky.

    Uses LAPACK (``np.linalg.cholesky``) for the factorisation — the paper's
    configuration — and converts the LAPACK failure into the library's
    :class:`NotSPDError`.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.shape != (a.shape[0],):
        raise ShapeError(f"SPD solve shape mismatch: {a.shape} vs {b.shape}")
    if a.shape[0] == 0:
        return np.empty(0)
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotSPDError(f"dense local system is not SPD: {exc}") from exc
    # Two triangular solves; for the tiny systems of FSAI setup the generic
    # LAPACK-backed np.linalg.solve on L is dominated by call overhead, so
    # delegate both solves to one call each.
    y = np.linalg.solve(L, b)
    return np.linalg.solve(L.T, y)
