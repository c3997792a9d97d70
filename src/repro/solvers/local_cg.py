"""Approximate dense SPD solve for the §5 precalculation.

The paper's robust filtering strategy needs only the *order of magnitude* of
each prospective ``G`` entry, so it solves the local Frobenius systems "via
several iterations of the CG method with a relatively high tolerance".
:func:`solve_spd_approximate` is that truncated CG for one dense system.

Production set-up runs the same iteration batched in the ``fsai_precalc``
kernel op (:mod:`repro.kernels.precalc`); this per-system solve is its
independent test oracle.  With the op's Jacobi fallback applied to rows
whose estimate has a non-positive or non-finite diagonal, it reproduces
:func:`repro.fsai.frobenius.precalculate_g` to roundoff.  This module also
owns the precalculation defaults.
"""

from __future__ import annotations

import numpy as np

from repro._typing import FloatArray
from repro.errors import ShapeError

__all__ = [
    "solve_spd_approximate",
]

#: Loose defaults matching the paper's intent: a handful of iterations at a
#: tolerance that discriminates magnitudes, not digits.
DEFAULT_PRECALC_RTOL = 1e-2
DEFAULT_PRECALC_ITERATIONS = 20


def solve_spd_approximate(
    a: np.ndarray,
    b: FloatArray,
    *,
    rtol: float = DEFAULT_PRECALC_RTOL,
    max_iterations: int = DEFAULT_PRECALC_ITERATIONS,
) -> FloatArray:
    """Approximate solution of one dense SPD system by truncated CG.

    Never raises on slow convergence — whatever iterate is reached within
    the budget is returned (the §5 filter only compares magnitudes).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    k = a.shape[0]
    if a.shape != (k, k) or b.shape != (k,):
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    if k == 0:
        return np.empty(0)
    x = np.zeros(k)
    r = b.copy()
    norm0 = float(np.linalg.norm(r))
    if norm0 == 0.0:
        return x
    d = r.copy()
    rho = float(r @ r)
    for _ in range(max_iterations):
        q = a @ d
        dq = float(d @ q)
        if dq <= 0:
            break
        alpha = rho / dq
        x += alpha * d
        r -= alpha * q
        if np.linalg.norm(r) <= rtol * norm0:
            break
        rho_new = float(r @ r)
        d *= rho_new / rho
        d += r
        rho = rho_new
    return x
