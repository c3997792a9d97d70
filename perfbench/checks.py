"""Correctness checks made from outside the program under test.

Every check is computed with plain NumPy on the CSR arrays, never through
the kernel backends the solver used, so a broken backend cannot vouch for
itself.  Each check counts as one attempted operation; a check that does
not hold counts as one failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

#: A returned solution passes when ``‖b − A x‖ / ‖b‖ ≤ TRUE_RESIDUAL_FACTOR · rtol``.
#: The solver stops on its recurrence residual; the true residual drifts a
#: little above it (6.4e-9 to 9.8e-9 at rtol = 1e-8 on the scale matrices).
TRUE_RESIDUAL_FACTOR = 10.0

#: An exact FSAI factor passes when ``max |diag(G A Gᵀ) − 1| ≤ DIAG_TOL``
#: (about 1e-13 in practice; the normalisation guarantees exactly 1).
DIAG_TOL = 1e-8

#: G entries expanded per chunk in :func:`diag_gagt_error` (bounds memory).
_CHUNK = 100_000


def csr_matvec(a, x: np.ndarray) -> np.ndarray:
    """``A x`` from the raw CSR arrays, independent of the kernel backends."""
    rows = np.repeat(np.arange(a.n_rows), np.diff(a.indptr))
    return np.bincount(rows, weights=a.data * x[a.indices], minlength=a.n_rows)


def true_relative_residual(a, x: np.ndarray, b: np.ndarray) -> float:
    """``‖b − A x‖₂ / ‖b‖₂`` with one SpMV made outside the solver."""
    return float(np.linalg.norm(b - csr_matvec(a, x)) / np.linalg.norm(b))


def diag_gagt_error(a, g) -> float:
    """``max_i |(G A Gᵀ)_ii − 1|`` without forming ``G A Gᵀ``.

    ``(G A Gᵀ)_ii = Σ_{j,k} g_ij a_jk g_ik``: every entry ``g_ij`` is
    expanded over row ``j`` of ``A`` and paired with ``g_ik`` when ``(i, k)``
    is in the pattern of ``G``.
    """
    n = g.n_rows
    g_rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
    g_keys = g_rows * n + g.indices
    order = np.argsort(g_keys, kind="stable")
    sorted_keys = g_keys[order]
    sorted_vals = g.data[order]
    a_len = np.diff(a.indptr)
    diag = np.zeros(n)
    for lo in range(0, g.nnz, _CHUNK):
        hi = min(lo + _CHUNK, g.nnz)
        i, j, gij = g_rows[lo:hi], g.indices[lo:hi], g.data[lo:hi]
        cnt = a_len[j]
        total = int(cnt.sum())
        first = np.cumsum(cnt) - cnt
        pos_in_a = np.repeat(a.indptr[j] - first, cnt) + np.arange(total)
        rep_i = np.repeat(i, cnt)
        key = rep_i * n + a.indices[pos_in_a]
        pos = np.minimum(np.searchsorted(sorted_keys, key), len(sorted_keys) - 1)
        hit = sorted_keys[pos] == key
        terms = np.repeat(gij, cnt) * a.data[pos_in_a] * sorted_vals[pos]
        diag += np.bincount(rep_i[hit], weights=terms[hit], minlength=n)
    return float(np.max(np.abs(diag - 1.0)))


@dataclass
class Checks:
    """Tally of attempted and failed outside checks, with failure reasons."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Largest true relative residual seen, as a multiple of rtol.
    worst_residual_ratio: float = 0.0
    #: Largest ``max |diag(G A Gᵀ) − 1|`` seen.
    worst_diag_error: float = 0.0

    def record(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(reason)
        return ok

    def solve(self, label: str, a, b: np.ndarray, result, rtol: float) -> bool:
        """The solve converged and its true residual is within bounds."""
        if not result.converged:
            return self.record(False, f"{label}: solver reports no convergence")
        res = true_relative_residual(a, result.x, b)
        ratio = res / rtol
        if np.isfinite(ratio):
            self.worst_residual_ratio = max(self.worst_residual_ratio, ratio)
        return self.record(
            bool(ratio <= TRUE_RESIDUAL_FACTOR),
            f"{label}: true relative residual {res:.3e} > "
            f"{TRUE_RESIDUAL_FACTOR:g} x rtol",
        )

    def factor(self, label: str, a, g) -> bool:
        """``G`` is an exact FSAI factor: ``diag(G A Gᵀ) = 1``."""
        err = diag_gagt_error(a, g)
        if np.isfinite(err):
            self.worst_diag_error = max(self.worst_diag_error, err)
        return self.record(
            bool(err <= DIAG_TOL),
            f"{label}: max |diag(G A G^T) - 1| = {err:.3e} > {DIAG_TOL:g}",
        )

    def grid_run(self, label: str, run, rtol: float) -> bool:
        """A paper-grid solve converged to its tolerance (solver residual)."""
        return self.record(
            bool(run.converged and run.relative_residual <= rtol),
            f"{label}: converged={run.converged}, "
            f"relative residual {run.relative_residual:.3e}",
        )

    def same_factor(self, label: str, g, ref) -> bool:
        """Two set-ups of the same matrix produced byte-identical factors."""
        ok = (
            np.array_equal(g.indptr, ref.indptr)
            and np.array_equal(g.indices, ref.indices)
            and np.array_equal(g.data, ref.data)
        )
        return self.record(ok, f"{label}: factor differs from the first set-up")
