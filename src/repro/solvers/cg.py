"""Conjugate Gradient and Preconditioned Conjugate Gradient (paper §2.1).

Implementation notes
--------------------
* The recurrences follow Saad [34]: one SpMV, two dots (plus the residual
  norm), three AXPYs per iteration; PCG adds one preconditioner application
  and swaps the ``r·r`` dots for ``r·z``.
* Convergence test: ``‖r_k‖₂ ≤ rtol · ‖r₀‖₂`` (the paper reduces the initial
  residual by eight orders of magnitude, i.e. ``rtol = 1e-8``) with an
  absolute floor ``atol`` for the ``b = 0`` corner.
* The loop is **zero-allocation**: ``r``/``d``/``q``/``z`` plus one AXPY
  workspace and one ``nnz``-length SpMV gather scratch are allocated once
  up front, and every per-iteration operation — the SpMV, the fused
  iterate update (:meth:`~repro.kernels.base.KernelBackend.pcg_step`), the
  preconditioner application (``apply_into`` when the preconditioner
  supports it) and the direction update — runs in place through the active
  :mod:`repro.kernels` backend.
* ``flops`` counts the classic 2·nnz per SpMV, 2n per dot, 2n per AXPY and
  the preconditioner's own estimate, feeding the roofline model.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro import trace
from repro._einsum import _einsum
from repro._typing import FloatArray
from repro.errors import NonFiniteError, ShapeError
from repro.kernels import get_backend
from repro.solvers.convergence import (
    ConvergenceHistory,
    MultiSolveResult,
    SolveResult,
)
from repro.solvers.preconditioners import IdentityPreconditioner, Preconditioner
from repro.sparse.csr import CSRMatrix

__all__ = ["cg", "pcg", "pcg_multi", "require_finite"]

#: Paper §7.1: experiments "do not converge after 10000 iterations" are
#: excluded — we use the same default budget.
DEFAULT_MAX_ITERATIONS = 10_000

#: Paper §7.1: initial residual reduced by eight orders of magnitude.
DEFAULT_RTOL = 1e-8


def require_finite(v: np.ndarray, name: str) -> None:
    """Raise :class:`NonFiniteError` naming the first non-finite entry of ``v``."""
    bad = ~np.isfinite(v)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NonFiniteError(
            f"{name} has a non-finite entry at flat index {i}: {float(v.flat[i])}"
        )


def pcg(
    a: CSRMatrix,
    b: FloatArray,
    *,
    preconditioner: Optional[Preconditioner] = None,
    x0: Optional[FloatArray] = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = 0.0,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    record_history: bool = True,
) -> SolveResult:
    """Solve ``A x = b`` with (preconditioned) Conjugate Gradient.

    Parameters
    ----------
    a:
        SPD system matrix in CSR form.
    b:
        Right-hand side.  A NaN or infinity in ``b`` or ``x0`` raises
        :class:`~repro.errors.NonFiniteError` before any iteration.
    preconditioner:
        Object with ``apply``/``flops_per_application``; ``None`` runs plain
        CG (identity preconditioner, zero cost).
    x0:
        Initial guess; defaults to the zero vector (paper §7.1).
    rtol, atol:
        Stop when ``‖r‖₂ ≤ max(rtol · ‖r₀‖₂, atol)``.
    max_iterations:
        Iteration budget; exceeding it returns ``converged=False`` (no raise
        — campaign code treats non-convergence as data, as the paper does
    when excluding matrices).
    record_history:
        Store the full residual trace in the result.
    """
    if not trace.enabled():
        return _pcg(
            a, b, preconditioner=preconditioner, x0=x0, rtol=rtol, atol=atol,
            max_iterations=max_iterations, record_history=record_history,
        )
    with trace.span(
        "solvers.cg",
        n=a.n_rows,
        nnz=a.nnz,
        preconditioned=preconditioner is not None,
        backend=get_backend().name,
    ):
        result = _pcg(
            a, b, preconditioner=preconditioner, x0=x0, rtol=rtol, atol=atol,
            max_iterations=max_iterations, record_history=record_history,
        )
        trace.add_counter("cg.flops", result.flops)
        trace.set_attr("converged", result.converged)
    return result


def _pcg(
    a: CSRMatrix,
    b: FloatArray,
    *,
    preconditioner: Optional[Preconditioner],
    x0: Optional[FloatArray],
    rtol: float,
    atol: float,
    max_iterations: int,
    record_history: bool,
) -> SolveResult:
    if a.n_rows != a.n_cols:
        raise ShapeError(f"CG needs a square matrix, got {a.shape}")
    n = a.n_rows
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ShapeError(f"b has shape {b.shape}, expected ({n},)")
    if rtol < 0 or atol < 0:
        raise ValueError("tolerances must be non-negative")
    M = preconditioner if preconditioner is not None else IdentityPreconditioner(n)
    backend = get_backend()
    # Preconditioners exposing ``apply_into`` (FSAI, the trivial baselines)
    # write into the preallocated ``z``; anything else falls back to a copy.
    apply_into = getattr(M, "apply_into", None)

    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    if x.shape != (n,):
        raise ShapeError(f"x0 has shape {x.shape}, expected ({n},)")
    require_finite(b, "b")
    require_finite(x, "x0")

    spmv_flops = 2 * a.nnz
    precond_flops = M.flops_per_application()
    flops = 0

    # r0 = b - A x0 (skip the SpMV when x0 = 0).
    r = np.empty(n)
    if x0 is None or not np.any(x):
        np.copyto(r, b)
    else:
        np.subtract(b, a.matvec(x), out=r)
        flops += spmv_flops + n

    history = ConvergenceHistory() if record_history else None
    r_norm0 = math.sqrt(backend.dot(r, r))
    if history is not None:
        history.record(r_norm0)
    threshold = max(rtol * r_norm0, atol)
    if r_norm0 <= threshold:  # already converged (e.g. b = 0, x0 = 0)
        return SolveResult(
            x=x, converged=True, iterations=0, residual_norm=r_norm0,
            relative_residual=0.0 if r_norm0 == 0 else 1.0,
            history=history, flops=flops,
        )

    # The loop's entire working set, allocated once: three n-vectors plus a
    # shared AXPY workspace and the nnz-length SpMV gather scratch.  Every
    # statement below updates these buffers in place.
    z = np.empty(n)
    q = np.empty(n)
    work = np.empty(n)
    spmv_scratch = np.empty(a.nnz)
    # Bound product handle: format selection and view lookup resolved
    # once, so each iteration's SpMV is a single call into the kernel.
    spmv_op = backend.spmv_op(a, spmv_scratch)

    if apply_into is not None:
        apply_into(r, z)
    else:
        z[:] = M.apply(r)
    flops += precond_flops
    d = z.copy()
    rho = backend.dot(r, z)
    flops += 2 * n

    iterations = 0
    converged = False
    r_norm = r_norm0
    # Hot-loop locals: one attribute lookup per solve, not per iteration.
    dot = backend.dot
    pcg_step = backend.pcg_step
    pcg_direction = backend.pcg_direction
    for iterations in range(1, max_iterations + 1):
        trace.add_counter("cg.iterations")  # no-op unless tracing is on
        # Bound handle: shapes were validated once before the loop, so the
        # matvec wrapper's per-call checks are skipped here.
        spmv_op(d, q)
        dq = dot(d, q)
        flops += spmv_flops + 2 * n
        if dq <= 0:
            # Indefinite or numerically broken-down system: stop with the
            # current iterate rather than silently diverging.
            iterations -= 1
            break
        alpha = rho / dq
        # Fused in-place update: x += alpha d; r -= alpha q; new r·r back.
        rr = pcg_step(alpha, x, d, r, q, work)
        flops += 4 * n
        r_norm = math.sqrt(rr)
        flops += 2 * n
        if history is not None:
            history.record(r_norm)
        if r_norm <= threshold:
            converged = True
            break
        if apply_into is not None:
            apply_into(r, z)
        else:
            z[:] = M.apply(r)
        rho_new = dot(r, z)
        flops += precond_flops + 2 * n
        beta = rho_new / rho
        pcg_direction(beta, d, z)
        flops += 2 * n
        rho = rho_new

    return SolveResult(
        x=x,
        converged=converged,
        iterations=iterations,
        residual_norm=r_norm,
        relative_residual=r_norm / r_norm0 if r_norm0 > 0 else 0.0,
        history=history,
        flops=flops,
    )


def pcg_multi(
    a: CSRMatrix,
    b: FloatArray,
    *,
    preconditioner: Optional[Preconditioner] = None,
    x0: Optional[FloatArray] = None,
    rtol: float = DEFAULT_RTOL,
    atol: float = 0.0,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    record_history: bool = True,
) -> MultiSolveResult:
    """Solve ``A X = B`` for an ``(n, k)`` block of right-hand sides.

    Runs ``k`` mathematically independent PCG recurrences in lockstep
    with **per-column** ``alpha``/``beta``/convergence tests, so each
    column follows exactly the iteration :func:`pcg` would have taken —
    but every iteration makes one blocked SpMM and one blocked
    preconditioner application, traversing the sparse index streams of
    ``A``, ``G`` and ``G^T`` once for all ``k`` vectors instead of once
    per vector.  That amortisation is the entire speedup; converged (or
    broken-down) columns are frozen by a mask and compacted out of the
    active block once fewer than half remain, so stragglers don't drag
    finished columns' bandwidth along.

    Parameters match :func:`pcg` with ``b`` (and optional ``x0``) shaped
    ``(n, k)``; a 1-D ``b`` raises — use :func:`pcg` for a single vector —
    and so does a non-finite entry in ``b`` or ``x0``.
    Returns a :class:`~repro.solvers.convergence.MultiSolveResult` whose
    ``columns`` are per-column :class:`SolveResult` objects matching the
    single-RHS path (iterate, iteration count, residuals, optional
    history, flop estimate).
    """
    if not trace.enabled():
        return _pcg_multi(
            a, b, preconditioner=preconditioner, x0=x0, rtol=rtol, atol=atol,
            max_iterations=max_iterations, record_history=record_history,
        )
    b_arr = np.asarray(b)
    with trace.span(
        "solvers.cg_multi",
        n=a.n_rows,
        nnz=a.nnz,
        k=int(b_arr.shape[1]) if b_arr.ndim == 2 else -1,
        preconditioned=preconditioner is not None,
        backend=get_backend().name,
    ):
        result = _pcg_multi(
            a, b_arr, preconditioner=preconditioner, x0=x0, rtol=rtol,
            atol=atol, max_iterations=max_iterations,
            record_history=record_history,
        )
        trace.add_counter("cg.flops", result.flops)
        trace.set_attr("converged", result.converged)
    return result


def _pcg_multi(
    a: CSRMatrix,
    b: FloatArray,
    *,
    preconditioner: Optional[Preconditioner],
    x0: Optional[FloatArray],
    rtol: float,
    atol: float,
    max_iterations: int,
    record_history: bool,
) -> MultiSolveResult:
    if a.n_rows != a.n_cols:
        raise ShapeError(f"CG needs a square matrix, got {a.shape}")
    n = a.n_rows
    b = np.ascontiguousarray(b, dtype=np.float64)
    if b.ndim == 1:
        raise ShapeError(
            "pcg_multi takes an (n, k) block of right-hand sides; "
            "use pcg for a single vector"
        )
    if b.ndim != 2 or b.shape[0] != n:
        raise ShapeError(f"B has shape {b.shape}, expected ({n}, k)")
    k = b.shape[1]
    if rtol < 0 or atol < 0:
        raise ValueError("tolerances must be non-negative")
    M = preconditioner if preconditioner is not None else IdentityPreconditioner(n)
    backend = get_backend()

    # Master solution block; x0 is copied (never aliased), matching pcg.
    x_full = np.zeros((n, k)) if x0 is None else np.array(x0, dtype=np.float64)
    if x_full.shape != (n, k):
        raise ShapeError(f"x0 has shape {x_full.shape}, expected ({n}, {k})")
    if not x_full.flags.c_contiguous:
        x_full = np.ascontiguousarray(x_full)
    require_finite(b, "B")
    require_finite(x_full, "x0")

    spmv_flops = 2 * a.nnz
    precond_flops = M.flops_per_application()
    flops = np.zeros(k, dtype=np.int64)

    # R0 = B - A X0 (skip the SpMM when X0 = 0), one blocked product.
    r_full = np.empty((n, k))
    if x0 is None or not np.any(x_full):
        np.copyto(r_full, b)
    else:
        backend.spmm(a, x_full, r_full)
        np.subtract(b, r_full, out=r_full)
        flops += spmv_flops + n

    histories = [
        ConvergenceHistory() if record_history else None for _ in range(k)
    ]
    r_norm0 = np.sqrt(_einsum("ij,ij->j", r_full, r_full))
    for j in range(k):
        if histories[j] is not None:
            histories[j].record(float(r_norm0[j]))
    thresholds = np.maximum(rtol * r_norm0, atol)
    converged = r_norm0 <= thresholds  # columns done before iterating
    iterations = np.zeros(k, dtype=np.int64)
    r_norm_final = r_norm0.copy()

    # Blocked preconditioner application: the shipped preconditioners all
    # expose apply_multi_into; anything else falls back to a column loop
    # through contiguous per-column buffers.
    apply_multi = getattr(M, "apply_multi_into", None)
    apply_single = getattr(M, "apply_into", None)
    if apply_multi is None:
        col_r = np.empty(n)

        def apply_multi(r_block: np.ndarray, z_block: np.ndarray) -> np.ndarray:
            for j in range(r_block.shape[1]):
                np.copyto(col_r, r_block[:, j])
                if apply_single is not None:
                    z_block[:, j] = apply_single(col_r, np.empty(n))
                else:
                    z_block[:, j] = M.apply(col_r)
            return z_block

    cols = np.flatnonzero(~converged)  # original ids of the block's columns
    if k == 0 or len(cols) == 0:
        return _multi_result(
            x_full, converged, iterations, r_norm_final, r_norm0, histories,
            flops,
        )

    # The active block's entire working set, reallocated only at the rare
    # compaction points: five (n, kb) blocks plus the (nnz, kb) SpMM
    # gather scratch.  Every per-iteration statement updates these in
    # place; the only steady-state allocations are O(kb) coefficient
    # vectors.
    kb = len(cols)
    x_b = np.ascontiguousarray(x_full[:, cols])
    r_b = np.ascontiguousarray(r_full[:, cols])
    z_b = np.empty((n, kb))
    q_b = np.empty((n, kb))
    work_b = np.empty((n, kb))
    spmm_op = backend.spmm_op(a, np.empty((a.nnz, kb)))

    apply_multi(r_b, z_b)
    flops[cols] += precond_flops
    d_b = z_b.copy()
    rho = _einsum("ij,ij->j", r_b, z_b)
    flops[cols] += 2 * n
    active = np.ones(kb, dtype=bool)

    for it in range(1, max_iterations + 1):
        spmm_op(d_b, q_b)
        dq = _einsum("ij,ij->j", d_b, q_b)
        # Columns hitting breakdown (indefinite/numerically broken: d·q
        # <= 0) freeze at the *previous* iterate without converging —
        # exactly pcg's early break, per column.
        stepping = active & (dq > 0.0)
        active &= stepping
        if not np.any(stepping):
            break
        if trace.enabled():
            trace.add_counter("cg.iterations", int(stepping.sum()))
        alpha = np.where(stepping, rho / np.where(dq > 0.0, dq, 1.0), 0.0)
        # Frozen columns ride along with alpha = 0: their x/r columns are
        # bit-unchanged, so freezing costs bandwidth but never accuracy.
        np.multiply(d_b, alpha, out=work_b)
        x_b += work_b
        np.multiply(q_b, alpha, out=work_b)
        r_b -= work_b
        r_norm = np.sqrt(_einsum("ij,ij->j", r_b, r_b))
        step_cols = cols[stepping]
        iterations[step_cols] = it
        flops[step_cols] += spmv_flops + 8 * n
        r_norm_final[step_cols] = r_norm[stepping]
        if record_history:
            for jb in np.flatnonzero(stepping):
                histories[cols[jb]].record(float(r_norm[jb]))
        done = stepping & (r_norm <= thresholds[cols])
        if np.any(done):
            converged[cols[done]] = True
            active &= ~done
        if not np.any(active):
            break
        apply_multi(r_b, z_b)
        rho_new = _einsum("ij,ij->j", r_b, z_b)
        flops[cols[active]] += precond_flops + 4 * n
        beta = np.where(active, rho_new / np.where(rho != 0.0, rho, 1.0), 0.0)
        np.multiply(d_b, beta, out=work_b)
        np.add(z_b, work_b, out=d_b)
        rho = rho_new

        # Compaction: once fewer than half the block's columns are still
        # active, shrink every workspace to the survivors and rebind the
        # SpMM handle, so finished columns stop consuming bandwidth.
        n_active = int(active.sum())
        if n_active and n_active < kb / 2:
            x_full[:, cols] = x_b  # bank every column's current iterate
            keep = np.flatnonzero(active)
            cols = cols[keep]
            kb = len(cols)
            x_b = np.ascontiguousarray(x_b[:, keep])
            r_b = np.ascontiguousarray(r_b[:, keep])
            d_b = np.ascontiguousarray(d_b[:, keep])
            rho = rho[keep]
            z_b = np.empty((n, kb))
            q_b = np.empty((n, kb))
            work_b = np.empty((n, kb))
            spmm_op = backend.spmm_op(a, np.empty((a.nnz, kb)))
            active = np.ones(kb, dtype=bool)

    x_full[:, cols] = x_b
    return _multi_result(
        x_full, converged, iterations, r_norm_final, r_norm0, histories, flops,
    )


def _multi_result(
    x_full: np.ndarray,
    converged: np.ndarray,
    iterations: np.ndarray,
    r_norm_final: np.ndarray,
    r_norm0: np.ndarray,
    histories,
    flops: np.ndarray,
) -> MultiSolveResult:
    """Assemble per-column :class:`SolveResult` rows into the block result."""
    columns = []
    for j in range(x_full.shape[1]):
        rn0 = float(r_norm0[j])
        rn = float(r_norm_final[j])
        columns.append(
            SolveResult(
                x=x_full[:, j].copy(),
                converged=bool(converged[j]),
                iterations=int(iterations[j]),
                residual_norm=rn,
                relative_residual=rn / rn0 if rn0 > 0 else 0.0,
                history=histories[j],
                flops=int(flops[j]),
            )
        )
    return MultiSolveResult(x=x_full, columns=columns)


def cg(
    a: CSRMatrix,
    b: FloatArray,
    **kwargs,
) -> SolveResult:
    """Plain (unpreconditioned) Conjugate Gradient — :func:`pcg` sugar."""
    kwargs.pop("preconditioner", None)
    return pcg(a, b, preconditioner=None, **kwargs)
