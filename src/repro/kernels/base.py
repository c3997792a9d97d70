"""Kernel-backend interface: the solve-side hot-path primitives.

The paper's wall-time analysis (§2) shows PCG time is dominated by two
memory-bound kernels — the SpMV with ``A`` and the FSAI application
``z = G^T (G r)`` — so those, plus the PCG vector updates, are the
operations a backend must provide.  Serving many right-hand sides
against one operator adds their blocked twins: the SpMM ``A @ X`` over
an ``(n, k)`` block and the fused multi-vector FSAI application, which
amortise one traversal of the sparse index stream across ``k`` vectors.
Everything else in the library stays backend-agnostic and calls these
primitives through the registry (:func:`repro.kernels.get_backend`).

Operand contract
----------------
Sparse operands are duck-typed CSR objects (in practice
:class:`repro.sparse.csr.CSRMatrix`) exposing ``n_rows``, ``n_cols``,
``indptr``, ``indices``, ``data`` plus the cached structure helpers
``row_ids()``, ``row_segments()`` and ``col_segments()``.  Backends never
mutate operands; any auxiliary structure they need is cached on the
matrix so repeated calls (the CG loop) pay for it once.

Dense operands (``x``, the block ``X``, ``r``/``R``) are validated at
every public entry point: a non-float64 input is upcast to float64 with
a :class:`KernelInputWarning` (a silent float32 operand would otherwise
crash deep inside a workspace kernel, or quietly degrade precision), and
a non-contiguous input is compacted silently.  ``out`` buffers are the
caller's result storage and cannot be coerced — a wrong dtype or shape
raises immediately.  The *bound handles* (``spmv_op`` and friends) skip
this validation by contract: they are built once per solve for loops
that own their buffers.

Workspace contract
------------------
Every primitive accepts optional caller-owned buffers and allocates only
when they are omitted:

``out``
    Result buffer (``n_rows`` for :meth:`spmv`, ``n_cols`` for
    :meth:`spmv_t`, ``n`` for :meth:`fsai_apply`; the blocked variants
    take the ``(·, k)`` analogues).  Always returned, so call sites read
    uniformly whether they preallocated or not.
``scratch``
    ``nnz``-length float buffer (``(nnz, k)`` for the blocked kernels)
    for the gather product ``data * x[...]``.  The NumPy backends leave
    the (structure-ordered) products behind in it; other backends may
    ignore it entirely — its contents are backend-specific, only its
    role is contractual.  Backends that fall back to the column-loop
    defaults for the blocked kernels ignore ``scratch`` there.
``tmp``
    ``n``-length (``(n, k)`` for :meth:`fsai_apply_multi`) float buffer
    holding the intermediate ``t = G r`` of the fused FSAI application.
``work``
    ``n``-length float buffer for :meth:`pcg_step`'s AXPY temporaries.

With all buffers supplied, a backend performs **no per-call heap
allocation** in ``spmv``/``fsai_apply``/``pcg_step``/``pcg_direction``
(the empty-row/empty-column correction path of the NumPy backend is the
one documented exception; FSAI factors and SPD system matrices never
take it).  See ``docs/kernels.md`` for the full rationale.
"""

from __future__ import annotations

import warnings
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Optional, Tuple

import numpy as np

from repro import trace
from repro.kernels.precalc import run_fsai_precalc, solve_precalc_stack
from repro.kernels.setup import (
    gather_group_stack,
    run_fsai_setup,
    solve_group_stack,
)
from repro.kernels.spgemm import SpgemmPlan, plan_spgemm, spgemm_numeric

if TYPE_CHECKING:  # pragma: no cover - runtime import would be circular
    from repro.sparse.pattern import Pattern

__all__ = ["KernelBackend", "KernelInputWarning", "coerce_operand"]


def _pattern_view(m: Any) -> "Pattern":
    """Structure view of a duck-typed CSR operand (no validation copy)."""
    from repro.sparse.pattern import Pattern

    pattern = getattr(m, "pattern", None)
    if isinstance(pattern, Pattern):
        return pattern
    return Pattern(m.n_rows, m.n_cols, m.indptr, m.indices, _validated=True)


class KernelInputWarning(UserWarning):
    """A kernel operand needed upcasting to float64 at the boundary."""


def coerce_operand(
    x: Any, *, name: str = "x", ndim: Optional[int] = None,
) -> np.ndarray:
    """Validate a dense kernel input: float64, C-contiguous, right rank.

    Non-float64 inputs (float32 data files, integer RHS from tests) are
    upcast with a :class:`KernelInputWarning`; non-contiguous float64
    inputs (column slices of a block) are compacted silently — only the
    gather path's speed is at stake there, never correctness.
    """
    arr = np.asarray(x)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(
            f"kernel operand {name!r} must be {ndim}-D, got shape {arr.shape}"
        )
    if arr.dtype != np.float64:
        warnings.warn(
            f"kernel operand {name!r} has dtype {arr.dtype}; upcasting to "
            "float64 (supply float64 data to avoid the copy)",
            KernelInputWarning,
            stacklevel=3,
        )
        return np.ascontiguousarray(arr, dtype=np.float64)
    if not arr.flags.c_contiguous:
        return np.ascontiguousarray(arr)
    return arr


def _prepare_out(
    out: Optional[np.ndarray], shape: Tuple[int, ...], *, name: str = "out",
) -> np.ndarray:
    """Allocate ``out`` when omitted; reject unusable caller buffers.

    ``out`` is where the caller will read the result, so unlike inputs it
    cannot be coerced — a silent copy would leave the caller's buffer
    stale.  Wrong dtype or shape therefore raises.
    """
    if out is None:
        return np.empty(shape)
    if out.dtype != np.float64:
        raise TypeError(
            f"{name} buffer must be float64, got {out.dtype} "
            "(kernels write results in place; a cast copy would be lost)"
        )
    if out.shape != shape:
        raise ValueError(f"{name} has shape {out.shape}, expected {shape}")
    return out


class KernelBackend(ABC):
    """Abstract kernel backend: SpMV / SpMM / FSAI-apply / PCG primitives.

    Implementations must be numerically equivalent — the property suite
    (``tests/kernels``) holds every registered backend to the dense
    reference within ``1e-13`` — but are free to differ in summation
    strategy, parallelism and workspace use.

    The public entry points (:meth:`spmv`, :meth:`spmm`, …) validate
    operands and allocate missing ``out`` buffers, then delegate to the
    ``_``-prefixed hooks backends actually implement.  The blocked
    kernels (:meth:`spmm`, :meth:`spmm_t`, :meth:`fsai_apply_multi`)
    default to a column loop over the single-vector hooks, so a minimal
    backend — including the reference oracle — is automatically
    multi-RHS-correct with the exact per-column summation order of its
    single-vector kernels.
    """

    #: Registry name; also stamped on trace spans (``backend=...``).
    name: str = "abstract"

    # ------------------------------------------------------------------
    # Sparse kernels — public validated entry points
    # ------------------------------------------------------------------
    def spmv(
        self, a: Any, x: np.ndarray, out: Optional[np.ndarray] = None,
        *, scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``out = A @ x`` over a CSR operand."""
        x = coerce_operand(x, name="x", ndim=1)
        out = _prepare_out(out, (a.n_rows,))
        return self._spmv(a, x, out, scratch)

    def spmv_t(
        self, a: Any, x: np.ndarray, out: Optional[np.ndarray] = None,
        *, scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``out = A.T @ x`` without materialising the transpose."""
        x = coerce_operand(x, name="x", ndim=1)
        out = _prepare_out(out, (a.n_cols,))
        return self._spmv_t(a, x, out, scratch)

    def fsai_apply(
        self, g: Any, r: np.ndarray, out: Optional[np.ndarray] = None,
        *, tmp: Optional[np.ndarray] = None,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Fused ``out = G^T (G r)`` from ``G``'s structure alone.

        The intermediate ``t = G r`` lives in ``tmp`` (never a fresh
        allocation when supplied), and the second product scatters through
        the same stored factor — no explicit ``G^T`` matrix is required.
        """
        r = coerce_operand(r, name="r", ndim=1)
        out = _prepare_out(out, (g.n_rows,))
        return self._fsai_apply(g, r, out, tmp, scratch)

    def spmm(
        self, a: Any, x: np.ndarray, out: Optional[np.ndarray] = None,
        *, scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``out = A @ X`` over an ``(n_cols, k)`` block of vectors.

        One traversal of ``A``'s index stream serves all ``k`` columns —
        the multi-RHS amortisation the blocked PCG is built on.
        ``scratch``, when a backend uses it, is ``(nnz, k)``.
        """
        x = coerce_operand(x, name="X", ndim=2)
        out = _prepare_out(out, (a.n_rows, x.shape[1]))
        return self._spmm(a, x, out, scratch)

    def spmm_t(
        self, a: Any, x: np.ndarray, out: Optional[np.ndarray] = None,
        *, scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``out = A.T @ X`` over an ``(n_rows, k)`` block."""
        x = coerce_operand(x, name="X", ndim=2)
        out = _prepare_out(out, (a.n_cols, x.shape[1]))
        return self._spmm_t(a, x, out, scratch)

    def fsai_apply_multi(
        self, g: Any, r: np.ndarray, out: Optional[np.ndarray] = None,
        *, tmp: Optional[np.ndarray] = None,
        scratch: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Fused ``out = G^T (G R)`` over an ``(n, k)`` residual block.

        The blocked twin of :meth:`fsai_apply`; ``tmp`` holds the
        ``(n, k)`` intermediate ``T = G R``.
        """
        r = coerce_operand(r, name="R", ndim=2)
        out = _prepare_out(out, (g.n_rows, r.shape[1]))
        return self._fsai_apply_multi(g, r, out, tmp, scratch)

    # ------------------------------------------------------------------
    # FSAI setup — the one *setup-side* kernel op
    # ------------------------------------------------------------------
    def fsai_setup(self, a: Any, pattern: Any, lengths=None) -> np.ndarray:
        """Normalised FSAI factor data for ``pattern`` over SPD ``a``.

        Solves every per-row local system ``A[S_i, S_i] ĝ = e_i`` in
        identity-padded groups and returns the ``pattern.nnz`` data array
        of the normalised factor ``G`` (see :mod:`repro.kernels.setup`
        for the grouping and determinism contract).  The driver is
        shared; backends override :meth:`_fsai_setup_build` (the gather)
        and :meth:`_fsai_setup_solve` (the batched Cholesky) — both must
        preserve the canonical per-element operation order so that every
        backend's output is byte-identical.

        Raises :class:`repro.errors.NotSPDError` when any local system
        is not SPD.  ``lengths`` is the caller's validated row-length
        array (recomputed when omitted).
        """
        return run_fsai_setup(self, a, pattern, lengths=lengths)

    def setup_threads(self) -> int:
        """Worker threads :meth:`fsai_setup` will use (1 = sequential).

        Stamped on ``fsai_setup`` trace spans and consulted by the
        orchestrator's thread-budget policy; parallel backends report
        their live thread-pool size.
        """
        return 1

    def _fsai_setup_build(
        self, keys, a_data, n_cols, indptr, indices, rows_parts, group, K,
        lower=None,
    ) -> np.ndarray:
        # Default: vectorized packed lower-triangle gather.  Buckets whose
        # tril(A) rows are short next to k(k+1)/2 expand those rows and
        # look each column up in the bucket's own sorted keys; the rest
        # probe every lower pair in A's keys (see gather_group_stack).
        # ``lower`` is lower_row_spans, built once per op call.
        # Gathered values are exact copies of a_data (or exact +0.0), so
        # either lookup, and any override, is bit-compatible.
        return gather_group_stack(
            keys, a_data, n_cols, indptr, indices, rows_parts, group, K,
            lower,
        )

    def _fsai_setup_solve(self, systems: np.ndarray) -> np.ndarray:
        # Default: the canonical vectorized fused-column Cholesky +
        # column back-substitution.  Overrides must replay the same
        # per-element operation sequence (see solve_group_stack).
        return solve_group_stack(systems)

    def fsai_precalc(
        self, a: Any, pattern: Any, *, rtol: float, max_iterations: int,
        lengths=None,
    ) -> np.ndarray:
        """Truncated-CG estimate data for ``pattern`` (the §5 precalc op).

        Runs the batched truncated CG on the same identity-padded groups
        as :meth:`fsai_setup` and returns the ``pattern.nnz`` data array
        of the *approximate* normalised factor used by the filtering
        step (see :mod:`repro.kernels.precalc` for the iteration
        schedule and determinism contract).  The driver is shared;
        backends reuse :meth:`_fsai_setup_build` for the gather and
        override :meth:`_fsai_precalc_solve` (the masked batched CG) —
        every backend's output is byte-identical.

        Breakdowns never raise: rows whose truncated estimate is not
        positive fall back to the Jacobi guess.  ``lengths`` is the
        caller's validated row-length array (recomputed when omitted).
        """
        return run_fsai_precalc(
            self, a, pattern, rtol, max_iterations, lengths=lengths
        )

    def _fsai_precalc_solve(
        self, systems: np.ndarray, rtol: float, max_iterations: int
    ) -> np.ndarray:
        # Default: the canonical batched masked CG.  Overrides must
        # replay the same per-element schedule (see solve_precalc_stack).
        return solve_precalc_stack(systems, rtol, max_iterations)

    # ------------------------------------------------------------------
    # SpGEMM — sparse × sparse products (setup-side, pattern-capped)
    # ------------------------------------------------------------------
    def spgemm(self, a: Any, b: Any, *, cap: Optional[Pattern] = None):
        """``A @ B`` over CSR operands, optionally capped to ``cap``.

        Runs both phases of the two-pass SpGEMM: the symbolic plan
        (:func:`repro.kernels.spgemm.plan_spgemm`) and the backend's
        numeric phase, returning a :class:`~repro.sparse.csr.CSRMatrix`
        on the product pattern — or on exactly ``cap``, with explicit
        zeros where no product lands (see the cap semantics in
        :mod:`repro.kernels.spgemm`).  Iterative callers multiplying on
        fixed structure should bind :meth:`spgemm_op` instead, which
        amortises the symbolic phase across products.
        """
        a_data = coerce_operand(a.data, name="a.data", ndim=1)
        b_data = coerce_operand(b.data, name="b.data", ndim=1)
        plan = plan_spgemm(_pattern_view(a), _pattern_view(b), cap=cap)
        with trace.span(
            "spgemm",
            backend=self.name,
            rows=plan.out.n_rows,
            nnz_out=plan.out.nnz,
            products=plan.n_products,
            capped=plan.capped,
        ):
            data = self._spgemm_numeric(plan, a_data, b_data)
        from repro.sparse.csr import CSRMatrix

        return CSRMatrix.from_pattern(plan.out, data)

    def spgemm_op(
        self,
        a_pattern: Optional[Pattern] = None,
        b_pattern: Optional[Pattern] = None,
        *,
        cap: Optional[Pattern] = None,
        plan: Optional[SpgemmPlan] = None,
    ):
        """Return ``op(a_data, b_data) -> data`` with the symbolic phase bound.

        The global SAI sweeps multiply on the *same* pattern pair dozens
        of times per setup; the bound handle runs :func:`plan_spgemm`
        once and every call is then pure numeric work.  Pass ``plan`` to
        reuse an already-built plan (it wins over the pattern arguments);
        the plan is exposed as ``op.plan`` for flop accounting.  Like the
        other bound handles, ``op`` skips per-call validation and opens
        no trace span.
        """
        if plan is None:
            if a_pattern is None or b_pattern is None:
                raise ValueError(
                    "spgemm_op needs either a prebuilt plan or both patterns"
                )
            plan = plan_spgemm(a_pattern, b_pattern, cap=cap)

        def op(a_data: np.ndarray, b_data: np.ndarray) -> np.ndarray:
            return self._spgemm_numeric(plan, a_data, b_data)

        op.plan = plan
        return op

    def _spgemm_numeric(
        self, plan: SpgemmPlan, a_data: np.ndarray, b_data: np.ndarray
    ) -> np.ndarray:
        # Default: the canonical vectorised gather-multiply-bincount
        # pass in the plan's Gustavson order.  Overrides must either
        # replay that accumulation order exactly (numba) or are held to
        # 1e-13 dense agreement instead (the reference oracle).
        return spgemm_numeric(plan, a_data, b_data)

    def spgemm_numeric_into(
        self,
        plan: SpgemmPlan,
        a_data: np.ndarray,
        b_data: np.ndarray,
        out: np.ndarray,
    ) -> np.ndarray:
        """Numeric phase written into a caller buffer.

        The global-SAI sweep loops call this dozens of times per setup
        with preallocated buffers; backends whose numeric kernel already
        writes in place (numba) override it to skip the copy.  Values
        are byte-identical to :meth:`_spgemm_numeric`.
        """
        np.copyto(out, self._spgemm_numeric(plan, a_data, b_data))
        return out

    # ------------------------------------------------------------------
    # Fused global-iteration sweep updates (see repro.fsai.global_iter)
    # ------------------------------------------------------------------
    # Each default below is the exact numpy expression the sweep loops
    # historically ran — overrides must stay byte-identical to it (the
    # cross-backend identity suite in tests/kernels/test_sweep_fused.py
    # pins this with tobytes() comparisons).  The numba backend fuses
    # each update with the capped SpGEMM row loop so the sweep touches
    # the pattern arrays once instead of materialising the intermediate
    # product and re-traversing it.

    def sweep_axpy_pair(
        self,
        x: np.ndarray,
        r: np.ndarray,
        w: np.ndarray,
        alpha: float,
    ) -> None:
        """Minimal-residual sweep update ``x += αr; r -= αw`` in place."""
        x += alpha * r
        r -= alpha * w

    def sweep_scale_add(
        self, d: np.ndarray, r: np.ndarray, c0: float, c1: float
    ) -> None:
        """Chebyshev direction update ``d = c0·d + c1·r`` in place."""
        d *= c0
        d += c1 * r

    def sweep_cheb_update(
        self,
        plan: SpgemmPlan,
        d: np.ndarray,
        b_data: np.ndarray,
        x: np.ndarray,
        r: np.ndarray,
        w: np.ndarray,
    ) -> None:
        """Chebyshev sweep core ``x += d; r -= P_S(D·A)`` (``w`` scratch).

        ``plan`` must be the factor-equation plan (a/out patterns are
        both the factor pattern ``S``); ``b_data`` is ``A``'s data.
        """
        x += d
        self.spgemm_numeric_into(plan, d, b_data, w)
        r -= w

    def sweep_ns_correction(
        self,
        plan: SpgemmPlan,
        z: np.ndarray,
        x: np.ndarray,
        x_next: np.ndarray,
        scratch: np.ndarray,
    ) -> np.ndarray:
        """Newton–Schulz correction ``x_next = 2x − P_S(Z·X)``.

        ``x_next`` must not alias ``x`` or ``scratch``; all three share
        the factor pattern's data layout.
        """
        self.spgemm_numeric_into(plan, z, x, scratch)
        np.multiply(x, 2.0, out=x_next)
        np.subtract(x_next, scratch, out=x_next)
        return x_next

    # ------------------------------------------------------------------
    # Implementation hooks (operands pre-validated, ``out`` allocated)
    # ------------------------------------------------------------------
    @abstractmethod
    def _spmv(self, a, x, out, scratch) -> np.ndarray: ...

    @abstractmethod
    def _spmv_t(self, a, x, out, scratch) -> np.ndarray: ...

    @abstractmethod
    def _fsai_apply(self, g, r, out, tmp, scratch) -> np.ndarray: ...

    def _spmm(self, a, x, out, scratch) -> np.ndarray:
        # Default: one contiguous column at a time through the
        # single-vector kernel — per-column summation order is then
        # *identical* to spmv, which is what makes this the oracle the
        # vectorized backends are tested against.
        xcol = np.empty(x.shape[0])
        ycol = np.empty(out.shape[0])
        for j in range(x.shape[1]):
            np.copyto(xcol, x[:, j])
            self._spmv(a, xcol, ycol, None)
            out[:, j] = ycol
        return out

    def _spmm_t(self, a, x, out, scratch) -> np.ndarray:
        xcol = np.empty(x.shape[0])
        ycol = np.empty(out.shape[0])
        for j in range(x.shape[1]):
            np.copyto(xcol, x[:, j])
            self._spmv_t(a, xcol, ycol, None)
            out[:, j] = ycol
        return out

    def _fsai_apply_multi(self, g, r, out, tmp, scratch) -> np.ndarray:
        k = r.shape[1]
        if tmp is None or tmp.shape != (g.n_rows, k):
            tmp = np.empty((g.n_rows, k))
        self._spmm(g, r, tmp, scratch)
        return self._spmm_t(g, tmp, out, scratch)

    # ------------------------------------------------------------------
    # Bound kernel handles (OSKI-style tuned operators)
    # ------------------------------------------------------------------
    def spmv_op(self, a: Any, scratch: Optional[np.ndarray] = None):
        """Return ``op(x, out) -> out`` for repeated products with ``a``.

        Solver loops multiply by the *same* matrix thousands of times;
        a bound handle lets a backend resolve the per-matrix strategy
        (format selection, cached views, workspaces) once instead of on
        every call.  Bound handles skip per-call operand validation — the
        solver validated its buffers when it allocated them.  The default
        just closes over :meth:`_spmv`.
        """
        def op(x: np.ndarray, out: np.ndarray) -> np.ndarray:
            return self._spmv(a, x, out, scratch)
        return op

    def fsai_apply_op(self, g: Any, tmp: np.ndarray,
                      scratch: Optional[np.ndarray] = None):
        """Return ``op(r, out) -> out`` applying ``G^T (G r)`` repeatedly.

        Same rationale as :meth:`spmv_op`, for the preconditioner
        application — the other half of every PCG iteration's cost.
        """
        def op(r: np.ndarray, out: np.ndarray) -> np.ndarray:
            return self._fsai_apply(g, r, out, tmp, scratch)
        return op

    def spmm_op(self, a: Any, scratch: Optional[np.ndarray] = None):
        """Return ``op(X, out) -> out`` for repeated block products.

        The blocked twin of :meth:`spmv_op`: the multi-RHS PCG binds one
        handle per solve, so each iteration's SpMM is a single call with
        the format dispatch already resolved.  ``scratch`` is the
        ``(nnz, k)`` gather workspace for backends that use one.
        """
        def op(x: np.ndarray, out: np.ndarray) -> np.ndarray:
            return self._spmm(a, x, out, scratch)
        return op

    def fsai_apply_multi_op(self, g: Any, tmp: np.ndarray,
                            scratch: Optional[np.ndarray] = None):
        """Return ``op(R, out) -> out`` for the blocked FSAI application.

        ``tmp`` is the caller-owned ``(n, k)`` intermediate block.
        """
        def op(r: np.ndarray, out: np.ndarray) -> np.ndarray:
            return self._fsai_apply_multi(g, r, out, tmp, scratch)
        return op

    # ------------------------------------------------------------------
    # PCG vector primitives
    # ------------------------------------------------------------------
    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        """Euclidean inner product (shared default: BLAS ``np.dot``)."""
        return float(np.dot(u, v))

    @abstractmethod
    def pcg_step(
        self, alpha: float, x: np.ndarray, d: np.ndarray, r: np.ndarray,
        q: np.ndarray, work: Optional[np.ndarray] = None,
    ) -> float:
        """Fused PCG iterate update; returns the new ``r·r``.

        In place: ``x += alpha d``; ``r -= alpha q``; the squared residual
        norm of the updated ``r`` comes back so the convergence test needs
        no extra pass.
        """

    @abstractmethod
    def pcg_direction(self, beta: float, d: np.ndarray, z: np.ndarray) -> None:
        """In place ``d = z + beta d`` (the PCG search-direction update)."""

    # ------------------------------------------------------------------
    # Dense batched kernel (the §5 precalculation's lockstep local CG)
    # ------------------------------------------------------------------
    @abstractmethod
    def stacked_matvec(
        self, a_stack: np.ndarray, d_stack: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``out[i] = a_stack[i] @ d_stack[i]`` over an ``(m, k, k)`` stack."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
