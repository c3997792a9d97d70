"""End-to-end FSAI setups: baseline, FSAIE(sp), FSAIE(full) and ablations.

Each ``setup_*`` function runs the full pipeline of its method and returns a
:class:`FSAISetup` carrying the application object, every intermediate
pattern, and a per-phase flop ledger that the performance model converts to
the paper's setup-time column (§7.4).

Method ↔ paper mapping
----------------------
========================  ====================================================
:func:`setup_fsai`        Algorithm 1 as configured in §7.1 (pattern =
                          ``tril(A)``, no thresholding, null-entry filter).
:func:`setup_fsaie_sp`    Algorithm 4 without steps 5-6: one cache-friendly
                          extension optimising the ``G p`` product.
:func:`setup_fsaie_full`  Algorithm 4 complete: second extension on the
                          transposed pattern optimising ``G^T q``.
:func:`setup_fsaie_joint` §6 ablation: extending ``G`` and ``G^T`` patterns
                          *simultaneously* (single precalc+filter pass) —
                          shown by the paper to break cache-friendliness.
:func:`setup_fsaie_random` §7.3 baseline: random extension at matched
                          per-row entry counts.
:func:`sweep_fsaie`       Algorithm 4 over a whole filter sweep: the
                          filter-independent steps once, then one tail per
                          ``(method, filter)``; the three FSAIE builders
                          above are its one-method, one-filter calls.
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro import trace
from repro.arch.address import ArrayPlacement
from repro.errors import ConfigurationError
from repro.fsai.fillin import extend_pattern_cache_friendly
from repro.fsai.filtering import filter_extension_by_precalc
from repro.fsai.frobenius import (
    compute_g,
    precalculate_g,
    setup_flops_direct,
    setup_flops_precalc,
)
from repro.fsai.patterns import fsai_initial_pattern
from repro.fsai.precond import FSAIApplication
from repro.fsai.random_ext import extend_pattern_random
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import Pattern

__all__ = [
    "FSAISetup",
    "setup_fsai",
    "setup_fsaie_sp",
    "setup_fsaie_full",
    "setup_fsaie_joint",
    "setup_fsaie_random",
    "sweep_fsaie",
    "SWEEP_METHODS",
]

#: Default *filter* for the headline experiments (best common value, §7.2).
DEFAULT_FILTER = 0.01


@dataclass
class FSAISetup:
    """Everything produced by one FSAI setup.

    Attributes
    ----------
    method:
        A name from the method registry (:mod:`repro.fsai.registry`):
        ``"fsai"`` / ``"fsaie_sp"`` / ``"fsaie_full"`` / ``"fsaie_joint"`` /
        ``"fsaie_random"`` here, or one of the global iterative methods
        built in :mod:`repro.fsai.global_iter` (``"gsai_st"`` /
        ``"gsai_cheb"`` / ``"gsai_ns"``).
    application:
        The solver-facing preconditioner.
    base_pattern:
        The a-priori pattern (lower triangle of ``Ã^N``).
    final_pattern:
        Pattern of the computed ``G``.
    flops:
        Per-phase flop ledger (keys: ``precalc1``, ``precalc2``, ``direct``,
        or ``global`` for the iterative methods); the cost model maps the
        total to setup seconds.
    filter_value:
        Filter parameter used (``None`` for the baseline).
    sweeps:
        Global-iteration sweeps actually executed (``None`` for the local
        Frobenius methods, which have no sweep notion).
    """

    method: str
    application: FSAIApplication
    base_pattern: Pattern
    final_pattern: Pattern
    flops: Dict[str, int] = field(default_factory=dict)
    filter_value: Optional[float] = None
    sweeps: Optional[int] = None

    @property
    def g(self) -> CSRMatrix:
        return self.application.g

    @property
    def setup_flops(self) -> int:
        """Total flops across all setup phases."""
        return int(sum(self.flops.values()))

    @property
    def nnz_increase_pct(self) -> float:
        """Paper's %NNZ: pattern-entry increase over the FSAI base pattern."""
        if self.base_pattern.nnz == 0:
            return 0.0
        return 100.0 * (self.final_pattern.nnz - self.base_pattern.nnz) / self.base_pattern.nnz

    def added_per_row(self) -> np.ndarray:
        """Entries added per row w.r.t. the base pattern (random-baseline input)."""
        return np.asarray(
            self.final_pattern.row_lengths() - self.base_pattern.row_lengths()
        )

    def __repr__(self) -> str:
        return (
            f"FSAISetup({self.method}, n={self.final_pattern.n_rows}, "
            f"nnz={self.final_pattern.nnz}, +{self.nnz_increase_pct:.2f}%)"
        )


def _base(a: CSRMatrix, level: int, threshold: float) -> Pattern:
    return fsai_initial_pattern(a, level=level, threshold=threshold)


def setup_fsai(
    a: CSRMatrix,
    *,
    level: int = 1,
    threshold: float = 0.0,
) -> FSAISetup:
    """Baseline FSAI (paper Alg. 1 in the §7.1 configuration).

    Every ``setup_*`` function resolves its kernel backend as
    :func:`repro.fsai.frobenius.compute_g` does by default:
    ``$REPRO_KERNEL_BACKEND``, then ``"auto"``.
    """
    with trace.span("fsai.setup", method="fsai", n=a.n_rows):
        base = _base(a, level, threshold)
        g = compute_g(a, base).prune_zeros()
        final = g.pattern
        return FSAISetup(
            method="fsai",
            application=FSAIApplication(g),
            base_pattern=base,
            final_pattern=final,
            flops={"direct": setup_flops_direct(base)},
            filter_value=None,
        )


#: Methods :func:`sweep_fsaie` builds: Algorithm 4 and its §6 ablation.
SWEEP_METHODS: Tuple[str, ...] = ("fsaie_sp", "fsaie_full", "fsaie_joint")


@dataclass
class _SweepPrefix:
    """Filter-independent output of one sweep: what every tail starts from."""

    base: Pattern
    #: Step 4 per filter (the filtered first extension ``S_ext``).
    s_ext: Dict[float, Pattern]
    #: The joint ablation's filtered union pattern per filter.
    joint: Dict[float, Pattern]
    #: ``precalc1`` flops of the first extension and of the joint union.
    ext1_flops: int = 0
    joint_flops: int = 0


def _sweep_prefix(
    a: CSRMatrix,
    placement: ArrayPlacement,
    methods: Sequence[str],
    filters: Sequence[float],
    level: int,
    threshold: float,
    precalc_rtol: float,
    precalc_iterations: int,
) -> _SweepPrefix:
    """Steps 1-4 of Algorithm 4 (and the joint union's precalc) once.

    The precalculated factors are filtered at every filter here and then
    dropped, so only patterns outlive the prefix.
    """
    def precalc(pattern: Pattern) -> CSRMatrix:
        return precalculate_g(
            a, pattern, rtol=precalc_rtol, max_iterations=precalc_iterations,
        )

    with trace.span(
        "fsai.sweep",
        n=a.n_rows,
        methods=",".join(methods),
        filters=",".join(f"{f:g}" for f in filters),
    ):
        prefix = _SweepPrefix(
            base=_base(a, level, threshold), s_ext={}, joint={}
        )
        base = prefix.base
        # Step 2: extend G's pattern (the joint ablation's lower half too).
        ext1 = extend_pattern_cache_friendly(base, placement, triangular="lower")
        if "fsaie_sp" in methods or "fsaie_full" in methods:
            # Steps 3-4: precalculate once, filter at every filter.
            g_approx = precalc(ext1)
            prefix.ext1_flops = setup_flops_precalc(ext1, precalc_iterations)
            prefix.s_ext = {
                f: filter_extension_by_precalc(g_approx, base, f)
                for f in filters
            }
        if "fsaie_joint" in methods:
            ext_gt = extend_pattern_cache_friendly(
                base.transpose(), placement, triangular="upper"
            ).transpose()
            union = ext1.union(ext_gt)
            g_approx = precalc(union)
            prefix.joint_flops = setup_flops_precalc(union, precalc_iterations)
            prefix.joint = {
                f: filter_extension_by_precalc(g_approx, base, f)
                for f in filters
            }
        return prefix


def sweep_fsaie(
    a: CSRMatrix,
    placement: ArrayPlacement,
    methods: Sequence[str],
    filters: Sequence[float],
    *,
    level: int = 1,
    threshold: float = 0.0,
    precalc_rtol: float = 1e-2,
    precalc_iterations: int = 20,
) -> Iterator[Tuple[Tuple[str, float], FSAISetup]]:
    """Algorithm 4 over a filter sweep: one pass, every ``(method, filter)``.

    Yields ``((method, filter_value), setup)`` in ``methods × filters``
    order.  Steps 1-3 (initial pattern, cache-friendly extension of ``G``,
    §5 precalculation) do not depend on *filter*, so they run once per
    call under one ``fsai.sweep`` span, together with step 4 at every
    filter and the joint ablation's union precalculation.  FSAIE(sp) is
    the step-4 exit of the same pass as FSAIE(full): both start from the
    one ``S_ext`` per filter.  Each ``(method, filter)`` tail then runs
    under its own ``fsai.setup`` span — the exact ``G`` (step 7), preceded
    for FSAIE(full) by the transpose extension and its precalculation
    and filtering (steps 5-6).

    The prefix runs at the first ``next()`` and tails run one per
    ``next()``, so a consumer holds one tail's set-up at a time.  Each
    set-up equals the stand-alone ``setup_*`` output in every field,
    including the ``precalc1`` flops the cost model charges to every
    stand-alone set-up.
    """
    unknown = [m for m in methods if m not in SWEEP_METHODS]
    if unknown:
        raise ConfigurationError(
            f"sweep_fsaie builds {SWEEP_METHODS}, not {unknown}"
        )
    if not methods or not filters:
        return
    prefix = _sweep_prefix(
        a, placement, methods, filters,
        level, threshold, precalc_rtol, precalc_iterations,
    )
    for method in methods:
        for f in filters:
            with trace.span(
                "fsai.setup", method=method, n=a.n_rows, filter_value=f
            ):
                if method == "fsaie_joint":
                    final = prefix.joint[f]
                    flops = {"precalc1": prefix.joint_flops}
                elif method == "fsaie_sp":
                    final = prefix.s_ext[f]
                    flops = {"precalc1": prefix.ext1_flops}
                else:
                    # Steps 5-6: extend (S_ext)^T, precalculate, filter.
                    s_ext = prefix.s_ext[f]
                    ext2 = extend_pattern_cache_friendly(
                        s_ext.transpose(), placement, triangular="upper"
                    ).transpose()  # back to the lower-triangular world of G
                    g_approx2 = precalculate_g(
                        a, ext2,
                        rtol=precalc_rtol, max_iterations=precalc_iterations,
                    )
                    final = filter_extension_by_precalc(g_approx2, s_ext, f)
                    flops = {
                        "precalc1": prefix.ext1_flops,
                        "precalc2": setup_flops_precalc(
                            ext2, precalc_iterations
                        ),
                    }
                # Step 7: exact G on the final pattern.
                g = compute_g(a, final)
                flops["direct"] = setup_flops_direct(final)
                setup = FSAISetup(
                    method=method,
                    application=FSAIApplication(g),
                    base_pattern=prefix.base,
                    final_pattern=final,
                    flops=flops,
                    filter_value=f,
                )
            yield (method, f), setup


def setup_fsaie_sp(
    a: CSRMatrix,
    placement: ArrayPlacement,
    *,
    filter_value: float = DEFAULT_FILTER,
    level: int = 1,
    threshold: float = 0.0,
    precalc_rtol: float = 1e-2,
    precalc_iterations: int = 20,
) -> FSAISetup:
    """FSAIE(sp): one cache-friendly extension + precalc filtering.

    Optimises spatial locality of the ``G p`` product; the paper notes the
    extension *also* improves temporal locality of ``G^T q`` for free
    (§4.3).  A one-filter :func:`sweep_fsaie`.
    """
    ((_, setup),) = sweep_fsaie(
        a, placement, ("fsaie_sp",), (filter_value,), level=level,
        threshold=threshold, precalc_rtol=precalc_rtol,
        precalc_iterations=precalc_iterations,
    )
    return setup


def setup_fsaie_full(
    a: CSRMatrix,
    placement: ArrayPlacement,
    *,
    filter_value: float = DEFAULT_FILTER,
    level: int = 1,
    threshold: float = 0.0,
    precalc_rtol: float = 1e-2,
    precalc_iterations: int = 20,
) -> FSAISetup:
    """FSAIE(full): Algorithm 4 — two-step extension of ``G`` then ``G^T``.

    Step order matters (§6): the transpose extension runs on the *filtered*
    first extension, which is what keeps every added entry cache-friendly
    for its own product.  A one-filter :func:`sweep_fsaie`.
    """
    ((_, setup),) = sweep_fsaie(
        a, placement, ("fsaie_full",), (filter_value,), level=level,
        threshold=threshold, precalc_rtol=precalc_rtol,
        precalc_iterations=precalc_iterations,
    )
    return setup


def setup_fsaie_joint(
    a: CSRMatrix,
    placement: ArrayPlacement,
    *,
    filter_value: float = DEFAULT_FILTER,
    level: int = 1,
    threshold: float = 0.0,
    precalc_rtol: float = 1e-2,
    precalc_iterations: int = 20,
) -> FSAISetup:
    """§6 ablation: simultaneous extension of ``G`` and ``G^T`` patterns.

    Both extensions start from the *base* pattern and are unioned before a
    single precalculation + filtering pass.  The paper warns this "may
    produce non cache-friendly extended entries": entries added for the
    transposed product land in rows of ``G`` whose cache lines the first
    product never touched (and vice versa after filtering).  The ablation
    bench quantifies the resulting miss increase.  A one-filter
    :func:`sweep_fsaie`.
    """
    ((_, setup),) = sweep_fsaie(
        a, placement, ("fsaie_joint",), (filter_value,), level=level,
        threshold=threshold, precalc_rtol=precalc_rtol,
        precalc_iterations=precalc_iterations,
    )
    return setup


def setup_fsaie_random(
    a: CSRMatrix,
    reference: FSAISetup,
    *,
    seed: int = 0,
) -> FSAISetup:
    """§7.3 baseline: random extension with ``reference``'s per-row counts.

    The random pattern receives exactly as many new entries per row as the
    reference cache-friendly setup added (where the admissible range allows
    it), and the exact ``G`` is computed on it — so any performance gap to
    the reference is attributable purely to *where* the entries sit.
    """
    with trace.span("fsai.setup", method="fsaie_random", n=a.n_rows):
        base = reference.base_pattern
        random_pattern = extend_pattern_random(
            base, reference.added_per_row(), triangular="lower", seed=seed
        )
        g = compute_g(a, random_pattern)
        return FSAISetup(
            method="fsaie_random",
            application=FSAIApplication(g),
            base_pattern=base,
            final_pattern=random_pattern,
            flops={"direct": setup_flops_direct(random_pattern)},
            filter_value=reference.filter_value,
        )
