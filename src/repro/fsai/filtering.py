"""Filtering strategies for FSAI patterns (paper §5).

Two strategies are implemented:

* :func:`standard_post_filter` — the state-of-the-art flow of Algorithm 1
  step 4: compute the exact ``G``, drop small entries, rescale the remaining
  rows so ``diag(G A G^T) = 1`` again.  The resulting ``G`` is *not*
  Frobenius-minimal on the filtered pattern, which degrades convergence for
  aggressive filters (Table 3).
* :func:`filter_extension_by_precalc` — the paper's proposal: classify
  entries with a cheap *approximate* ``G``, drop weak entries from the
  *pattern*, and let the caller recompute the exact ``G`` on the filtered
  pattern (Frobenius-minimal by construction).

Both use the same scale-independent magnitude test: an off-diagonal entry
``(i, j)`` is weak iff ``|g_ij| <= filter · |g_jj|`` where the diagonal
magnitudes come from the same (approximate or exact) ``G``.  Comparing
against the *column* diagonal makes the test exactly invariant under
symmetric diagonal scaling of ``A``: if ``A' = S A S`` then the FSAI rows
transform as ``g'_ij = g_ij / s_j``, so ``|g_ij| / |g_jj|`` is unchanged
(the property-based tests assert this).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import trace
from repro.errors import PatternError, ShapeError
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import Pattern

__all__ = [
    "weak_entry_mask",
    "filter_extension_by_precalc",
    "standard_post_filter",
]


def _diag_magnitudes(g: CSRMatrix) -> np.ndarray:
    """|g_ii| per row with a safe floor for (pathological) zero diagonals."""
    d = np.abs(g.diagonal())
    floor = d[d > 0].min() if np.any(d > 0) else 1.0
    return np.where(d > 0, d, floor)


def weak_entry_mask(g: CSRMatrix, filter_value: float) -> np.ndarray:
    """Boolean mask over stored entries: True where the entry is *weak*.

    Diagonal entries are never weak.  ``filter_value = 0`` marks only exact
    zeros (matching the paper's ``filter = 0.0`` configuration, which keeps
    every extension entry that carries any value at all).

    ``g`` must be square: the test compares each entry against its
    *column's* diagonal magnitude, which does not exist for a column
    beyond the last row.  A non-square ``g`` raises
    :class:`~repro.errors.ShapeError` (historically the column index was
    silently clamped to the last row, misclassifying those entries).
    """
    if filter_value < 0:
        raise ValueError("filter must be non-negative")
    if g.n_rows != g.n_cols:
        raise ShapeError(
            f"weak-entry classification needs a square G, got {g.shape}"
        )
    rows = g.row_ids()
    cols = g.indices
    d = _diag_magnitudes(g)
    scale = d[cols]
    weak = np.abs(g.data) <= filter_value * scale
    weak &= rows != cols
    if filter_value == 0:
        weak = (g.data == 0.0) & (rows != cols)
    return weak


def filter_extension_by_precalc(
    g_approx: CSRMatrix,
    base: Pattern,
    filter_value: float,
) -> Pattern:
    """§5 filtration: drop weak *extension* entries from the pattern.

    Parameters
    ----------
    g_approx:
        Approximate ``G`` precalculated on the extended pattern.
    base:
        The pre-extension pattern.  Base entries are immune — the paper's
        filtering "removes only entries of the extension".
    filter_value:
        The *filter* parameter (0.0 / 0.001 / 0.01 / 0.1 in the evaluation).

    Returns
    -------
    Pattern
        ``base ∪ {extension entries that are not weak}``.
    """
    ext_pattern = g_approx.pattern
    if not base.is_subset_of(ext_pattern):
        raise PatternError("base pattern is not contained in the precalculated one")
    with trace.span(
        "fsai.filtering", filter_value=filter_value, nnz=ext_pattern.nnz
    ):
        weak = weak_entry_mask(g_approx, filter_value)

        # Immunise base entries: base ⊆ ext was checked above, so each base
        # key has an exact position among ext's sorted keys.
        keys = g_approx.entry_keys()
        keep = ~weak
        keep[np.searchsorted(keys, base._keys())] = True
        if trace.enabled():
            trace.add_counter("pattern.entries_examined", ext_pattern.nnz)
            trace.add_counter(
                "pattern.entries_filtered", int(ext_pattern.nnz - keep.sum())
            )
        # A mask over ext's row-major entries stays sorted and unique.
        return Pattern._from_sorted_keys(
            ext_pattern.n_rows, ext_pattern.n_cols, keys[keep]
        )


def standard_post_filter(
    g: CSRMatrix,
    a: CSRMatrix,
    filter_value: float,
    *,
    base: Optional[Pattern] = None,
) -> CSRMatrix:
    """Algorithm 1 step 4: drop weak entries of the *exact* ``G``, rescale.

    ``base`` restricts dropping to extension entries (for the Table 3
    head-to-head against the precalc strategy, where both flows must end on
    the same entry count); ``None`` allows dropping any off-diagonal entry.

    The rescaling recomputes each row norm ``g_i^T A[S,S] g_i`` on the
    filtered support and divides by its square root, restoring
    ``diag(G A G^T) = 1`` — but *not* Frobenius minimality.

    The row norms are computed as a grouped quadratic-form kernel: rows
    of equal filtered length share one vectorised
    :meth:`~repro.sparse.csr.CSRMatrix.gather_entries` of their
    ``A[S_i, S_i]`` blocks (chunked so the ``(m, k, k)`` stack stays
    cache-bounded) and one batched ``g^T A g`` contraction.  The BLAS
    contraction order differs from the historical per-row
    ``vals @ (local @ vals)`` in final ulps; the diagnostics are
    unchanged — the first offending row in ascending order is reported,
    empty rows before non-positive norms.
    """
    if g.shape != a.shape:
        raise ShapeError("G and A shapes disagree")
    weak = weak_entry_mask(g, filter_value)
    if base is not None:
        weak &= ~base.contains_keys(g.entry_keys())
    filtered = g._masked(~weak)

    # Rescale rows: (G A G^T)_ii = g_i^T A[S_i,S_i] g_i on the new support.
    indptr = filtered.indptr
    lengths = np.diff(indptr)
    quads = np.zeros(filtered.n_rows)  # an empty row keeps 0.0 → flagged below
    for k in np.unique(lengths):
        k = int(k)
        if k == 0:
            continue
        rows_k = np.flatnonzero(lengths == k)
        # Cap each gathered (m, k, k) stack at ~2^22 elements (32 MB).
        step = max(1, (1 << 22) // (k * k))
        offsets = np.arange(k)
        for c0 in range(0, len(rows_k), step):
            rows_c = rows_k[c0:c0 + step]
            span = indptr[rows_c][:, None] + offsets
            cols_c = filtered.indices[span]          # (m, k)
            vals_c = filtered.data[span]             # (m, k)
            shape = (len(rows_c), k, k)
            local = a.gather_entries(
                np.broadcast_to(cols_c[:, :, None], shape),
                np.broadcast_to(cols_c[:, None, :], shape),
            )
            av = np.matmul(local, vals_c[:, :, None])[:, :, 0]
            quads[rows_c] = np.einsum("mi,mi->m", vals_c, av)
    bad = quads <= 0  # NaN propagates into the data exactly as before
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        if lengths[i] == 0:
            raise PatternError(f"row {i} lost all entries during filtering")
        raise PatternError(
            f"row {i}: non-positive norm {quads[i]:.3e} after filter"
        )
    data = filtered.data / np.repeat(np.sqrt(quads), lengths)
    return filtered.with_data(data)
