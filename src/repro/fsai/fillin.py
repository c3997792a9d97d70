"""Cache-friendly fill-in (paper §4, Algorithm 3).

Given a sparse pattern ``S`` and the cache-line placement of the multiplied
vector ``x``, extend each row of ``S`` with the columns whose ``x`` elements
share a cache line with an element the row already accesses.  By
construction the extended row touches **exactly the same set of cache
lines** as the original row — the central invariant of the paper, asserted
by the property-based tests via :class:`repro.cachesim.InfiniteCache`.

The implementation is fully vectorised: one pass builds all (row, line)
pairs, a second expands each pair into its clipped column block.  Both
passes keep the row-major order of the input, so the blocks come out as
sorted keys and no re-sort is needed; only original entries the
triangular clip removed (a non-triangular input) are merged back in.
Triangular restriction ("except if they correspond to entries above the
diagonal", §4.4) is a clip against the row index.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from repro import trace
from repro.arch.address import ArrayPlacement
from repro.errors import PatternError
from repro.sparse.pattern import Pattern

__all__ = ["extend_pattern_cache_friendly", "extension_entries"]

Triangular = Literal["lower", "upper", "none"]


def extend_pattern_cache_friendly(
    pattern: Pattern,
    placement: ArrayPlacement,
    *,
    triangular: Triangular = "lower",
) -> Pattern:
    """Algorithm 3: extend ``pattern`` with same-cache-line columns.

    Parameters
    ----------
    pattern:
        Pattern to extend (the pattern of ``G`` — or of ``G^T`` for the
        second step of FSAIE(full)).
    placement:
        Cache-line placement of the multiplied vector; supplies the line
        size (the algorithm's only architecture input, §4.1) and the
        alignment offset of element 0.
    triangular:
        ``"lower"`` clips added entries to ``col <= row`` (extending the
        pattern of lower-triangular ``G``), ``"upper"`` to ``col >= row``
        (extending the pattern of ``G^T``), ``"none"`` adds the full blocks
        (plain SpMV matrices).

    Returns
    -------
    Pattern
        Superset of ``pattern``; rows touch exactly the same cache lines of
        ``x`` as before.
    """
    if triangular not in ("lower", "upper", "none"):
        raise PatternError(f"invalid triangular mode {triangular!r}")
    if pattern.nnz == 0:
        return pattern

    with trace.span(
        "fsai.extension", triangular=triangular, nnz=pattern.nnz
    ):
        epl = placement.elements_per_line
        offset = placement.element_offset
        n_cols = pattern.n_cols

        rows, cols = pattern.coo()
        lines = (cols + offset) // epl
        # Unique (row, line) pairs == the "already considered column block"
        # skip of Algorithm 3 lines 6-8, applied globally.  Entries are
        # row-major sorted, so the pairs are too: keep first occurrences.
        first = np.ones(len(rows), dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (lines[1:] != lines[:-1])
        pair_rows = rows[first]

        # Expand pairs into column blocks [line*epl - offset, ... + epl-1].
        # Blocks ascend within a row and never overlap, so the clipped
        # block keys come out sorted and unique.
        block = (lines[first] * epl - offset)[:, None] + np.arange(epl, dtype=np.int64)
        valid = (block >= 0) & (block < n_cols)
        # Every original entry lies in its own line's block; only those
        # on the wrong side of the diagonal get clipped, and the union
        # puts them back.
        if triangular == "lower":
            valid &= block <= pair_rows[:, None]
            clipped = cols > rows
        elif triangular == "upper":
            valid &= block >= pair_rows[:, None]
            clipped = cols < rows
        else:
            clipped = np.zeros(len(rows), dtype=bool)
        keys = (pair_rows[:, None] * n_cols + block)[valid]
        if clipped.any():
            keys = np.sort(np.concatenate(
                [keys, rows[clipped] * n_cols + cols[clipped]]
            ))
        extended = Pattern._from_sorted_keys(pattern.n_rows, n_cols, keys)
        if trace.enabled():
            trace.add_counter(
                "pattern.entries_added", int(extended.nnz - pattern.nnz)
            )
        return extended


def extension_entries(base: Pattern, extended: Pattern) -> Pattern:
    """Entries added by an extension: ``extended \\ base``.

    Raises :class:`PatternError` if ``extended`` is not a superset — callers
    always pass a pattern produced by one of the extension functions, and a
    violation indicates a bookkeeping bug upstream.
    """
    if not base.is_subset_of(extended):
        raise PatternError("extended pattern is not a superset of the base pattern")
    return extended.difference(base)
