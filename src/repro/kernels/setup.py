"""Shared driver for the ``fsai_setup`` kernel op.

FSAI setup solves one small dense SPD system per pattern row
(``A[S_i, S_i] ĝ = e_i``, diagonal last) and normalises
``g = ĝ / sqrt(ĝ_i)``.  The op reformulates the whole setup around three
ideas, all chosen so that every backend produces **byte-identical** CSR
data:

* **Packed lower-triangle gather** — the solver touches only the lower
  triangle of each (symmetric) local system, so the gather fills
  ``k(k+1)/2`` entries per row instead of ``k²``.  Most of those pairs
  are absent from ``A`` on long pattern rows, so a bucket whose
  ``tril(A)`` rows are short next to ``k`` is built from ``A``'s side:
  each pattern entry's column ``c`` expands ``tril(A)``'s row ``c`` and
  every column found there is binary-searched in the bucket's own sorted
  keys.  Other buckets probe every pair in the matrix's sorted
  :meth:`~repro.sparse.csr.CSRMatrix.entry_keys`.  :func:`expands` is the
  fixed rule between the two.  Either way, gathered values are exact
  copies of ``A``'s data (or the stack's exact ``+0.0``), so *which*
  lookup runs, and how a backend searches, cannot change a single bit.
* **Identity-padded grouping** — row-length buckets are greedily merged
  (:func:`plan_groups`) until a group holds ``MIN_GROUP_ROWS`` systems or
  padding would exceed ``PAD_CAP``; smaller systems sit in the bottom-right
  corner of the group's common size ``K`` with an identity block top-left.
  Padding is bitwise neutral: the identity rows solve to exact zeros, and
  ``x - 0.0 == x`` in IEEE arithmetic.  The plan is a pure function of the
  row-length histogram, so every backend builds the same groups.
* **Batch-last layout** — group stacks are stored ``(K, K, m)`` with the
  system index *last*, so the vectorized solver's column slices
  (``systems[j:, j]``) stream contiguously over all ``m`` systems instead
  of striding ``K²`` doubles between consecutive batch elements.  This
  layout is worth ~25% end to end on the campaign workload.

The factorisation itself is a fused-column Cholesky plus a column-oriented
back-substitution (:func:`solve_group_stack`), written so its per-element
operation sequence is identical whether executed as NumPy vector ops, as
scalar Python (the reference oracle) or as a numba ``prange`` kernel —
that is the determinism contract the cross-backend property tests pin
down with ``tobytes()`` equality.

Failure handling is deferred, not masked: the solver runs under IEEE
semantics (``sqrt`` of a negative pivot yields NaN, division by a zero
pivot yields inf), any non-SPD pivot propagates a non-finite value into
the solution's diagonal entry, and the driver raises
:class:`~repro.errors.NotSPDError` naming the first offending row after
all groups are solved — the row a per-row dense LAPACK solve flags
(the test oracle in ``tests/conftest.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NotSPDError

__all__ = [
    "MIN_GROUP_ROWS",
    "PAD_CAP",
    "plan_groups",
    "lower_row_spans",
    "expands",
    "gather_group_stack",
    "solve_group_stack",
    "run_fsai_setup",
]

#: Merge row-length buckets until a group holds at least this many systems
#: (below it, per-group NumPy dispatch overhead dominates the solve).
MIN_GROUP_ROWS = 192

#: Never pad a size-``k0`` bucket into a group wider than
#: ``PAD_CAP * k0 + 1`` — padding work grows with ``K²`` per system.
PAD_CAP = 2.0

#: ``np.tril_indices(k)`` cache — the bench workload reuses a few dozen
#: distinct row lengths thousands of times.
_TRIL_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _tril_pairs(k: int) -> Tuple[np.ndarray, np.ndarray]:
    pair = _TRIL_CACHE.get(k)
    if pair is None:
        pair = np.tril_indices(k)
        _TRIL_CACHE[k] = pair
    return pair


def plan_groups(
    sizes: Sequence[int], counts: Sequence[int]
) -> List[List[int]]:
    """Greedy identity-padding plan over ascending row-length buckets.

    ``sizes``/``counts`` is the row-length histogram in ascending size
    order (``np.unique`` output).  Buckets are accumulated into the
    current group until it already holds :data:`MIN_GROUP_ROWS` systems
    or the next size would overshoot the padding cap; each group is then
    solved at its largest member size.  Deterministic for a given
    histogram — the cross-backend bit-identity guarantee rests on every
    backend seeing the same groups.
    """
    groups: List[List[int]] = []
    cur: List[int] = []
    cur_rows = 0
    k0 = 0
    for k, m in zip(sizes, counts):
        if cur and (cur_rows >= MIN_GROUP_ROWS or k > PAD_CAP * k0 + 1):
            groups.append(cur)
            cur, cur_rows = [], 0
        if not cur:
            k0 = k
        cur.append(int(k))
        cur_rows += int(m)
    if cur:
        groups.append(cur)
    return groups


def lower_row_spans(keys: np.ndarray, n_cols) -> Tuple[np.ndarray, np.ndarray]:
    """Where each row of ``tril(A)`` sits in ``A``'s entry arrays.

    ``keys`` is the square matrix's sorted row-major entry keys with the
    ``-1`` sentinel appended (as passed to :func:`gather_group_stack`).
    Columns are sorted within a row, so ``tril(A)``'s row ``c`` is the
    prefix of ``A``'s row ``c`` up to the diagonal: returns ``(first,
    count)``, the offset of that prefix in ``keys`` / ``a_data`` and its
    length.  Two binary searches per row; build it once per op call.
    """
    n = int(n_cols)
    rows = np.arange(n, dtype=np.int64)
    first = np.searchsorted(keys[:-1], rows * n)
    end = np.searchsorted(keys[:-1], rows * n + rows, side="right")
    return first, end - first


def expands(k: int, m: int, needles: int) -> bool:
    """Whether a bucket of ``m`` size-``k`` systems expands ``tril(A)``'s rows.

    ``needles`` is the summed ``tril(A)`` row length over the bucket's
    pattern entries.  Expanding costs one lookup per needle in a small
    haystack plus the expansion itself; probing costs one lookup per lower
    pair in all of ``A``'s keys.  Expand when it needs at most half as many
    lookups as there are pairs.
    """
    return 2 * needles <= k * (k + 1) // 2 * m


def gather_group_stack(
    keys: np.ndarray,
    a_data: np.ndarray,
    n_cols: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    rows_parts: Sequence[np.ndarray],
    group: Sequence[int],
    K: int,
    lower: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Vectorized build of one group's ``(K, K, m)`` lower stack.

    ``keys`` is the matrix's sorted row-major entry keys with a ``-1``
    sentinel appended (so ``searchsorted`` results can be probed without
    bound checks); only the lower triangle of each local system is
    gathered, and systems smaller than ``K`` are identity-padded in the
    top-left corner.  ``lower`` is :func:`lower_row_spans` of ``keys``
    (computed here when omitted).  Each bucket takes one of two lookups,
    chosen by :func:`expands`:

    * **expansion** — every pattern entry ``(s, a)`` with column ``c``
      walks ``tril(A)``'s row ``c``; each of its columns ``j`` is looked
      up among the bucket's own sorted ``slot * n + col`` keys, and a hit
      at position ``b`` stores ``A[c, j]`` at ``(a, b)`` of system ``s``;
    * **pair probe** — each of the ``k(k+1)/2`` lower pairs of every
      system is looked up in all of ``A``'s keys.

    Both store each lower entry present in ``A`` as an exact copy of
    ``a_data`` and leave every other entry at the stack's ``+0.0``, so
    the stacks are byte-identical whichever lookup runs.  Pattern indices
    are valid by construction (``_check_diagonals`` ran upstream), so no
    bound checking is needed.
    """
    first, count = lower_row_spans(keys, n_cols) if lower is None else lower
    n = np.int64(n_cols)
    m_tot = sum(len(rows) for rows in rows_parts)
    systems = np.zeros((K, K, m_tot))
    flat = systems.reshape(-1)
    r0 = 0
    for k, rows in zip(group, rows_parts):
        m = len(rows)
        r1 = r0 + m
        pad = K - k
        starts = indptr[rows]
        cols = indices[starts[:, None] + np.arange(k)]  # (m, k)
        cnt = count[cols]
        if expands(k, m, int(cnt.sum())):
            # Per-entry constants, repeated once per tril(A) entry: the
            # entry's offset into keys, the shift that turns A's key
            # c * n + j into the bucket key slot * n + j, and the flat
            # stack index of (pad + a, pad + b, r0 + slot) less b * m_tot.
            cnt = cnt.ravel()
            slot = np.arange(m, dtype=np.int64)[:, None]
            bkeys = (slot * n + cols).ravel()
            offset = first[cols].ravel() - (np.cumsum(cnt) - cnt)
            shift = ((slot - cols) * n).ravel()
            base = ((pad + np.arange(k)) * (K * m_tot) + pad * m_tot + r0
                    + slot * (1 - k * m_tot)).ravel()
            pos = np.arange(int(cnt.sum())) + np.repeat(offset, cnt)
            needle = keys[pos] + np.repeat(shift, cnt)
            # j <= c, so the search never runs past the entry's own key.
            b = np.searchsorted(bkeys, needle)
            hit = bkeys[b] == needle
            flat[(np.repeat(base, cnt) + b * m_tot)[hit]] = a_data[pos[hit]]
        else:
            cols_t = cols.T
            ia, ib = _tril_pairs(k)
            query = cols_t[ia] * n + cols_t[ib]  # (k(k+1)/2, m)
            pos = np.searchsorted(keys[:-1], query)
            hit = keys[pos] == query
            vals = np.where(hit, a_data[np.minimum(pos, len(keys) - 2)], 0.0)
            systems[pad + ia, pad + ib, r0:r1] = vals
        if pad:
            diag = np.arange(pad)
            systems[diag, diag, r0:r1] = 1.0
        r0 = r1
    return systems


def solve_group_stack(systems: np.ndarray) -> np.ndarray:
    """Solve ``A x = e_last`` for every system of a ``(K, K, m)`` stack.

    Fused-column Cholesky over the stored lower triangles followed by a
    column-oriented back-substitution, all slicing along the contiguous
    batch axis.  The per-element operation sequence — subtract the ``t``
    updates in ascending order, one ``sqrt``, one division, then the
    back-sweep divisions/updates — is the canonical order every backend
    reproduces exactly; reordering any of it would break cross-backend
    bit-identity.

    The factor ``L`` overwrites the stack's lower triangle column by
    column: column ``j`` is updated only from finished columns ``t < j``,
    so no second stack is allocated.  The upper triangle is never read.

    Runs under IEEE semantics: a non-SPD pivot turns into NaN/inf and
    propagates into ``x[-1]`` instead of raising here, so one batched
    pivot check after the solve replaces per-system screening.
    """
    k, _, m = systems.shape
    x = np.zeros((k, m))
    L = systems
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(k):
            col = L[j:, j]  # (k - j, m), contiguous over m
            for t in range(j):
                col -= L[j:, t] * L[j, t]
            piv = np.sqrt(col[0])
            col[0] = piv
            col[1:] /= piv
        # L^T x = y with y = (0, …, 0, 1/L_kk): column-oriented back sweep.
        x[-1] = 1.0 / L[-1, -1]
        for i in range(k - 1, 0, -1):
            x[i] = x[i] / L[i, i]
            x[:i] -= L[i, :i] * x[i]
        x[0] = x[0] / L[0, 0]
    return x


def run_fsai_setup(backend, a, pattern, lengths=None) -> np.ndarray:
    """Solve every local system of ``pattern`` and return normalised data.

    The shared driver behind :meth:`KernelBackend.fsai_setup`: plans the
    groups, calls the backend's ``_fsai_setup_build`` /
    ``_fsai_setup_solve`` hooks per group, normalises
    ``g = ĝ / sqrt(ĝ_i)`` centrally (so the normalisation arithmetic is
    one implementation for all backends) and raises
    :class:`~repro.errors.NotSPDError` naming the first row whose pivot
    is non-positive or non-finite.

    ``lengths`` is the validated row-length array from
    ``repro.fsai.frobenius._check_diagonals`` (recomputed when omitted;
    callers are expected to have validated the diagonal-last invariant).
    Returns the ``pattern.nnz`` data array aligned with the pattern.
    """
    indptr = pattern.indptr
    if lengths is None:
        lengths = np.diff(indptr)
    n_rows = len(indptr) - 1
    nnz = int(indptr[-1])
    data = np.empty(nnz)
    pivots = np.empty(n_rows)
    keys = np.concatenate(
        [a.entry_keys(), np.asarray([-1], dtype=np.int64)]
    )
    n_cols = np.int64(a.n_cols)
    lower = lower_row_spans(keys, n_cols)
    sizes, counts = np.unique(lengths, return_counts=True)
    for group in plan_groups(sizes.tolist(), counts.tolist()):
        K = group[-1]
        rows_parts = [np.flatnonzero(lengths == k) for k in group]
        systems = backend._fsai_setup_build(
            keys, a.data, n_cols, indptr, pattern.indices,
            rows_parts, group, K, lower=lower,
        )
        sol = backend._fsai_setup_solve(systems)  # (K, m)
        piv = sol[-1]
        with np.errstate(invalid="ignore"):
            norm = sol / np.sqrt(piv)
        r0 = 0
        for k, rows in zip(group, rows_parts):
            r1 = r0 + len(rows)
            pivots[rows] = piv[r0:r1]
            span = indptr[rows][:, None] + np.arange(k)
            data[span] = norm[K - k:, r0:r1].T
            r0 = r1
    bad = ~((pivots > 0) & np.isfinite(pivots))
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise NotSPDError(
            f"row {i}: non-positive diagonal solution {pivots[i]:.3e} "
            "(matrix restriction not SPD)"
        )
    return data
