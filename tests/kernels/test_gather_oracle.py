"""The local-system gather against a dense oracle, byte for byte.

Every ``(K, K, m)`` stack the ``fsai_setup`` / ``fsai_precalc`` ops build
must equal, system by system, ``np.tril(A_dense[S_i, S_i])`` placed in the
bottom-right corner with the identity in the top-left ``K - k`` block.
The oracle is the dense matrix, not another gather, so it also checks the
numba backend's own gather kernel.  The cases cover a shuffled non-stencil
matrix, explicitly stored zeros (``+0.0`` and ``-0.0``), pattern columns
that ``A`` does not store, identity-padded groups mixing several row
lengths, and buckets on both sides of the expand-or-probe rule.
"""

import numpy as np
import pytest

from repro.collection.generators.fd import poisson2d
from repro.collection.generators.graphs import circuit_network
from repro.fsai.patterns import fsai_initial_pattern
from repro.kernels import available_backends, get_backend
from repro.kernels.setup import (
    expands,
    gather_group_stack,
    lower_row_spans,
    plan_groups,
)
from repro.sparse.construct import csr_from_dense
from repro.sparse.ordering import permute_symmetric

from tests.conftest import random_spd_dense

BACKENDS = available_backends()


def _shuffled_circuit():
    a = circuit_network(300, seed=4)
    perm = np.random.default_rng(11).permutation(a.n_rows)
    return permute_symmetric(a, perm)


def _stored_zeros():
    """Poisson with some off-diagonal entries stored as ``+0.0``/``-0.0``."""
    a = poisson2d(12)
    rows = a.row_ids()
    off = np.flatnonzero(rows != a.indices)
    data = a.data.copy()
    data[off[::5]] = 0.0
    data[off[2::7]] = -0.0
    return a.with_data(data)


def _spread():
    """Row lengths spread widely, so the plan merges buckets with padding."""
    return csr_from_dense(random_spd_dense(150, 3, density=0.08))


CASES = [
    # (name, matrix builder, sparse level of the pattern)
    ("poisson2d_l1", lambda: poisson2d(6), 1),
    ("circuit_shuffled_l1", _shuffled_circuit, 1),
    ("circuit_shuffled_l3", _shuffled_circuit, 3),
    ("stored_zeros_l1", _stored_zeros, 1),
    ("stored_zeros_l2", _stored_zeros, 2),
    ("spread_l1", _spread, 1),
    ("spread_l2", _spread, 2),
]


def _groups(a, pattern):
    """``(keys, lower, [(group, K, rows_parts)])`` as ``run_fsai_setup`` plans them."""
    keys = np.concatenate([a.entry_keys(), np.asarray([-1], dtype=np.int64)])
    lower = lower_row_spans(keys, a.n_cols)
    lengths = np.diff(pattern.indptr)
    sizes, counts = np.unique(lengths, return_counts=True)
    plan = []
    for group in plan_groups(sizes.tolist(), counts.tolist()):
        rows_parts = [np.flatnonzero(lengths == k) for k in group]
        plan.append((group, group[-1], rows_parts))
    return keys, lower, plan


def _oracle(dense, pattern, rows_parts, K):
    """The expected stack, built from the dense matrix one system at a time."""
    m = sum(len(r) for r in rows_parts)
    want = np.zeros((K, K, m))
    s = 0
    for rows in rows_parts:
        for i in rows:
            cols = pattern.row(int(i))
            pad = K - len(cols)
            block = np.zeros((K, K))
            block[:pad, :pad] = np.eye(pad)
            block[pad:, pad:] = np.tril(dense[np.ix_(cols, cols)])
            want[:, :, s] = block
            s += 1
    return want


@pytest.mark.parametrize("backend_name", BACKENDS)
@pytest.mark.parametrize("name,build,level", CASES, ids=[c[0] for c in CASES])
def test_gather_matches_dense_oracle(backend_name, name, build, level):
    a = build()
    pattern = fsai_initial_pattern(a, level=level)
    dense = a.to_dense()
    backend = get_backend(backend_name)
    keys, lower, plan = _groups(a, pattern)
    n_cols = np.int64(a.n_cols)
    for group, K, rows_parts in plan:
        got = backend._fsai_setup_build(
            keys, a.data, n_cols, pattern.indptr, pattern.indices,
            rows_parts, group, K, lower=lower,
        )
        want = _oracle(dense, pattern, rows_parts, K)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (name, group)


@pytest.mark.parametrize("name,build,level", CASES, ids=[c[0] for c in CASES])
def test_positional_call_builds_its_own_spans(name, build, level):
    """The eight-argument call (no ``lower``) gives the same bytes."""
    a = build()
    pattern = fsai_initial_pattern(a, level=level)
    keys, lower, plan = _groups(a, pattern)
    n_cols = np.int64(a.n_cols)
    for group, K, rows_parts in plan:
        args = (keys, a.data, n_cols, pattern.indptr, pattern.indices,
                rows_parts, group, K)
        assert (gather_group_stack(*args).tobytes()
                == gather_group_stack(*args, lower).tobytes())


def test_cases_cover_what_the_oracle_must_see():
    """Preconditions of the oracle test: each property occurs in the cases."""
    sides = set()
    mixed_group = stored_zero = neg_zero = absent = False
    for _, build, level in CASES:
        a = build()
        pattern = fsai_initial_pattern(a, level=level)
        keys, (_, count), plan = _groups(a, pattern)
        stored_zero |= bool(np.any(a.data == 0.0))
        neg_zero |= bool(np.any((a.data == 0.0) & np.signbit(a.data)))
        dense_mask = a.to_dense() != 0.0
        for group, _, rows_parts in plan:
            mixed_group |= len(group) > 1
            for k, rows in zip(group, rows_parts):
                cols = pattern.indices[
                    pattern.indptr[rows][:, None] + np.arange(k)]
                sides.add(expands(k, len(rows), int(count[cols].sum())))
                if k > 1 and not absent:
                    for c in cols:
                        if not dense_mask[np.ix_(c, c)].all():
                            absent = True
                            break
    assert sides == {True, False}
    assert mixed_group and stored_zero and neg_zero and absent


def test_rule_is_half_the_pairs():
    # 2 * needles <= k(k+1)/2 * m
    assert expands(4, 10, 50)
    assert not expands(4, 10, 51)
    assert expands(1, 1, 0)
