"""Dense-mask oracle for the pattern layer (hypothesis).

Every structural operation of :class:`~repro.sparse.pattern.Pattern` is
checked against the same operation on a dense boolean mask, and every
result against a pattern built straight from that mask through the
validating constructor — so the sorted-key fast paths (no re-sort, no
re-validation) must produce exactly the canonical CSR arrays.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sparse.construct import csr_from_dense
from repro.sparse.pattern import Pattern

dims = st.integers(min_value=0, max_value=10)


@st.composite
def masks(draw, square=False):
    n = draw(dims)
    m = n if square else draw(dims)
    return draw(arrays(np.bool_, (n, m)))


@st.composite
def mask_pairs(draw):
    a = draw(masks())
    return a, draw(arrays(np.bool_, a.shape))


def oracle(mask) -> Pattern:
    """The canonical pattern of ``mask``, validated on construction."""
    mask = np.asarray(mask, dtype=bool)
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
    return Pattern(mask.shape[0], mask.shape[1], indptr, np.nonzero(mask)[1])


def assert_canonical(p: Pattern, mask) -> None:
    want = oracle(mask)
    assert p.shape == want.shape
    assert p.indptr.dtype == np.int64 and p.indices.dtype == np.int64
    assert p.indptr.tobytes() == want.indptr.tobytes()
    assert p.indices.tobytes() == want.indices.tobytes()


class TestConstruction:
    @given(masks(), st.integers(0, 3), st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_from_coo_shuffled_with_duplicates(self, mask, copies, seed):
        rows, cols = np.nonzero(mask)
        rows = np.tile(rows, copies + 1)
        cols = np.tile(cols, copies + 1)
        order = np.random.default_rng(seed).permutation(len(rows))
        p = Pattern.from_coo(*mask.shape, rows[order], cols[order])
        assert_canonical(p, mask)

    def test_from_coo_empty_and_degenerate_shapes(self):
        for shape in [(0, 0), (0, 5), (5, 0), (3, 7), (7, 3)]:
            none = np.empty(0, dtype=np.int64)
            assert_canonical(Pattern.from_coo(*shape, none, none),
                             np.zeros(shape, dtype=bool))


class TestTransforms:
    @given(masks())
    @settings(max_examples=80, deadline=None)
    def test_transpose(self, mask):
        assert_canonical(oracle(mask).transpose(), mask.T)

    @given(masks(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_tril_triu(self, mask, keep_diagonal):
        p = oracle(mask)
        k = 0 if keep_diagonal else 1
        assert_canonical(p.tril(keep_diagonal=keep_diagonal), np.tril(mask, -k))
        assert_canonical(p.triu(keep_diagonal=keep_diagonal), np.triu(mask, k))

    @given(mask_pairs())
    @settings(max_examples=80, deadline=None)
    def test_set_algebra(self, pair):
        a, b = pair
        pa, pb = oracle(a), oracle(b)
        assert_canonical(pa.union(pb), a | b)
        assert_canonical(pa.intersection(pb), a & b)
        assert_canonical(pa.difference(pb), a & ~b)

    @given(masks())
    @settings(max_examples=40, deadline=None)
    def test_csr_transpose_carries_values(self, mask):
        d = np.where(mask, np.arange(mask.size).reshape(mask.shape) + 1.0, 0.0)
        t = csr_from_dense(d).transpose()
        assert_canonical(t.pattern, mask.T)
        assert np.array_equal(t.to_dense(), d.T)


class TestPredicates:
    @given(mask_pairs())
    @settings(max_examples=80, deadline=None)
    def test_is_subset_of(self, pair):
        a, b = pair
        assert oracle(a).is_subset_of(oracle(b)) == (not (a & ~b).any())
        assert oracle(a & b).is_subset_of(oracle(b))

    def test_is_subset_of_key_past_last_entry(self):
        # (3, 3) sorts after every key of ``other``: the binary search
        # lands one past its end and must read as absent, not wrap.
        other = Pattern.from_coo(4, 4, [0, 1], [0, 1])
        late = Pattern.from_coo(4, 4, [0, 3], [0, 3])
        assert not late.is_subset_of(other)
        assert not late.is_subset_of(Pattern.empty(4, 4))
        assert Pattern.empty(4, 4).is_subset_of(other)
        hits = other.contains_keys(np.array([0, 5, 15, 16], dtype=np.int64))
        assert hits.tolist() == [True, True, False, False]

    @given(masks())
    @settings(max_examples=80, deadline=None)
    def test_has_full_diagonal(self, mask):
        n = min(mask.shape)
        want = bool(mask[np.arange(n), np.arange(n)].all())
        assert oracle(mask).has_full_diagonal() == want
        assert oracle(mask).with_full_diagonal().has_full_diagonal()
