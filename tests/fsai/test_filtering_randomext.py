"""Unit tests for repro.fsai.filtering and repro.fsai.random_ext."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PatternError, ShapeError
from repro.fsai.fillin import extend_pattern_cache_friendly
from repro.fsai.filtering import (
    filter_extension_by_precalc,
    standard_post_filter,
    weak_entry_mask,
)
from repro.fsai.frobenius import compute_g, precalculate_g
from repro.fsai.patterns import fsai_initial_pattern
from repro.fsai.random_ext import extend_pattern_random
from repro.sparse.construct import csr_from_dense
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import Pattern
from tests.conftest import random_spd_dense


@pytest.fixture
def setup(placement64):
    a = csr_from_dense(random_spd_dense(16, seed=42, density=0.4))
    base = fsai_initial_pattern(a)
    extended = extend_pattern_cache_friendly(base, placement64)
    g_approx = precalculate_g(a, extended)
    return a, base, extended, g_approx


class TestWeakEntryMask:
    def test_diagonal_never_weak(self, setup):
        _, _, _, g = setup
        weak = weak_entry_mask(g, 1e9)
        rows = g.row_ids()
        assert not weak[rows == g.indices].any()

    def test_zero_filter_marks_only_zeros(self, setup):
        _, _, _, g = setup
        weak = weak_entry_mask(g, 0.0)
        assert np.array_equal(weak, (g.data == 0.0) & (g.row_ids() != g.indices))

    def test_monotone_in_filter(self, setup):
        _, _, _, g = setup
        w1 = weak_entry_mask(g, 0.01)
        w2 = weak_entry_mask(g, 0.1)
        assert np.all(w2 | ~w1 | w1)  # w1 ⊆ w2
        assert w2.sum() >= w1.sum()

    def test_scale_independent(self):
        d = random_spd_dense(8, seed=5, density=0.6)
        a = csr_from_dense(d)
        s = np.diag(10.0 ** np.linspace(-2, 2, 8))
        a_scaled = csr_from_dense(s @ d @ s)
        g1 = compute_g(a, fsai_initial_pattern(a))
        g2 = compute_g(a_scaled, fsai_initial_pattern(a_scaled))
        assert np.array_equal(
            weak_entry_mask(g1, 0.05), weak_entry_mask(g2, 0.05)
        )

    def test_negative_filter_rejected(self, setup):
        _, _, _, g = setup
        with pytest.raises(ValueError):
            weak_entry_mask(g, -0.1)

    def test_non_square_rejected(self):
        """Columns past the last row have no diagonal to compare against;
        historically their index was silently clamped to the last row."""
        rect = csr_from_dense(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.5]]))
        with pytest.raises(ShapeError, match="square"):
            weak_entry_mask(rect, 0.1)


class TestPrecalcFilter:
    def test_base_entries_immune(self, setup):
        a, base, extended, g_approx = setup
        filtered = filter_extension_by_precalc(g_approx, base, 1e9)
        assert filtered == base  # everything removable removed, base intact

    def test_zero_filter_keeps_nonzero_extension(self, setup):
        a, base, extended, g_approx = setup
        filtered = filter_extension_by_precalc(g_approx, base, 0.0)
        assert base.is_subset_of(filtered)
        assert filtered.is_subset_of(extended)

    def test_monotone_in_filter(self, setup):
        a, base, _, g_approx = setup
        sizes = [
            filter_extension_by_precalc(g_approx, base, f).nnz
            for f in (0.0, 0.01, 0.1, 1.0)
        ]
        assert sizes == sorted(sizes, reverse=True)

    def test_base_must_be_subset(self, setup):
        a, base, _, g_approx = setup
        # Construct a pattern definitely not inside g_approx's pattern:
        full_row = Pattern.from_rows(
            16, 16, [list(range(i + 1)) for i in range(16)]
        )
        if not full_row.is_subset_of(g_approx.pattern):
            with pytest.raises(PatternError):
                filter_extension_by_precalc(g_approx, full_row, 0.1)


class TestStandardPostFilter:
    def test_restores_unit_diag(self, setup):
        a, base, extended, _ = setup
        g = compute_g(a, extended)
        filtered = standard_post_filter(g, a, 0.1, base=base)
        gd = filtered.to_dense()
        gagt = gd @ a.to_dense() @ gd.T
        assert np.allclose(np.diag(gagt), 1.0)

    def test_base_restriction(self, setup):
        a, base, extended, _ = setup
        g = compute_g(a, extended)
        filtered = standard_post_filter(g, a, 1e9, base=base)
        assert filtered.pattern == base

    def test_without_base_can_drop_any_offdiagonal(self, setup):
        a, _, extended, _ = setup
        g = compute_g(a, extended)
        filtered = standard_post_filter(g, a, 1e9)
        assert filtered.nnz == a.n_rows  # only diagonals survive

    def test_shape_mismatch(self, setup):
        a, _, extended, _ = setup
        g = compute_g(a, extended)
        other = csr_from_dense(np.eye(3))
        with pytest.raises(ShapeError):
            standard_post_filter(g, other, 0.1)

    def test_not_frobenius_minimal(self, setup):
        """The paper's point: post-filtered G is generally worse than the
        recomputed G on the same pattern."""
        a, base, extended, g_approx = setup
        g_exact_ext = compute_g(a, extended)
        post = standard_post_filter(g_exact_ext, a, 0.2, base=base)
        recomputed = compute_g(a, post.pattern)
        L = np.linalg.cholesky(a.to_dense())
        n = a.n_rows
        err_post = np.linalg.norm(np.eye(n) - post.to_dense() @ L, "fro")
        err_reco = np.linalg.norm(np.eye(n) - recomputed.to_dense() @ L, "fro")
        assert err_reco <= err_post + 1e-12


class TestRandomExtension:
    def test_counts_respected(self):
        base = fsai_initial_pattern(
            csr_from_dense(random_spd_dense(20, seed=1, density=0.3))
        )
        want = np.minimum(np.arange(20), 3)
        ext = extend_pattern_random(base, want, seed=0)
        added = ext.row_lengths() - base.row_lengths()
        # Row i has i+1 admissible columns; the request is met when possible.
        for i in range(20):
            free = (i + 1) - len(base.row(i))
            assert added[i] == min(want[i], free)

    def test_superset_and_lower(self):
        base = fsai_initial_pattern(
            csr_from_dense(random_spd_dense(12, seed=2, density=0.4))
        )
        ext = extend_pattern_random(base, np.full(12, 2), seed=1)
        assert base.is_subset_of(ext)
        assert ext.is_lower_triangular()

    def test_deterministic_by_seed(self):
        base = fsai_initial_pattern(
            csr_from_dense(random_spd_dense(12, seed=3, density=0.4))
        )
        e1 = extend_pattern_random(base, np.full(12, 2), seed=7)
        e2 = extend_pattern_random(base, np.full(12, 2), seed=7)
        e3 = extend_pattern_random(base, np.full(12, 2), seed=8)
        assert e1 == e2
        assert e1 != e3

    def test_zero_request_identity(self):
        base = fsai_initial_pattern(
            csr_from_dense(random_spd_dense(6, seed=4))
        )
        assert extend_pattern_random(base, np.zeros(6, dtype=int)) == base

    def test_length_check(self):
        base = Pattern.identity(4)
        with pytest.raises(ShapeError):
            extend_pattern_random(base, np.zeros(3, dtype=int))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            extend_pattern_random(Pattern.identity(3), np.array([-1, 0, 0]))


@st.composite
def filter_inputs(draw):
    """A square approximate G on an extended pattern, and a base inside it."""
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    ext = np.tril(rng.uniform(size=(n, n)) < draw(st.floats(0.1, 0.8)))
    ext |= np.eye(n, dtype=bool) & (rng.uniform(size=(n, n)) < 0.9)
    base = ext & (rng.uniform(size=(n, n)) < 0.4)
    # Ties, exact zeros and signed zeros sit on the filter boundaries.
    values = rng.choice([0.0, -0.0, 1e-3, -1e-2, 0.05, -0.1, 1.0, 2.0],
                        size=(n, n))
    return np.where(ext, values, 0.0), ext, base


class TestPrecalcFilterOracle:
    @given(filter_inputs(), st.sampled_from([0.0, 0.001, 0.01, 0.1]))
    @settings(max_examples=80, deadline=None)
    def test_matches_mask_oracle(self, inputs, filter_value):
        values, ext, base = inputs
        n = len(ext)
        ext_p = Pattern.from_dense_mask(ext)
        rows, cols = ext_p.coo()
        g = CSRMatrix(n, n, ext_p.indptr, ext_p.indices, values[rows, cols])
        d = np.abs(np.diag(values))
        floor = d[d > 0].min() if (d > 0).any() else 1.0
        d = np.where(d > 0, d, floor)
        off = ~np.eye(n, dtype=bool)
        if filter_value == 0:
            weak = ext & off & (values == 0.0)
        else:
            weak = ext & off & (np.abs(values) <= filter_value * d[None, :])
        want = Pattern.from_dense_mask(base | (ext & ~weak))
        got = filter_extension_by_precalc(
            g, Pattern.from_dense_mask(base), filter_value
        )
        assert got == want
        assert got.indices.tobytes() == want.indices.tobytes()
