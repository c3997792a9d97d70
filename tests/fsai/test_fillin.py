"""Unit + property tests for the cache-friendly fill-in (Algorithm 3).

The load-bearing invariant (paper §4): extending a pattern adds **no new
cache lines** to any row's footprint on the multiplied vector, for every
line size and alignment offset.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.address import ArrayPlacement
from repro.arch.cacheline import lines_touched
from repro.errors import PatternError
from repro.fsai.fillin import extend_pattern_cache_friendly, extension_entries
from repro.sparse.pattern import Pattern


def lower_banded(n, bw):
    rows, cols = [], []
    for i in range(n):
        for j in range(max(0, i - bw), i + 1):
            rows.append(i)
            cols.append(j)
    return Pattern.from_coo(n, n, np.array(rows), np.array(cols))


class TestPaperExample:
    def test_section41_example(self):
        """§4.1: first row accesses x_0 at slot 0 of a 64 B line — up to 7
        additional non-zeroes can be added without a new cache miss."""
        p = Pattern.from_rows(16, 16, [[0] if i == 0 else [i] for i in range(16)])
        pl = ArrayPlacement.aligned(64)
        ext = extend_pattern_cache_friendly(p, pl, triangular="none")
        # Row 0 should now contain the full first line's 8 columns.
        assert list(ext.row(0)) == list(range(8))

    def test_lower_triangular_clip(self):
        """§4.4: entries above the diagonal are never added."""
        p = lower_banded(16, 1)
        ext = extend_pattern_cache_friendly(p, ArrayPlacement.aligned(64))
        assert ext.is_lower_triangular()

    def test_upper_mode(self):
        p = lower_banded(16, 1).transpose()
        ext = extend_pattern_cache_friendly(
            p, ArrayPlacement.aligned(64), triangular="upper"
        )
        assert ext.is_upper_triangular()

    def test_row3_of_aligned_band(self):
        # Row 3 of a bandwidth-1 lower pattern touches columns {2, 3} (line
        # 0); the extension fills 0..3.
        p = lower_banded(16, 1)
        ext = extend_pattern_cache_friendly(p, ArrayPlacement.aligned(64))
        assert list(ext.row(3)) == [0, 1, 2, 3]

    def test_misalignment_changes_extension(self):
        p = lower_banded(64, 1)
        aligned = extend_pattern_cache_friendly(p, ArrayPlacement.aligned(64))
        shifted = extend_pattern_cache_friendly(
            p, ArrayPlacement.with_element_offset(64, 5)
        )
        assert aligned != shifted

    def test_larger_lines_extend_more(self):
        """§7.6: 256 B lines allow 4x more entries per block."""
        p = lower_banded(256, 1)
        e64 = extend_pattern_cache_friendly(p, ArrayPlacement.aligned(64))
        e256 = extend_pattern_cache_friendly(p, ArrayPlacement.aligned(256))
        assert e256.nnz > e64.nnz

    def test_superset(self):
        p = lower_banded(32, 2)
        ext = extend_pattern_cache_friendly(p, ArrayPlacement.aligned(64))
        assert p.is_subset_of(ext)

    def test_idempotent(self):
        """Extending an already-extended pattern adds nothing."""
        p = lower_banded(32, 2)
        pl = ArrayPlacement.aligned(64)
        once = extend_pattern_cache_friendly(p, pl)
        twice = extend_pattern_cache_friendly(once, pl)
        assert once == twice

    def test_empty_pattern_passthrough(self):
        p = Pattern.empty(4, 4)
        assert extend_pattern_cache_friendly(p, ArrayPlacement.aligned(64)) is p

    def test_invalid_mode(self):
        with pytest.raises(PatternError):
            extend_pattern_cache_friendly(
                lower_banded(4, 1), ArrayPlacement.aligned(64),
                triangular="diagonal",
            )


class TestExtensionEntries:
    def test_difference(self):
        p = lower_banded(16, 1)
        ext = extend_pattern_cache_friendly(p, ArrayPlacement.aligned(64))
        added = extension_entries(p, ext)
        assert added.nnz == ext.nnz - p.nnz
        assert added.intersection(p).nnz == 0

    def test_rejects_non_superset(self):
        p = lower_banded(8, 1)
        with pytest.raises(PatternError):
            extension_entries(p, Pattern.identity(8))


@st.composite
def random_lower_patterns(draw):
    n = draw(st.integers(4, 48))
    density = draw(st.floats(0.02, 0.4))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    mask = np.tril(rng.uniform(size=(n, n)) < density) | np.eye(n, dtype=bool)
    return Pattern.from_dense_mask(mask)


class TestSameLinesInvariant:
    """The central §4 property, checked per row over random patterns,
    line sizes and alignments."""

    @given(
        random_lower_patterns(),
        st.sampled_from([64, 128, 256]),
        st.integers(0, 31),
    )
    @settings(max_examples=60, deadline=None)
    def test_extension_preserves_row_line_footprint(self, p, line, offset):
        pl = ArrayPlacement.with_element_offset(line, offset)
        ext = extend_pattern_cache_friendly(p, pl)
        for i in range(p.n_rows):
            before = lines_touched(p.row(i), pl)
            after = lines_touched(ext.row(i), pl)
            assert np.array_equal(before, after)

    @given(random_lower_patterns(), st.sampled_from([64, 256]))
    @settings(max_examples=40, deadline=None)
    def test_extension_is_maximal(self, p, line):
        """Every admissible same-line column is actually added: adding any
        absent lower-triangular column would touch a new line."""
        pl = ArrayPlacement.aligned(line)
        ext = extend_pattern_cache_friendly(p, pl)
        for i in range(p.n_rows):
            row = set(ext.row(i).tolist())
            lines = set(np.asarray(pl.line_of(ext.row(i))).tolist())
            for j in range(0, i + 1):
                if j not in row:
                    assert int(pl.line_of(j)) not in lines

    @given(random_lower_patterns(), st.sampled_from([64, 256]), st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_upper_mode_same_invariant(self, p, line, offset):
        pt = p.transpose()
        pl = ArrayPlacement.with_element_offset(line, offset)
        ext = extend_pattern_cache_friendly(pt, pl, triangular="upper")
        for i in range(pt.n_rows):
            assert np.array_equal(
                lines_touched(pt.row(i), pl), lines_touched(ext.row(i), pl)
            )


@st.composite
def any_patterns(draw):
    """Square or not, triangular or not: extension must keep every entry."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 40))
    density = draw(st.floats(0.02, 0.4))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    return rng.uniform(size=(n, m)) < density


class TestDenseMaskOracle:
    """Algorithm 3 against a per-row dense oracle, in every clip mode."""

    @given(
        any_patterns(),
        st.sampled_from([64, 256]),
        st.integers(0, 31),
        st.sampled_from(["lower", "upper", "none"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, mask, line, offset, triangular):
        pl = ArrayPlacement.with_element_offset(line, offset)
        n, m = mask.shape
        cols = np.arange(m)
        line_of = (cols + pl.element_offset) // pl.elements_per_line
        want = mask.copy()
        for i in range(n):
            same_line = np.isin(line_of, line_of[mask[i]])
            if triangular == "lower":
                same_line &= cols <= i
            elif triangular == "upper":
                same_line &= cols >= i
            want[i] |= same_line
        ext = extend_pattern_cache_friendly(
            Pattern.from_dense_mask(mask), pl, triangular=triangular
        )
        assert np.array_equal(ext.to_dense_mask(), want)
        canonical = Pattern.from_dense_mask(want)
        assert ext.indptr.tobytes() == canonical.indptr.tobytes()
        assert ext.indices.tobytes() == canonical.indices.tobytes()
