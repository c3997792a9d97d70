"""Filtered-pattern equivalence: kernel precalc vs per-row truncated CG.

The oracle is the original per-row formulation of §5: one dense
:func:`~repro.solvers.local_cg.solve_spd_approximate` per local system,
with the op's Jacobi fallback (``tests.conftest.precalc_g_oracle``).
The ``fsai_precalc`` kernel op does **not** promise bitwise agreement
with it (the two reduce in different summation orders, so truncated
estimates differ in final ulps).  What §5
actually consumes is the *classification* those estimates feed: which
extension entries are weak.  This suite pins the real contract — across
the FD stencil generators and the paper's full filter grid, the filtered
:class:`~repro.sparse.pattern.Pattern` selected downstream is identical
whichever precalculation produced the estimates.
"""

import numpy as np
import pytest

from repro.arch.address import ArrayPlacement
from repro.collection.generators.fd import (
    anisotropic_poisson2d,
    poisson2d,
    poisson3d,
    thermal_conduction2d,
)
from repro.fsai.fillin import extend_pattern_cache_friendly
from repro.fsai.filtering import filter_extension_by_precalc
from repro.fsai.frobenius import precalculate_g
from repro.fsai.patterns import fsai_initial_pattern
from repro.solvers.local_cg import (
    DEFAULT_PRECALC_ITERATIONS,
    DEFAULT_PRECALC_RTOL,
)
from repro.sparse.csr import CSRMatrix

from tests.conftest import precalc_g_oracle

#: The paper's evaluated filter grid (§5 / Table 3).
FILTER_VALUES = (0.0, 0.001, 0.01, 0.1)

STENCILS = [
    ("poisson2d", lambda: poisson2d(12)),
    ("poisson3d", lambda: poisson3d(5)),
    ("anisotropic", lambda: anisotropic_poisson2d(10, theta=0.3)),
    ("thermal", lambda: thermal_conduction2d(10, seed=4)),
]


@pytest.fixture(scope="module", params=STENCILS, ids=[n for n, _ in STENCILS])
def stencil_case(request):
    """(matrix, base pattern, extended pattern, per-row oracle G, kernel G)."""
    _, build = request.param
    a = build()
    base = fsai_initial_pattern(a)
    ext = extend_pattern_cache_friendly(base, ArrayPlacement.aligned(64))
    g_legacy = CSRMatrix.from_pattern(ext, precalc_g_oracle(
        a, ext, rtol=DEFAULT_PRECALC_RTOL,
        max_iterations=DEFAULT_PRECALC_ITERATIONS,
    ))
    g_kernel = precalculate_g(a, ext, backend="numpy")
    return a, base, ext, g_legacy, g_kernel


@pytest.mark.parametrize("filter_value", FILTER_VALUES)
def test_filtered_pattern_identical_to_legacy(stencil_case, filter_value):
    _, base, _, g_legacy, g_kernel = stencil_case
    p_legacy = filter_extension_by_precalc(g_legacy, base, filter_value)
    p_kernel = filter_extension_by_precalc(g_kernel, base, filter_value)
    np.testing.assert_array_equal(p_kernel.indptr, p_legacy.indptr)
    np.testing.assert_array_equal(p_kernel.indices, p_legacy.indices)


def test_estimates_agree_to_truncation_roundoff(stencil_case):
    """The values themselves stay within CG-roundoff of each other — the
    classifications above are equal because the numbers are, not by
    accident of a coarse threshold."""
    _, _, _, g_legacy, g_kernel = stencil_case
    scale = float(np.max(np.abs(g_legacy.data)))
    np.testing.assert_allclose(
        g_kernel.data, g_legacy.data, rtol=1e-9, atol=1e-9 * scale
    )
