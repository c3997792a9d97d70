"""Non-finite operators, right-hand sides and initial guesses fail fast in CG.

An ``inf`` in ``b`` used to pass the pre-loop ``‖r₀‖ ≤ threshold`` check
as ``inf <= inf`` and come back ``converged=True`` after 0 iterations with
``x = 0``; a NaN ran the whole iteration budget.  A NaN or inf in
``A.data`` also ran the whole budget and came back ``converged=False``.
"""

import numpy as np
import pytest

from repro.collection.generators.fd import poisson2d
from repro.errors import NonFiniteError, ReproError
from repro.solvers.cg import cg, pcg, pcg_multi
from repro.solvers.preconditioners import JacobiPreconditioner

BAD = [np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize("solver", [cg, pcg])
def test_single_rhs_rejects_non_finite_b(poisson16, solver, bad):
    b = np.ones(poisson16.n_rows)
    b[7] = bad
    with pytest.raises(NonFiniteError, match="index 7"):
        solver(poisson16, b, max_iterations=50)


@pytest.mark.parametrize("bad", BAD)
def test_single_rhs_rejects_non_finite_x0(poisson16, bad):
    x0 = np.zeros(poisson16.n_rows)
    x0[3] = bad
    with pytest.raises(NonFiniteError, match="x0"):
        pcg(poisson16, np.ones(poisson16.n_rows), x0=x0,
            preconditioner=JacobiPreconditioner(poisson16))


@pytest.mark.parametrize("bad", BAD)
def test_multi_rhs_rejects_non_finite_b(poisson16, bad):
    b = np.ones((poisson16.n_rows, 2))
    b[5, 1] = bad
    with pytest.raises(NonFiniteError, match="B"):
        pcg_multi(poisson16, b, max_iterations=50)


@pytest.mark.parametrize("bad", BAD)
def test_multi_rhs_rejects_non_finite_x0(poisson16, bad):
    x0 = np.zeros((poisson16.n_rows, 2))
    x0[0, 0] = bad
    with pytest.raises(NonFiniteError, match="x0"):
        pcg_multi(poisson16, np.ones((poisson16.n_rows, 2)), x0=x0)


def _solve_one(solver, a):
    if solver is pcg_multi:
        return solver(a, np.ones((a.n_rows, 2)))
    return solver(a, np.ones(a.n_rows))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solver", [cg, pcg, pcg_multi])
def test_rejects_non_finite_operator_values(solver, bad):
    a = poisson2d(30)
    data = a.data.copy()
    data[11] = bad
    with pytest.raises(NonFiniteError, match="A.data"):
        _solve_one(solver, a.with_data(data))


def test_error_is_typed(poisson16):
    b = np.full(poisson16.n_rows, np.inf)
    with pytest.raises(ReproError):
        pcg(poisson16, b)
    with pytest.raises(ValueError):
        pcg(poisson16, b)


def test_finite_rhs_unaffected(poisson16):
    res = pcg(poisson16, np.ones(poisson16.n_rows),
              preconditioner=JacobiPreconditioner(poisson16))
    assert res.converged and res.iterations > 0
