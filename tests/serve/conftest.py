"""Operators every serving front end must refuse at registration."""

import numpy as np
import pytest

from repro.collection.generators.fd import poisson2d
from repro.errors import NonFiniteError, NotSymmetricError


def _unservable(kind):
    a = poisson2d(4)
    data = a.data.copy()
    if kind == "nan":
        data[3] = np.nan
    elif kind == "inf":
        data[5] = np.inf
    else:  # one off-diagonal entry changed, its mirror left alone
        rows = a.row_ids()
        data[np.flatnonzero(rows != a.indices)[0]] *= 2.0
    error = NotSymmetricError if kind == "nonsymmetric" else NonFiniteError
    return a.with_data(data), error


@pytest.fixture(params=["nan", "inf", "nonsymmetric"])
def unservable(request):
    """``(matrix, expected error type)``: PCG cannot serve the matrix."""
    return _unservable(request.param)
