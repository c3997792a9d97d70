"""The benchmark's workloads, built from the repository's own generators.

A workload is a list of cases (a matrix plus its right-hand side) that the
FSAI pipeline runs on, plus, for ``suite72``, the paper's experiment grid.
Everything is derived from the seed: the same seed gives the same inputs.

``size="full"`` is what the benchmark measures; ``size="tiny"`` builds the
same workloads at toy sizes for the benchmark's own tests.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.collection.generators.fd import poisson3d
from repro.collection.suite import MatrixCase, suite72
from repro.experiments.runner import ExperimentConfig, make_rhs
from repro.sparse.csr import CSRMatrix

NAMES = ("poisson3d-91k", "suite72")

#: Grid points per side of ``poisson3d`` (45³ = 91,125 rows).
POISSON_SIDE = {"full": 45, "tiny": 8}
#: Passes over the cases in an end-to-end run.  Each pass sets up and
#: solves every case once; the run reports a case's fastest pass, so
#: every pass buys steadiness.
PASSES = {"poisson3d-91k": 4, "suite72": 3}
#: Suite cases in the tiny variant (the two smallest ids).
TINY_SUITE_IDS = (1, 2)


@dataclass
class Case:
    """One matrix the pipeline runs on."""

    label: str
    a: CSRMatrix
    b: np.ndarray
    #: The suite case this matrix came from; its paper grid (``run_case``)
    #: runs once, right after the case's pipeline in one of the passes.
    grid: Optional[MatrixCase] = None


@dataclass
class Workload:
    name: str
    cases: List[Case]
    #: Passes over the cases in an end-to-end run.
    passes: int
    config: ExperimentConfig
    #: Wall time spent building the matrices (benchmark set-up, excluded
    #: from every end-to-end metric).
    build_s: float = 0.0


def build(name: str, seed: int, size: str = "full") -> Workload:
    """Generate workload ``name`` from ``seed``."""
    # The RHS seed is the benchmark seed; every other knob is the default
    # paper configuration (Skylake, rtol 1e-8, filters 0/0.001/0.01/0.1).
    config = ExperimentConfig(rhs_seed=seed)
    t0 = time.perf_counter()
    if name == "poisson3d-91k":
        a = poisson3d(POISSON_SIDE[size])
        wl = Workload(name, [Case(name, a, make_rhs(a, seed))], PASSES[name], config)
    elif name == "suite72":
        grid = suite72()
        if size == "tiny":
            grid = [c for c in grid if c.case_id in TINY_SUITE_IDS]
        cases = []
        for c in grid:
            a = c.build()
            cases.append(Case(c.name, a, make_rhs(a, seed + c.case_id), c))
        wl = Workload(name, cases, PASSES[name], config)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    wl.build_s = time.perf_counter() - t0
    return wl
