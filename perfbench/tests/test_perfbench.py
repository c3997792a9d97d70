"""Tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
Every workload is smoke-run at toy size in both modes, and the outside
checks are shown to reject wrong answers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import harness, workloads
from perfbench.checks import Checks, diag_gagt_error
from repro.fsai import setup_fsai
from repro.solvers.cg import pcg

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_end_to_end_emits_every_metric_with_its_unit(name):
    wl = workloads.build(name, seed=3, size="tiny")
    checks = Checks()
    metrics = harness.end_to_end(wl, seconds=0.0, checks=checks)
    assert {k: u for k, (_, u) in metrics.items()} == _units("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())
    assert checks.attempted > 0
    assert checks.failed == 0, checks.failures


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_emits_every_layer_metric_with_its_unit(name):
    wl = workloads.build(name, seed=3, size="tiny")
    checks = Checks()
    metrics, collector = harness.layers(wl, checks)
    assert {k: u for k, (_, u) in metrics.items()} == _units("per_layer")
    assert checks.failed == 0, checks.failures
    names = {r.name for root in collector.roots for r in root.iter_spans()}
    assert {"bench.setup", "bench.precalc", "bench.replay.gather"} <= names
    # The layer spans inside set-up account for the whole set-up span.
    assert metrics["setup.self_s"][0] < 0.05 * metrics["setup.traced_s"][0]
    if name == "suite72":
        assert metrics["cachesim_s"][0] > 0
        assert metrics["cachesim.accesses"][0] > 0


def test_same_seed_gives_same_inputs():
    one = workloads.build("poisson3d-91k", 5, "tiny").cases[0]
    two = workloads.build("poisson3d-91k", 5, "tiny").cases[0]
    other = workloads.build("poisson3d-91k", 6, "tiny").cases[0]
    assert np.array_equal(one.a.indices, two.a.indices)
    assert np.array_equal(one.a.data, two.a.data)
    assert np.array_equal(one.b, two.b)
    assert not np.array_equal(one.b, other.b)


@pytest.fixture
def solved():
    case = workloads.build("poisson3d-91k", 1, "tiny").cases[0]
    setup = setup_fsai(case.a)
    result = pcg(case.a, case.b, preconditioner=setup.application,
                 rtol=1e-8, record_history=False)
    return case, setup, result


def test_checks_accept_the_real_answer(solved):
    case, setup, result = solved
    checks = Checks()
    assert checks.solve("ok", case.a, case.b, result, 1e-8)
    assert checks.factor("ok", case.a, setup.g)
    assert (checks.attempted, checks.failed) == (2, 0)


def test_checks_reject_a_zeroed_solution(solved):
    case, _, result = solved
    result.x[:] = 0.0
    checks = Checks()
    assert not checks.solve("zeroed", case.a, case.b, result, 1e-8)
    assert (checks.attempted, checks.failed) == (1, 1)


def test_checks_reject_an_unconverged_solve(solved):
    case, setup, _ = solved
    result = pcg(case.a, case.b, preconditioner=setup.application,
                 rtol=1e-8, max_iterations=2, record_history=False)
    checks = Checks()
    assert not checks.solve("capped", case.a, case.b, result, 1e-8)


def test_checks_reject_one_rescaled_row_of_g(solved):
    case, setup, _ = solved
    g = setup.g.copy()
    lo, hi = g.indptr[7], g.indptr[8]
    g.data[lo:hi] *= 1.01
    checks = Checks()
    assert not checks.factor("rescaled", case.a, g)
    assert not checks.same_factor("rescaled", g, setup.g)
    assert checks.failed == 2


def test_diag_error_matches_dense_product(solved):
    case, setup, _ = solved
    g = setup.g.to_dense()
    g[3] *= 2.0
    dense = g @ case.a.to_dense() @ g.T
    expected = np.max(np.abs(np.diag(dense) - 1.0))
    rescaled = setup.g.copy()
    rescaled.data[rescaled.indptr[3]:rescaled.indptr[4]] *= 2.0
    assert diag_gagt_error(case.a, rescaled) == pytest.approx(expected)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite72",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
