"""One Algorithm 4 pass per case: the shared filter sweep changes nothing.

``run_case`` builds every filtered method through one
:func:`repro.fsai.extended.sweep_fsaie` call, which runs the
filter-independent prefix (initial pattern, first extension, its
precalculation and step-4 filtering) once.  The grid it produces must be
the grid built from one stand-alone ``setup_*`` call per
``(method, filter)`` — compared as serialised JSON, key order included —
and a traced case must show the prefix ran once.
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro import trace
from repro.arch.address import ArrayPlacement
from repro.collection.generators.fd import poisson2d
from repro.collection.suite import get_case
from repro.errors import ConfigurationError
from repro.experiments import runner
from repro.experiments.runner import PAPER_FILTERS, ExperimentConfig, run_case
from repro.fsai.extended import SWEEP_METHODS, sweep_fsaie
from repro.fsai.registry import get_method

CASES = (1, 5, 24, 37, 52)
CONFIGS = {
    "default": ExperimentConfig(),
    "full-then-sp": ExperimentConfig(methods=("fsaie_full", "fsaie_sp")),
    "global-joint-sp": ExperimentConfig(
        methods=("gsai_st", "fsaie_joint", "fsaie_sp")
    ),
    "random-baseline": ExperimentConfig(include_random_baseline=True),
}


def _per_call_sweep(a, placement, methods, filters, **kwargs):
    """The grid as one stand-alone builder call per (method, filter)."""
    for method in methods:
        for f in filters:
            setup = get_method(method).builder(
                a, placement, filter_value=f, **kwargs
            )
            yield (method, f), setup


@pytest.fixture(scope="module")
def matrices():
    return {cid: get_case(cid).build() for cid in CASES}


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("case_id", CASES)
def test_shared_sweep_grid_equals_per_call_grid(
    monkeypatch, matrices, case_id, name
):
    case, config = get_case(case_id), CONFIGS[name]
    a = matrices[case_id]
    shared = json.dumps(run_case(case, config, a=a).to_dict())
    monkeypatch.setattr(runner, "sweep_fsaie", _per_call_sweep)
    per_call = json.dumps(run_case(case, config, a=a).to_dict())
    assert shared == per_call


@pytest.fixture(scope="module")
def case_tree():
    """Span tree of one traced default case."""
    with trace.collecting():
        result = run_case(get_case(37), ExperimentConfig())
    (root,) = result.trace_summary.spans
    return root


def test_traced_case_runs_the_prefix_once(case_tree):
    counts = Counter(s.name for s in case_tree.iter_spans())
    # One first extension + precalc, then one transpose pass per FSAIE(full)
    # filter; the exact set-ups stay one per set-up (FSAI + 2 x 4 filters).
    assert counts["fsai.sweep"] == 1
    assert counts["fsai.precalc"] == 5
    assert counts["fsai.extension"] == 5
    assert counts["fsai.frobenius"] == 9


def test_tails_keep_their_setup_spans(case_tree):
    (sweep,) = [s for s in case_tree.iter_spans() if s.name == "fsai.sweep"]
    assert sweep.attrs["methods"] == "fsaie_sp,fsaie_full"
    tails = [
        (s.attrs["method"], s.attrs.get("filter_value"))
        for s in case_tree.children
        if s.name == "fsai.setup"
    ]
    assert tails == [("fsai", None)] + [
        (m, f) for m in ("fsaie_sp", "fsaie_full") for f in PAPER_FILTERS
    ]
    # The prefix is closed before any tail is yielded, so no evaluation
    # nests under it.
    assert not [s for s in sweep.iter_spans() if s.name == "case.evaluate"]


def test_sweep_yields_methods_by_filters_in_order():
    a = poisson2d(12)
    placement = ArrayPlacement.aligned(64)
    keys = [k for k, _ in sweep_fsaie(a, placement, SWEEP_METHODS, (0.1, 0.0))]
    assert keys == [(m, f) for m in SWEEP_METHODS for f in (0.1, 0.0)]


def test_sweep_setups_equal_standalone_builders():
    a = poisson2d(12)
    placement = ArrayPlacement.aligned(64)
    for (method, f), setup in sweep_fsaie(
        a, placement, SWEEP_METHODS, PAPER_FILTERS
    ):
        alone = get_method(method).builder(a, placement, filter_value=f)
        assert setup.method == alone.method and setup.filter_value == f
        assert setup.flops == alone.flops
        assert list(setup.flops) == list(alone.flops)
        assert setup.base_pattern == alone.base_pattern
        assert setup.final_pattern == alone.final_pattern
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(
                getattr(setup.g, name), getattr(alone.g, name)
            )


def test_sweep_rejects_methods_it_does_not_build():
    a = poisson2d(6)
    with pytest.raises(ConfigurationError, match="fsai"):
        next(sweep_fsaie(a, ArrayPlacement.aligned(64), ("fsai",), (0.01,)))
