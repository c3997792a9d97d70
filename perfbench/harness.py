"""Timed runs of the FSAI pipeline: end-to-end (tracing off) and per layer.

The pipeline is extend → precalculate → filter → exact set-up → PCG, run as
FSAIE(full) at filter 0.01 next to the FSAI baseline, with the paper's
Skylake-aligned placement and ``rtol = 1e-8``.  Every layer is timed from
outside, around calls to its public functions; nothing inside ``repro`` is
instrumented for the benchmark.

Both entry points return ``{metric name: (value, unit)}``.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import trace
from repro.arch.address import ArrayPlacement
from repro.experiments.campaign import CampaignResult
from repro.experiments.runner import run_case
from repro.experiments.tables import filter_sweep_stats
from repro.fsai import (
    FSAIApplication,
    compute_g,
    extend_pattern_cache_friendly,
    filter_extension_by_precalc,
    fsai_initial_pattern,
    precalculate_g,
    setup_fsai,
    setup_fsaie_full,
)
from repro.kernels import get_backend
from repro.kernels.precalc import solve_precalc_stack
from repro.kernels.setup import gather_group_stack, plan_groups, solve_group_stack
from repro.perf.costmodel import CostModel
from repro.solvers.cg import pcg
from repro.trace import SpanRecord

from perfbench.checks import Checks
from perfbench.workloads import Case, Workload

Metrics = Dict[str, Tuple[float, str]]

#: Filter value of the headline experiments (paper §7.2).
FILTER = 0.01
#: Warm solves per repetition, at least, whatever ``--seconds`` says.
MIN_WARM = 2
#: Cold solves per repetition after the first one, each on fresh copies of
#: A and G.  The cold path allocates every view afresh, which makes it the
#: timing most sensitive to a busy host, so it gets the most samples.
EXTRA_COLD = 2
#: Kernel micro-timing: at least this many calls and this many seconds.
MIN_CALLS, MIN_CALL_SECONDS = 20, 0.02
#: Percentile reported for per-case times: with 72 cases, 85 is the highest
#: percentile with at least ten samples above it.
CASE_PERCENTILE = 85


def _placement(wl: Workload) -> ArrayPlacement:
    return ArrayPlacement.aligned(wl.config.machine_model().line_bytes)


def _solve(wl: Workload, a, b, application):
    return pcg(
        a, b, preconditioner=application, rtol=wl.config.rtol,
        max_iterations=wl.config.max_iterations, record_history=False,
    )


def _fsaie_full(wl: Workload, a, placement):
    return setup_fsaie_full(
        a, placement, filter_value=FILTER,
        precalc_rtol=wl.config.precalc_rtol,
        precalc_iterations=wl.config.precalc_iterations,
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# End-to-end run (tracing off)
# ----------------------------------------------------------------------
# The shared host switches between a fast state and one about 1.4x slower
# for seconds to minutes at a time, so a single sample, or the median of a few, reads
# whichever state the run happened to hit.  The run therefore makes
# ``wl.passes`` passes over the cases, each in its own order; a pass times
# one set-up, cold solves, warm solves and FSAI baseline per case.  A
# case's time is the fastest of its passes (the one made in the fast
# state); only ``setup_s`` is the median of the passes.  On the suite each
# case's paper grid runs once, in one of the passes, so the grid too is
# spread over the whole run.
@dataclass
class _Rep:
    setup_s: float
    first_solve_s: float
    #: The first solve and ``EXTRA_COLD`` more solves from cold views.
    cold_solve_s: List[float]
    warm_solve_s: List[float]
    fsai_tts_s: float
    iterations: int
    fsai_iterations: int

    @property
    def time_to_solution_s(self) -> float:
        return self.setup_s + self.first_solve_s

    @property
    def pipeline_s(self) -> float:
        """FSAIE(full) time to solution plus FSAI's."""
        return self.time_to_solution_s + self.fsai_tts_s


@dataclass
class _CaseRun:
    case: Case
    reps: List[_Rep] = field(default_factory=list)
    # The last pass's operator and factors.
    a: object = None
    fsaie: object = None
    fsai: object = None
    grid_s: float = 0.0
    grid_result: object = None

    def median(self, name: str) -> float:
        return float(statistics.median(getattr(r, name) for r in self.reps))

    def fastest(self, name: str) -> float:
        return float(min(getattr(r, name) for r in self.reps))


def _rep(wl: Workload, case: Case, placement, warm_budget: float,
         checks: Checks):
    """One cold FSAIE(full) set-up + first and warm solves, then FSAI."""
    rtol = wl.config.rtol
    a = case.a.copy()  # fresh operator: no cached keys or SpMV views
    t0 = time.perf_counter()
    s = _fsaie_full(wl, a, placement)
    t1 = time.perf_counter()
    res = _solve(wl, a, case.b, s.application)
    t2 = time.perf_counter()
    checks.solve(f"{case.label} fsaie_full first solve", a, case.b, res, rtol)
    cold = [t2 - t1]
    for _ in range(EXTRA_COLD):
        a_cold, app = case.a.copy(), FSAIApplication(s.g.copy())
        t = time.perf_counter()
        res_cold = _solve(wl, a_cold, case.b, app)
        cold.append(time.perf_counter() - t)
        checks.solve(f"{case.label} cold solve", a_cold, case.b, res_cold, rtol)
    warm: List[float] = []
    while len(warm) < MIN_WARM or sum(warm) < warm_budget:
        t = time.perf_counter()
        res = _solve(wl, a, case.b, s.application)
        warm.append(time.perf_counter() - t)
        checks.solve(f"{case.label} warm solve", a, case.b, res, rtol)
    af = case.a.copy()
    t3 = time.perf_counter()
    f = setup_fsai(af)
    res_f = _solve(wl, af, case.b, f.application)
    t4 = time.perf_counter()
    checks.solve(f"{case.label} fsai first solve", af, case.b, res_f, rtol)
    rep = _Rep(t1 - t0, t2 - t1, cold, warm, t4 - t3, res.iterations,
               res_f.iterations)
    return rep, a, s, f


def _run_case(wl: Workload, case: Case, checks: Checks):
    """The paper grid for one suite case through ``run_case``."""
    t0 = time.perf_counter()
    with trace.span("bench.run_case", case=case.label):
        result = run_case(case.grid, wl.config, a=case.a)
    elapsed = time.perf_counter() - t0
    checks.grid_run(f"{case.label} fsai", result.baseline, wl.config.rtol)
    for (method, fv), run in result.runs.items():
        checks.grid_run(f"{case.label} {method}/{fv}", run, wl.config.rtol)
    return elapsed, result


def _case_pass(wl: Workload, run: _CaseRun, placement, warm_budget: float,
               checks: Checks, grid: bool) -> None:
    """One pass over one case: its pipeline, then its paper grid if ``grid``."""
    case = run.case
    rep, run.a, s, f = _rep(wl, case, placement, warm_budget, checks)
    if run.reps:
        checks.same_factor(f"{case.label} fsaie_full G", s.g, run.fsaie.g)
        checks.same_factor(f"{case.label} fsai G", f.g, run.fsai.g)
    else:
        checks.factor(f"{case.label} fsaie_full G", case.a, s.g)
        checks.factor(f"{case.label} fsai G", case.a, f.g)
    run.reps.append(rep)
    run.fsaie, run.fsai = s, f
    if grid:
        run.grid_s, run.grid_result = _run_case(wl, case, checks)


def _modelled_time_ratio(wl: Workload, runs: List[_CaseRun], placement) -> float:
    """Modelled FSAIE(full) solve time over FSAI's, averaged over cases.

    The same roofline + cache-simulation model as the paper tables.
    """
    model = CostModel(wl.config.machine_model(),
                      cache_scale=wl.config.cache_scale, placement=placement)
    ratios = [
        model.solve_seconds(r.a, r.fsaie, r.median("iterations"))
        / model.solve_seconds(r.a, r.fsai, r.median("fsai_iterations"))
        for r in runs
    ]
    return float(np.mean(ratios))


def end_to_end(wl: Workload, seconds: float, checks: Checks) -> Metrics:
    """Every end-to-end metric, measured with tracing off.

    ``seconds`` is the total warm-solve time, shared out over the cases and
    passes (each still makes at least ``MIN_WARM`` warm solves).
    """
    placement = _placement(wl)
    warm_budget = seconds / (len(wl.cases) * wl.passes)
    runs = [_CaseRun(case) for case in wl.cases]
    for k in range(wl.passes):
        # Each pass visits the cases in its own fixed order, so the passes
        # of one case fall at unrelated points of the run; case i runs its
        # grid in pass i mod passes.
        for i in np.random.default_rng(k).permutation(len(runs)):
            grid = runs[i].case.grid is not None and i % wl.passes == k
            _case_pass(wl, runs[i], placement, warm_budget, checks, grid)

    def fastest(name: str) -> float:
        return sum(run.fastest(name) for run in runs)

    def fastest_sample(name: str) -> float:
        return float(sum(min(t for r in run.reps for t in getattr(r, name))
                         for run in runs))

    m: Metrics = {
        "setup_s": (sum(run.median("setup_s") for run in runs), "s"),
        "first_solve_s": (fastest_sample("cold_solve_s"), "s"),
        "solve_s": (fastest_sample("warm_solve_s"), "s"),
        "time_to_solution_s": (fastest("time_to_solution_s"), "s"),
        "fsai_time_to_solution_s": (fastest("fsai_tts_s"), "s"),
    }
    results = [r.grid_result for r in runs if r.grid_result is not None]
    if results:
        case_times = [r.grid_s for r in runs]
        iterations = sum(
            r.baseline.iterations + sum(x.iterations for x in r.runs.values())
            for r in results
        )
        # Table 2's FSAIE(full) "best" row: mean of 100·(1 − t_E/t_FSAI).
        campaign = CampaignResult(config=wl.config, results=results)
        gain = filter_sweep_stats(campaign, "fsaie_full")["best"].avg_time
        ratio = 1.0 - gain / 100.0
    else:
        # One sample per case, as on the suite: its fastest pipeline.
        case_times = [run.fastest("pipeline_s") for run in runs]
        iterations = sum(run.median("iterations") for run in runs)
        ratio = _modelled_time_ratio(wl, runs, placement)
    m["iterations"] = (float(iterations), "count")
    m["suite_s"] = (float(sum(case_times)), "s")
    m["case_s.p50"] = (float(np.percentile(case_times, 50)), "s")
    m[f"case_s.p{CASE_PERCENTILE}"] = (
        float(np.percentile(case_times, CASE_PERCENTILE)), "s")
    m["modelled_time_ratio"] = (ratio, "ratio")
    m["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    return m


# ----------------------------------------------------------------------
# Per-layer run (traced)
# ----------------------------------------------------------------------
@dataclass
class _Traced:
    a: object
    base: object
    ext1: object
    s_ext: object
    ext2: object
    final: object
    g: object
    iterations: int
    fsai_iterations: int


def _traced_pipeline(wl: Workload, case: Case, placement,
                     checks: Checks) -> _Traced:
    """FSAIE(full) step by step, one benchmark span per public call.

    The call sequence is exactly :func:`repro.fsai.setup_fsaie_full`'s, so
    the factor must come out byte-identical to it (checked by the caller).
    """
    cfg = wl.config
    span = trace.span
    a = case.a.copy()
    with span("bench.case", case=case.label):
        with span("bench.setup"):
            with span("bench.initial_pattern"):
                base = fsai_initial_pattern(a)
            with span("bench.extension"):
                ext1 = extend_pattern_cache_friendly(
                    base, placement, triangular="lower")
            with span("bench.precalc"):
                g1 = precalculate_g(a, ext1, rtol=cfg.precalc_rtol,
                                    max_iterations=cfg.precalc_iterations)
            with span("bench.filter"):
                s_ext = filter_extension_by_precalc(g1, base, FILTER)
            with span("bench.extension"):
                ext2 = extend_pattern_cache_friendly(
                    s_ext.transpose(), placement, triangular="upper"
                ).transpose()
            with span("bench.precalc"):
                g2 = precalculate_g(a, ext2, rtol=cfg.precalc_rtol,
                                    max_iterations=cfg.precalc_iterations)
            with span("bench.filter"):
                final = filter_extension_by_precalc(g2, s_ext, FILTER)
            with span("bench.exact_setup"):
                g = compute_g(a, final)
            application = FSAIApplication(g)
        with span("bench.first_solve"):
            res = _solve(wl, a, case.b, application)
        checks.solve(f"{case.label} traced first solve", a, case.b, res, cfg.rtol)
        with span("bench.warm_solve"):
            res = _solve(wl, a, case.b, application)
        checks.solve(f"{case.label} traced warm solve", a, case.b, res, cfg.rtol)
        af = case.a.copy()
        with span("bench.fsai_setup"):
            f = setup_fsai(af)
        with span("bench.fsai_first_solve"):
            res_f = _solve(wl, af, case.b, f.application)
        checks.solve(f"{case.label} traced fsai solve", af, case.b, res_f,
                     cfg.rtol)
    return _Traced(a, base, ext1, s_ext, ext2, final, g, res.iterations,
                   res_f.iterations)


@dataclass
class _Replay:
    gather_s: float = 0.0
    solve_s: float = 0.0
    systems: int = 0
    useful: int = 0
    stacked: int = 0


def _replay(a, pattern, acc: _Replay, precalc: Optional[Tuple[float, int]]):
    """Re-run one set-up op group by group to split gather from solve.

    Uses the op's own public pieces (``plan_groups``, ``gather_group_stack``
    and ``solve_group_stack`` / ``solve_precalc_stack``) in the op's order;
    normalisation and scatter are left out.
    """
    keys = np.concatenate([a.entry_keys(), np.asarray([-1], dtype=np.int64)])
    n_cols = np.int64(a.n_cols)
    lengths = np.diff(pattern.indptr)
    sizes, counts = np.unique(lengths, return_counts=True)
    mode = "direct" if precalc is None else "precalc"
    with trace.span("bench.replay", mode=mode, rows=pattern.n_rows):
        for group in plan_groups(sizes.tolist(), counts.tolist()):
            K = group[-1]
            rows_parts = [np.flatnonzero(lengths == k) for k in group]
            m = sum(len(r) for r in rows_parts)
            with trace.span("bench.replay.gather", K=K, systems=m):
                t0 = time.perf_counter()
                systems = gather_group_stack(
                    keys, a.data, n_cols, pattern.indptr, pattern.indices,
                    rows_parts, group, K)
                t1 = time.perf_counter()
            with trace.span("bench.replay.solve", K=K, systems=m):
                if precalc is None:
                    solve_group_stack(systems)
                else:
                    solve_precalc_stack(systems, *precalc)
                t2 = time.perf_counter()
            acc.gather_s += t1 - t0
            acc.solve_s += t2 - t1
            acc.systems += m
            acc.useful += sum(k * k * len(r) for k, r in zip(group, rows_parts))
            acc.stacked += K * K * m


def _bench_children(record: SpanRecord) -> List[SpanRecord]:
    """Nearest ``bench.*`` descendants (program spans in between skipped)."""
    out: List[SpanRecord] = []
    for child in record.children:
        if child.name.startswith("bench."):
            out.append(child)
        else:
            out.extend(_bench_children(child))
    return out


def _bench_self_seconds(roots: List[SpanRecord]) -> Dict[str, float]:
    """Self time per ``bench.*`` span name, over the benchmark's span tree."""
    totals: Dict[str, float] = {}
    stack = [r for r in roots if r.name.startswith("bench.")]
    while stack:
        rec = stack.pop()
        kids = _bench_children(rec)
        self_s = rec.duration - sum(k.duration for k in kids)
        totals[rec.name] = totals.get(rec.name, 0.0) + self_s
        stack.extend(kids)
    return totals


def _outermost(roots: List[SpanRecord], prefix: str) -> List[SpanRecord]:
    """Spans whose name starts with ``prefix``, not nested in another one."""
    out: List[SpanRecord] = []
    stack = list(roots)
    while stack:
        rec = stack.pop()
        if rec.name.startswith(prefix):
            out.append(rec)
        else:
            stack.extend(rec.children)
    return out


def _seconds(roots: List[SpanRecord], prefix: str) -> float:
    """Total duration of the outermost spans whose name starts with ``prefix``."""
    return float(sum(r.duration for r in _outermost(roots, prefix)))


def _call_seconds(op, x: np.ndarray, out: np.ndarray) -> float:
    """Median wall time of one bound-kernel call."""
    op(x, out)
    times: List[float] = []
    start = time.perf_counter()
    while len(times) < MIN_CALLS or time.perf_counter() - start < MIN_CALL_SECONDS:
        t0 = time.perf_counter()
        op(x, out)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _csr_bytes(nnz: int, n: int) -> int:
    """Compulsory traffic of one CSR SpMV: values + column indices, row
    pointers, one read of ``x`` and one write of ``y`` (8-byte words)."""
    return 16 * nnz + 8 * (n + 1) + 16 * n


def layers(wl: Workload, checks: Checks) -> Tuple[Metrics, trace.Collector]:
    """Every per-layer metric, from one traced run; returns the spans too."""
    placement = _placement(wl)
    cfg = wl.config
    # Traced pass first, so a cold first call inflates the overhead
    # estimate instead of hiding it.
    with trace.collecting() as collector:
        traced = [_traced_pipeline(wl, c, placement, checks) for c in wl.cases]
    # Untraced reference: (rep, a, fsaie setup, fsai setup) per case.
    refs = [_rep(wl, c, placement, 0.0, checks) for c in wl.cases]
    for case, t, (_, _, ref, _) in zip(wl.cases, traced, refs):
        checks.same_factor(f"{case.label} traced G", t.g, ref.g)
        checks.factor(f"{case.label} traced G", case.a, t.g)

    precalc, exact = _Replay(), _Replay()
    with trace.collecting(collector):
        for t in traced:
            for pattern in (t.ext1, t.ext2):
                _replay(t.a, pattern, precalc,
                        (cfg.precalc_rtol, cfg.precalc_iterations))
            _replay(t.a, t.final, exact, None)
        n_before = len(collector.roots)
        for case in wl.cases:
            if case.grid is not None:
                _run_case(wl, case, checks)
        grid_roots = collector.roots[n_before:]

    backend = get_backend()
    spmv_s = apply_s = 0.0
    spmv_bytes = apply_bytes = spmv_ops = apply_ops = 0
    for case, (_, a, ref, _) in zip(wl.cases, refs):
        g, n = ref.g, case.a.n_rows
        x, out = case.b.copy(), np.empty(n)
        spmv_s += _call_seconds(backend.spmv_op(a, np.empty(a.nnz)), x, out)
        apply_s += _call_seconds(
            backend.fsai_apply_op(g, np.empty(n), np.empty(g.nnz)), x, out)
        spmv_bytes += _csr_bytes(a.nnz, n)
        spmv_ops += 2 * a.nnz
        apply_bytes += 2 * _csr_bytes(g.nnz, n)
        apply_ops += 4 * g.nnz

    own = _bench_self_seconds(collector.roots)
    setup_s = _seconds(collector.roots, "bench.setup")
    traced_s = setup_s + sum(_seconds(collector.roots, f"bench.{k}")
                             for k in ("first_solve", "warm_solve"))
    reps = [rep for rep, *_ in refs]
    ref_s = sum(r.setup_s + r.first_solve_s + r.warm_solve_s[0] for r in reps)
    added = sum((t.ext1.nnz - t.base.nnz) + (t.ext2.nnz - t.s_ext.nnz)
                for t in traced)
    kept = sum(t.final.nnz - t.base.nnz for t in traced)
    flops_pre = sum(s.flops["precalc1"] + s.flops["precalc2"]
                    for _, _, s, _ in refs)
    flops_direct = sum(s.flops["direct"] for _, _, s, _ in refs)
    iterations = sum(t.iterations for t in traced)
    precalc_s = own.get("bench.precalc", 0.0)
    exact_s = own.get("bench.exact_setup", 0.0)
    counters: Dict[str, float] = {}
    for root in grid_roots:
        for key, val in root.total_counters().items():
            counters[key] = counters.get(key, 0) + val

    m: Metrics = {
        "matrix_build_s": (wl.build_s, "s"),
        "initial_pattern_s": (own.get("bench.initial_pattern", 0.0), "s"),
        "extension_s": (own.get("bench.extension", 0.0), "s"),
        "extension.added_nnz": (float(added), "count"),
        "precalc_s": (precalc_s, "s"),
        "precalc.gather_s": (precalc.gather_s, "s"),
        "precalc.solve_s": (precalc.solve_s, "s"),
        "precalc.systems": (float(precalc.systems), "count"),
        "exact_setup_s": (exact_s, "s"),
        "exact_setup.gather_s": (exact.gather_s, "s"),
        "exact_setup.solve_s": (exact.solve_s, "s"),
        "setup.pad_efficiency": (exact.useful / exact.stacked, "ratio"),
        "g_nnz": (float(sum(t.g.nnz for t in traced)), "count"),
        "filter_s": (own.get("bench.filter", 0.0), "s"),
        "filter.kept_ratio": (kept / added if added else 0.0, "ratio"),
        "setup.traced_s": (setup_s, "s"),
        "setup.self_s": (own.get("bench.setup", 0.0), "s"),
        "pcg.cold_overhead_s": (
            sum(r.first_solve_s - r.warm_solve_s[0] for r in reps), "s"),
        "pcg.iteration_s": (
            sum(r.warm_solve_s[0] for r in reps) / max(iterations, 1), "s"),
        "fsai_iterations": (float(sum(t.fsai_iterations for t in traced)),
                            "count"),
        "spmv.call_s": (spmv_s, "s"),
        "spmv.bytes_computed": (float(spmv_bytes), "bytes"),
        "spmv.ops_per_byte_computed": (spmv_ops / spmv_bytes, "flop/byte"),
        "spmv.gbps_computed": (spmv_bytes / spmv_s / 1e9, "GB/s"),
        "fsai_apply.call_s": (apply_s, "s"),
        "fsai_apply.bytes_computed": (float(apply_bytes), "bytes"),
        "fsai_apply.ops_per_byte_computed": (apply_ops / apply_bytes,
                                             "flop/byte"),
        "fsai_apply.gbps_computed": (apply_bytes / apply_s / 1e9, "GB/s"),
        "cachesim_s": (_seconds(grid_roots, "cachesim."), "s"),
        # Every simulated access is looked up in L1 first.
        "cachesim.accesses": (float(counters.get("cachesim.l1_accesses", 0)),
                              "count"),
        "cachesim.x_misses": (float(counters.get("cachesim.x_misses", 0)),
                              "count"),
        "case.prepare_s": (_seconds(grid_roots, "case.prepare"), "s"),
        "case.evaluate_s": (_seconds(grid_roots, "case.evaluate"), "s"),
        "model.precalc_to_direct": (flops_pre / flops_direct, "ratio"),
        "measured.precalc_to_exact": (
            precalc_s / exact_s if exact_s else 0.0, "ratio"),
        "trace_overhead_pct": (100.0 * (traced_s - ref_s) / ref_s, "%"),
    }
    return m, collector
