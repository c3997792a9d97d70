"""Benchmark of the FSAI pipeline: end-to-end with tracing off, per layer traced.

Run from the root of a checkout::

    python3 perfbench/run.py --workload poisson3d-91k --seed 1 --seconds 3 --trace 0

Workloads: ``poisson3d-91k`` and ``suite72`` (see ``BENCHMARK.json``).  The
last line of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the line before it records
the host and thread settings.  A ``--trace 1`` run also writes its span tree
and result to ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

#: BLAS / OpenMP / numba thread counts, pinned before numpy is imported:
#: with default threads a fresh process sometimes stalls its first solve.
PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def environment() -> dict:
    """Host, library and thread settings recorded with every result."""
    import numpy as np

    from repro.kernels import get_backend

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "numba": importlib.util.find_spec("numba") is not None,
        "kernel_backend": get_backend().name,
        "threads": {k: os.environ[k] for k in PINNED_THREADS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import harness, workloads
    from perfbench.checks import Checks
    from repro import trace

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {workloads.NAMES}")
    env = environment()
    wl = workloads.build(args.workload, args.seed)
    checks = Checks()
    if args.trace:
        metrics, collector = harness.layers(wl, checks)
    else:
        metrics = harness.end_to_end(wl, args.seconds, checks)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "environment": env, "failures": checks.failures[:20],
        "worst_residual_ratio": checks.worst_residual_ratio,
        "worst_diag_error": checks.worst_diag_error,
    }
    if args.trace:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        stem = OUT_DIR / f"{wl.name}-seed{args.seed}"
        trace.write_json(f"{stem}.trace.json",
                         trace.TraceSummary.from_collector(collector),
                         label=f"{wl.name} seed={args.seed}")
        with open(f"{stem}.result.json", "w") as fh:
            json.dump({**record, **result}, fh, indent=2)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
