"""ServiceMetrics/LatencyHistogram across process boundaries.

The pool folds per-worker metrics into one view with
``ServiceMetrics.from_dict(...)`` + ``merge``; this suite pins the three
properties that make the fold correct: lossless pickle/dict round-trips,
merge associativity/commutativity (fold order must not matter — workers
report in arbitrary order), and the histogram bucket contract.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.metrics import ServiceMetrics
from repro.trace.histogram import LatencyHistogram


def _sample_metrics(seed, samples=17):
    rng = np.random.default_rng(seed)
    m = ServiceMetrics()
    m.submitted = int(rng.integers(0, 100))
    m.solved = int(rng.integers(0, 100))
    m.not_converged = int(rng.integers(0, 10))
    m.failed = int(rng.integers(0, 10))
    m.rejected = int(rng.integers(0, 10))
    m.timeouts = int(rng.integers(0, 10))
    m.batches = int(rng.integers(0, 50))
    m.batched_rhs = int(rng.integers(0, 200))
    m.cache_hits = int(rng.integers(0, 50))
    m.cache_misses = int(rng.integers(0, 50))
    m.queue_high_water = int(rng.integers(0, 128))
    for value in rng.exponential(0.01, size=samples):
        m.latency.record(float(value))
        m.queue_wait.record(float(value) / 3.0)
    for value in rng.exponential(0.05, size=samples // 2):
        m.solve_seconds.record(float(value))
    return m


def _flat(m):
    d = m.to_dict()
    return {k: v for k, v in d.items() if not isinstance(v, dict)}, {
        k: v for k, v in d.items() if isinstance(v, dict)
    }


class TestRoundTrips:
    def test_pickle_round_trip_is_lossless(self):
        m = _sample_metrics(0)
        clone = pickle.loads(pickle.dumps(m))
        assert clone.to_dict() == m.to_dict()
        # The clone is live: its recreated lock records new samples.
        clone.latency.record(0.5)
        assert clone.latency.count == m.latency.count + 1

    def test_dict_round_trip_is_lossless(self):
        m = _sample_metrics(1)
        clone = ServiceMetrics.from_dict(m.to_dict())
        assert clone.to_dict() == m.to_dict()

    def test_histogram_round_trip_preserves_buckets(self):
        h = LatencyHistogram()
        for v in (1e-4, 3e-3, 0.2, 5.0):
            h.record(v)
        clone = LatencyHistogram.from_dict(h.to_dict())
        assert clone.to_dict() == h.to_dict()
        assert clone.count == 4
        assert clone.min == h.min and clone.max == h.max


class TestMergeAlgebra:
    def test_merge_adds_counters_and_histograms(self):
        a, b = _sample_metrics(2), _sample_metrics(3)
        expect_solved = a.solved + b.solved
        expect_latency = a.latency.count + b.latency.count
        expect_high = max(a.queue_high_water, b.queue_high_water)
        a.merge(b)
        assert a.solved == expect_solved
        assert a.latency.count == expect_latency
        assert a.queue_high_water == expect_high

    @settings(max_examples=25, deadline=None)
    @given(seeds=st.lists(st.integers(0, 10_000), min_size=2, max_size=5))
    def test_merge_fold_order_does_not_matter(self, seeds):
        """Associativity+commutativity: any fold order, same totals."""
        def fold(order):
            acc = ServiceMetrics()
            for s in order:
                acc.merge(_sample_metrics(s))
            return acc.to_dict()

        forward = fold(seeds)
        backward = fold(list(reversed(seeds)))
        # Bucket counts, extrema and integer counters are exactly fold-
        # order independent; the histograms' running float sums are only
        # reorderings of the same addends, so they agree to roundoff.
        for key, value in forward.items():
            if isinstance(value, dict):
                other = backward[key]
                assert other["counts"] == value["counts"]
                assert other["count"] == value["count"]
                assert other["min_seconds"] == value["min_seconds"]
                assert other["max_seconds"] == value["max_seconds"]
                assert other["total_seconds"] == pytest.approx(
                    value["total_seconds"], rel=1e-12
                )
            else:
                assert backward[key] == value, key

    def test_pool_merge_adds_not_converged(self):
        """Worker dicts folded as the pool does keep the two outcomes apart."""
        a, b = _sample_metrics(7), _sample_metrics(8)
        merged = ServiceMetrics()
        for worker in (a, b):
            merged.merge(ServiceMetrics.from_dict(worker.to_dict()))
        assert merged.not_converged == a.not_converged + b.not_converged
        assert merged.solved == a.solved + b.solved
        snap = merged.snapshot()
        assert snap["not_converged"] == merged.not_converged
        assert f"{merged.not_converged} not converged" in merged.summary_lines()[0]

    def test_merge_after_pickle_equals_local_merge(self):
        """The pool's actual path: child pickles, parent merges."""
        a, b = _sample_metrics(4), _sample_metrics(5)
        local = ServiceMetrics.from_dict(a.to_dict())
        local.merge(b)
        remote = ServiceMetrics.from_dict(a.to_dict())
        remote.merge(pickle.loads(pickle.dumps(b)))
        assert local.to_dict() == remote.to_dict()

    def test_merge_rejects_nothing_silently(self):
        m = ServiceMetrics()
        m.merge(ServiceMetrics())
        counters, hists = _flat(m)
        assert all(v == 0 for v in counters.values())
        assert all(h["count"] == 0 for h in hists.values())


class TestSnapshotCompat:
    def test_snapshot_still_summarises(self):
        m = _sample_metrics(6)
        snap = m.snapshot()
        assert snap["solved"] == m.solved
        assert "latency_seconds" in snap

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(KeyError):
            ServiceMetrics.from_dict({"solved": 3})
