"""SolverService contracts: correctness, batching, backpressure, isolation.

Async tests drive the service directly with ``asyncio.run`` (no plugin
dependency); where an interleaving matters the tests force it with
events and injected block solvers instead of sleeping and hoping.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro import trace
from repro.collection.generators.fd import poisson2d
from repro.errors import (
    NonFiniteError,
    OverloadRejectedError,
    RequestTimeoutError,
    ServiceClosedError,
    ShapeError,
    UnknownOperatorError,
)
from repro.fsai.extended import setup_fsai
from repro.serve import SolverService
from repro.serve.dispatcher import _default_solver
from repro.solvers.cg import pcg


def _rhs(a, seed=0):
    return np.ascontiguousarray(
        np.random.default_rng(seed).standard_normal(a.n_rows)
    )


class TestCorrectness:
    def test_served_solution_matches_direct_pcg(self):
        a = poisson2d(8)
        b = _rhs(a, 1)

        async def run():
            async with SolverService(window_seconds=0.0) as service:
                fp = service.register_operator(a)
                return await service.solve(fp, b, rtol=1e-10)

        served = asyncio.run(run())
        # Same numerics as a direct FSAI-preconditioned solve.
        direct = pcg(
            a, b, preconditioner=setup_fsai(a).application, rtol=1e-10
        )
        assert served.converged
        assert served.operator == a.fingerprint()
        assert served.batch_size == 1
        np.testing.assert_allclose(served.x, direct.x, rtol=1e-8, atol=1e-10)
        assert served.iterations == direct.iterations

    def test_inline_matrix_auto_registers(self):
        a = poisson2d(6)
        b = _rhs(a, 2)

        async def run():
            async with SolverService(window_seconds=0.0) as service:
                result = await service.solve(a, b, rtol=1e-8)
                assert a.fingerprint() in service.registry
                return result

        assert asyncio.run(run()).converged

    def test_batched_solutions_match_direct_solves(self):
        """Concurrent same-operator requests fuse into one block and every
        column still matches its single-RHS solution."""
        a = poisson2d(8)
        columns = [_rhs(a, seed) for seed in range(6)]
        sizes = []

        def capturing(matrix, cols, app, rtol, atol, max_iterations):
            sizes.append(len(cols))
            return _default_solver(
                matrix, cols, app, rtol, atol, max_iterations
            )

        async def run():
            async with SolverService(
                window_seconds=0.05, max_batch=16, solver=capturing
            ) as service:
                fp = service.register_operator(a)
                return await asyncio.gather(*[
                    service.solve(fp, c, rtol=1e-10) for c in columns
                ])

        results = asyncio.run(run())
        assert max(sizes) > 1  # batching actually happened
        assert sum(sizes) == len(columns)
        for c, served in zip(columns, results):
            direct = pcg(a, c, rtol=1e-10)
            np.testing.assert_allclose(
                served.x, direct.x, rtol=1e-8, atol=1e-10
            )
            assert served.batch_size >= 1

    def test_mixed_operators_group_per_key(self):
        mats = [poisson2d(6), poisson2d(8)]
        batches = []

        def capturing(matrix, cols, app, rtol, atol, max_iterations):
            batches.append((matrix.n_rows, len(cols)))
            return _default_solver(
                matrix, cols, app, rtol, atol, max_iterations
            )

        async def run():
            async with SolverService(
                window_seconds=0.05, max_batch=16, solver=capturing
            ) as service:
                fps = [service.register_operator(a) for a in mats]
                tasks = []
                for seed in range(4):
                    for fp, a in zip(fps, mats):
                        tasks.append(
                            service.solve(fp, _rhs(a, seed), rtol=1e-8)
                        )
                return await asyncio.gather(*tasks)

        results = asyncio.run(run())
        assert all(r.converged for r in results)
        # One block per operator, never a mixed one.
        assert sorted(batches) == [(36, 4), (64, 4)]

    def test_mismatched_tolerances_never_share_a_block(self):
        a = poisson2d(6)
        widths = []

        def capturing(matrix, cols, app, rtol, atol, max_iterations):
            widths.append((rtol, len(cols)))
            return _default_solver(
                matrix, cols, app, rtol, atol, max_iterations
            )

        async def run():
            async with SolverService(
                window_seconds=0.05, max_batch=16, solver=capturing
            ) as service:
                fp = service.register_operator(a)
                return await asyncio.gather(
                    service.solve(fp, _rhs(a, 1), rtol=1e-6),
                    service.solve(fp, _rhs(a, 2), rtol=1e-6),
                    service.solve(fp, _rhs(a, 3), rtol=1e-10),
                )

        asyncio.run(run())
        assert sorted(widths) == [(1e-10, 1), (1e-6, 2)]


class TestAdmission:
    def test_unknown_operator_fails_fast(self):
        async def run():
            async with SolverService() as service:
                with pytest.raises(UnknownOperatorError):
                    await service.solve("0" * 64, np.ones(4))

        asyncio.run(run())

    def test_wrong_rhs_shape_rejected(self):
        a = poisson2d(6)

        async def run():
            async with SolverService() as service:
                fp = service.register_operator(a)
                with pytest.raises(ShapeError):
                    await service.solve(fp, np.ones(a.n_rows + 1))

        asyncio.run(run())

    def test_non_finite_rhs_rejected_before_batching(self):
        a = poisson2d(6)

        async def run():
            async with SolverService(window_seconds=0.02) as service:
                fp = service.register_operator(a)
                bad = np.ones(a.n_rows)
                bad[2] = np.inf
                good = asyncio.ensure_future(service.solve(fp, _rhs(a, 1)))
                await asyncio.sleep(0)  # admitted, waiting in the window
                with pytest.raises(NonFiniteError):
                    await service.solve(fp, bad)
                assert (await good).result.converged

        asyncio.run(run())

    def test_solve_after_stop_raises_closed(self):
        a = poisson2d(6)

        async def run():
            service = SolverService()
            await service.start()
            fp = service.register_operator(a)
            await service.stop()
            with pytest.raises(ServiceClosedError):
                await service.solve(fp, np.ones(a.n_rows))

        asyncio.run(run())

    def test_double_start_rejected(self):
        async def run():
            async with SolverService() as service:
                with pytest.raises(ServiceClosedError):
                    await service.start()

        asyncio.run(run())

    def test_overload_sheds_with_typed_rejection(self):
        """Fill the bounded queue behind a blocked solver; the next
        admission must raise OverloadRejectedError immediately."""
        a = poisson2d(6)
        solver_entered = threading.Event()
        release_solver = threading.Event()

        def blocking(matrix, cols, app, rtol, atol, max_iterations):
            solver_entered.set()
            assert release_solver.wait(30)
            return _default_solver(
                matrix, cols, app, rtol, atol, max_iterations
            )

        async def run():
            async with SolverService(
                window_seconds=0.0, max_batch=1, queue_capacity=2,
                solver=blocking,
            ) as service:
                fp = service.register_operator(a)
                first = asyncio.ensure_future(
                    service.solve(fp, _rhs(a, 0), rtol=1e-8)
                )
                # Wait until the dispatcher is inside the blocked solve,
                # so the queue is empty and under our control.
                while not solver_entered.is_set():
                    await asyncio.sleep(0.001)
                queued = [
                    asyncio.ensure_future(
                        service.solve(fp, _rhs(a, seed), rtol=1e-8)
                    )
                    for seed in (1, 2)
                ]
                await asyncio.sleep(0)  # let both admissions run
                with trace.collecting() as collector:
                    with pytest.raises(OverloadRejectedError) as exc_info:
                        await service.solve(fp, _rhs(a, 3), rtol=1e-8)
                assert exc_info.value.queue_capacity == 2
                assert service.metrics.rejected == 1
                assert (
                    collector.total_counters().get("serve.rejected") == 1
                )
                release_solver.set()
                results = await asyncio.gather(first, *queued)
                return results

        results = asyncio.run(run())
        assert all(r.converged for r in results)

    def test_timeout_expires_only_before_dispatch(self):
        """A request whose deadline passes while queued gets
        RequestTimeoutError; one already solving always completes."""
        a = poisson2d(6)
        solver_entered = threading.Event()
        release_solver = threading.Event()

        def blocking(matrix, cols, app, rtol, atol, max_iterations):
            solver_entered.set()
            assert release_solver.wait(30)
            return _default_solver(
                matrix, cols, app, rtol, atol, max_iterations
            )

        async def run():
            async with SolverService(
                window_seconds=0.0, max_batch=1, solver=blocking,
            ) as service:
                fp = service.register_operator(a)
                # First request enters the solver and blocks there; its
                # own (generous) timeout must NOT fire mid-solve.
                first = asyncio.ensure_future(
                    service.solve(fp, _rhs(a, 0), rtol=1e-8, timeout=30.0)
                )
                while not solver_entered.is_set():
                    await asyncio.sleep(0.001)
                # Second request waits in the queue with a tiny timeout.
                second = asyncio.ensure_future(
                    service.solve(fp, _rhs(a, 1), rtol=1e-8, timeout=0.01)
                )
                await asyncio.sleep(0.05)  # let the deadline lapse
                release_solver.set()
                first_result = await first
                with pytest.raises(RequestTimeoutError) as exc_info:
                    await second
                return first_result, exc_info.value

        first_result, timeout_error = asyncio.run(run())
        assert first_result.converged
        assert timeout_error.waited_seconds >= 0.01


class TestIsolationAndShutdown:
    def test_solver_failure_is_isolated_to_its_block(self):
        mats = [poisson2d(6), poisson2d(8)]

        def flaky(matrix, cols, app, rtol, atol, max_iterations):
            if matrix.n_rows == mats[0].n_rows:
                raise RuntimeError("numeric explosion")
            return _default_solver(
                matrix, cols, app, rtol, atol, max_iterations
            )

        async def run():
            async with SolverService(
                window_seconds=0.0, solver=flaky
            ) as service:
                fps = [service.register_operator(a) for a in mats]
                with pytest.raises(RuntimeError, match="numeric explosion"):
                    await service.solve(fps[0], _rhs(mats[0], 1))
                # The dispatcher survived: the next block still serves.
                result = await service.solve(
                    fps[1], _rhs(mats[1], 2), rtol=1e-8
                )
                assert service.metrics.failed == 1
                return result

        assert asyncio.run(run()).converged

    def test_stop_drains_admitted_requests(self):
        a = poisson2d(6)

        async def run():
            service = SolverService(window_seconds=0.0, max_batch=1)
            await service.start()
            fp = service.register_operator(a)
            futures = [
                asyncio.ensure_future(
                    service.solve(fp, _rhs(a, seed), rtol=1e-8)
                )
                for seed in range(4)
            ]
            await asyncio.sleep(0)  # admissions reach the queue
            await service.stop()
            return await asyncio.gather(*futures)

        results = asyncio.run(run())
        assert len(results) == 4
        assert all(r.converged for r in results)

    def test_stop_is_idempotent_and_restartable_service_raises(self):
        async def run():
            service = SolverService()
            await service.start()
            await service.stop()
            await service.stop()  # second stop is a no-op
            assert not service.running

        asyncio.run(run())

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="queue_capacity"):
            SolverService(queue_capacity=0)
        with pytest.raises(ValueError, match="max_batch"):
            SolverService(max_batch=0)
        with pytest.raises(ValueError, match="window_seconds"):
            SolverService(window_seconds=-0.001)


class TestObservability:
    def test_trace_spans_and_counters(self):
        a = poisson2d(6)

        async def run():
            async with SolverService(window_seconds=0.05) as service:
                fp = service.register_operator(a)
                await asyncio.gather(*[
                    service.solve(fp, _rhs(a, seed), rtol=1e-8)
                    for seed in range(3)
                ])

        with trace.collecting() as collector:
            asyncio.run(run())
        counters = collector.total_counters()
        assert counters.get("serve.submitted") == 3
        assert counters.get("serve.batches", 0) >= 1
        assert counters.get("serve.batch_rhs") == 3
        names = []

        def walk(span):
            names.append(span.name)
            for child in span.children:
                walk(child)

        for root in collector.roots:
            walk(root)
        assert "serve.batch" in names
        assert "serve.request" in names

    def test_metrics_snapshot_counts(self):
        a = poisson2d(6)

        async def run():
            async with SolverService(window_seconds=0.05) as service:
                fp = service.register_operator(a)
                await asyncio.gather(*[
                    service.solve(fp, _rhs(a, seed), rtol=1e-8)
                    for seed in range(4)
                ])
                return service.metrics.snapshot()

        snap = asyncio.run(run())
        assert snap["submitted"] == 4
        assert snap["solved"] == 4
        assert snap["rejected"] == 0
        assert snap["batched_rhs"] == 4
        assert snap["mean_batch_size"] > 1.0
        assert snap["latency_seconds"]["p99"] > 0.0
        assert snap["latency_seconds"]["max"] >= snap["latency_seconds"]["p50"]
