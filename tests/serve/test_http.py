"""Stdlib HTTP front door: routes, JSON wire format, error mapping."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.collection.generators.fd import poisson2d
from repro.errors import (
    OverloadRejectedError,
    RequestTimeoutError,
    ServeError,
    ServiceClosedError,
    UnknownOperatorError,
)
from repro.serve import InProcessClient
from repro.serve.http import _status_for, make_server
from repro.solvers.cg import pcg


@pytest.fixture(scope="module")
def served():
    """One client + HTTP server shared by every route test."""
    client = InProcessClient(window_seconds=0.001, max_batch=8)
    client.start()
    server = make_server(client, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        yield client, base
    finally:
        server.shutdown()
        server.server_close()
        thread.join(30)
        client.close()


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=30) as response:
        return response.status, json.loads(response.read().decode())


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read().decode())


def _error_body(exc: urllib.error.HTTPError):
    return json.loads(exc.read().decode())


class TestRoutes:
    def test_healthz(self, served):
        _, base = served
        status, body = _get(base, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert isinstance(body["operators"], int)

    def test_register_then_list_then_solve(self, served):
        client, base = served
        a = poisson2d(6)
        status, body = _post(
            base,
            "/operators",
            {
                "n_rows": a.n_rows,
                "n_cols": a.n_cols,
                "indptr": [int(v) for v in a.indptr],
                "indices": [int(v) for v in a.indices],
                "data": [float(v) for v in a.data],
            },
        )
        assert status == 200
        fp = body["operator"]
        assert fp == a.fingerprint()
        assert body["n"] == a.n_rows

        status, body = _get(base, "/operators")
        assert status == 200
        assert fp in body["operators"]

        rhs = np.random.default_rng(5).standard_normal(a.n_rows)
        status, body = _post(
            base,
            "/solve",
            {"operator": fp, "rhs": [float(v) for v in rhs], "rtol": 1e-8},
        )
        assert status == 200
        assert body["converged"] is True
        assert body["operator"] == fp
        assert body["batch_size"] >= 1
        assert body["latency_seconds"] > 0.0
        direct = pcg(a, rhs, rtol=1e-8)
        np.testing.assert_allclose(
            np.asarray(body["x"]), direct.x, rtol=1e-5, atol=1e-8
        )

    def test_metrics_reflect_served_requests(self, served):
        client, base = served
        a = poisson2d(8)
        fp = client.register(a)
        client.solve(fp, np.ones(a.n_rows), rtol=1e-8)
        status, body = _get(base, "/metrics")
        assert status == 200
        assert body["solved"] >= 1
        assert "latency_seconds" in body

    def test_unknown_operator_maps_to_404(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(base, "/solve", {"operator": "0" * 64, "rhs": [1.0, 2.0]})
        assert info.value.code == 404
        body = _error_body(info.value)
        assert body["type"] == "UnknownOperatorError"

    def test_unservable_operator_maps_to_400(self, served, unservable):
        client, base = served
        matrix, error = unservable
        payload = {
            "n_rows": matrix.n_rows,
            "n_cols": matrix.n_cols,
            "indptr": [int(v) for v in matrix.indptr],
            "indices": [int(v) for v in matrix.indices],
            "data": [float(v) for v in matrix.data],
        }
        # json writes (and the server's json reads) NaN / Infinity literals.
        before = client.operator_count()
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(base, "/operators", payload)
        assert info.value.code == 400
        assert _error_body(info.value)["type"] == error.__name__
        assert client.operator_count() == before

    def test_bad_json_body_maps_to_400(self, served):
        _, base = served
        request = urllib.request.Request(
            base + "/solve", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400
        assert "bad JSON body" in _error_body(info.value)["error"]

    def test_missing_solve_fields_map_to_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(base, "/solve", {"rhs": [1.0]})
        assert info.value.code == 400

    def test_malformed_register_maps_to_400(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(base, "/operators", {"n_rows": 2})
        assert info.value.code == 400

    def test_unknown_routes_map_to_404(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as info:
            _get(base, "/nope")
        assert info.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as info:
            _post(base, "/nope", {})
        assert info.value.code == 404


class TestStatusMapping:
    def test_typed_serve_errors(self):
        assert _status_for(OverloadRejectedError("full", 4)) == 429
        assert _status_for(UnknownOperatorError("who")) == 404
        assert _status_for(RequestTimeoutError("late", 0.5)) == 408
        assert _status_for(ServiceClosedError("bye")) == 503
        assert _status_for(ServeError("generic")) == 503
        assert _status_for(ValueError("nope")) == 400
