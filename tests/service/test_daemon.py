"""Lab daemon: protocol, concurrent-client bit-identity, batching,
single-flight dedupe, admission control, graceful drain, and throughput
under concurrent clients."""

import json
import socket
import threading
import time

import pytest

from repro.config import ExperimentTier
from repro.experiments.lab import Lab
from repro.service import (
    BAD_REQUEST,
    NOT_FOUND,
    PROTOCOL_VERSION,
    SHED,
    ServiceError,
    simulation_digest,
)
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceConfig, ServiceThread
from repro.service.protocol import MAX_LINE_BYTES
from tests.service.conftest import spawn_daemon, stop_daemon

TIER = ExperimentTier(name="svctest", spec_inputs=1, spec_slices=1, lcf_slices=1)
INSTR = 20_000
SLICE = 10_000
PREDICTORS = ("bimodal", "gshare", "two-level-local", "tage-sc-l-8kb")


def _params(predictor, **overrides):
    params = {
        "workload": "game",
        "input": 0,
        "predictor": predictor,
        "instructions": INSTR,
        "slice_instructions": SLICE,
    }
    params.update(overrides)
    return params


@pytest.fixture(scope="module")
def daemon():
    """One warm daemon shared by the module's read-only tests."""
    shared_lab = Lab(tier=TIER, jobs=1)
    service_thread = ServiceThread(
        ServiceConfig(batch_window=0.05), lab=shared_lab
    )
    service_thread.start()
    yield service_thread
    service_thread.stop()
    shared_lab.close()


@pytest.fixture(scope="module")
def reference_digests():
    """Digests from a fresh, serial Lab — the bit-identity oracle."""
    lab = Lab(tier=TIER, jobs=1)
    digests = {
        predictor: simulation_digest(
            lab.simulate(
                "game", 0, predictor, instructions=INSTR, slice_instructions=SLICE
            )
        )
        for predictor in PREDICTORS
    }
    lab.close()
    return digests


class TestProtocol:
    def test_ping(self, daemon):
        with ServiceClient.connect(daemon.address) as client:
            result = client.call("ping")
        assert result["protocol"] == PROTOCOL_VERSION
        assert result["tier"] == "svctest"
        assert result["draining"] is False

    def test_unknown_method_is_404(self, daemon):
        with ServiceClient.connect(daemon.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.call("frobnicate")
        assert excinfo.value.code == NOT_FOUND

    def test_unknown_workload_and_predictor_are_404(self, daemon):
        with ServiceClient.connect(daemon.address) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.call("simulate", _params("bimodal", workload="nope"))
            assert excinfo.value.code == NOT_FOUND
            with pytest.raises(ServiceError) as excinfo:
                client.call("simulate", _params("perfectron"))
            assert excinfo.value.code == NOT_FOUND

    def test_bad_params_are_400(self, daemon):
        with ServiceClient.connect(daemon.address) as client:
            for params in (
                _params("bimodal", input="zero"),
                _params("bimodal", instructions=0),
                _params("bimodal", bogus=1),
                {"workload": ""},
            ):
                with pytest.raises(ServiceError) as excinfo:
                    client.call("simulate", params)
                assert excinfo.value.code == BAD_REQUEST

    def test_malformed_json_gets_error_response(self, daemon):
        bad_lines = (
            b"this is not json\n",
            # Above the stream reader's default 64 KiB line limit.
            b"x" * (100 * 1024) + b"\n",
            # Above the protocol's line bound: dropped through its newline.
            b"y" * (MAX_LINE_BYTES + 4096) + b"\n",
            b'{"id": 1, "method": "\xff\xfe"}\n',  # invalid UTF-8
        )
        host, port = daemon.address
        with socket.create_connection((host, port), timeout=30) as sock:
            replies = sock.makefile("rb")
            for bad in bad_lines:
                sock.sendall(bad)
                message = json.loads(replies.readline())
                assert message["ok"] is False, bad[:16]
                assert message["error"]["code"] == BAD_REQUEST, bad[:16]
            # The connection keeps serving after every rejected line.
            sock.sendall(b'{"id": 2, "method": "ping"}\n')
            message = json.loads(replies.readline())
        assert message["ok"] is True
        assert message["id"] == 2

    def test_metrics_method(self, daemon, obs_enabled):
        with ServiceClient.connect(daemon.address) as client:
            client.call("ping")
            result = client.call("metrics")
        assert result["enabled"] is True
        assert result["counters"].get("service.request.ping", 0) >= 1


class TestBitIdentity:
    def test_simulate_matches_direct_lab(self, daemon, reference_digests):
        with ServiceClient.connect(daemon.address) as client:
            for predictor in PREDICTORS:
                result = client.call("simulate", _params(predictor))
                assert result["digest"] == reference_digests[predictor], predictor
                assert result["predictor"] == predictor

    def test_concurrent_clients_bit_identical(self, daemon, reference_digests):
        """Many clients, interleaved pipelines, every answer identical to a
        fresh serial Lab run."""
        clients = 6
        rounds = 3
        failures = []

        def hammer(slot):
            try:
                with ServiceClient.connect(daemon.address) as client:
                    for round_index in range(rounds):
                        # Rotate the order per client so batches interleave.
                        order = [
                            PREDICTORS[(slot + round_index + k) % len(PREDICTORS)]
                            for k in range(len(PREDICTORS))
                        ]
                        rids = [
                            (p, client.submit("simulate", _params(p))) for p in order
                        ]
                        for predictor, rid in rids:
                            result = client.result(rid)
                            if result["digest"] != reference_digests[predictor]:
                                failures.append((slot, predictor))
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append((slot, repr(exc)))

        threads = [
            threading.Thread(target=hammer, args=(slot,)) for slot in range(clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures

    def test_h2p_stable_across_calls(self, daemon):
        with ServiceClient.connect(daemon.address) as client:
            first = client.call("h2p", _params("tage-sc-l-8kb"))
            second = client.call("h2p", _params("tage-sc-l-8kb"))
        assert first == second
        assert first["slices"] == 2

    def test_staticcheck_and_table1_cell(self, daemon):
        with ServiceClient.connect(daemon.address) as client:
            report = client.call("staticcheck", {"workload": "game"})
            assert report["footprint"]["conditional_branches"] > 0
            cell = client.call(
                "table1_cell", {"benchmark": "605.mcf_s", "with_phases": False}
            )
        assert cell["benchmark"] == "605.mcf_s"
        assert 0.0 < cell["avg_accuracy"] <= 1.0


class TestCoalescingAndDedupe:
    def test_pipelined_burst_coalesces_into_one_batch(self, daemon, obs_enabled):
        """Distinct predictors of one trace, pipelined, share a dispatch
        cycle and ride one simulate_batch call."""
        with ServiceClient.connect(daemon.address) as client:
            rids = [
                client.submit("simulate", _params(p, instructions=INSTR + 4_000))
                for p in PREDICTORS
            ]
            results = [client.result(rid) for rid in rids]
        assert len({r["digest"] for r in results}) == len(PREDICTORS)
        assert obs_enabled.counters_dict().get("service.batch.coalesced", 0) >= 1

    def test_identical_inflight_requests_dedupe(self, daemon, obs_enabled):
        """The same request pipelined twice computes once; the second
        response joins the first's flight."""
        params = _params("tage-sc-l-8kb", instructions=INSTR + 8_000)
        with ServiceClient.connect(daemon.address) as client:
            first = client.submit("simulate", params)
            second = client.submit("simulate", params)
            results = [client.result(first), client.result(second)]
        assert results[0]["digest"] == results[1]["digest"]
        assert obs_enabled.counters_dict().get("service.singleflight", 0) >= 1


class TestAdmissionControl:
    def test_overload_sheds_with_503(self, obs_enabled):
        """A one-deep queue with a one-wide dispatcher sheds a pipelined
        burst of cold, slow requests instead of queueing without bound."""
        lab = Lab(tier=TIER, jobs=1)
        config = ServiceConfig(
            queue_limit=1, max_batch=1, batch_window=0.0, threads=1
        )
        with ServiceThread(config, lab=lab) as service_thread:
            with ServiceClient.connect(service_thread.address) as client:
                rids = [
                    client.submit(
                        "simulate",
                        _params("tage-sc-l-8kb", instructions=30_000 + 1_000 * i),
                    )
                    for i in range(8)
                ]
                outcomes = []
                for rid in rids:
                    try:
                        client.result(rid)
                        outcomes.append("ok")
                    except ServiceError as exc:
                        assert exc.code == SHED
                        outcomes.append("shed")
        lab.close()
        assert "ok" in outcomes
        assert "shed" in outcomes
        assert obs_enabled.counters_dict().get("service.shed", 0) >= 1


class TestDrain:
    def test_shutdown_method_drains_and_stops(self):
        lab = Lab(tier=TIER, jobs=1)
        service_thread = ServiceThread(ServiceConfig(), lab=lab)
        service_thread.start()
        address = service_thread.address
        with ServiceClient.connect(address) as client:
            # In-flight work admitted before the shutdown still completes.
            rid = client.submit("simulate", _params("bimodal"))
            assert client.call("shutdown")["draining"] is True
            assert client.result(rid)["predictor"] == "bimodal"
        # The drain stops the loop on its own; stop() after that is a no-op.
        service_thread._thread.join(timeout=30)
        service_thread.stop()
        lab.close()
        assert service_thread.service._stopped.is_set()
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=2)

    def test_sigterm_drains_daemon_subprocess(self):
        """The real daemon process: serve, SIGTERM, exit 0, socket closed."""
        proc, address = spawn_daemon()
        try:
            with ServiceClient.connect(address) as client:
                assert client.call("ping")["protocol"] == PROTOCOL_VERSION
                result = client.call("simulate", _params("bimodal"))
                assert result["predictor"] == "bimodal"
        finally:
            exit_code = stop_daemon(proc)
        assert exit_code == 0
        with pytest.raises(OSError):
            socket.create_connection(address, timeout=2)

    def test_requests_after_drain_are_shed(self):
        lab = Lab(tier=TIER, jobs=1)
        service_thread = ServiceThread(ServiceConfig(), lab=lab)
        service_thread.start()
        with ServiceClient.connect(service_thread.address) as client:
            client.call("shutdown")
            with pytest.raises((ServiceError, ConnectionError)) as excinfo:
                client.call("simulate", _params("bimodal"))
            if isinstance(excinfo.value, ServiceError):
                assert excinfo.value.code == SHED
        service_thread.stop()
        lab.close()


def _closed_loop(address, clients, requests_per_client, mix):
    """Each client thread sends one request and waits for its reply, over
    and over.  Returns (requests per second, latencies in ms, errors)."""
    barrier = threading.Barrier(clients + 1, timeout=60)
    latencies_ms, errors = [], []

    def client_loop(slot):
        with ServiceClient.connect(address) as client:
            barrier.wait()
            for i in range(requests_per_client):
                method, params = mix[(slot + i) % len(mix)]
                t0 = time.perf_counter()
                try:
                    client.call(method, params)
                except Exception as exc:
                    errors.append(repr(exc))
                latencies_ms.append((time.perf_counter() - t0) * 1000.0)

    threads = [
        threading.Thread(target=client_loop, args=(slot,), daemon=True)
        for slot in range(clients)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    return clients * requests_per_client / (time.perf_counter() - t0), latencies_ms, errors


class TestLoad:
    def test_eight_clients_double_warm_throughput(self):
        """A spawned daemon, warmed with one pass of a five-request mix,
        must serve 8 closed-loop clients at least twice as fast as one,
        with p99 at most 2 s at each level and no failed request."""
        mix = [("simulate", _params(p)) for p in PREDICTORS]
        mix.append(("h2p", _params("tage-sc-l-8kb")))
        proc, address = spawn_daemon()
        try:
            with ServiceClient.connect(address) as client:
                for method, params in mix:
                    client.call(method, params)
            levels = {n: _closed_loop(address, n, 60, mix) for n in (1, 8)}
        finally:
            exit_code = stop_daemon(proc)
        assert exit_code == 0
        for clients, (_rps, latencies_ms, errors) in levels.items():
            assert not errors, (clients, errors[:3])
            ordered = sorted(latencies_ms)
            p99 = ordered[round(0.99 * (len(ordered) - 1))]
            assert p99 <= 2000.0, f"p99 {p99:.1f} ms at {clients} client(s)"
        speedup = levels[8][0] / levels[1][0]
        assert speedup >= 2.0, (
            f"8 clients reach only {speedup:.2f}x the single-client throughput "
            f"({levels[1][0]:.0f} vs {levels[8][0]:.0f} requests/s)"
        )
