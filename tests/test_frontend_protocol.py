"""Fuzz and conformance tests for the TCP serving front-end.

The server's failure contract: every malformed input — truncated frames,
hostile length prefixes, garbage bytes, wrong dimensions, NaN payloads,
invalid JSON — is answered with a structured ``ERROR`` frame (or a clean
close when the stream cannot be re-synchronised), the server process never
crashes, and no connection handler leaks.  After every storm the server
must still answer a well-formed query with predictions identical to the
direct in-process classifier.
"""

import json
import socket
import struct

import numpy as np
import pytest

from repro.config import ClassifierConfig
from repro.core import KNNClassifier, ReferenceStore
from repro.serving import (
    BatchScheduler,
    DeploymentManager,
    FrontendClient,
    FrontendServer,
    ProtocolError,
    ShardedReferenceStore,
    TenantRegistry,
)
from repro.serving import protocol
from tests.conftest import metric_value

DIM = 8
K = 9


@pytest.fixture(scope="module")
def serving():
    rng = np.random.default_rng(0)
    centres = rng.standard_normal((10, DIM)) * 8.0
    assignment = rng.integers(0, 10, size=300)
    corpus = centres[assignment] + rng.standard_normal((300, DIM))
    labels = [f"page-{code:03d}" for code in assignment]
    flat = ReferenceStore(DIM)
    flat.add(corpus, labels)
    config = ClassifierConfig(k=K)
    manager = DeploymentManager(
        ShardedReferenceStore.from_reference_store(flat, n_shards=2), config
    )
    scheduler = BatchScheduler(manager, max_batch_size=16, max_latency_s=0.001)
    with scheduler:
        with FrontendServer(scheduler, manager=manager) as server:
            yield {
                "server": server,
                "manager": manager,
                "scheduler": scheduler,
                "classifier": KNNClassifier(flat, config),
                "corpus": corpus,
                "address": (server.host, server.port),
            }
    manager.close()


def raw_exchange(address, data, *, read_reply=True, timeout_s=5.0):
    """Send raw bytes; return the decoded reply frame or None on close."""
    with socket.create_connection(address, timeout=timeout_s) as sock:
        sock.sendall(data)
        if not read_reply:
            return None
        sock.settimeout(timeout_s)
        try:
            frame_type, payload = protocol.recv_frame(sock)
        except (ProtocolError, OSError):
            return None
        body = json.loads(payload.decode("utf-8")) if payload else {}
        return frame_type, body


def assert_server_alive(serving):
    """The recovery probe every fuzz test ends with: a valid query must
    come back bit-identical to the direct in-process classifier."""
    queries = serving["corpus"][:4] + 0.05
    expected = serving["classifier"].predict(queries)
    with FrontendClient(*serving["address"]) as client:
        body = client.classify(queries, top_n=len(expected[0].ranked_labels))
    assert len(body["predictions"]) == 4
    for entry, prediction in zip(body["predictions"], expected):
        assert entry["labels"] == prediction.ranked_labels
        assert entry["scores"] == pytest.approx(prediction.scores)


# ------------------------------------------------------------- happy path
class TestRoundTrip:
    def test_query_roundtrip_matches_direct_classifier(self, serving):
        assert_server_alive(serving)

    def test_top_n_truncates_rankings(self, serving):
        queries = serving["corpus"][:2]
        expected = serving["classifier"].predict(queries)
        with FrontendClient(*serving["address"]) as client:
            body = client.classify(queries, top_n=3)
        for entry, prediction in zip(body["predictions"], expected):
            assert entry["labels"] == prediction.ranked_labels[:3]

    def test_control_ping_stats_info(self, serving):
        with FrontendClient(*serving["address"]) as client:
            assert client.ping()
            registry = serving["server"].registry
            assert metric_value(registry, "repro_frontend_connections_total") >= 1
            assert "repro_scheduler_queries_submitted_total" in client.metrics()["exposition"]
            info = client.info()
            assert info["n_references"] == 300
            assert info["embedding_dim"] == DIM
            assert info["n_shards"] == 2
            assert (info["n_replicas"], info["router"]) == (1, "least_loaded")
            assert "active" in info["native_kernels"]
            # A bare ``manager=`` front-end is a registry of one tenant with
            # no room for more.
            described = TenantRegistry(serving["manager"]).describe()
            assert client.tenants()["tenants"] == described
            assert list(described) == ["default"] and len(described["default"]) == 4
            with pytest.raises(ProtocolError) as excinfo:
                client.create_tenant("acme")
            assert excinfo.value.code == "bad-control"
            with pytest.raises(ProtocolError) as excinfo:
                client.classify(serving["corpus"][:1], tenant="acme")
            assert excinfo.value.code == "unknown-tenant"
            assert excinfo.value.details["tenant"] == "acme"
            assert client.ping()

    def test_control_rebalance(self, serving):
        with FrontendClient(*serving["address"]) as client:
            reply = client.rebalance(threshold=0.5)
        assert "moved" in reply and "shard_sizes" in reply
        assert sum(reply["shard_sizes"]) == 300

    def test_multiple_requests_per_connection(self, serving):
        with FrontendClient(*serving["address"]) as client:
            for _ in range(5):
                body = client.classify(serving["corpus"][:1], top_n=1)
                assert len(body["predictions"]) == 1


# ----------------------------------------------------------- malformed frames
class TestMalformedFrames:
    def test_truncated_header_then_close(self, serving):
        raw_exchange(serving["address"], b"RS", read_reply=False)
        assert_server_alive(serving)

    def test_truncated_payload_then_close(self, serving):
        header = protocol.HEADER.pack(protocol.MAGIC, protocol.QUERY, 1000)
        raw_exchange(serving["address"], header + b"\x00" * 10, read_reply=False)
        assert_server_alive(serving)

    def test_bad_magic_gets_error_then_close(self, serving):
        reply = raw_exchange(serving["address"], b"XXXX" + b"\x01" + b"\x00" * 4)
        assert reply is not None
        frame_type, body = reply
        assert frame_type == protocol.ERROR
        assert body["error"] == "bad-magic"
        assert body["recoverable"] is False
        assert_server_alive(serving)

    def test_hostile_length_prefix_rejected_before_allocation(self, serving):
        huge = protocol.HEADER.pack(protocol.MAGIC, protocol.QUERY, protocol.MAX_PAYLOAD + 1)
        reply = raw_exchange(serving["address"], huge)
        assert reply is not None and reply[1]["error"] == "frame-too-large"
        assert reply[1]["recoverable"] is False
        assert_server_alive(serving)

    def test_unknown_frame_type_is_recoverable(self, serving):
        frame = protocol.HEADER.pack(protocol.MAGIC, 77, 0)
        with socket.create_connection(serving["address"], timeout=5.0) as sock:
            sock.sendall(frame)
            frame_type, payload = protocol.recv_frame(sock)
            assert frame_type == protocol.ERROR
            assert json.loads(payload)["error"] == "bad-frame-type"
            # Same connection keeps working: framing never lost sync.
            protocol.send_frame(sock, protocol.encode_query(serving["corpus"][:1], top_n=1))
            frame_type, payload = protocol.recv_frame(sock)
            assert frame_type == protocol.RESULT
        assert_server_alive(serving)

    def test_result_frame_from_client_is_rejected(self, serving):
        reply = raw_exchange(serving["address"], protocol.encode_json(protocol.RESULT, {}))
        assert reply is not None and reply[1]["error"] == "bad-frame-type"

    def test_unknown_type_with_hostile_length_is_fatal(self, serving):
        # The length cap must win over the recoverable unknown-type path:
        # otherwise the server would "drain" an attacker-declared 4 GiB
        # payload into memory.
        frame = protocol.HEADER.pack(protocol.MAGIC, 77, 0xFFFFFFFF)
        reply = raw_exchange(serving["address"], frame)
        assert reply is not None
        assert reply[1]["error"] == "frame-too-large"
        assert reply[1]["recoverable"] is False
        assert_server_alive(serving)

    def test_generation_reflects_the_serving_snapshot(self, serving):
        # Fresh deployment so the shared fixture's corpus stays untouched.
        rng = np.random.default_rng(9)
        flat = ReferenceStore(DIM)
        flat.add(rng.standard_normal((60, DIM)), ["page-x"] * 60)
        manager = DeploymentManager(
            ShardedReferenceStore.from_reference_store(flat, n_shards=2),
            ClassifierConfig(k=3),
        )
        scheduler = BatchScheduler(manager, max_batch_size=8, max_latency_s=0.001)
        with pytest.raises(ValueError):
            FrontendServer(scheduler)  # neither manager= nor tenants=: nothing to serve
        with scheduler, FrontendServer(scheduler, manager=manager) as server:
            with FrontendClient(server.host, server.port) as client:
                body = client.classify(np.zeros((1, DIM)), top_n=1)
                assert body["generation"] == 0
                manager.replace_class("page-x", rng.standard_normal((60, DIM)))
                body = client.classify(np.zeros((1, DIM)), top_n=1)
                # The RESULT frame reports the generation that actually
                # served the query, not a pre-submit snapshot.
                assert body["generation"] == manager.generation == 1
        manager.close()


# ------------------------------------------------------------ bad query bodies
class TestBadQueries:
    def test_query_payload_shorter_than_header(self, serving):
        reply = raw_exchange(
            serving["address"], protocol.encode_frame(protocol.QUERY, b"\x01\x02")
        )
        assert reply is not None and reply[1]["error"] == "bad-query"
        assert_server_alive(serving)

    def test_declared_shape_disagrees_with_byte_count(self, serving):
        payload = protocol.QUERY_HEADER.pack(4, DIM, 1) + b"\x00" * 12  # needs 128
        reply = raw_exchange(serving["address"], protocol.encode_frame(protocol.QUERY, payload))
        assert reply is not None and reply[1]["error"] == "bad-query"
        assert_server_alive(serving)

    def test_zero_query_batch(self, serving):
        payload = protocol.QUERY_HEADER.pack(0, DIM, 1)
        reply = raw_exchange(serving["address"], protocol.encode_frame(protocol.QUERY, payload))
        assert reply is not None and reply[1]["error"] == "bad-query"

    def test_overdeclared_batch_rejected(self, serving):
        payload = protocol.QUERY_HEADER.pack(protocol.MAX_BATCH + 1, DIM, 1)
        reply = raw_exchange(serving["address"], protocol.encode_frame(protocol.QUERY, payload))
        assert reply is not None and reply[1]["error"] == "bad-query"

    def test_wrong_dimension_is_structured_error(self, serving):
        with socket.create_connection(serving["address"], timeout=5.0) as sock:
            protocol.send_frame(sock, protocol.encode_query(np.zeros((2, DIM + 3)), top_n=1))
            frame_type, payload = protocol.recv_frame(sock)
            body = json.loads(payload)
            assert frame_type == protocol.ERROR and body["error"] == "bad-dim"
            assert str(DIM) in body["message"]
            # Recoverable: the same connection then answers a good query.
            protocol.send_frame(sock, protocol.encode_query(serving["corpus"][:1], top_n=1))
            frame_type, _ = protocol.recv_frame(sock)
            assert frame_type == protocol.RESULT

    def test_nan_payload_is_structured_error(self, serving):
        bad = np.full((2, DIM), np.nan)
        with FrontendClient(*serving["address"]) as client:
            with pytest.raises(ProtocolError) as excinfo:
                client.classify(bad, top_n=1)
            assert excinfo.value.code == "bad-values"
            assert excinfo.value.recoverable
            # The connection survives the refused batch.
            assert client.ping()

    def test_inf_payload_is_structured_error(self, serving):
        bad = np.full((1, DIM), np.inf)
        with FrontendClient(*serving["address"]) as client:
            with pytest.raises(ProtocolError) as excinfo:
                client.classify(bad, top_n=1)
            assert excinfo.value.code == "bad-values"


# ------------------------------------------------------------- bad control
class TestBadControl:
    def test_garbage_json(self, serving):
        reply = raw_exchange(
            serving["address"], protocol.encode_frame(protocol.CONTROL, b"{not json")
        )
        assert reply is not None and reply[1]["error"] == "bad-control"
        assert_server_alive(serving)

    def test_non_object_json(self, serving):
        reply = raw_exchange(
            serving["address"], protocol.encode_frame(protocol.CONTROL, b"[1, 2]")
        )
        assert reply is not None and reply[1]["error"] == "bad-control"

    def test_unknown_op(self, serving):
        with FrontendClient(*serving["address"]) as client:
            for op in ("drop-tables", "stats"):
                with pytest.raises(ProtocolError) as excinfo:
                    client.control({"op": op})
                assert excinfo.value.code == "bad-control"
                assert excinfo.value.recoverable
                assert excinfo.value.details["op"] == op
                assert client.ping()

    def test_invalid_rebalance_threshold(self, serving):
        with FrontendClient(*serving["address"]) as client:
            for threshold in ("soon", True):
                with pytest.raises(ProtocolError) as excinfo:
                    client.control({"op": "rebalance", "threshold": threshold})
                assert excinfo.value.code == "bad-control"

    def test_add_and_replace_take_only_json_numbers(self, serving):
        # NumPy would read true as 1.0 and "2.5" as 2.5 and store a class.
        manager = serving["manager"]
        before = (manager.generation, manager.store.classes)
        tail = [0.5] * (DIM - 1)
        with FrontendClient(*serving["address"]) as client:
            for op in ("add", "replace"):
                for bad in (True, "2.5"):
                    with pytest.raises(ProtocolError) as excinfo:
                        client.control(
                            {"op": op, "label": "page-new", "embeddings": [[bad, *tail]]}
                        )
                    assert excinfo.value.code == "bad-control"
                    assert excinfo.value.details["op"] == op
        assert (manager.generation, manager.store.classes) == before
        assert_server_alive(serving)


# ------------------------------------------------------------------ fuzz storm
class TestFuzzStorm:
    def test_random_garbage_never_kills_the_server(self, serving):
        """Seeded byte blobs — raw noise, noise with a valid magic, and
        corrupted valid frames — over many short connections."""
        import random

        rng = random.Random(0xF422)
        for round_ in range(60):
            shape = rng.randrange(3)
            if shape == 0:  # pure noise
                blob = rng.randbytes(rng.randrange(1, 200))
            elif shape == 1:  # valid magic, noisy remainder
                blob = protocol.MAGIC + rng.randbytes(rng.randrange(1, 64))
            else:  # a valid query frame with flipped bytes
                frame = bytearray(
                    protocol.encode_query(np.zeros((2, DIM)) + round_, top_n=1)
                )
                for _ in range(rng.randrange(1, 6)):
                    frame[rng.randrange(len(frame))] = rng.randrange(256)
                blob = bytes(frame)
            try:
                # Short timeout: half the blobs never earn a reply (the
                # server is waiting for the rest of a "frame"), and the
                # storm should be a storm, not a sleep.
                raw_exchange(
                    serving["address"], blob, read_reply=bool(rng.randrange(2)), timeout_s=0.25
                )
            except (ProtocolError, OSError):
                pass  # the client side may lose the connection; the server may not
        assert_server_alive(serving)

    def test_connections_do_not_leak(self, serving):
        import time

        registry = serving["server"].registry
        for _ in range(10):
            raw_exchange(serving["address"], b"junk", read_reply=False)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if metric_value(registry, "repro_frontend_open_connections") == 0:
                break
            time.sleep(0.05)
        assert metric_value(registry, "repro_frontend_open_connections") == 0
        assert metric_value(registry, "repro_frontend_errors_total", code="bad-magic") >= 1


# ----------------------------------------------------------- protocol unit
class TestProtocolModule:
    def test_frame_roundtrip(self):
        frame = protocol.encode_json(protocol.CONTROL, {"op": "ping"})
        frame_type, length = protocol.parse_header(frame[: protocol.HEADER.size])
        assert frame_type == protocol.CONTROL
        assert length == len(frame) - protocol.HEADER.size

    def test_query_roundtrip_preserves_float32_values(self):
        batch = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
        frame = protocol.encode_query(batch, top_n=5)
        decoded, top_n, tenant = protocol.decode_query(frame[protocol.HEADER.size :])
        assert top_n == 5
        assert tenant is None
        assert decoded.dtype == np.float64
        np.testing.assert_allclose(decoded, batch, rtol=1e-6)  # float32 wire

    def test_encode_rejects_oversized_and_empty(self):
        with pytest.raises(ProtocolError):
            protocol.encode_query(np.zeros((0, 4)))
        with pytest.raises(ProtocolError):
            protocol.encode_query(np.zeros((2, 4)), top_n=0)
        with pytest.raises(ProtocolError):
            protocol.encode_frame(99, b"")

    def test_parse_header_flags_unrecoverable_errors(self):
        with pytest.raises(ProtocolError) as excinfo:
            protocol.parse_header(b"nope" + struct.pack("!BI", protocol.QUERY, 0))
        assert not excinfo.value.recoverable
        with pytest.raises(ProtocolError) as excinfo:
            protocol.parse_header(
                protocol.HEADER.pack(protocol.MAGIC, protocol.QUERY, protocol.MAX_PAYLOAD + 1)
            )
        assert not excinfo.value.recoverable

    def test_length_check_precedes_frame_type_check(self):
        # Unknown type + hostile length must be the fatal length error, not
        # the recoverable type error (whose handler trusts the length).
        with pytest.raises(ProtocolError) as excinfo:
            protocol.parse_header(protocol.HEADER.pack(protocol.MAGIC, 77, 0xFFFFFFFF))
        assert excinfo.value.code == "frame-too-large"
        assert not excinfo.value.recoverable
