"""The wire protocol of the serving front-end.

A deployment's query path crosses a socket: capture boxes embed traces and
ship the embeddings to the serving fleet.  The framing is deliberately
boring — length-prefixed binary frames over TCP — because boring survives
fuzzing:

``magic(4) | type(1) | length(4, big-endian) | payload(length)``

* ``QUERY`` frames carry a packed float32 batch:
  ``n_queries | dim | top_n`` (three little-endian uint32) followed by
  ``n_queries * dim`` little-endian float32 values.  float32 on the wire
  halves bandwidth; the server widens to float64 before classifying, the
  same contract as ``ReferenceStore(storage_dtype="float32")``.  A
  multi-tenant query appends an optional *tenant block* after the float
  data — ``uint16 length | UTF-8 tenant name`` — which routes the batch
  to that tenant's deployment; frames without the block (byte-identical
  to the single-tenant wire format) go to the default tenant.
* ``CONTROL`` frames carry a JSON object (``{"op": "ping" | "info" |
  "metrics" | "rebalance" | "requantize" | "add" | "remove" | "replace" |
  "tenant" | "tenants" | "replica", ...}``, plus an optional ``"tenant"``
  key routing the op) and are answered with a ``CONTROL`` frame.
* ``RESULT`` frames answer queries: JSON with the serving generation and
  one ``{"labels": [...], "scores": [...]}`` entry per query.
* ``ERROR`` frames are the *only* way the server reports a bad request or
  an internal failure — a structured JSON body, never a dropped
  connection mid-frame and never a traceback on the socket.

The byte-level specification — every field, cap, error code and an
example hexdump — lives in ``docs/wire-protocol.md``;
``tests/test_docs.py`` cross-checks that document against the constants
in this module.

Every decoder in this module validates before it allocates: declared
lengths are capped (``MAX_PAYLOAD``, ``MAX_BATCH``) so a hostile length
prefix cannot balloon memory, and malformed payloads raise
:class:`ProtocolError` with a stable machine-readable ``code`` the server
echoes into its error frame.  ``tests/test_frontend_protocol.py`` fuzzes
exactly this surface.
"""

from __future__ import annotations

import json
import re
import socket
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

MAGIC = b"RSF1"
HEADER = struct.Struct("!4sBI")  # magic, frame type, payload length
QUERY_HEADER = struct.Struct("<III")  # n_queries, dim, top_n
TENANT_HEADER = struct.Struct("<H")  # byte length of the UTF-8 tenant name

# Frame types.
QUERY = 1
RESULT = 2
CONTROL = 3
ERROR = 4

FRAME_TYPES = (QUERY, RESULT, CONTROL, ERROR)

MAX_PAYLOAD = 32 * 1024 * 1024  # one frame never exceeds 32 MiB
MAX_BATCH = 65_536  # queries per frame
MAX_DIM = 65_536
MAX_TENANT = 64  # bytes of UTF-8 tenant name

# Tenant names are deliberately boring: they ride the binary QUERY frame,
# key cache entries and name metric labels, so no whitespace, no slashes,
# no empty string.
TENANT_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def validate_tenant(tenant: str) -> str:
    """Validate a tenant name; raises ``ProtocolError('bad-tenant')``."""
    if not isinstance(tenant, str) or not TENANT_PATTERN.match(tenant):
        raise ProtocolError(
            "bad-tenant",
            f"tenant names must match {TENANT_PATTERN.pattern} (got {tenant!r})",
        )
    return tenant


class ProtocolError(ValueError):
    """A frame violated the wire contract.

    ``code`` is the machine-readable error class the server echoes back in
    its ``ERROR`` frame; ``recoverable`` says whether the byte stream is
    still in sync (a well-framed bad payload) or must be torn down (a bad
    magic/oversized length means we no longer know where frames start).
    ``details`` carries extra structured context the server folds into the
    error body — most importantly the ``op`` of a failed control request,
    so a client pipelining several ops can tell which one failed.
    """

    def __init__(
        self,
        code: str,
        message: str,
        *,
        recoverable: bool = True,
        details: Optional[Dict] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.recoverable = recoverable
        self.details = dict(details) if details else {}


# ------------------------------------------------------------------- framing
def encode_frame(frame_type: int, payload: bytes) -> bytes:
    """``magic | type | length | payload`` with the length cap enforced."""
    if frame_type not in FRAME_TYPES:
        raise ProtocolError("bad-frame-type", f"unknown frame type {frame_type}")
    if len(payload) > MAX_PAYLOAD:
        raise ProtocolError(
            "frame-too-large", f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}"
        )
    return HEADER.pack(MAGIC, frame_type, len(payload)) + payload


def parse_header(header: bytes) -> Tuple[int, int]:
    """Validated ``(frame_type, payload_length)`` from a 9-byte header."""
    if len(header) != HEADER.size:
        raise ProtocolError(
            "truncated-frame", f"header is {len(header)} bytes, expected {HEADER.size}",
            recoverable=False,
        )
    magic, frame_type, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(
            "bad-magic", f"bad magic {magic!r}; the stream is not speaking this protocol",
            recoverable=False,
        )
    if length > MAX_PAYLOAD:
        # Checked before the frame type: a hostile length must be fatal
        # even on an unknown type, or the recoverable-error path would
        # drain (and buffer) an attacker-declared 4 GiB "payload".
        raise ProtocolError(
            "frame-too-large", f"declared payload of {length} bytes exceeds {MAX_PAYLOAD}",
            recoverable=False,
        )
    if frame_type not in FRAME_TYPES:
        # The framing itself is intact (length already validated), so the
        # stream stays usable.
        raise ProtocolError("bad-frame-type", f"unknown frame type {frame_type}")
    return frame_type, length


# -------------------------------------------------------------------- queries
def encode_query(batch: np.ndarray, top_n: int = 1, *, tenant: Optional[str] = None) -> bytes:
    """A ``QUERY`` frame for a ``(n, dim)`` embedding batch.

    With ``tenant`` set, a trailing tenant block routes the batch to that
    tenant's deployment; without it the frame is byte-identical to the
    single-tenant format and goes to the default tenant.
    """
    block = np.ascontiguousarray(np.atleast_2d(np.asarray(batch)), dtype="<f4")
    n, dim = block.shape
    if n == 0 or dim == 0:
        raise ProtocolError("bad-query", "query batches must be non-empty")
    if n > MAX_BATCH:
        raise ProtocolError("bad-query", f"batch of {n} queries exceeds {MAX_BATCH}")
    if top_n <= 0:
        raise ProtocolError("bad-query", "top_n must be positive")
    payload = QUERY_HEADER.pack(n, dim, top_n) + block.tobytes()
    if tenant is not None:
        encoded = validate_tenant(tenant).encode("utf-8")
        payload += TENANT_HEADER.pack(len(encoded)) + encoded
    return encode_frame(QUERY, payload)


def decode_query(payload: bytes) -> Tuple[np.ndarray, int, Optional[str]]:
    """``(batch float64 (n, dim), top_n, tenant)`` from a ``QUERY`` payload.

    ``tenant`` is ``None`` when the frame has no tenant block (the
    single-tenant wire format).
    """
    if len(payload) < QUERY_HEADER.size:
        raise ProtocolError(
            "bad-query", f"query payload of {len(payload)} bytes is shorter than its header"
        )
    n, dim, top_n = QUERY_HEADER.unpack_from(payload)
    if n == 0 or dim == 0 or top_n == 0:
        raise ProtocolError("bad-query", "n_queries, dim and top_n must all be positive")
    if n > MAX_BATCH or dim > MAX_DIM:
        raise ProtocolError(
            "bad-query", f"declared batch {n}x{dim} exceeds limits ({MAX_BATCH}x{MAX_DIM})"
        )
    expected = QUERY_HEADER.size + 4 * n * dim
    tenant: Optional[str] = None
    if len(payload) > expected:
        # Optional trailing tenant block: uint16 length + UTF-8 name.  The
        # remaining bytes must account for it exactly — anything else is
        # corruption, not a tenant.
        trailer = len(payload) - expected
        if trailer < TENANT_HEADER.size:
            raise ProtocolError(
                "bad-query",
                f"query payload has {trailer} trailing bytes; a tenant block needs at least {TENANT_HEADER.size}",
            )
        (tenant_len,) = TENANT_HEADER.unpack_from(payload, expected)
        if tenant_len > MAX_TENANT:
            raise ProtocolError(
                "bad-tenant", f"declared tenant name of {tenant_len} bytes exceeds {MAX_TENANT}"
            )
        if trailer != TENANT_HEADER.size + tenant_len:
            raise ProtocolError(
                "bad-query",
                f"tenant block declares {tenant_len} bytes but {trailer - TENANT_HEADER.size} follow",
            )
        try:
            tenant = payload[expected + TENANT_HEADER.size :].decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError("bad-tenant", f"tenant name is not valid UTF-8: {error}") from error
        validate_tenant(tenant)
    elif len(payload) != expected:
        raise ProtocolError(
            "bad-query",
            f"query payload is {len(payload)} bytes but {n}x{dim} float32 needs {expected}",
        )
    block = np.frombuffer(payload, dtype="<f4", count=n * dim, offset=QUERY_HEADER.size)
    return block.reshape(n, dim).astype(np.float64), int(top_n), tenant


# ------------------------------------------------------------ JSON frame bodies
def encode_json(frame_type: int, body: Dict) -> bytes:
    """A frame whose payload is a UTF-8 JSON object."""
    return encode_frame(frame_type, json.dumps(body).encode("utf-8"))


def decode_json(payload: bytes, *, code: str = "bad-control") -> Dict:
    """Parse a JSON-object payload (raises ``ProtocolError(code)`` if not)."""
    try:
        body = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(code, f"payload is not valid JSON: {error}") from error
    if not isinstance(body, dict):
        raise ProtocolError(code, f"expected a JSON object, got {type(body).__name__}")
    return body


def encode_result(generation: int, ranked: List[Tuple[List[str], List[float]]]) -> bytes:
    """A ``RESULT`` frame: per-query top-n labels and scores."""
    body = {
        "generation": int(generation),
        "predictions": [
            {"labels": list(labels), "scores": [float(score) for score in scores]}
            for labels, scores in ranked
        ],
    }
    return encode_json(RESULT, body)


def encode_error(
    code: str, message: str, *, recoverable: bool = True, details: Optional[Dict] = None
) -> bytes:
    """The structured ``ERROR`` frame the server answers bad input with.

    ``details`` merges extra context keys into the body (e.g. the ``op`` of
    a failed control request) without clobbering the three core fields.
    """
    body = {"error": code, "message": message, "recoverable": bool(recoverable)}
    if details:
        for key, value in details.items():
            body.setdefault(key, value)
    return encode_json(ERROR, body)


# -------------------------------------------------------------- blocking client
def _recv_exact(sock: socket.socket, n_bytes: int) -> bytes:
    chunks = []
    remaining = n_bytes
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError(
                "connection-closed", "the peer closed the connection mid-frame",
                recoverable=False,
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, frame: bytes) -> None:
    """Write one already-encoded frame to a blocking socket."""
    sock.sendall(frame)


def recv_frame(sock: socket.socket) -> Tuple[int, bytes]:
    """Read one validated ``(frame_type, payload)`` from a blocking socket."""
    frame_type, length = parse_header(_recv_exact(sock, HEADER.size))
    payload = _recv_exact(sock, length) if length else b""
    return frame_type, payload


class FrontendClient:
    """Blocking client for the serving front-end (loadgen, tests, examples).

    One client is one connection; calls are synchronous request/response.
    Concurrency comes from running several clients (see
    :func:`~repro.serving.loadgen.replay`), which is also how the replica
    router on the server side gets distinct streams to spread.
    """

    def __init__(self, host: str, port: int, *, timeout_s: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout_s)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "FrontendClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------------- queries
    def _request(self, frame: bytes, expected_type: int, *, code: str = "bad-control") -> Dict:
        """One round-trip; decodes the JSON reply, raising the server's
        structured error if an ``ERROR`` frame came back instead."""
        send_frame(self._sock, frame)
        frame_type, payload = recv_frame(self._sock)
        if frame_type == ERROR:
            body = decode_json(payload, code="bad-error-frame")
            raise ProtocolError(
                str(body.get("error", "server-error")),
                str(body.get("message", "")),
                recoverable=bool(body.get("recoverable", True)),
                details={
                    key: value
                    for key, value in body.items()
                    if key not in ("error", "message", "recoverable")
                },
            )
        if frame_type != expected_type:
            raise ProtocolError(
                "bad-frame-type", f"expected frame type {expected_type}, got {frame_type}"
            )
        return decode_json(payload, code=code)

    def classify(
        self, batch: np.ndarray, *, top_n: int = 1, tenant: Optional[str] = None
    ) -> Dict:
        """Classify a batch; returns the decoded ``RESULT`` body.

        ``tenant`` routes the batch to that tenant's deployment.  Raises
        :class:`ProtocolError` with the server's error code if the server
        answered with an ``ERROR`` frame.
        """
        return self._request(
            encode_query(batch, top_n, tenant=tenant), RESULT, code="bad-result"
        )

    def control(self, body: Dict, *, tenant: Optional[str] = None) -> Dict:
        """Send a control request; returns the server's JSON reply."""
        if tenant is not None:
            body = dict(body, tenant=validate_tenant(tenant))
        return self._request(encode_json(CONTROL, body), CONTROL)

    def ping(self) -> bool:
        """Liveness probe: ``True`` iff the server answered ``{"ok": true}``."""
        return self.control({"op": "ping"}).get("ok", False) is True

    def info(self, *, tenant: Optional[str] = None) -> Dict:
        """Deployment shape: references, classes, shards, replicas and
        router, drift, native-kernel status, generation."""
        return self.control({"op": "info"}, tenant=tenant)

    def metrics(self) -> Dict:
        """Prometheus text exposition of the server's metrics registry.

        Returns ``{"content_type": ..., "exposition": ...}``; feed the
        exposition to :func:`repro.obs.parse_prometheus` or any
        Prometheus-compatible scraper.
        """
        return self.control({"op": "metrics"})

    def rebalance(
        self, *, threshold: Optional[float] = None, tenant: Optional[str] = None
    ) -> Dict:
        """Trigger a zero-downtime shard rebalance; returns the moves made."""
        body: Dict = {"op": "rebalance"}
        if threshold is not None:
            body["threshold"] = float(threshold)
        return self.control(body, tenant=tenant)

    def requantize(
        self, *, sample_size: Optional[int] = None, tenant: Optional[str] = None
    ) -> Dict:
        """Trigger a zero-downtime quantizer re-train on the deployment;
        returns the drift ratio before/after and the new generation."""
        body: Dict = {"op": "requantize"}
        if sample_size is not None:
            body["sample_size"] = int(sample_size)
        return self.control(body, tenant=tenant)

    # ------------------------------------------------------- class mutations
    @staticmethod
    def _embedding_payload(embeddings: np.ndarray) -> List[List[float]]:
        block = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        if block.ndim != 2 or block.shape[0] == 0 or block.shape[1] == 0:
            raise ProtocolError("bad-control", "embeddings must be a non-empty (n, dim) array")
        return [[float(value) for value in row] for row in block]

    def add_class(
        self, label: str, embeddings: np.ndarray, *, tenant: Optional[str] = None
    ) -> Dict:
        """Add a monitored class to the live deployment (zero downtime)."""
        body = {"op": "add", "label": str(label), "embeddings": self._embedding_payload(embeddings)}
        return self.control(body, tenant=tenant)

    def remove_class(self, label: str, *, tenant: Optional[str] = None) -> Dict:
        """Remove a monitored class from the live deployment."""
        return self.control({"op": "remove", "label": str(label)}, tenant=tenant)

    def replace_class(
        self, label: str, embeddings: np.ndarray, *, tenant: Optional[str] = None
    ) -> Dict:
        """Replace a class's reference embeddings (page-update churn)."""
        body = {
            "op": "replace",
            "label": str(label),
            "embeddings": self._embedding_payload(embeddings),
        }
        return self.control(body, tenant=tenant)

    # ------------------------------------------------------------- tenant ops
    def create_tenant(self, tenant: str) -> Dict:
        """Provision an empty deployment for ``tenant`` behind this front-end."""
        return self.control({"op": "tenant", "action": "create", "name": validate_tenant(tenant)})

    def drop_tenant(self, tenant: str) -> Dict:
        """Tear down ``tenant``'s deployment (the default tenant cannot be dropped)."""
        return self.control({"op": "tenant", "action": "drop", "name": validate_tenant(tenant)})

    def tenants(self) -> Dict:
        """List tenants and their per-tenant generations/reference counts."""
        return self.control({"op": "tenants"})

    # ------------------------------------------------------------ replica ops
    def kill_replica(self, position: int, *, tenant: Optional[str] = None) -> Dict:
        """Drain one replica out of the router (in-flight searches finish)."""
        return self.control(
            {"op": "replica", "action": "kill", "position": int(position)}, tenant=tenant
        )

    def restore_replica(self, position: int, *, tenant: Optional[str] = None) -> Dict:
        """Bring a drained replica back into the router rotation."""
        return self.control(
            {"op": "replica", "action": "restore", "position": int(position)}, tenant=tenant
        )
