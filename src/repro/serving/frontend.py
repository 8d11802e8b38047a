"""TCP front-end: the network face of the serving subsystem.

:class:`FrontendServer` accepts length-prefixed frames
(:mod:`repro.serving.protocol`), feeds query batches to a
:class:`~repro.serving.scheduler.BatchScheduler` and answers with ranked
predictions.  It is a blocking server with one thread per connection: a
listener thread accepts, and each connection's thread reads a frame,
decodes it, hands it to the scheduler, encodes the answer and sends it.
The scheduler starts no threads: that same thread classifies the next
batch whenever an executor slot is free and its frame is unanswered, so
a frame that finds the scheduler idle is read, classified and answered
without a thread hand-off; otherwise it waits until a batch on another
connection's thread finishes.  Control ops run on their connection's
thread too, so a slow batch or a long rebalance stalls only its own
connection.
With the scheduler running ``n_executors > 1`` and the sharded store
scattering through a :class:`~repro.serving.executors.ReplicaSet`,
concurrent connections fan out across read replicas.

The failure contract is the one the fuzz suite enforces: *every* bad input
— truncated frames, hostile length prefixes, garbage payloads, wrong
dimensions, NaN embeddings, invalid JSON — is answered with a structured
``ERROR`` frame (or, when the stream can no longer be re-synchronised, the
error frame followed by a clean close).  The server process never dies on
client input and a failed connection never leaks its thread.

One wiring is supported: the front-end always serves a
:class:`~repro.serving.tenancy.TenantRegistry` of
:class:`~repro.serving.manager.DeploymentManager` deployments (a bare
``manager=`` becomes a one-tenant registry) whose stores scatter through a
:class:`~repro.serving.executors.ReplicaSet`, and all of its counters
live in the scheduler's :class:`~repro.obs.metrics.MetricsRegistry`
(``repro_frontend_*``) — the ``metrics`` op is the one way to read them.

The server runs from background threads via :meth:`start_in_thread`/
:meth:`stop` (or as a context manager) for blocking callers (the CLI,
benches and tests), or as a process via ``repro serve --port``.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Dict, Optional, Tuple

import numpy as np

from repro.obs.export import CONTENT_TYPE, render_prometheus
from repro.serving import protocol
from repro.serving.protocol import ProtocolError
from repro.serving.scheduler import BatchScheduler
from repro.serving.transport import ServingError
from repro.serving.tenancy import DEFAULT_TENANT, TenantRegistry, UnknownTenantError

_RESULT_TIMEOUT_S = 60.0  # longest a frame waits for a slot or its answer
_STOP_TIMEOUT_S = 10.0  # longest stop() waits for the server's threads


class FrontendServer:
    """Serve classification over TCP on top of a batch scheduler.

    ``scheduler`` handles queries; ``tenants`` (a
    :class:`~repro.serving.tenancy.TenantRegistry`) names the deployments
    queries and control ops route to, and the ``tenant``/``tenants`` control
    ops manage it over the wire.  ``manager`` (a
    :class:`~repro.serving.manager.DeploymentManager`) is shorthand for a
    registry holding just that deployment as the default tenant, with no
    room to provision more; it is not consulted when ``tenants`` is given.
    """

    def __init__(
        self,
        scheduler: BatchScheduler,
        *,
        manager=None,
        tenants: Optional[TenantRegistry] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if tenants is None:
            if manager is None:
                raise ValueError("FrontendServer needs a deployment: pass manager= or tenants=")
            tenants = TenantRegistry(manager, max_tenants=1)
        self.scheduler = scheduler
        self.tenants = tenants
        self.host = host
        self.port = int(port)  # 0 = ephemeral; rewritten once bound
        # The scheduler's registry, so one scrape (the metrics op /
        # --metrics-port) covers the whole pipeline.
        self.registry = registry = scheduler.registry
        self._connections = registry.counter(
            "repro_frontend_connections_total", "TCP connections accepted."
        )
        self._open_connections = registry.gauge(
            "repro_frontend_open_connections", "Connections currently open."
        )
        self._frames = registry.counter(
            "repro_frontend_frames_total", "Well-framed client frames received."
        )
        self._queries = registry.counter(
            "repro_frontend_queries_total",
            "Query embeddings received over the wire, by tenant.",
            labels=("tenant",),
        )
        self._errors = registry.counter(
            "repro_frontend_errors_total",
            "Error frames sent, by machine-readable code.",
            labels=("code",),
        )
        self._decode_hist = registry.histogram(
            "repro_frontend_decode_seconds", "Time decoding QUERY frame payloads."
        )
        self._encode_hist = registry.histogram(
            "repro_frontend_encode_seconds", "Time encoding RESULT frame payloads."
        )
        self._request_hist = registry.histogram(
            "repro_frontend_request_seconds",
            "Whole QUERY frame handling time (decode through encode).",
        )
        self._listener: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None
        # Guards _stopping and _open (each open connection's socket -> thread).
        self._lock = threading.Lock()
        self._stopping = False
        self._open: Dict[socket.socket, threading.Thread] = {}

    # ------------------------------------------------------------------ address
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (port is rewritten once bound)."""
        return self.host, self.port

    # ---------------------------------------------------------------- lifecycle
    def start_in_thread(self) -> "FrontendServer":
        """Bind, then accept on a background thread; returns once bound."""
        if self._thread is not None:
            return self
        try:
            listener = socket.create_server((self.host, self.port))
        except OSError as error:
            raise ServingError(f"the front-end server failed to start: {error!r}") from error
        self.port = listener.getsockname()[1]
        self._listener, self._stopping = listener, False
        self._thread = threading.Thread(
            target=self._accept_loop, args=(listener,), name="serving-frontend", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, shut every open connection down and join the
        server's threads.  A frame already classifying finishes first; its
        answer has nowhere to go."""
        with self._lock:
            self._stopping = True
            listener, self._listener = self._listener, None
            thread, self._thread = self._thread, None
        deadline = time.monotonic() + _STOP_TIMEOUT_S
        if listener is not None:
            try:
                listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
            except OSError:
                pass
        if thread is not None:
            thread.join(timeout=_STOP_TIMEOUT_S)
        if listener is not None:
            listener.close()
        with self._lock:  # the accept loop has ended: no connection joins after this
            connections = list(self._open.items())
        for connection, _ in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)  # wakes a blocked read
            except OSError:
                pass
        for _, handler in connections:
            handler.join(timeout=max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "FrontendServer":
        return self.start_in_thread()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------- connections
    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                connection, _ = listener.accept()
                connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                if self._stopping:
                    return
                time.sleep(0.01)  # out of descriptors or an aborted handshake
                continue
            thread = threading.Thread(
                target=self._handle_connection, args=(connection,),
                name="frontend-connection", daemon=True,
            )
            with self._lock:
                if self._stopping:
                    connection.close()
                    return
                self._open[connection] = thread
            self._connections.inc()
            self._open_connections.inc()
            thread.start()

    def _handle_connection(self, connection: socket.socket) -> None:
        try:
            with connection.makefile("rb") as reader:
                self._serve_connection(connection, reader)
        except OSError:
            pass  # the peer reset the connection, or stop() shut it down
        finally:
            with self._lock:
                del self._open[connection]
            connection.close()
            self._open_connections.dec()

    def _serve_connection(self, connection: socket.socket, reader) -> None:
        # A short read is a clean close or a connection truncated mid-frame:
        # nothing to answer.
        while True:
            header = reader.read(protocol.HEADER.size)
            if len(header) < protocol.HEADER.size:
                return
            try:
                frame_type, length = protocol.parse_header(header)
            except ProtocolError as error:
                if error.recoverable:
                    # Unknown frame type with intact framing: drain the
                    # declared payload so the stream stays in sync, answer
                    # the error, keep serving.
                    _, _, length = protocol.HEADER.unpack(header)
                    if len(reader.read(length)) < length:
                        return
                    self._send_error(connection, error)
                    continue
                # Framing is broken (bad magic / hostile length): answer
                # once, then close — we cannot find the next frame.
                self._send_error(connection, error)
                return
            payload = reader.read(length)
            if len(payload) < length:
                return
            self._frames.inc()
            try:
                response = self._dispatch(frame_type, payload)
            except ProtocolError as error:
                self._send_error(connection, error)
                if not error.recoverable:
                    return
                continue
            except Exception as error:  # classification/control failure
                self._send_error(
                    connection, ProtocolError("server-error", f"{type(error).__name__}: {error}")
                )
                continue
            connection.sendall(response)

    def _send_error(self, connection: socket.socket, error: ProtocolError) -> None:
        self._errors.inc(code=error.code)
        connection.sendall(
            protocol.encode_error(
                error.code,
                str(error),
                recoverable=error.recoverable,
                details=getattr(error, "details", None),
            )
        )

    # ---------------------------------------------------------------- dispatch
    def _dispatch(self, frame_type: int, payload: bytes) -> bytes:
        if frame_type == protocol.QUERY:
            return self._handle_query(payload)
        if frame_type == protocol.CONTROL:
            return self._handle_control(protocol.decode_json(payload))
        raise ProtocolError(
            "bad-frame-type", f"clients may only send QUERY or CONTROL frames, got {frame_type}"
        )

    def _handle_query(self, payload: bytes) -> bytes:
        request_start = time.perf_counter()
        batch, top_n, tenant = protocol.decode_query(payload)
        if tenant == DEFAULT_TENANT:
            tenant = None  # "default" and no-tenant-block are the same route
        self._decode_hist.observe(time.perf_counter() - request_start)
        store = self._manager_for(tenant).store
        if batch.shape[1] != store.embedding_dim:
            raise ProtocolError(
                "bad-dim",
                f"queries have dimension {batch.shape[1]}, "
                f"the deployment serves dimension {store.embedding_dim}",
            )
        if not np.isfinite(batch).all():
            raise ProtocolError(
                "bad-values", "query embeddings contain NaN/inf values; refusing to classify"
            )
        try:
            ticket = self.scheduler.submit_block(
                batch, tenant=tenant, timeout=_RESULT_TIMEOUT_S
            )
        except UnknownTenantError as error:
            raise ProtocolError(
                "unknown-tenant", str(error), details={"tenant": error.tenant}
            ) from error
        try:
            rows = ticket.rows()
        except ServingError as error:
            raise ProtocolError("query-failed", str(error)) from error
        self._queries.inc(batch.shape[0], tenant=tenant or DEFAULT_TENANT)
        # Only the top_n labels of each row are decoded.
        ranked = [row.top(top_n) for row in rows]
        encode_start = time.perf_counter()
        # ticket.generation is the generation that actually served the frame
        # (an adaptation swap can land between submit and execute); a frame
        # straddling a swap reports the newest snapshot that served any row.
        response = protocol.encode_result(ticket.generation, ranked)
        self._encode_hist.observe(time.perf_counter() - encode_start)
        self._request_hist.observe(time.perf_counter() - request_start)
        return response

    def _manager_for(self, tenant: Optional[str]):
        """The deployment manager serving ``tenant`` (``None`` = default).

        Raises ``unknown-tenant`` for a name nobody answers to.
        """
        try:
            return self.tenants.get(tenant)
        except UnknownTenantError as error:
            raise ProtocolError(
                "unknown-tenant", str(error), details={"tenant": error.tenant}
            ) from error

    def _handle_control(self, body: Dict) -> bytes:
        op = body.get("op")
        try:
            return self._control_op(op, body)
        except ProtocolError as error:
            # Echo the op into the structured error body: a client
            # pipelining several control ops must be able to tell which
            # one the server rejected.
            if isinstance(op, str):
                error.details.setdefault("op", op)
            raise

    def _control_tenant(self, body: Dict) -> Optional[str]:
        """The validated tenant routing key of a control body (or None)."""
        tenant = body.get("tenant")
        if tenant is None or tenant == DEFAULT_TENANT:
            return None
        protocol.validate_tenant(tenant)
        return tenant

    def _embeddings_from(self, body: Dict, store) -> np.ndarray:
        """Validated ``(n, dim)`` float64 block from a control body."""
        embeddings = body.get("embeddings")
        if not isinstance(embeddings, list) or not embeddings:
            raise ProtocolError("bad-control", "embeddings must be a non-empty list of rows")
        # Only JSON numbers: NumPy would read true as 1.0 and "2.5" as 2.5.
        if not all(
            isinstance(row, list) and all(type(value) in (int, float) for value in row)
            for row in embeddings
        ):
            raise ProtocolError("bad-control", "embeddings must be rows of JSON numbers")
        try:
            block = np.asarray(embeddings, dtype=np.float64)
        except (TypeError, ValueError) as error:
            raise ProtocolError("bad-control", f"embeddings are not numeric: {error}") from error
        if block.ndim != 2 or block.shape[0] == 0 or block.shape[1] == 0:
            raise ProtocolError(
                "bad-control", f"embeddings must be a rectangular (n, dim) block, got {block.shape}"
            )
        if not np.isfinite(block).all():
            raise ProtocolError(
                "bad-values", "reference embeddings contain NaN/inf values; refusing to store"
            )
        if len(store) and block.shape[1] != store.embedding_dim:
            raise ProtocolError(
                "bad-dim",
                f"embeddings have dimension {block.shape[1]}, "
                f"the deployment serves dimension {store.embedding_dim}",
            )
        return block

    @staticmethod
    def _label_from(body: Dict) -> str:
        label = body.get("label")
        if not isinstance(label, str) or not label:
            raise ProtocolError("bad-control", f"label must be a non-empty string, got {label!r}")
        return label

    def _control_op(self, op, body: Dict) -> bytes:
        if op == "ping":
            return protocol.encode_json(protocol.CONTROL, {"ok": True})
        if op == "metrics":
            # Prometheus text exposition over the wire: any RSF1 client
            # can scrape without the optional --metrics-port endpoint.
            return protocol.encode_json(
                protocol.CONTROL,
                {
                    "content_type": CONTENT_TYPE,
                    "exposition": render_prometheus(self.registry),
                },
            )
        if op == "info":
            tenant = self._control_tenant(body)
            manager = self._manager_for(tenant)
            store = manager.store
            info: Dict = {"ok": True}
            if tenant is not None:
                info["tenant"] = tenant
            info.update(
                generation=manager.generation,
                n_references=len(store),
                n_classes=store.n_classes,
                embedding_dim=store.embedding_dim,
                n_shards=store.n_shards,
                shard_sizes=store.shard_sizes(),
                drift_ratio=float(store.drift_ratio()),
                retrain_needed=bool(store.retrain_needed()),
                index_spec=store.index_spec(),
                native_kernels=store.kernel_status(),
                n_replicas=store.executor.n_replicas,
                router=store.executor.router,
            )
            return protocol.encode_json(protocol.CONTROL, info)
        if op == "rebalance":
            manager = self._manager_for(self._control_tenant(body))
            threshold = body.get("threshold", 0.25)
            if (
                not isinstance(threshold, (int, float))
                or isinstance(threshold, bool)
                or not 0.0 <= float(threshold)
            ):
                raise ProtocolError("bad-control", f"invalid rebalance threshold {threshold!r}")
            moves = manager.rebalance(threshold=float(threshold))
            return protocol.encode_json(
                protocol.CONTROL,
                {
                    "moved": [[label, int(src), int(dst)] for label, src, dst in moves],
                    "shard_sizes": manager.store.shard_sizes(),
                    "generation": manager.generation,
                },
            )
        if op == "requantize":
            manager = self._manager_for(self._control_tenant(body))
            sample_size = body.get("sample_size")
            if sample_size is not None and (
                not isinstance(sample_size, int)
                or isinstance(sample_size, bool)
                or sample_size <= 0
            ):
                raise ProtocolError("bad-control", f"invalid sample_size {sample_size!r}")
            drift_before = float(manager.drift_ratio())
            snapshot = manager.requantize(sample_size=sample_size)
            return protocol.encode_json(
                protocol.CONTROL,
                {
                    "drift_ratio_before": drift_before,
                    "drift_ratio": float(snapshot.store.drift_ratio()),
                    "generation": snapshot.generation,
                },
            )
        if op == "add":
            manager = self._manager_for(self._control_tenant(body))
            label = self._label_from(body)
            block = self._embeddings_from(body, manager.store)
            try:
                snapshot = manager.add_class(label, block)
            except (ServingError, ValueError) as error:
                raise ProtocolError("bad-control", str(error)) from error
            return protocol.encode_json(
                protocol.CONTROL,
                {
                    "ok": True,
                    "label": label,
                    "n_classes": snapshot.store.n_classes,
                    "generation": snapshot.generation,
                },
            )
        if op == "remove":
            manager = self._manager_for(self._control_tenant(body))
            label = self._label_from(body)
            try:
                snapshot = manager.remove_class(label)
            except (ServingError, ValueError, KeyError) as error:
                raise ProtocolError("bad-control", str(error)) from error
            return protocol.encode_json(
                protocol.CONTROL,
                {
                    "ok": True,
                    "label": label,
                    "n_classes": snapshot.store.n_classes,
                    "generation": snapshot.generation,
                },
            )
        if op == "replace":
            manager = self._manager_for(self._control_tenant(body))
            label = self._label_from(body)
            block = self._embeddings_from(body, manager.store)
            try:
                snapshot = manager.replace_class(label, block)
            except (ServingError, ValueError, KeyError) as error:
                raise ProtocolError("bad-control", str(error)) from error
            return protocol.encode_json(
                protocol.CONTROL,
                {
                    "ok": True,
                    "label": label,
                    "n_classes": snapshot.store.n_classes,
                    "generation": snapshot.generation,
                },
            )
        if op == "tenant":
            action = body.get("action")
            name = body.get("name")
            if not isinstance(name, str):
                raise ProtocolError("bad-control", f"tenant name must be a string, got {name!r}")
            protocol.validate_tenant(name)
            if action == "create":
                try:
                    manager = self.tenants.create(name)
                except ServingError as error:
                    raise ProtocolError("bad-control", str(error)) from error
                return protocol.encode_json(
                    protocol.CONTROL,
                    {"ok": True, "tenant": name, "generation": manager.generation},
                )
            if action == "drop":
                try:
                    self.tenants.drop(name)
                except UnknownTenantError as error:
                    raise ProtocolError(
                        "unknown-tenant", str(error), details={"tenant": error.tenant}
                    ) from error
                except ServingError as error:
                    raise ProtocolError("bad-control", str(error)) from error
                return protocol.encode_json(protocol.CONTROL, {"ok": True, "tenant": name})
            raise ProtocolError(
                "bad-control", f"unknown tenant action {action!r}; expected create or drop"
            )
        if op == "tenants":
            return protocol.encode_json(protocol.CONTROL, {"tenants": self.tenants.describe()})
        if op == "replica":
            executor = self._manager_for(self._control_tenant(body)).store.executor
            action = body.get("action")
            position = body.get("position")
            if not isinstance(position, int) or isinstance(position, bool):
                raise ProtocolError("bad-control", f"replica position must be an int, got {position!r}")
            if action not in ("kill", "restore"):
                raise ProtocolError(
                    "bad-control", f"unknown replica action {action!r}; expected kill or restore"
                )
            try:
                if action == "kill":
                    executor.kill(position)
                else:
                    executor.restore(position)
            except ServingError as error:
                raise ProtocolError("bad-control", str(error)) from error
            return protocol.encode_json(
                protocol.CONTROL,
                {
                    "ok": True,
                    "action": action,
                    "position": position,
                    "alive": executor.alive_flags(),
                },
            )
        raise ProtocolError("bad-control", f"unknown control op {op!r}")
