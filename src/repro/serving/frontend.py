"""Asyncio TCP front-end: the network face of the serving subsystem.

:class:`FrontendServer` accepts length-prefixed frames
(:mod:`repro.serving.protocol`), feeds query batches to a
:class:`~repro.serving.scheduler.BatchScheduler` and answers with ranked
predictions.  The event loop only ever parses frames and writes responses;
classification — which blocks on scheduler tickets — runs on a thread pool,
so one slow batch never stalls the accept loop or the other connections.
With the scheduler running ``n_executors > 1`` and the sharded store
scattering through a :class:`~repro.serving.executors.ReplicaSet`,
concurrent connections fan out across read replicas.

The failure contract is the one the fuzz suite enforces: *every* bad input
— truncated frames, hostile length prefixes, garbage payloads, wrong
dimensions, NaN embeddings, invalid JSON — is answered with a structured
``ERROR`` frame (or, when the stream can no longer be re-synchronised, the
error frame followed by a clean close).  The server process never dies on
client input and a failed connection never leaks its handler task.

One wiring is supported: the front-end always serves a
:class:`~repro.serving.tenancy.TenantRegistry` of
:class:`~repro.serving.manager.DeploymentManager` deployments (a bare
``manager=`` becomes a one-tenant registry) whose stores scatter through a
:class:`~repro.serving.executors.ReplicaSet`, and all of its counters
live in the scheduler's :class:`~repro.obs.metrics.MetricsRegistry`
(``repro_frontend_*``) — the ``metrics`` op is the one way to read them.

The server runs from a background thread via :meth:`start_in_thread`/
:meth:`stop` (or as a context manager) for blocking callers (the CLI,
benches and tests), on a caller's event loop via :meth:`start`/
:meth:`serve_forever`, or as a process via ``repro serve --port``.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.export import CONTENT_TYPE, render_prometheus
from repro.serving import protocol
from repro.serving.protocol import ProtocolError
from repro.serving.scheduler import BatchScheduler
from repro.serving.transport import ServingError
from repro.serving.tenancy import DEFAULT_TENANT, TenantRegistry, UnknownTenantError

_RESULT_TIMEOUT_S = 60.0  # longest a handler thread waits on a frame's ticket
_N_HANDLER_THREADS = 8  # classification / control ops running off the event loop


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
        self._executor = ThreadPoolExecutor(
            max_workers=_N_HANDLER_THREADS, thread_name_prefix="frontend-classify"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------ address
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (port is rewritten once bound)."""
        return self.host, self.port

    # ------------------------------------------------------------- async server
    async def start(self) -> "FrontendServer":
        """Bind and start accepting connections on the running event loop."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started.set()
        return self

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (from any thread) is called."""
        if self._server is None:
            await self.start()
        assert self._stop_event is not None
        await self._stop_event.wait()
        await self._shutdown()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # --------------------------------------------------------- threaded runner
    def start_in_thread(self, *, timeout_s: float = 10.0) -> "FrontendServer":
        """Run the server on a dedicated event-loop thread; returns once bound."""
        if self._thread is not None:
            return self

        def runner() -> None:
            try:
                asyncio.run(self.serve_forever())
            except BaseException as error:  # surface bind failures to the caller
                self._startup_error = error
                self._started.set()

        self._thread = threading.Thread(target=runner, name="serving-frontend", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout_s):
            raise ServingError("the front-end server did not start in time")
        if self._startup_error is not None:
            raise ServingError(f"the front-end server failed to start: {self._startup_error!r}")
        return self

    def stop(self) -> None:
        """Stop the server (thread-safe); joins the loop thread if one exists."""
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:
                pass  # loop already closed between the check and the call
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "FrontendServer":
        return self.start_in_thread()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------- connections
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.inc()
        self._open_connections.inc()
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            pass  # server shutting down with this connection open
        finally:
            self._open_connections.dec()
            try:
                writer.close()
            except Exception:
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                header = await reader.readexactly(protocol.HEADER.size)
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # clean close or truncated mid-frame: nothing to answer
            try:
                frame_type, length = protocol.parse_header(header)
            except ProtocolError as error:
                if error.recoverable:
                    # Unknown frame type with intact framing: drain the
                    # declared payload so the stream stays in sync, answer
                    # the error, keep serving.
                    _, _, length = protocol.HEADER.unpack(header)
                    try:
                        if length:
                            await reader.readexactly(length)
                    except (asyncio.IncompleteReadError, ConnectionError):
                        return
                    await self._send_error(writer, error)
                    continue
                # Framing is broken (bad magic / hostile length): answer
                # once, then close — we cannot find the next frame.
                await self._send_error(writer, error)
                return
            try:
                payload = await reader.readexactly(length) if length else b""
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            self._frames.inc()
            try:
                response = await self._dispatch(frame_type, payload)
            except ProtocolError as error:
                await self._send_error(writer, error)
                if not error.recoverable:
                    return
                continue
            except Exception as error:  # classification/control failure
                await self._send_error(
                    writer, ProtocolError("server-error", f"{type(error).__name__}: {error}")
                )
                continue
            writer.write(response)
            try:
                await writer.drain()
            except ConnectionError:
                return

    async def _send_error(self, writer: asyncio.StreamWriter, error: ProtocolError) -> None:
        self._errors.inc(code=error.code)
        try:
            writer.write(
                protocol.encode_error(
                    error.code,
                    str(error),
                    recoverable=error.recoverable,
                    details=getattr(error, "details", None),
                )
            )
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    # ---------------------------------------------------------------- dispatch
    async def _dispatch(self, frame_type: int, payload: bytes) -> bytes:
        if frame_type == protocol.QUERY:
            return await self._handle_query(payload)
        if frame_type == protocol.CONTROL:
            body = protocol.decode_json(payload)
            # Off the event loop like queries: a rebalance deep-copies
            # shard stores and contends on the swap lock — run inline it
            # would stall every other connection for the duration.
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(self._executor, self._handle_control, body)
        raise ProtocolError(
            "bad-frame-type", f"clients may only send QUERY or CONTROL frames, got {frame_type}"
        )

    async def _handle_query(self, payload: bytes) -> bytes:
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
        loop = asyncio.get_running_loop()
        generation, ranked = await loop.run_in_executor(
            self._executor, self._classify_block, batch, top_n, tenant
        )
        self._queries.inc(batch.shape[0], tenant=tenant or DEFAULT_TENANT)
        encode_start = time.perf_counter()
        response = protocol.encode_result(generation, ranked)
        self._encode_hist.observe(time.perf_counter() - encode_start)
        self._request_hist.observe(time.perf_counter() - request_start)
        return response

    def _classify_block(
        self, batch: np.ndarray, top_n: int, tenant: Optional[str] = None
    ) -> Tuple[int, List[Tuple[List[str], List[float]]]]:
        """Blocking classification of one frame's batch (thread-pool side)."""
        try:
            ticket = self.scheduler.submit_block(batch, tenant=tenant)
        except UnknownTenantError as error:
            raise ProtocolError(
                "unknown-tenant", str(error), details={"tenant": error.tenant}
            ) from error
        try:
            rows = ticket.rows(_RESULT_TIMEOUT_S)
        except ServingError as error:
            raise ProtocolError("query-failed", str(error)) from error
        # ticket.generation is the generation that actually served the frame
        # (an adaptation swap can land between submit and execute); a frame
        # straddling a swap reports the newest snapshot that served any row.
        # Only the top_n labels of each row are decoded.
        return ticket.generation, [row.top(top_n) for row in rows]

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
