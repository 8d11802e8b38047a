"""Micro-batched query scheduling for the serving layer.

The batched :meth:`~repro.core.classifier.KNNClassifier.predict` path is an
order of magnitude cheaper per query than classifying one trace at a time,
but a serving front-end receives queries one at a time.
:class:`BatchScheduler` closes that gap: submitted queries are coalesced
into micro-batches bounded by ``max_batch_size`` (throughput knob) and
``max_latency_s`` (tail-latency knob — the longest any query waits for
company), and every batch classifies against one consistent
:class:`~repro.serving.manager.ServingSnapshot`, so an adaptation swap
mid-stream can never tear a batch.

An LRU cache keyed on ``(snapshot cache token, quantized embedding bytes)``
short-circuits repeated queries — the paper's victims revisit pages, and
TLS traces quantize to identical embeddings more often than raw floats
suggest.  The cache token is the snapshot's ``(generation, index
signature)``: the generation invalidates the whole cache the moment an
adaptation swap lands, and the index signature keeps predictions cached
under one index configuration (say, approximate ivfpq ``rerank=0``) from
ever being served by a redeployment with another — generation counters
restart at 0 across deployments, so the generation alone cannot carry that
guarantee.

The scheduler runs in two modes: with :meth:`start` (or as a context
manager) a background thread flushes batches as they fill or age out;
without it, full batches execute inline on ``submit`` and :meth:`flush`
drains the tail — deterministic, for tests and single-threaded replay.
``n_executors > 1`` classifies ready batches on a small thread pool
instead of the flusher thread itself, which is what lets a
:class:`~repro.serving.sharded_store.ReplicaSet` spread concurrent
batches across read replicas.

Every counter and histogram lives in the :class:`MetricsRegistry` passed
in (``repro_scheduler_*``, ``repro_query_latency_seconds``); read them
there or through the front-end's ``metrics`` op — there is no second
stats object.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.classifier import Prediction
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.serving.sharded_store import ServingError

_DEFAULT_RESULT_TIMEOUT_S = 60.0
# Embeddings are rounded to this many decimals before keying the result
# cache, so float noise below it cannot split one revisit into two entries.
_CACHE_DECIMALS = 6


class QueryTicket:
    """Handle for one submitted query; :meth:`result` blocks until classified."""

    __slots__ = (
        "_done", "_prediction", "_error", "submitted_at", "completed_at", "cached", "generation",
        "trace",
    )

    def __init__(self, submitted_at: float) -> None:
        self._done = threading.Event()
        self._prediction: Optional[Prediction] = None
        self._error: Optional[str] = None
        self.submitted_at = submitted_at
        self.completed_at: Optional[float] = None
        self.cached = False
        # Span trace for sampled queries (None on the unsampled fast path);
        # see repro.obs.tracing.
        self.trace = None
        # Generation of the snapshot that actually served the prediction —
        # a swap can land between submit and execute, so callers reporting
        # generations (the front-end's RESULT frames) must read it here,
        # not from a snapshot they grabbed before submitting.
        self.generation: Optional[int] = None

    def _fulfil(
        self,
        prediction: Prediction,
        completed_at: float,
        *,
        cached: bool = False,
        generation: Optional[int] = None,
    ) -> None:
        self._prediction = prediction
        self.completed_at = completed_at
        self.cached = cached
        self.generation = generation
        self._done.set()

    def _fail(self, message: str, completed_at: float) -> None:
        self._error = message
        self.completed_at = completed_at
        self._done.set()

    def done(self) -> bool:
        """Whether the query has been answered (successfully or not)."""
        return self._done.is_set()

    @property
    def failed(self) -> bool:
        """Whether the query completed with an error instead of a prediction."""
        return self._done.is_set() and self._error is not None

    @property
    def latency_s(self) -> Optional[float]:
        """Submit-to-completion latency (``None`` while still pending)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def result(self, timeout: Optional[float] = _DEFAULT_RESULT_TIMEOUT_S) -> Prediction:
        """Block until classified; raises ``ServingError`` on failure/timeout."""
        if not self._done.wait(timeout):
            raise ServingError("timed out waiting for the query result")
        if self._error is not None:
            raise ServingError(f"query failed: {self._error}")
        assert self._prediction is not None
        return self._prediction


class BatchScheduler:
    """Coalesce single-query submissions into micro-batched classification."""

    def __init__(
        self,
        source,
        *,
        max_batch_size: int = 64,
        max_latency_s: float = 0.002,
        cache_size: int = 4096,
        n_executors: int = 1,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        """``source`` is anything with ``snapshot() -> ServingSnapshot``
        (a :class:`~repro.serving.manager.DeploymentManager` in practice).

        ``n_executors`` bounds how many ready batches classify
        concurrently in background mode; match it to the store's replica
        count so a :class:`~repro.serving.sharded_store.ReplicaSet` can
        spread them.

        ``registry`` receives the scheduler's metrics (a private
        :class:`~repro.obs.metrics.MetricsRegistry` by default, so unit
        tests never share counters; ``repro serve`` passes one shared
        registry through the whole pipeline).  ``tracer`` controls
        per-query span sampling and the slow-query log; by default a
        tracer with sampling off (and no slow threshold) is created on
        the same registry.
        """
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_latency_s < 0:
            raise ValueError("max_latency_s must be non-negative")
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if n_executors <= 0:
            raise ValueError("n_executors must be positive")
        self._source = source
        self.max_batch_size = int(max_batch_size)
        self.max_latency_s = float(max_latency_s)
        self.cache_size = int(cache_size)
        self.n_executors = int(n_executors)
        # (embedding, cache key, ticket, tenant); a batch never mixes tenants.
        self._pending: List[
            Tuple[np.ndarray, Optional[Tuple[object, bytes]], QueryTicket, Optional[str]]
        ] = []
        self._wakeup = threading.Condition()
        self._cache: "OrderedDict[Tuple[object, bytes], Prediction]" = OrderedDict()
        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        self._submitted = registry.counter(
            "repro_scheduler_queries_submitted_total", "Queries submitted to the scheduler."
        )
        self._completed = registry.counter(
            "repro_scheduler_queries_completed_total", "Queries answered with a prediction."
        )
        self._failed = registry.counter(
            "repro_scheduler_queries_failed_total", "Queries completed with an error."
        )
        self._batches = registry.counter(
            "repro_scheduler_batches_total", "Micro-batches executed."
        )
        self._cache_hits = registry.counter(
            "repro_scheduler_cache_hits_total", "Prediction-cache hits."
        )
        self._cache_misses = registry.counter(
            "repro_scheduler_cache_misses_total", "Prediction-cache misses."
        )
        self._largest_batch = registry.gauge(
            "repro_scheduler_largest_batch", "Largest micro-batch executed so far."
        )
        self.tracer = tracer if tracer is not None else Tracer(registry)
        self._latency_hist = registry.histogram(
            "repro_query_latency_seconds",
            "End-to-end query latency from submit to fulfilment (cache hits included).",
        )
        self._queue_wait_hist = registry.histogram(
            "repro_scheduler_queue_wait_seconds",
            "Time queries wait in the pending queue before batch execution.",
        )
        self._batch_size_hist = registry.histogram(
            "repro_scheduler_batch_size",
            "Executed micro-batch sizes.",
            buckets=obs_metrics.SIZE_BUCKETS,
        )
        registry.gauge(
            "repro_scheduler_queue_depth", "Queries currently waiting for a batch."
        ).set_function(lambda: float(len(self._pending)))
        self._thread: Optional[threading.Thread] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._running = False

    # ---------------------------------------------------------------- lifecycle
    @property
    def running(self) -> bool:
        """Whether the background flusher thread is active."""
        return self._thread is not None

    @property
    def source(self):
        """Whatever supplies ``snapshot()`` (the deployment manager)."""
        return self._source

    def start(self) -> "BatchScheduler":
        """Run the background flusher (batches age out after max_latency_s)."""
        if self._thread is None:
            self._running = True
            if self.n_executors > 1:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.n_executors, thread_name_prefix="batch-exec"
                )
            self._thread = threading.Thread(target=self._run, name="batch-scheduler", daemon=True)
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the flusher, wait out in-flight batches and drain the rest."""
        thread = self._thread
        if thread is not None:
            with self._wakeup:
                self._running = False
                self._wakeup.notify_all()
            thread.join(timeout=30.0)
            self._thread = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.flush()

    def __enter__(self) -> "BatchScheduler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------- submit
    @staticmethod
    def _snapshot_token(snapshot) -> object:
        """The snapshot state a cached prediction depends on: generation
        *and* index signature (spec/rerank), so swapping a deployment's
        index configuration can never serve stale cached predictions across
        generations that happen to share a counter value."""
        return getattr(snapshot, "cache_token", snapshot.generation)

    def _source_for(self, tenant: Optional[str]):
        """The snapshot source serving ``tenant`` (``None`` = the direct
        source).  Multi-tenant sources (a
        :class:`~repro.serving.tenancy.TenantRegistry`) expose ``get``; a
        plain :class:`~repro.serving.manager.DeploymentManager` serves only
        the default tenant, so a named tenant against it is an error."""
        if tenant is None:
            return self._source
        getter = getattr(self._source, "get", None)
        if getter is None:
            raise ServingError(
                f"this scheduler serves a single deployment; unknown tenant {tenant!r}"
            )
        return getter(tenant)

    def _cache_key(
        self, embedding: np.ndarray, token: object, tenant: Optional[str]
    ) -> Optional[Tuple[object, bytes]]:
        if self.cache_size == 0:
            return None
        quantized = np.round(embedding, _CACHE_DECIMALS) + 0.0  # collapse -0.0
        # The tenant rides inside the token: two tenants at the same
        # (generation, index signature) with byte-identical embeddings must
        # never share a cached prediction.
        return ((tenant, token), quantized.tobytes())

    def submit(self, embedding: np.ndarray, *, tenant: Optional[str] = None) -> QueryTicket:
        """Queue one query embedding; returns immediately with a ticket.

        ``tenant`` routes the query to that tenant's deployment (requires a
        multi-tenant source); unknown tenants fail here, before queueing.
        """
        embedding = np.asarray(embedding, dtype=np.float64).reshape(-1)
        ticket = QueryTicket(time.monotonic())
        ticket.trace = self.tracer.maybe_trace()
        snapshot = self._source_for(tenant).snapshot()
        key = self._cache_key(embedding, self._snapshot_token(snapshot), tenant)
        inline_batch = None
        with self._wakeup:
            self._submitted.inc()
            if key is not None:
                lookup_start = time.perf_counter() if ticket.trace is not None else 0.0
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self._cache_hits.inc()
                    self._completed.inc()
                    ticket._fulfil(
                        cached, time.monotonic(), cached=True, generation=snapshot.generation
                    )
                    if ticket.trace is not None:
                        ticket.trace.add(
                            "cache_lookup", time.perf_counter() - lookup_start, hit=True
                        )
                    latency = ticket.latency_s
                    self._latency_hist.observe(latency)
                    self.tracer.finish(ticket.trace, latency, cached=True)
                    return ticket
                self._cache_misses.inc()
                if ticket.trace is not None:
                    ticket.trace.add(
                        "cache_lookup", time.perf_counter() - lookup_start, hit=False
                    )
            self._pending.append((embedding, key, ticket, tenant))
            if len(self._pending) >= self.max_batch_size:
                if self._thread is None:
                    inline_batch = self._take_batch_locked()
                else:
                    self._wakeup.notify()
        if inline_batch:
            self._execute(inline_batch)
        return ticket

    def classify(
        self,
        embeddings: np.ndarray,
        *,
        timeout: Optional[float] = _DEFAULT_RESULT_TIMEOUT_S,
        tenant: Optional[str] = None,
    ) -> List[Prediction]:
        """Submit a block of embeddings and wait for all results."""
        block = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        tickets = [self.submit(embedding, tenant=tenant) for embedding in block]
        if self._thread is None:
            self.flush()
        return [ticket.result(timeout) for ticket in tickets]

    # -------------------------------------------------------------------- flush
    def _take_batch_locked(self) -> List[Tuple]:
        """Pop the next batch off ``_pending`` (wakeup lock held).

        A batch classifies against exactly one snapshot, so it must hold
        exactly one tenant: take the oldest query's tenant and collect up
        to ``max_batch_size`` queries for the *same* tenant, preserving
        per-tenant FIFO order.  Other tenants' queries stay queued and form
        the next batch.
        """
        if not self._pending:
            return []
        tenant = self._pending[0][3]
        batch: List[Tuple] = []
        kept: List[Tuple] = []
        for entry in self._pending:
            if entry[3] == tenant and len(batch) < self.max_batch_size:
                batch.append(entry)
            else:
                kept.append(entry)
        self._pending[:] = kept
        return batch

    def flush(self) -> None:
        """Synchronously drain every pending query on the calling thread."""
        while True:
            with self._wakeup:
                batch = self._take_batch_locked()
            if not batch:
                return
            self._execute(batch)

    def _run(self) -> None:
        while True:
            with self._wakeup:
                while self._running and not self._pending:
                    self._wakeup.wait(timeout=0.05)
                if not self._running and not self._pending:
                    return
                if self._running and self._pending and len(self._pending) < self.max_batch_size:
                    # Wait out the oldest query's latency budget; new
                    # arrivals may fill the batch meanwhile.
                    deadline = self._pending[0][2].submitted_at + self.max_latency_s
                    remaining = deadline - time.monotonic()
                    if remaining > 0:
                        self._wakeup.wait(timeout=remaining)
                batch = self._take_batch_locked()
            if batch:
                if self._pool is not None:
                    # Replica-parallel mode: hand the ready batch to the
                    # executor pool and go straight back to coalescing; up
                    # to n_executors batches classify concurrently, each
                    # routed to a different read replica.
                    self._pool.submit(self._execute, batch)
                else:
                    self._execute(batch)

    # ------------------------------------------------------------------ execute
    def _execute(
        self,
        batch: Sequence[
            Tuple[np.ndarray, Optional[Tuple[object, bytes]], QueryTicket, Optional[str]]
        ],
    ) -> None:
        tenant = batch[0][3]  # _take_batch_locked guarantees one tenant per batch
        execute_start = time.monotonic()
        traced = any(ticket.trace is not None for _, _, ticket, _ in batch)
        collector = obs_tracing.push() if traced else None
        try:
            with obs_tracing.timed("batch_assemble", batch_size=len(batch)):
                embeddings = np.stack([embedding for embedding, _, _, _ in batch])
            try:
                # Resolved per batch: the tenant may have been dropped
                # between submit and execute, which must fail these tickets,
                # not crash the flusher thread.
                snapshot = self._source_for(tenant).snapshot()
                predictions = snapshot.predict(embeddings)
            except Exception as error:
                now = time.monotonic()
                self._batches.inc()
                self._largest_batch.set_max(len(batch))
                self._failed.inc(len(batch))
                message = f"{type(error).__name__}: {error}"
                self._observe_batch(batch, execute_start, now, collector, failed=True)
                for _, _, ticket, _ in batch:
                    ticket._fail(message, now)
                return
        finally:
            if collector is not None:
                obs_tracing.pop()
        now = time.monotonic()
        with self._wakeup:
            self._batches.inc()
            self._largest_batch.set_max(len(batch))
            self._completed.inc(len(batch))
            if self.cache_size:
                served_token = (tenant, self._snapshot_token(snapshot))
                for (_, key, _, _), prediction in zip(batch, predictions):
                    if key is None:
                        continue
                    # Key under the snapshot actually served, so a swap
                    # between submit and execute can't poison the cache.
                    self._cache[(served_token, key[1])] = prediction
                    self._cache.move_to_end((served_token, key[1]))
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
        self._observe_batch(batch, execute_start, now, collector, failed=False)
        for (_, _, ticket, _), prediction in zip(batch, predictions):
            ticket._fulfil(prediction, now, generation=snapshot.generation)

    def _observe_batch(self, batch, execute_start, resolved_at, collector, *, failed: bool) -> None:
        """Feed histograms and finish traces as a batch resolves.

        Called *before* the tickets are fulfilled, so a client that has its
        result (and a scrape racing it) is guaranteed the batch's telemetry
        already landed; ``resolved_at`` is the same timestamp the tickets are
        fulfilled with, making these latencies identical to
        ``ticket.latency_s``.  Runs for every batch; span distribution only
        touches the tickets that were actually sampled.
        """
        self._batch_size_hist.observe(len(batch))
        batch_seconds = time.monotonic() - execute_start
        queue_waits = []
        latencies = []
        for _, _, ticket, _ in batch:
            queue_wait = execute_start - ticket.submitted_at
            queue_waits.append(queue_wait)
            latency = resolved_at - ticket.submitted_at
            latencies.append(latency)
            trace = ticket.trace
            if trace is not None:
                trace.add("queue_wait", queue_wait)
                trace.add("batch_execute", batch_seconds, batch_size=len(batch))
                if collector:
                    trace.extend(collector)
            self.tracer.finish(trace, latency, failed=failed)
        # Batched observes: two lock round-trips per batch, not per query.
        self._queue_wait_hist.observe_many(queue_waits)
        self._latency_hist.observe_many(latencies)
