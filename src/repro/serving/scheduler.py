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
suggest.  An entry is a compact read-only
:class:`~repro.core.classifier.RankedRow` (class codes, scores and the
snapshot's class names), never a shared mutable :class:`Prediction`, and
it holds only its own row, not the batch it was ranked in.  The cache
token is the snapshot's ``(generation, index signature)``: the generation
invalidates the whole cache the moment an adaptation swap lands, and the
index signature keeps predictions cached under one index configuration
(say, approximate ivfpq ``rerank=0``) from ever being served by a
redeployment with another — generation counters restart at 0 across
deployments, so the generation alone cannot carry that guarantee.

A batch is classified by whoever takes it, under one *in-flight bound*:
at most ``n_executors`` batches run at once — one per read replica of a
:class:`~repro.serving.executors.ReplicaSet` — counting the background
flushers and callers alike, so rows coalesce across connections exactly
while every executor is busy.  *Caller runs*: a frame handed in through
:meth:`submit_block` is due at once (its sender has nothing to add until
it is answered), so its own thread classifies the next batch itself
while an executor slot is free and its frame is unanswered — no hand-off
to another thread.  *Flushers*: with :meth:`start` (or as a context
manager) ``n_executors`` background flushers take what callers leave —
rows queued while every slot was busy, and rows handed in alone through
:meth:`submit`, which wait up to ``max_latency_s`` for company.  An idle
flusher sleeps on a condition with no timeout; a lone query's arrival and
every batch's completion notify it, and it takes a batch once a slot is
free and ``max_batch_size`` rows are pending or the earliest deadline has
passed.  Without :meth:`start` nothing runs in the background and no slot
bound applies: a frame is classified by its caller, full batches of lone
queries execute inline on ``submit`` and :meth:`flush` drains the tail —
deterministic, for tests and single-threaded replay.

Every counter and histogram lives in the :class:`MetricsRegistry` passed
in (``repro_scheduler_*``, ``repro_query_latency_seconds``); read them
there or through the front-end's ``metrics`` op — there is no second
stats object.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.classifier import Prediction, RankedRow, ranked_rows
from repro.obs import metrics as obs_metrics
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import QueryTrace, Tracer
from repro.serving.transport import ServingError

_DEFAULT_RESULT_TIMEOUT_S = 60.0
# Embeddings are rounded to this many decimals before keying the result
# cache, so float noise below it cannot split one revisit into two entries.
_CACHE_DECIMALS = 6


class QueryTicket:
    """Handle for one submission, a lone query or a whole frame: one event
    however many rows, and :meth:`results` blocks until all are classified.

    Each row is answered with a read-only :class:`RankedRow` (possibly the
    very one the result cache holds); :meth:`results` builds fresh
    :class:`Prediction` objects from them on every call, so no caller can
    mutate what another — or the cache — sees."""

    __slots__ = ("_done", "_rows", "_remaining", "_error", "tenant", "submitted_at",
                 "deadline", "completed_at", "cached", "generation")

    def __init__(
        self, n_rows: int, tenant: Optional[str], submitted_at: float, deadline: float
    ) -> None:
        self._done = threading.Event()
        self._rows: List[Optional[RankedRow]] = [None] * n_rows
        self._remaining = n_rows
        self._error: Optional[str] = None
        self.tenant = tenant
        self.submitted_at = submitted_at
        # When the flusher stops waiting for company for these rows.
        self.deadline = deadline
        self.completed_at: Optional[float] = None
        self.cached = False  # every row was answered from the prediction cache
        # Newest generation among the snapshots that actually served the
        # rows — a swap can land between submit and execute, so callers
        # reporting generations (the front-end's RESULT frames) must read it
        # here, not from a snapshot they grabbed before submitting.
        self.generation: Optional[int] = None
        if not n_rows:
            self._done.set()

    # _fulfil/_fail run under the scheduler's lock: the rows of one frame
    # can resolve from different batches on different executor threads.
    def _fulfil(
        self, position: int, row: RankedRow, completed_at: float, generation: int
    ) -> None:
        self._rows[position] = row
        if self.generation is None or generation > self.generation:
            self.generation = generation
        self._remaining -= 1
        if self._remaining == 0 and self._error is None:
            self.completed_at = completed_at
            self._done.set()

    def _fail(self, message: str, completed_at: float) -> None:
        if self._error is None:  # the first failed batch fails the frame
            self._error = message
            self.completed_at = completed_at
            self._done.set()

    def done(self) -> bool:
        """Whether the submission has been answered (successfully or not)."""
        return self._done.is_set()

    @property
    def failed(self) -> bool:
        """Whether it completed with an error instead of predictions."""
        return self._error is not None

    @property
    def latency_s(self) -> Optional[float]:
        """Submit-to-completion latency (``None`` while still pending)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def rows(self, timeout: Optional[float] = _DEFAULT_RESULT_TIMEOUT_S) -> List[RankedRow]:
        """Block until every row is classified; one read-only ranking per
        row, in order.  Raises ``ServingError`` on failure/timeout."""
        if not self._done.wait(timeout):
            raise ServingError("timed out waiting for the query result")
        if self._error is not None:
            raise ServingError(f"query failed: {self._error}")
        return list(self._rows)  # type: ignore[arg-type]

    def results(self, timeout: Optional[float] = _DEFAULT_RESULT_TIMEOUT_S) -> List[Prediction]:
        """:meth:`rows` as fresh predictions, one per row, in order."""
        return [row.prediction() for row in self.rows(timeout)]

    def result(self, timeout: Optional[float] = _DEFAULT_RESULT_TIMEOUT_S) -> Prediction:
        """:meth:`results` for a lone query: its one prediction."""
        return self.rows(timeout)[0].prediction()


class _Row(NamedTuple):
    """One pending query row; tenant and flush deadline are its ticket's."""

    embedding: np.ndarray
    key: Optional[bytes]  # quantized embedding bytes (None = cache disabled)
    ticket: QueryTicket
    position: int  # row index within the ticket
    trace: Optional[QueryTrace]  # spans of a sampled row (see repro.obs.tracing)


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
        count so a :class:`~repro.serving.executors.ReplicaSet` can
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
        self._pending: List[_Row] = []
        # Guards _pending, _busy, _cache and every ticket; only idle flushers wait on it.
        self._wakeup = threading.Condition()
        self._busy = 0  # batches executing now, on flushers and callers alike
        self._cache: "OrderedDict[Tuple[object, bytes], RankedRow]" = OrderedDict()
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
        self._threads: List[threading.Thread] = []
        self._running = False

    # ---------------------------------------------------------------- lifecycle
    def start(self) -> "BatchScheduler":
        """Run ``n_executors`` background flushers and bound the batches in
        flight, theirs and callers' together, to that many."""
        if not self._threads:
            self._running = True
            self._threads = [
                threading.Thread(target=self._run, name=f"batch-scheduler-{i}", daemon=True)
                for i in range(self.n_executors)
            ]
            for thread in self._threads:
                thread.start()
        return self

    def stop(self) -> None:
        """Stop the flushers, wait out in-flight batches and drain the rest."""
        with self._wakeup:
            self._running = False
            self._wakeup.notify_all()
        for thread in self._threads:
            thread.join(timeout=30.0)
        self._threads = []
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

    def _enqueue(self, block: np.ndarray, tenant: Optional[str], window_s: float) -> QueryTicket:
        """Queue the ``(n, dim)`` ``block`` as one ticket due in ``window_s``.
        The tenant is resolved and every row keyed before anything is
        queued, so a block is queued whole or not at all; one lock
        acquisition then answers the cache hits and queues the misses."""
        now = time.monotonic()
        ticket = QueryTicket(len(block), tenant, now, now + window_s)
        snapshot = self._source_for(tenant).snapshot()
        traces = [self.tracer.maybe_trace() for _ in range(len(block))]
        # The tenant rides inside the cache scope: two tenants at the same
        # (generation, index signature) with byte-identical embeddings must
        # never share a cached prediction.
        scope = (tenant, self._snapshot_token(snapshot))
        keys: Sequence[Optional[bytes]] = [None] * len(block)
        if self.cache_size:
            quantized = np.round(block, _CACHE_DECIMALS) + 0.0  # collapse -0.0
            keys = [row.tobytes() for row in quantized]
        hits: List[Tuple[int, RankedRow]] = []
        with self._wakeup:
            self._submitted.inc(len(block))
            for position, (embedding, key, trace) in enumerate(zip(block, keys, traces)):
                started = time.perf_counter() if trace is not None else 0.0
                cached = self._cache.get((scope, key)) if self.cache_size else None
                if trace is not None and self.cache_size:
                    trace.add("cache_lookup", time.perf_counter() - started, hit=cached is not None)
                if cached is None:
                    self._pending.append(_Row(embedding, key, ticket, position, trace))
                else:
                    self._cache.move_to_end((scope, key))
                    hits.append((position, cached))
            if self.cache_size:
                self._cache_hits.inc(len(hits))
                self._cache_misses.inc(len(block) - len(hits))
            if hits:
                self._completed.inc(len(hits))
                resolved_at = time.monotonic()
                for position, row in hits:
                    self._latency_hist.observe(resolved_at - now)
                    self.tracer.finish(traces[position], resolved_at - now, cached=True)
                    ticket._fulfil(position, row, resolved_at, snapshot.generation)
                ticket.cached = len(hits) == len(block)
        return ticket

    def submit(self, embedding: np.ndarray, *, tenant: Optional[str] = None) -> QueryTicket:
        """Queue one query embedding; returns immediately with a ticket.

        The query waits up to ``max_latency_s`` for company.  ``tenant``
        routes it to that tenant's deployment (requires a multi-tenant
        source); unknown tenants fail here, before queueing.
        """
        row = np.asarray(embedding, dtype=np.float64).reshape(1, -1)
        ticket = self._enqueue(row, tenant, self.max_latency_s)
        with self._wakeup:
            if self._threads:
                self._wakeup.notify()  # a flusher times the row's window
                return ticket
            batch = self._take_batch_locked() if len(self._pending) >= self.max_batch_size else []
        if batch:
            self._execute(batch)
        return ticket

    def submit_block(self, embeddings: np.ndarray, *, tenant: Optional[str] = None) -> QueryTicket:
        """Queue a whole frame of embeddings behind one ticket.

        Its sender has nothing to add until it is answered, so the rows
        are due at once: the calling thread classifies batches itself
        while an executor slot is free and the frame is unanswered.  Rows
        it leaves behind wait for a flusher, only while every slot is busy.
        """
        block = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        ticket = self._enqueue(block, tenant, 0.0)
        while True:
            with self._wakeup:
                if ticket.done() or (self._threads and self._busy >= self.n_executors):
                    return ticket
                batch = self._take_batch_locked()
            if not batch:  # the rest of the frame is running on other threads
                return ticket
            self._execute(batch)

    def classify(
        self,
        embeddings: np.ndarray,
        *,
        timeout: Optional[float] = _DEFAULT_RESULT_TIMEOUT_S,
        tenant: Optional[str] = None,
    ) -> List[Prediction]:
        """Submit a block of embeddings and wait for all results."""
        return self.submit_block(embeddings, tenant=tenant).results(timeout)

    # -------------------------------------------------------------------- flush
    def _take_batch_locked(self) -> List[_Row]:
        """Pop the next batch off ``_pending`` (wakeup lock held).

        A batch classifies against exactly one snapshot, so it must hold
        exactly one tenant: take the oldest query's tenant and collect up
        to ``max_batch_size`` queries for the *same* tenant, preserving
        per-tenant FIFO order.  Other tenants' queries stay queued and form
        the next batch.  A non-empty batch holds an executor slot until
        :meth:`_execute` resolves it.
        """
        if not self._pending:
            return []
        self._busy += 1
        tenant = self._pending[0].ticket.tenant
        batch: List[_Row] = []
        kept: List[_Row] = []
        for row in self._pending:
            if row.ticket.tenant == tenant and len(batch) < self.max_batch_size:
                batch.append(row)
            else:
                kept.append(row)
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
                while self._running:
                    remaining = None  # idle or every slot busy: whoever frees one notifies
                    if self._pending and self._busy < self.n_executors:
                        if len(self._pending) >= self.max_batch_size:
                            break
                        earliest = min(row.ticket.deadline for row in self._pending)
                        remaining = earliest - time.monotonic()
                        if remaining <= 0:
                            break
                    self._wakeup.wait(remaining)
                batch = self._take_batch_locked()
                if not batch:
                    return  # stopped and drained
            self._execute(batch)

    # ------------------------------------------------------------------ execute
    def _execute(self, batch: Sequence[_Row]) -> None:
        tenant = batch[0].ticket.tenant  # _take_batch_locked guarantees one tenant per batch
        execute_start = time.monotonic()
        collector = obs_tracing.push() if any(row.trace is not None for row in batch) else None
        failure = None
        try:
            with obs_tracing.timed("batch_assemble", batch_size=len(batch)):
                embeddings = np.stack([row.embedding for row in batch])
            # Resolved per batch: a tenant dropped between submit and execute
            # must fail these tickets, not crash the flusher thread.
            snapshot = self._source_for(tenant).snapshot()
            # Compact read-only copies: a cached row never pins its batch.
            rows = ranked_rows(snapshot.predict(embeddings))
        except Exception as error:
            failure = f"{type(error).__name__}: {error}"
        finally:
            if collector is not None:
                obs_tracing.pop()
        now = time.monotonic()
        self._batches.inc()
        self._largest_batch.set_max(len(batch))
        (self._completed if failure is None else self._failed).inc(len(batch))
        self._observe_batch(batch, execute_start, now, collector, failed=failure is not None)
        with self._wakeup:
            self._busy -= 1
            if self._pending:
                self._wakeup.notify()  # the freed slot goes to a waiting flusher
            if failure is not None:
                for row in batch:
                    row.ticket._fail(failure, now)
                return
            if self.cache_size:
                # Key under the snapshot actually served, so a swap between
                # submit and execute can't poison the cache.
                served = (tenant, self._snapshot_token(snapshot))
                for pending, row in zip(batch, rows):
                    self._cache[(served, pending.key)] = row
                    self._cache.move_to_end((served, pending.key))
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
            for pending, row in zip(batch, rows):
                pending.ticket._fulfil(pending.position, row, now, snapshot.generation)

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
        for row in batch:
            queue_wait = execute_start - row.ticket.submitted_at
            queue_waits.append(queue_wait)
            latency = resolved_at - row.ticket.submitted_at
            latencies.append(latency)
            trace = row.trace
            if trace is not None:
                trace.add("queue_wait", queue_wait)
                trace.add("batch_execute", batch_seconds, batch_size=len(batch))
                if collector:
                    trace.extend(collector)
            self.tracer.finish(trace, latency, failed=failed)
        # Batched observes: two lock round-trips per batch, not per query.
        self._queue_wait_hist.observe_many(queue_waits)
        self._latency_hist.observe_many(latencies)
