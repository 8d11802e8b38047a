"""Micro-batched query scheduling for the serving layer.

The batched :meth:`~repro.core.classifier.KNNClassifier.predict` path is an
order of magnitude cheaper per query than classifying one trace at a time.
:class:`BatchScheduler` coalesces the rows of concurrent requests into
micro-batches of at most ``max_batch_size`` rows, and every batch
classifies against one consistent
:class:`~repro.serving.manager.ServingSnapshot`, so an adaptation swap
mid-stream can never tear a batch.

An LRU cache keyed on ``(snapshot cache token, quantized embedding bytes)``
short-circuits repeated queries — the paper's victims revisit pages, and
TLS traces quantize to identical embeddings more often than raw floats
suggest.  An entry is a compact read-only
:class:`~repro.core.classifier.RankedRow` (class codes, scores and the
snapshot's class names), never a shared mutable :class:`Prediction`, and
it holds only its own row, not the batch it was ranked in.  The cache
token is the snapshot's ``(deployment serial, generation)``: the
generation invalidates the whole cache the moment an adaptation swap
lands, and the serial, unique to each
:class:`~repro.serving.manager.DeploymentManager` in the process, keeps
one deployment's predictions from ever being served for another — another
tenant, a redeployment, or a tenant re-created under a dropped one's name,
whose generations count from 0 again.

The scheduler starts no threads.  A block of rows comes in through
:meth:`submit_block` and is due at once (its sender has nothing to add
until it is answered), so the thread that hands it in runs batches
itself: while its block is unanswered and an executor slot is free, it
takes the next batch off the queue — its own rows, or rows another thread
queued earlier — and classifies it.  Otherwise it sleeps on the
scheduler's condition until a batch finishes.  At most ``n_executors``
batches run at once, one per read replica of a
:class:`~repro.serving.executors.ReplicaSet`, so rows coalesce across
connections exactly while every executor is busy.  Every queued row has
a thread waiting for it: a block that gives up (its ``timeout`` passes or
its thread is interrupted) takes its rows that have not started back out
of the queue.

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
    """The answer to one block of rows, filled in under the scheduler's
    lock as the block's batches finish.

    Each row is answered with a read-only :class:`RankedRow` (possibly the
    very one the result cache holds); :meth:`results` builds fresh
    :class:`Prediction` objects from them on every call, so no caller can
    mutate what another — or the cache — sees."""

    __slots__ = ("_rows", "_remaining", "_error", "tenant", "submitted_at",
                 "completed_at", "cached", "generation")

    def __init__(self, n_rows: int, tenant: Optional[str], submitted_at: float) -> None:
        self._rows: List[Optional[RankedRow]] = [None] * n_rows
        self._remaining = n_rows
        self._error: Optional[str] = None
        self.tenant = tenant
        self.submitted_at = submitted_at
        self.completed_at: Optional[float] = None
        self.cached = False  # every row was answered from the prediction cache
        # Newest generation among the snapshots that actually served the
        # rows — a swap can land between submit and execute, so callers
        # reporting generations (the front-end's RESULT frames) must read it
        # here, not from a snapshot they grabbed before submitting.
        self.generation: Optional[int] = None

    # _fulfil/_fail run under the scheduler's lock: the rows of one block
    # can resolve from different batches on different threads.
    def _fulfil(
        self, position: int, row: RankedRow, completed_at: float, generation: int
    ) -> None:
        self._rows[position] = row
        if self.generation is None or generation > self.generation:
            self.generation = generation
        self._remaining -= 1
        if self._remaining == 0 and self._error is None:
            self.completed_at = completed_at

    def _fail(self, message: str, completed_at: float) -> None:
        if self._error is None:  # the first failed batch fails the block
            self._error = message
            self.completed_at = completed_at

    def done(self) -> bool:
        """Whether the block has been answered (successfully or not)."""
        return self._remaining == 0 or self._error is not None

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

    def rows(self) -> List[RankedRow]:
        """One read-only ranking per row, in order.  Raises
        ``ServingError`` if the block failed or timed out."""
        if self._error is not None:
            raise ServingError(f"query failed: {self._error}")
        return list(self._rows)  # type: ignore[arg-type]

    def results(self) -> List[Prediction]:
        """:meth:`rows` as fresh predictions, one per row, in order."""
        return [row.prediction() for row in self.rows()]

    def result(self) -> Prediction:
        """:meth:`results` for a one-row block: its one prediction."""
        return self.rows()[0].prediction()


class _Row(NamedTuple):
    """One pending query row; its tenant is its ticket's."""

    embedding: np.ndarray
    key: Optional[bytes]  # quantized embedding bytes (None = cache disabled)
    ticket: QueryTicket
    position: int  # row index within the ticket
    trace: Optional[QueryTrace]  # spans of a sampled row (see repro.obs.tracing)


class BatchScheduler:
    """Coalesce concurrent blocks into micro-batches, classified on the
    threads that hand the blocks in."""

    def __init__(
        self,
        source,
        *,
        max_batch_size: int = 64,
        cache_size: int = 4096,
        n_executors: int = 1,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        """``source`` is anything with ``snapshot() -> ServingSnapshot``
        (a :class:`~repro.serving.manager.DeploymentManager` in practice).

        ``n_executors`` bounds how many batches classify at once; match
        it to the store's replica count so a
        :class:`~repro.serving.executors.ReplicaSet` can spread them.

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
        if cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if n_executors <= 0:
            raise ValueError("n_executors must be positive")
        self._source = source
        self.max_batch_size = int(max_batch_size)
        self.cache_size = int(cache_size)
        self.n_executors = int(n_executors)
        self._pending: List[_Row] = []
        # Guards _pending, _busy, _cache and every ticket; callers wait on
        # it for a free executor slot or for their block's answer.
        self._wakeup = threading.Condition()
        self._busy = 0  # batches executing now
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

    # ---------------------------------------------------------------- lifecycle
    def __enter__(self) -> "BatchScheduler":
        """No threads to start or stop; kept for ``bench/server.py``'s ``with scheduler``."""
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    # ------------------------------------------------------------------- submit
    @staticmethod
    def _snapshot_token(snapshot) -> object:
        """The snapshot state a cached prediction depends on: its
        deployment and generation (see the module docstring)."""
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

    def _enqueue(self, block: np.ndarray, tenant: Optional[str]) -> QueryTicket:
        """Queue the ``(n, dim)`` ``block`` as one ticket.  The tenant is
        resolved and every row keyed before anything is queued, so a block
        is queued whole or not at all; one lock acquisition then answers
        the cache hits and queues the misses."""
        now = time.monotonic()
        ticket = QueryTicket(len(block), tenant, now)
        snapshot = self._source_for(tenant).snapshot()
        traces = [self.tracer.maybe_trace() for _ in range(len(block))]
        token = self._snapshot_token(snapshot)
        keys: Sequence[Optional[bytes]] = [None] * len(block)
        if self.cache_size:
            quantized = np.round(block, _CACHE_DECIMALS) + 0.0  # collapse -0.0
            keys = [row.tobytes() for row in quantized]
        hits: List[Tuple[int, RankedRow]] = []
        with self._wakeup:
            self._submitted.inc(len(block))
            for position, (embedding, key, trace) in enumerate(zip(block, keys, traces)):
                started = time.perf_counter() if trace is not None else 0.0
                cached = self._cache.get((token, key)) if self.cache_size else None
                if trace is not None and self.cache_size:
                    trace.add("cache_lookup", time.perf_counter() - started, hit=cached is not None)
                if cached is None:
                    self._pending.append(_Row(embedding, key, ticket, position, trace))
                else:
                    self._cache.move_to_end((token, key))
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

    def submit_block(
        self,
        embeddings: np.ndarray,
        *,
        tenant: Optional[str] = None,
        timeout: float = _DEFAULT_RESULT_TIMEOUT_S,
    ) -> QueryTicket:
        """Queue a block of embeddings behind one ticket; return it answered.

        The calling thread runs batches itself while an executor slot is
        free and its block is unanswered, and otherwise waits until a batch
        finishes.  ``tenant`` routes the block to that tenant's deployment
        (requires a multi-tenant source); an unknown tenant fails here,
        before anything is queued.  Once ``timeout`` seconds pass, the
        block's rows that have not started leave the queue and the ticket
        fails.
        """
        block = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        ticket = self._enqueue(block, tenant)
        deadline = ticket.submitted_at + timeout
        reason = "the waiting thread was interrupted"
        try:
            while True:
                with self._wakeup:
                    if ticket.done():
                        break
                    if not (self._pending and self._busy < self.n_executors):
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            reason = "timed out waiting for the query result"
                            break
                        self._wakeup.wait(remaining)
                        continue
                    batch = self._take_batch_locked()
                self._execute(batch)
        finally:
            if not ticket.done() or ticket.failed:
                with self._wakeup:
                    self._withdraw_locked(ticket, reason)
        return ticket

    def classify(
        self,
        embeddings: np.ndarray,
        *,
        timeout: float = _DEFAULT_RESULT_TIMEOUT_S,
        tenant: Optional[str] = None,
    ) -> List[Prediction]:
        """:meth:`submit_block`, answered as fresh predictions."""
        return self.submit_block(embeddings, tenant=tenant, timeout=timeout).results()

    def _take_batch_locked(self) -> List[_Row]:
        """Pop the next batch off ``_pending`` (wakeup lock held).

        A batch classifies against exactly one snapshot, so it must hold
        exactly one tenant: take the oldest query's tenant and collect up
        to ``max_batch_size`` queries for the *same* tenant, preserving
        per-tenant FIFO order.  Other tenants' queries stay queued and form
        the next batch.  The batch holds an executor slot until
        :meth:`_execute` resolves it.
        """
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

    def _withdraw_locked(self, ticket: QueryTicket, reason: str) -> None:
        """Fail an unanswered ``ticket`` and take its rows that have not
        started out of ``_pending`` (wakeup lock held), so no row stays
        queued once nobody waits for it."""
        if ticket.done() and not ticket.failed:
            return
        now = time.monotonic()
        withdrawn = [row for row in self._pending if row.ticket is ticket]
        if withdrawn:
            self._pending[:] = [row for row in self._pending if row.ticket is not ticket]
            self._failed.inc(len(withdrawn))
            latency = now - ticket.submitted_at
            self._latency_hist.observe_many([latency] * len(withdrawn))
            for row in withdrawn:
                self.tracer.finish(row.trace, latency, failed=True)
        ticket._fail(reason, now)

    # ------------------------------------------------------------------ execute
    def _execute(self, batch: Sequence[_Row]) -> None:
        tenant = batch[0].ticket.tenant  # _take_batch_locked guarantees one tenant per batch
        execute_start = time.monotonic()
        collector = obs_tracing.push() if any(row.trace is not None for row in batch) else None
        failure = interrupt = None
        try:
            with obs_tracing.timed("batch_assemble", batch_size=len(batch)):
                embeddings = np.stack([row.embedding for row in batch])
            # Resolved per batch: a tenant dropped between submit and execute
            # must fail these tickets, not the thread running the batch.
            snapshot = self._source_for(tenant).snapshot()
            # Compact read-only copies: a cached row never pins its batch.
            rows = ranked_rows(snapshot.predict(embeddings))
        except BaseException as error:
            # Anything that escapes predict fails the batch and frees its
            # slot below; an interrupt (KeyboardInterrupt, SystemExit) is
            # then re-raised in the thread it hit.
            failure = f"{type(error).__name__}: {error}"
            if not isinstance(error, Exception):
                interrupt = error
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
            if failure is not None:
                for row in batch:
                    row.ticket._fail(failure, now)
            else:
                if self.cache_size:
                    # Key under the snapshot actually served, so a swap between
                    # submit and execute can't poison the cache.
                    served = self._snapshot_token(snapshot)
                    for pending, row in zip(batch, rows):
                        self._cache[(served, pending.key)] = row
                        self._cache.move_to_end((served, pending.key))
                    while len(self._cache) > self.cache_size:
                        self._cache.popitem(last=False)
                for pending, row in zip(batch, rows):
                    pending.ticket._fulfil(pending.position, row, now, snapshot.generation)
            # A slot is free and tickets are answered: every waiting caller rechecks.
            self._wakeup.notify_all()
        if interrupt is not None:
            raise interrupt

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
