"""Shard executors: who answers a scatter, and in which process.

A served :class:`~repro.core.reference_store.ReferenceStore` hands every
scatter (its live shards plus one query block) to a :class:`ReplicaSet`,
which routes it to one of R replicas: an
:class:`~repro.core.reference_store.InProcessShardExecutor` answers
serially in the calling thread, a :class:`ProcessShardExecutor` fans
shards out to worker processes.  Both answer a shard with its index's own
``search``.  Segment bytes and their lifetimes belong to
:mod:`repro.serving.transport`; this module moves only tasks and answers.
:class:`ShardedReferenceStore` is the store with the serving defaults.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import queue
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.reference_store import InProcessShardExecutor, ReferenceStore
from repro.obs import tracing as obs_tracing
from repro.serving.transport import (
    SegmentPublisher,
    ServingError,
    attach_segment,
    unpack_payload,
)


def _shard_worker(requests, responses) -> None:
    """Worker loop: answer shard searches against published segments.

    Attachments (and the index restored over them) are cached per shard uid
    and refreshed only when the request carries a newer shard version, so a
    steady-state request ships nothing but the query block.  Every task
    carries its executor's search number; a uid not requested for
    ``SegmentPublisher._EVICT_AFTER_CALLS`` searches — the publisher's own
    retirement rule, and a copy-on-write swap retires a uid for good — is
    unmapped, so a worker's mappings follow the live shards, not the update
    history.  Eviction is always safe: a later task for the uid re-attaches
    the segment its search pinned.
    """
    cache: Dict[int, tuple] = {}  # uid -> (version, attachment, vectors, index, n_rows)
    last_used: Dict[int, int] = {}  # uid -> search number of its latest task
    while True:
        task = requests.get()
        if task is None:
            break
        request_id, search, uid = task[:3]
        last_used[uid] = search
        for stale in [
            other
            for other, last in last_used.items()
            if search - last > SegmentPublisher._EVICT_AFTER_CALLS
        ]:
            del last_used[stale]
            _forget(cache, stale)
        try:
            responses.put((request_id, *_search_shard(cache, *task[2:])))
        except Exception as error:  # keep the worker alive; surface the failure
            responses.put((request_id, None, None, f"{type(error).__name__}: {error}", 0.0, False))
    for uid in list(cache):
        _forget(cache, uid)


def _search_shard(cache, uid, version, segment, n_rows, index_spec, queries, k):
    """One task's ``(distances, ids, None, scan_s, native)`` against the
    cached attachment of ``uid``, (re)attached when the version moved."""
    entry = cache.get(uid)
    if entry is None or entry[0] != version:
        # Unmap the superseded version before attaching the new one: a
        # failed attach or state adoption then leaves no entry behind,
        # never one pointing at a closed segment.
        entry = None
        _forget(cache, uid)
        attachment = attach_segment(segment)
        vectors, index = unpack_payload(attachment.arrays, index_spec)
        entry = cache[uid] = (version, attachment, vectors, index, n_rows)
    _, _, vectors, index, n_rows = entry
    scan_start = time.perf_counter()
    distances, ids = index.search(vectors, queries, min(int(k), n_rows))
    scan_s = time.perf_counter() - scan_start
    # Piggyback the scan timing + kernel-dispatch flag on the response
    # tuple: shard-level histograms aggregate in the parent with zero
    # extra IPC.
    return distances, ids, None, scan_s, index.kernels_active()


def _forget(cache: Dict[int, tuple], uid: int) -> None:
    """Drop ``uid``'s cached index and vectors, then unmap its segment (the
    views must be gone first, or the unmap would wait for GC)."""
    entry = cache.pop(uid, None)
    if entry is not None:
        attachment = entry[1]
        del entry
        attachment.close()


class ProcessShardExecutor:
    """Scatter shard searches across worker processes.

    Each shard version is published once by ``publisher``, the
    :class:`~repro.serving.transport.SegmentPublisher` its
    :class:`ReplicaSet` shares and closes; workers keep the attachment (and
    the restored index) cached until the version moves, so adaptation
    republishes only the shard it touched, and unmap a shard this executor
    has stopped requesting (see :func:`_shard_worker`).

    ``search`` is serialised with a lock: the scatter shares one response
    queue, so two overlapping calls (e.g. a connection thread running a
    batch and an adaptation swap recalibrating an open-world detector)
    must not interleave their collections.  Replicated deployments get concurrency
    *across* executors instead: a :class:`ReplicaSet` routes each call to
    one of R executors, whose locks are independent.

    A worker that dies fails the scatter waiting on it (and every later
    one) with a :class:`~repro.serving.transport.ServingError` naming it,
    instead of holding the lock until the response timeout.
    """

    _RESPONSE_TIMEOUT_S = 120.0
    # Responses are collected in waits this short; only a wait that comes
    # back empty checks whether a worker still owing an answer has died.
    _LIVENESS_WAIT_S = 0.5

    def __init__(self, n_workers: int, *, publisher: SegmentPublisher) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        start_method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        context = multiprocessing.get_context(start_method)
        self._requests = [context.Queue() for _ in range(n_workers)]
        self._responses = context.Queue()
        self._workers = [
            context.Process(target=_shard_worker, args=(requests, self._responses), daemon=True)
            for requests in self._requests
        ]
        for worker in self._workers:
            worker.start()
        self._publisher = publisher
        self._request_counter = 0
        self._search_counter = 0  # the clock workers evict stale attachments by
        self._search_lock = threading.Lock()
        self._closed = False

    def search(
        self, shards: Sequence, queries: np.ndarray, k: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Scatter the query block to the workers, one task per shard, and
        collect per-shard ``(distances, local ids)`` (serialised; see above)."""
        with self._search_lock:
            if self._closed:
                raise ServingError("the shard executor has been closed")
            self._publisher.begin_search()
            self._search_counter += 1
            pinned: List[int] = []
            try:
                return self._scatter(shards, queries, k, pinned)
            finally:
                # Unpin this call's segments, then evict whatever churn
                # retired — safe under load because pinned segments (other
                # replicas' in-flight scatters) are never touched.
                self._publisher.release(pinned)
                self._publisher.evict_stale()

    def _scatter(
        self,
        shards: Sequence,
        queries: np.ndarray,
        k: int,
        pinned: List[int],
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        pending: Dict[int, int] = {}
        for position, shard in enumerate(shards):
            segment = self._publisher.publish(shard)
            pinned.append(shard.uid)
            request_id = self._request_counter
            self._request_counter += 1
            task = (
                request_id,
                self._search_counter,
                shard.uid,
                shard.version,
                segment,
                shard.size,
                shard.index.spec(),
                queries,
                k,
            )
            self._requests[position % len(self._requests)].put(task)
            pending[request_id] = position
        results: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(shards)
        failure: Optional[str] = None
        trace_spans = obs_tracing.enabled()
        idle_s = 0.0
        while pending:
            try:
                request_id, distances, ids, error, scan_s, native = self._responses.get(
                    timeout=self._LIVENESS_WAIT_S
                )
            except queue.Empty:
                idle_s += self._LIVENESS_WAIT_S
                for position in pending.values():
                    worker = self._workers[position % len(self._workers)]
                    if not worker.is_alive():
                        raise ServingError(
                            f"shard worker {worker.pid} died with exit code {worker.exitcode} "
                            "while a search was pending"
                        )
                if idle_s >= self._RESPONSE_TIMEOUT_S:
                    raise ServingError(f"timed out after {idle_s:.0f} s waiting for shard workers")
                continue
            position = pending.pop(request_id, None)
            if position is None:  # stale response from an aborted call
                continue
            if error is not None:
                failure = failure or error
                continue
            if trace_spans:
                # The worker measured its own scan; replay it into the
                # parent's collector so shard histograms aggregate here.
                obs_tracing.record(
                    "shard_scan", scan_s, shard=shards[position].uid, native=bool(native)
                )
            results[position] = (distances, ids)
        if failure is not None:
            raise ServingError(f"shard worker failed: {failure}")
        return results  # type: ignore[return-value]

    def close(self) -> None:
        """Stop the workers (the shared publication is the replica set's)."""
        with self._search_lock:
            if self._closed:
                return
            self._closed = True
        for requests in self._requests:
            with contextlib.suppress(Exception):
                requests.put(None)
        for worker in self._workers:
            worker.join(timeout=10.0)
            if worker.is_alive():
                worker.terminate()

    def __del__(self) -> None:  # best effort
        with contextlib.suppress(Exception):
            self.close()


# --------------------------------------------------------------------- replicas
ROUTERS = ("round_robin", "least_loaded")


class ReplicaSet:
    """R read replicas of the shard scatter behind one router.

    Read scaling for the serving layer: every replica answers against the
    *same* logical store, so a query can go to any of them, and concurrent
    callers (the scheduler's batch executors, several front-end
    connections) fan out instead of serialising on one executor's lock.
    Process-backed replicas share one
    :class:`~repro.serving.transport.SegmentPublisher`, passed here as
    ``publisher`` and closed with the set: the published index segments
    (PQ codes + codebooks, or float32 embeddings) are attached by every
    replica's workers, so R replicas cost R worker pools but only *one*
    copy of the corpus in shared memory.

    ``router`` picks the replica per call: ``"round_robin"`` rotates,
    ``"least_loaded"`` sends to the replica with the fewest in-flight
    searches (ties break to the lowest id, so single-threaded callers see
    deterministic routing).
    """

    def __init__(
        self,
        replicas: Sequence[object],
        *,
        router: str = "least_loaded",
        publisher: Optional[SegmentPublisher] = None,
    ) -> None:
        replicas = list(replicas)
        if not replicas:
            raise ValueError("a replica set needs at least one replica")
        if router not in ROUTERS:
            raise ValueError(f"unknown router {router!r}; expected one of {ROUTERS}")
        if publisher is None and any(isinstance(r, ProcessShardExecutor) for r in replicas):
            raise ValueError("process replicas need the publisher they share")
        self.router = router
        self._replicas = replicas
        self._publisher = publisher
        self._inflight = [0] * len(replicas)
        self._routed = [0] * len(replicas)
        self._alive = [True] * len(replicas)
        self._next = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------ construction
    @classmethod
    def in_process(cls, n_replicas: int, *, router: str = "least_loaded") -> "ReplicaSet":
        """Thread-level replicas (no worker processes): each call scans in
        the calling thread, so concurrency comes from the callers."""
        if n_replicas <= 0:
            raise ValueError("n_replicas must be positive")
        return cls([InProcessShardExecutor() for _ in range(n_replicas)], router=router)

    @classmethod
    def processes(
        cls,
        n_replicas: int,
        *,
        n_workers: int = 2,
        router: str = "least_loaded",
    ) -> "ReplicaSet":
        """Process-backed replicas attaching one shared publication."""
        if n_replicas <= 0:
            raise ValueError("n_replicas must be positive")
        publisher = SegmentPublisher()
        replicas = [
            ProcessShardExecutor(n_workers, publisher=publisher) for _ in range(n_replicas)
        ]
        return cls(replicas, router=router, publisher=publisher)

    # ------------------------------------------------------------------- state
    @property
    def n_replicas(self) -> int:
        """How many replica executors the router spreads across."""
        return len(self._replicas)

    def routed_counts(self) -> List[int]:
        """How many searches each replica has answered (router telemetry)."""
        with self._lock:
            return list(self._routed)

    def inflight_counts(self) -> List[int]:
        """Searches currently executing per replica (health telemetry: a
        replica whose depth only grows is stuck, one pinned at zero under
        load is starved)."""
        with self._lock:
            return list(self._inflight)

    def alive_flags(self) -> List[bool]:
        """Which replicas the router currently routes to (see :meth:`kill`)."""
        with self._lock:
            return list(self._alive)

    # ----------------------------------------------------------- fault injection
    def kill(self, position: int) -> None:
        """Drain one replica out of the router rotation.

        Drain semantics, not process murder: the router stops picking the
        replica for *new* searches while in-flight ones run to completion,
        which is exactly the zero-failed-queries contract a rolling restart
        (or the scenario engine's ``replica-flap`` fault) needs.  Killing
        the last live replica is refused — the router would have nowhere to
        send traffic and every query would fail.
        """
        with self._lock:
            self._check_position(position)
            if self._alive[position] and sum(self._alive) == 1:
                raise ServingError("cannot kill the last live replica")
            self._alive[position] = False

    def restore(self, position: int) -> None:
        """Bring a drained replica back into the router rotation."""
        with self._lock:
            self._check_position(position)
            self._alive[position] = True

    def _check_position(self, position: int) -> None:
        if not 0 <= position < len(self._replicas):
            raise ServingError(f"replica {position} does not exist (have {len(self._replicas)})")

    def published_bytes(self) -> Dict[int, int]:
        """Segment bytes of the shared publication (empty for in-process
        replicas, which attach nothing)."""
        return {} if self._publisher is None else self._publisher.published_bytes()

    # ------------------------------------------------------------------ search
    def _acquire(self) -> int:
        with self._lock:
            live = [idx for idx in range(len(self._replicas)) if self._alive[idx]]
            if not live:
                raise ServingError("no live replicas to route to")
            if self.router == "round_robin":
                position = live[self._next % len(live)]
                self._next += 1
            else:
                position = min(live, key=lambda idx: (self._inflight[idx], idx))
            self._inflight[position] += 1
            self._routed[position] += 1
            return position

    def search(
        self, shards: Sequence, queries: np.ndarray, k: int, metric: str
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Route one scatter to a replica picked by the configured router.

        ``metric`` is always ``"euclidean"``, the one distance a store
        measures; the parameter remains only because the benchmark's timing
        proxy wraps this four-argument call, and goes with those proxies.
        """
        position = self._acquire()
        try:
            # Eviction of retired segments happens inside the replica's own
            # search (pin-protected in the shared publisher), so sustained
            # load cannot starve it.
            return self._replicas[position].search(shards, queries, k)
        finally:
            with self._lock:
                self._inflight[position] -= 1

    # ------------------------------------------------------------------- close
    def close(self) -> None:
        """Close every replica and the shared publication (if any)."""
        for replica in self._replicas:
            with contextlib.suppress(Exception):
                replica.close()
        if self._publisher is not None:
            self._publisher.close()


class ShardedReferenceStore(ReferenceStore):
    """A :class:`~repro.core.reference_store.ReferenceStore` with the
    serving defaults: two shards, scattered through one in-process replica
    (so a deployment always reads a :class:`ReplicaSet` from ``executor``)."""

    def __init__(
        self, embedding_dim: int, n_shards: int = 2, *, executor: Optional[ReplicaSet] = None,
        **options,
    ) -> None:
        executor = executor if executor is not None else ReplicaSet.in_process(1)
        super().__init__(embedding_dim, n_shards, executor=executor, **options)
