"""Sharded reference corpus: the storage layer of the serving subsystem.

A production deployment of the paper's fingerprinter holds reference
embeddings for thousands of monitored pages and must answer a continuous
query stream while the corpus churns.  :class:`ShardedReferenceStore`
partitions the monitored classes across ``n_shards`` independent
:class:`~repro.core.reference_store.ReferenceStore` + index pairs and
answers a query by scatter-gathering per-shard top-k candidates and merging
them by ``(distance, global id)``.

Two properties make the sharded store a drop-in for the flat one:

* **Global row ids.**  Every reference keeps the row number it would occupy
  in a single flat :class:`ReferenceStore` fed the same mutation sequence,
  and removals renumber ids exactly like the flat store's compaction.
  Merged ``search`` results are therefore directly comparable to — and
  bit-for-bit interchangeable with — a single-process exact baseline.
* **The flat read surface.**  ``len``, ``embedding_dim``, ``class_names``,
  ``label_codes``, ``class_counts`` … are all provided, so
  :class:`~repro.core.classifier.KNNClassifier` and
  :class:`~repro.core.openworld.OpenWorldDetector` work against a sharded
  store unchanged.

Shard scatter always runs through a :class:`ReplicaSet` — the store's
``executor`` — which routes each call to one of its R replicas (default:
one in-process replica).  A replica is an
:class:`InProcessShardExecutor`, which answers serially in the calling
process (deterministic, zero overhead), or a
:class:`ProcessShardExecutor`, which fans shards out to worker processes that
attach each shard's payload — trained index state (e.g. IVF-PQ codes +
codebooks) plus the embedding matrix only when the index needs raw
vectors — as :mod:`repro.core.segment` ``RSG1`` segments, republished only
when a shard actually changes.  Each shard's ``storage_tier`` picks the
medium: ``shm`` keeps the segment resident in POSIX shared memory (hot
shards), ``mmap`` spills the identical bytes to a file that workers map
read-only, so cold shards are served straight off the page cache.
"""

from __future__ import annotations

import contextlib
import itertools
import mmap
import multiprocessing
import os
import shutil
import tempfile
import threading
import time
import zlib
from collections import Counter
from multiprocessing import shared_memory
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np
from scipy.spatial.distance import cdist

from repro.core.index import NearestNeighbourIndex, index_from_spec, top_k_by_distance
from repro.core.reference_store import LabelEncoding, ReferenceStore, validate_reference_batch
from repro.core.segment import read_segment, segment_size, write_segment, write_segment_file
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import MetricsRegistry


class ServingError(RuntimeError):
    """A serving-layer component failed or was misused."""


_shard_uids = itertools.count()

#: Where a shard's published segment lives: ``"shm"`` copies it into POSIX
#: shared memory (hot shards, zero-syscall attach), ``"mmap"`` spills it to
#: a file that workers map read-only so the ADC scan reads codes straight
#: off the page cache (cold shards cost no dedicated resident memory).
STORAGE_TIERS = ("shm", "mmap")


class _Shard:
    """One partition: a reference store plus its local-row -> global-row map.

    ``uid`` identifies the shard across copy-on-write clones (a clone that
    *shares* the underlying store keeps the uid, so executor-side caches
    stay warm) and ``version`` counts mutations of the underlying store
    (bumped whenever the embedding matrix changes, so executors know when
    to republish).  ``tier`` picks the publication medium (see
    :data:`STORAGE_TIERS`).
    """

    __slots__ = ("store", "global_ids", "uid", "version", "tier")

    def __init__(
        self,
        store: ReferenceStore,
        global_ids: np.ndarray,
        *,
        uid: Optional[int] = None,
        version: int = 0,
        tier: str = "shm",
    ) -> None:
        self.store = store
        self.global_ids = global_ids
        self.uid = next(_shard_uids) if uid is None else uid
        self.version = version
        self.tier = tier


# --------------------------------------------------------------------- executors
def _search_shard_vectors(
    vectors: Optional[np.ndarray],
    index: NearestNeighbourIndex,
    queries: np.ndarray,
    k: int,
    metric: str,
    n_rows: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shard-local search with the same metric dispatch as ReferenceStore.

    ``vectors`` may be ``None`` when the shard was published as compressed
    index state only (an IVF-PQ shard with ``rerank == 0``); such shards can
    only answer their index's own metric.
    """
    if n_rows is None:
        n_rows = vectors.shape[0]
    k = min(int(k), n_rows)
    if metric == index.metric:
        return index.search(vectors, queries, k)
    if vectors is None:
        raise ServingError(
            f"shard was published without raw vectors and cannot answer metric {metric!r}"
        )
    distances = cdist(queries, vectors, metric=metric)
    return top_k_by_distance(distances, k)


_STATE_PREFIX = "state__"


def _shard_payload(store: ReferenceStore) -> Dict[str, np.ndarray]:
    """Arrays a shard publishes into its shared-memory segment.

    Always the trained index state (so workers never re-run k-means); the
    raw embedding matrix — in the store's storage dtype, so a float32 store
    publishes half the bytes — only when the index still needs it.  A
    trained IVF-PQ shard with ``rerank == 0`` therefore ships only uint8
    codes + codebooks: ~16-32x smaller segments, and republish after an
    adaptation swap is proportionally cheaper.
    """
    arrays = {
        f"{_STATE_PREFIX}{name}": np.ascontiguousarray(array)
        for name, array in store.index.state().items()
    }
    if store.index.needs_vectors:
        arrays["vectors"] = store.embeddings
    return arrays


class _ShmSegmentHandle:
    """Publisher-side handle of a hot-tier publication: one RSG1 segment
    written into a POSIX shared-memory block."""

    kind = "shm"
    __slots__ = ("_segment", "size")

    def __init__(self, arrays: Dict[str, np.ndarray]) -> None:
        self.size = segment_size(arrays)
        self._segment = shared_memory.SharedMemory(create=True, size=self.size)
        write_segment(self._segment.buf, arrays)

    @property
    def location(self) -> str:
        return self._segment.name

    @property
    def resident(self) -> bool:
        return True

    def unlink(self) -> None:
        try:
            self._segment.close()
            self._segment.unlink()
        except Exception:
            pass


class _FileSegmentHandle:
    """Publisher-side handle of a cold-tier publication: the same RSG1
    bytes spilled to a file that workers mmap read-only, so the shard's
    codes live in the page cache instead of dedicated shared memory."""

    kind = "mmap"
    __slots__ = ("_path", "size")

    def __init__(self, arrays: Dict[str, np.ndarray], path: Path) -> None:
        write_segment_file(path, arrays)
        self._path = path
        self.size = path.stat().st_size

    @property
    def location(self) -> str:
        return str(self._path)

    @property
    def resident(self) -> bool:
        return False

    def unlink(self) -> None:
        try:
            os.unlink(self._path)
        except OSError:
            pass


class _SegmentAttachment:
    """A worker-side attachment of one published segment (shm or mmap);
    ``arrays`` are read-only zero-copy views over the shared bytes."""

    __slots__ = ("arrays", "_closer")

    def __init__(self, arrays: Dict[str, np.ndarray], closer: object) -> None:
        self.arrays = arrays
        self._closer = closer

    def close(self) -> None:
        try:
            self._closer.close()
        except Exception:
            pass  # live views keep the mapping alive until GC


def _attach_segment(kind: str, location: str) -> _SegmentAttachment:
    """Attach a published segment by tier kind and parse it (CRC-checked
    once per attach; steady-state requests reuse the cached attachment)."""
    if kind == "shm":
        segment = shared_memory.SharedMemory(name=location)
        _untrack_shared_memory(segment)
        return _SegmentAttachment(read_segment(segment.buf), segment)
    if kind != "mmap":
        raise ServingError(f"unknown segment tier {kind!r}; expected one of {STORAGE_TIERS}")
    with open(location, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        arrays = read_segment(mapped)
    except BaseException:
        # The in-flight exception's traceback can still reference buffer
        # views of the mapping; GC releases it once the error is handled.
        with contextlib.suppress(BufferError):
            mapped.close()
        raise
    return _SegmentAttachment(arrays, mapped)


def _untrack_shared_memory(segment: shared_memory.SharedMemory) -> None:
    """Detach an *attached* segment from this process's resource tracker.

    On CPython <= 3.12 merely attaching registers the segment with the
    tracker, which would unlink the parent-owned segment when the worker
    exits; the parent alone manages segment lifetime.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")  # noqa: SLF001
    except Exception:
        pass


def _shard_worker(requests, responses) -> None:
    """Worker loop: answer shard searches against shared-memory payloads.

    Attachments (and the index restored over them) are cached per shard uid
    and refreshed only when the request carries a newer shard version, so a
    steady-state request ships nothing but the query block.  The published
    payload carries the trained index state, so a worker adopts centroids /
    codebooks / codes directly instead of re-running k-means per version.
    """
    cache: Dict[
        int, Tuple[int, _SegmentAttachment, Optional[np.ndarray], NearestNeighbourIndex, int]
    ] = {}
    while True:
        task = requests.get()
        if task is None:
            break
        request_id, uid, version, tier, location, n_rows, index_spec, queries, k, metric = task
        try:
            entry = cache.get(uid)
            if entry is None or entry[0] != version:
                # Attach and restore the *new* version before touching the
                # old attachment: if the attach or the state adoption
                # raises, the stale cache entry is evicted (never left
                # pointing at a closed segment) and the old mapping is
                # released; on success the old attachment is closed only
                # after the new one fully took over.
                try:
                    attachment = _attach_segment(tier, location)
                    arrays = attachment.arrays
                    vectors = arrays.get("vectors")
                    state = {
                        name[len(_STATE_PREFIX) :]: array
                        for name, array in arrays.items()
                        if name.startswith(_STATE_PREFIX)
                    }
                    index = index_from_spec(index_spec)
                    if state:
                        index.load_state(state)
                    elif vectors is not None:
                        index.rebuild(vectors)
                except BaseException:
                    stale = cache.pop(uid, None)
                    if stale is not None:
                        stale[1].close()
                    raise
                if entry is not None:
                    entry[1].close()
                cache[uid] = (version, attachment, vectors, index, n_rows)
            _, _, vectors, index, n_rows = cache[uid]
            scan_start = time.perf_counter()
            distances, ids = _search_shard_vectors(vectors, index, queries, k, metric, n_rows)
            scan_s = time.perf_counter() - scan_start
            # Piggyback the scan timing + kernel-dispatch flag on the
            # response tuple: shard-level histograms aggregate in the
            # parent with zero extra IPC.
            native = index.kernels_active()
            responses.put((request_id, distances, ids, None, scan_s, native))
        except Exception as error:  # keep the worker alive; surface the failure
            responses.put((request_id, None, None, f"{type(error).__name__}: {error}", 0.0, False))
    for _, attachment, _, _, _ in cache.values():
        attachment.close()


class InProcessShardExecutor:
    """Answer shard searches serially in the calling process.

    The deterministic replica kind (:meth:`ReplicaSet.in_process`): useful
    for tests, CI and small shard counts where process fan-out overhead
    exceeds the search itself.
    """

    def search(
        self, shards: Sequence[_Shard], queries: np.ndarray, k: int, metric: str
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-shard ``(distances, local ids)``, answered serially in-process."""
        if not obs_tracing.enabled():
            return [shard.store.search(queries, k, metric=metric) for shard in shards]
        results = []
        for shard in shards:
            scan_start = time.perf_counter()
            results.append(shard.store.search(queries, k, metric=metric))
            obs_tracing.record(
                "shard_scan",
                time.perf_counter() - scan_start,
                shard=shard.uid,
                native=shard.store.index.kernels_active(),
            )
        return results

    def close(self) -> None:
        """Nothing owned; exists so every executor shares one lifecycle."""


class SegmentPublisher:
    """Owns the shared-memory publication of shard payloads.

    One publisher can back several :class:`ProcessShardExecutor` replicas
    (see :class:`ReplicaSet`): every replica's workers attach the *same*
    segment for a given shard version, so R read replicas cost one
    publication — the ~16-32x smaller IVF-PQ segments are shared, not
    copied.  All methods are thread-safe; replica searches run
    concurrently on different threads.

    Segments whose shard has not been queried for a while — a
    copy-on-write swap retires the old shard's uid for good — are unlinked
    automatically, so long-running adaptation churn does not accumulate
    shared memory.
    """

    # A published segment is evicted after this many search calls without
    # its shard appearing; in-flight snapshots re-publish on demand.
    _EVICT_AFTER_CALLS = 8

    def __init__(self, spill_dir: Union[str, os.PathLike, None] = None) -> None:
        # uid -> (version, handle | None); a ``None`` handle marks a slot
        # another thread is packing right now.
        self._published: Dict[int, Tuple[int, Optional[object]]] = {}
        self._last_used: Dict[int, int] = {}
        # uid -> number of in-flight searches using the segment.  A pinned
        # segment is never unlinked — not by eviction and not by a
        # republish at a newer version: a worker may sit between the
        # publish and its attach, and removing the name under it would
        # fail the attach.
        self._pins: Dict[int, int] = {}
        # uid -> superseded segment handles still pinned; unlinked when the
        # uid's last pin is released.
        self._retired: Dict[int, List[object]] = {}
        self._search_calls = 0
        self._cond = threading.Condition()
        self._closed = False
        # mmap-tier shards spill their segment files here; a publisher that
        # creates its own directory removes it on close.
        self._spill_dir: Optional[Path] = Path(spill_dir) if spill_dir is not None else None
        self._owns_spill_dir = False

    @staticmethod
    def _unlink(handle: object) -> None:
        handle.unlink()

    def _spill_path(self, uid: int, version: int) -> Path:
        with self._cond:
            if self._spill_dir is None:
                self._spill_dir = Path(tempfile.mkdtemp(prefix="repro-segments-"))
                self._owns_spill_dir = True
            spill_dir = self._spill_dir
        spill_dir.mkdir(parents=True, exist_ok=True)
        return spill_dir / f"shard-{uid}-v{version}.rsg"

    def _pack(self, shard: _Shard) -> object:
        """Serialise one shard's payload into its tier's medium."""
        arrays = _shard_payload(shard.store)
        tier = getattr(shard, "tier", "shm")
        if tier == "mmap":
            return _FileSegmentHandle(arrays, self._spill_path(shard.uid, shard.version))
        return _ShmSegmentHandle(arrays)

    def begin_search(self) -> None:
        """Tick the search clock the stale-segment eviction runs against."""
        with self._cond:
            self._search_calls += 1

    def publish(self, shard: _Shard) -> Tuple[str, str]:
        """The ``(tier kind, location)`` of a shard's RSG1 segment — a shm
        block name or a spilled file path — packing at most once per shard
        version and **pinning** the segment for the caller's search (pair
        every successful call with :meth:`release`).

        Packing runs *outside* the lock: one replica republishing a large
        shard after an adaptation swap must not stall the other replicas'
        scatters.  Racing publishers for the same ``(uid, version)`` wait
        on the packer instead of packing twice.
        """
        uid, version = shard.uid, shard.version
        with self._cond:
            while True:
                if self._closed:
                    raise ServingError("the segment publisher has been closed")
                self._last_used[uid] = self._search_calls
                entry = self._published.get(uid)
                if entry is not None and entry[0] == version:
                    if entry[1] is not None:
                        self._pins[uid] = self._pins.get(uid, 0) + 1
                        return entry[1].kind, entry[1].location
                    self._cond.wait()  # another thread is packing this version
                    continue
                if entry is not None and entry[1] is None:
                    # An older version is still packing; wait it out rather
                    # than racing it for the slot.
                    self._cond.wait()
                    continue
                old = entry
                self._published[uid] = (version, None)  # claim the slot
                break
        try:
            handle = self._pack(shard)
        except BaseException:
            with self._cond:
                if old is not None and not self._closed:
                    self._published[uid] = old  # keep serving the old version
                else:
                    self._published.pop(uid, None)
                    if old is not None and old[1] is not None:
                        # close() already ran and never saw the old segment
                        # (the dict held our pending slot): unlink it here.
                        old[1].unlink()
                self._cond.notify_all()
            raise
        with self._cond:
            if old is not None and old[1] is not None:
                if self._pins.get(uid, 0) > 0:
                    # A search pinned the superseded version and its worker
                    # may not have attached yet; unlink when the pins drop.
                    self._retired.setdefault(uid, []).append(old[1])
                else:
                    # Workers already attached keep the old mapping alive;
                    # unlinking only removes the name, which nobody will
                    # attach again.
                    self._unlink(old[1])
            if self._closed:
                handle.unlink()
                self._published.pop(uid, None)
                self._cond.notify_all()
                raise ServingError("the segment publisher has been closed")
            self._published[uid] = (version, handle)
            self._pins[uid] = self._pins.get(uid, 0) + 1
            self._cond.notify_all()
            return handle.kind, handle.location

    def release(self, uids: Iterable[int]) -> None:
        """Drop the pins a search took via :meth:`publish` (call once the
        scatter's responses are all collected)."""
        with self._cond:
            for uid in uids:
                remaining = self._pins.get(uid, 0) - 1
                if remaining > 0:
                    self._pins[uid] = remaining
                else:
                    self._pins.pop(uid, None)
                    for handle in self._retired.pop(uid, ()):
                        self._unlink(handle)

    def published_bytes(self) -> Dict[int, int]:
        """Segment size per published shard uid (monitoring: this is what
        the PQ/float32 publication path shrinks)."""
        with self._cond:
            return {
                uid: entry[1].size
                for uid, entry in self._published.items()
                if entry[1] is not None
            }

    def published_tier_bytes(self) -> Dict[str, int]:
        """Published segment bytes split by tier: ``"shm"`` is resident
        shared memory, ``"mmap"`` is file-backed page-cache bytes, so
        moving shards to the cold tier shows up as the resident number
        dropping."""
        with self._cond:
            totals = {"shm": 0, "mmap": 0}
            for _, handle in self._published.values():
                if handle is not None:
                    totals[handle.kind] += handle.size
            return totals

    def evict_stale(self) -> None:
        """Unlink segments of shards that stopped being queried.

        Pinned segments (a search between publish and worker attach) and
        slots still packing are always kept, so this is safe to call after
        every search, under load, from any replica's thread.
        """
        with self._cond:
            stale = [
                uid
                for uid, last in self._last_used.items()
                if self._search_calls - last > self._EVICT_AFTER_CALLS
                and self._pins.get(uid, 0) == 0
                and uid in self._published
                and self._published[uid][1] is not None
            ]
            for uid in stale:
                _, handle = self._published.pop(uid)
                del self._last_used[uid]
                self._unlink(handle)

    def close(self) -> None:
        """Unlink every published (and retired) segment, remove an owned
        spill directory, and refuse new work."""
        with self._cond:
            self._closed = True
            for _, handle in self._published.values():
                if handle is None:
                    continue  # the packing thread unlinks it when it lands
                self._unlink(handle)
            for retired in self._retired.values():
                for handle in retired:
                    self._unlink(handle)
            self._published.clear()
            self._last_used.clear()
            self._pins.clear()
            self._retired.clear()
            if self._owns_spill_dir and self._spill_dir is not None:
                shutil.rmtree(self._spill_dir, ignore_errors=True)
                self._spill_dir = None
                self._owns_spill_dir = False
            self._cond.notify_all()


class ProcessShardExecutor:
    """Scatter shard searches across worker processes.

    Each shard's payload — its trained index state, plus the embedding
    matrix (in the store's storage dtype) only when the index still needs
    raw vectors — is published at most once per shard version into a
    shared-memory segment (via a :class:`SegmentPublisher`, optionally
    shared across read replicas); workers attach read-only and keep the
    attachment (plus the restored index) cached until the version moves.
    Adaptation therefore republishes only the shard it touched — the
    copy-on-write story end to end.  A trained IVF-PQ shard with
    ``rerank == 0`` ships only uint8 codes + codebooks, so its segment is
    ~16-32x smaller than the raw float64 matrix at scale.

    Workers adopt the published index state directly (no per-worker
    k-means); only a stateless index (exact, or an untrained quantizer)
    falls back to rebuilding from the published vectors.

    ``search`` is serialised with a lock: the scatter shares one response
    queue, so two overlapping calls (e.g. the batch flusher thread and an
    adaptation swap recalibrating an open-world detector) must not
    interleave their collections.  Replicated deployments get concurrency
    *across* executors instead: a :class:`ReplicaSet` routes each call to
    one of R executors, whose locks are independent.
    """

    _RESPONSE_TIMEOUT_S = 120.0

    def __init__(
        self,
        n_workers: int = 2,
        *,
        publisher: Optional[SegmentPublisher] = None,
    ) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        start_method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        context = multiprocessing.get_context(start_method)
        self._requests = [context.Queue() for _ in range(n_workers)]
        self._responses = context.Queue()
        self._workers = [
            context.Process(target=_shard_worker, args=(queue, self._responses), daemon=True)
            for queue in self._requests
        ]
        for worker in self._workers:
            worker.start()
        self._publisher = publisher if publisher is not None else SegmentPublisher()
        self._owns_publisher = publisher is None
        self._request_counter = 0
        self._search_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------- publication
    def published_bytes(self) -> Dict[int, int]:
        """Published segment size per shard uid."""
        return self._publisher.published_bytes()

    def published_tier_bytes(self) -> Dict[str, int]:
        """Published bytes split by storage tier (shm-resident vs mmap)."""
        return self._publisher.published_tier_bytes()

    # ------------------------------------------------------------------ search
    def search(
        self, shards: Sequence[_Shard], queries: np.ndarray, k: int, metric: str
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Scatter the query block to the workers, one task per shard, and
        collect per-shard ``(distances, local ids)`` (serialised; see above)."""
        with self._search_lock:
            if self._closed:
                raise ServingError("the shard executor has been closed")
            self._publisher.begin_search()
            pinned: List[int] = []
            try:
                return self._scatter(shards, queries, k, metric, pinned)
            finally:
                # Unpin this call's segments, then evict whatever churn
                # retired — safe under load because pinned segments (other
                # replicas' in-flight scatters) are never touched.
                self._publisher.release(pinned)
                self._publisher.evict_stale()

    def _scatter(
        self,
        shards: Sequence[_Shard],
        queries: np.ndarray,
        k: int,
        metric: str,
        pinned: List[int],
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        pending: Dict[int, int] = {}
        for position, shard in enumerate(shards):
            kind, location = self._publisher.publish(shard)
            pinned.append(shard.uid)
            request_id = self._request_counter
            self._request_counter += 1
            task = (
                request_id,
                shard.uid,
                shard.version,
                kind,
                location,
                len(shard.store),
                shard.store.index.spec(),
                queries,
                k,
                metric,
            )
            self._requests[position % len(self._requests)].put(task)
            pending[request_id] = position
        results: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * len(shards)
        failure: Optional[str] = None
        trace_spans = obs_tracing.enabled()
        while pending:
            try:
                request_id, distances, ids, error, scan_s, native = self._responses.get(
                    timeout=self._RESPONSE_TIMEOUT_S
                )
            except Exception as exc:
                raise ServingError(f"timed out waiting for shard workers: {exc!r}") from exc
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

    # ------------------------------------------------------------------- close
    def close(self) -> None:
        """Stop the workers and (when owned) unlink the publication."""
        with self._search_lock:
            if self._closed:
                return
            self._closed = True
        for queue in self._requests:
            try:
                queue.put(None)
            except Exception:
                pass
        for worker in self._workers:
            worker.join(timeout=10.0)
            if worker.is_alive():
                worker.terminate()
        if self._owns_publisher:
            self._publisher.close()

    def __del__(self) -> None:  # best effort
        try:
            self.close()
        except Exception:
            pass


# --------------------------------------------------------------------- replicas
ROUTERS = ("round_robin", "least_loaded")


class ReplicaSet:
    """R read replicas of the shard scatter behind one router.

    Read scaling for the serving layer: every replica answers against the
    *same* logical store, so a query can go to any of them, and concurrent
    callers (the scheduler's batch executors, several front-end
    connections) fan out instead of serialising on one executor's lock.
    Process-backed replicas share one :class:`SegmentPublisher`: the
    published index segments (PQ codes + codebooks, or float32 embeddings)
    are attached by every replica's workers, so R replicas cost R worker
    pools but only *one* copy of the corpus in shared memory — which is
    what the ~16-32x smaller IVF-PQ segments make affordable.

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

    @property
    def replicas(self) -> List[object]:
        """The replica executors (a copy; routing state stays internal)."""
        return list(self._replicas)

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
            if not 0 <= position < len(self._replicas):
                raise ServingError(
                    f"replica {position} does not exist (have {len(self._replicas)})"
                )
            if self._alive[position] and sum(self._alive) == 1:
                raise ServingError("cannot kill the last live replica")
            self._alive[position] = False

    def restore(self, position: int) -> None:
        """Bring a drained replica back into the router rotation."""
        with self._lock:
            if not 0 <= position < len(self._replicas):
                raise ServingError(
                    f"replica {position} does not exist (have {len(self._replicas)})"
                )
            self._alive[position] = True

    def published_bytes(self) -> Dict[int, int]:
        """Segment bytes of the shared publication (empty for in-process
        replicas, which attach nothing)."""
        if self._publisher is not None:
            return self._publisher.published_bytes()
        for replica in self._replicas:
            reader = getattr(replica, "published_bytes", None)
            if reader is not None:
                return reader()
        return {}

    def published_tier_bytes(self) -> Dict[str, int]:
        """Published bytes by storage tier (zeros for in-process replicas)."""
        if self._publisher is not None:
            return self._publisher.published_tier_bytes()
        for replica in self._replicas:
            reader = getattr(replica, "published_tier_bytes", None)
            if reader is not None:
                return reader()
        return {"shm": 0, "mmap": 0}

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
        self, shards: Sequence[_Shard], queries: np.ndarray, k: int, metric: str
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Route one scatter to a replica picked by the configured router."""
        position = self._acquire()
        try:
            # Eviction of retired segments happens inside the replica's own
            # search (pin-protected in the shared publisher), so sustained
            # load cannot starve it.
            return self._replicas[position].search(shards, queries, k, metric)
        finally:
            with self._lock:
                self._inflight[position] -= 1

    # ------------------------------------------------------------------- close
    def close(self) -> None:
        """Close every replica and the shared publication (if any)."""
        for replica in self._replicas:
            close = getattr(replica, "close", None)
            if close is not None:
                try:
                    close()
                except Exception:
                    pass
        if self._publisher is not None:
            self._publisher.close()


# ----------------------------------------------------------------- sharded store
ASSIGNMENT_POLICIES = ("hash", "balanced")


class ShardedReferenceStore:
    """Monitored classes partitioned across per-shard store+index pairs.

    Classes (never individual references) are the unit of placement, so an
    adaptation step touches exactly one shard.  ``assignment`` picks the
    shard for a class never seen before: ``"hash"`` is stable across
    deployments (CRC32 of the label), ``"balanced"`` greedily places new
    classes on the currently smallest shard.  ``replace_class`` keeps a
    class pinned to its shard, so churn never migrates data between shards.
    """

    def __init__(
        self,
        embedding_dim: int,
        n_shards: int = 2,
        *,
        assignment: str = "hash",
        index_factory: Optional[Callable[[], NearestNeighbourIndex]] = None,
        executor: Optional["ReplicaSet"] = None,
        storage_dtype: str = "float64",
        storage_tier: str = "shm",
    ) -> None:
        """``executor`` is the :class:`ReplicaSet` every scatter routes
        through (duck-typed, so a delegating proxy works too); the default
        is one in-process replica."""
        if embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if assignment not in ASSIGNMENT_POLICIES:
            raise ValueError(
                f"unknown assignment policy {assignment!r}; expected one of {ASSIGNMENT_POLICIES}"
            )
        if storage_tier not in STORAGE_TIERS:
            raise ValueError(
                f"unknown storage tier {storage_tier!r}; expected one of {STORAGE_TIERS}"
            )
        self.embedding_dim = int(embedding_dim)
        self.n_shards = int(n_shards)
        self.assignment = assignment
        self.storage_dtype = np.dtype(storage_dtype).name
        self.storage_tier = storage_tier
        self.index_factory: Callable[[], NearestNeighbourIndex] = (
            index_factory if index_factory is not None else lambda: index_from_spec(None)
        )
        self._executor = executor if executor is not None else ReplicaSet.in_process(1)
        self._shards: List[_Shard] = [
            _Shard(
                ReferenceStore(
                    self.embedding_dim,
                    index=self.index_factory(),
                    storage_dtype=self.storage_dtype,
                ),
                np.empty(0, dtype=np.int64),
                tier=self.storage_tier,
            )
            for _ in range(self.n_shards)
        ]
        self._class_shard: Dict[str, int] = {}
        # The global ledger: the same label encoding a flat store fed the
        # identical mutation sequence would hold (see reference_store.py).
        self._encoding = LabelEncoding()
        self._codes: np.ndarray = np.empty(0, dtype=np.int64)
        self._size = 0
        self._generation = 0
        self._obs: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------ construction
    @classmethod
    def from_reference_store(
        cls,
        store: ReferenceStore,
        n_shards: int = 2,
        *,
        assignment: str = "hash",
        index_factory: Optional[Callable[[], NearestNeighbourIndex]] = None,
        executor: Optional["ReplicaSet"] = None,
        storage_dtype: Optional[str] = None,
        storage_tier: str = "shm",
    ) -> "ShardedReferenceStore":
        """Shard an existing flat store (global ids == its current row ids).

        The flat store's storage dtype carries over unless overridden.
        """
        if index_factory is None:
            spec = store.index.spec()
            index_factory = lambda: index_from_spec(spec)  # noqa: E731
        sharded = cls(
            store.embedding_dim,
            n_shards,
            assignment=assignment,
            index_factory=index_factory,
            executor=executor,
            storage_dtype=storage_dtype
            if storage_dtype is not None
            else getattr(store, "storage_dtype", "float64"),
            storage_tier=storage_tier,
        )
        if len(store):
            sharded.add(store.embeddings, list(store.labels))
        return sharded

    # ------------------------------------------------------------------- state
    def __len__(self) -> int:
        return self._size

    @property
    def generation(self) -> int:
        """Monotonic mutation counter (cache keys, staleness checks)."""
        return self._generation

    @property
    def executor(self) -> "ReplicaSet":
        """The replica set every shard scatter routes through."""
        return self._executor

    @property
    def class_names(self) -> List[str]:
        """Code -> label mapping (codes are first-occurrence ordered)."""
        return list(self._encoding.names)

    @property
    def classes(self) -> List[str]:
        """Distinct class labels in insertion order."""
        return list(self._encoding.names)

    @property
    def n_classes(self) -> int:
        """How many classes are currently monitored."""
        return len(self._encoding.names)

    @property
    def label_codes(self) -> np.ndarray:
        """Per-row integer class codes in *global* row order (read-only)."""
        view = self._codes[: self._size]
        view.flags.writeable = False
        return view

    @property
    def labels(self) -> np.ndarray:
        """Per-row labels in *global* row order (decoded object array)."""
        names = np.array(self._encoding.names, dtype=object)
        return names[self._codes[: self._size]] if self._size else np.empty(0, dtype=object)

    @property
    def embeddings(self) -> np.ndarray:
        """The (N, dim) matrix in *global* row order (gathered; O(N) copy)."""
        out = np.empty((self._size, self.embedding_dim), dtype=self.storage_dtype)
        for shard in self._shards:
            if len(shard.store):
                out[shard.global_ids] = shard.store.embeddings
        out.flags.writeable = False
        return out

    def memory_bytes(self) -> int:
        """Resident bytes across shards (buffers + index side structures)."""
        return sum(shard.store.memory_bytes() for shard in self._shards)

    def class_counts(self) -> Dict[str, int]:
        """Reference count per class label."""
        return {
            name: int(self._encoding.counts[code])
            for code, name in enumerate(self._encoding.names)
        }

    def has_class(self, label: str) -> bool:
        """Whether any references carry ``label``."""
        return label in self._encoding.index

    def __contains__(self, label: str) -> bool:
        return self.has_class(label)

    def index_spec(self) -> Dict[str, object]:
        """The per-shard index spec (every shard shares the factory).

        Part of the scheduler's cache key: two deployments with different
        index configurations (e.g. ivfpq ``rerank=0`` vs ``exact``) must
        never share cached predictions, even at equal generation numbers.
        """
        return self._shards[0].store.index.spec()

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        """Register the store's search instruments on ``registry``.

        Until attached, ``search`` pays nothing for telemetry (copy-on-write
        clones inherit the attachment, so one call covers every swapped
        store).  Registers: ``repro_store_searches_total``,
        ``repro_store_scatter_seconds``, ``repro_store_merge_seconds`` and
        ``repro_store_shard_scan_seconds{native=yes|no}`` — the shard-scan
        histogram aggregates the per-call timings worker processes
        piggyback on their scatter responses.
        """
        self._obs = {
            "searches": registry.counter(
                "repro_store_searches_total", "Merged scatter-gather searches answered."
            ),
            "scatter": registry.histogram(
                "repro_store_scatter_seconds",
                "Time scattering one query block across the live shards.",
            ),
            "merge": registry.histogram(
                "repro_store_merge_seconds",
                "Time merging per-shard candidates by (distance, global id).",
            ),
            "shard_scan": registry.histogram(
                "repro_store_shard_scan_seconds",
                "Per-shard scan time, split by native-kernel vs NumPy-fallback dispatch.",
                labels=("native",),
            ),
        }

    def kernel_status(self) -> Dict[str, object]:
        """Native ADC-kernel status of the scan path the shards run.

        Merges the process-global compiler/build state
        (:func:`repro.core.kernels.kernel_status`) with the per-index
        ``native_kernels`` mode from the shard spec, so ``repro serve``
        operators can see from ``info`` whether queries actually
        hit the fused C scan or the NumPy fallback.  Worker processes
        inherit the mode through the environment, so the front-end
        process's view is authoritative for the whole replica set.
        """
        from repro.core.kernels import kernel_status, resolve_mode

        status = dict(kernel_status())
        index_mode = self.index_spec().get("native_kernels")
        if index_mode is not None:
            status["index_mode"] = index_mode
            status["resolved_mode"] = resolve_mode(str(index_mode))
            status["active"] = bool(status["active"]) and status["resolved_mode"] != "off"
        return status

    def shard_sizes(self) -> List[int]:
        """Row count per shard (the rebalance trigger reads the spread)."""
        return [len(shard.store) for shard in self._shards]

    def shard_spread(self) -> float:
        """Row-count skew across shards: ``(max - min) / mean`` (0 when empty).

        The rebalance trigger: hot-class churn (one page gaining references
        while its shardmates shrink) drives this up, and with it the tail
        latency of every scatter — the merge waits for the largest shard.
        """
        sizes = self.shard_sizes()
        total = sum(sizes)
        if total == 0:
            return 0.0
        return (max(sizes) - min(sizes)) / (total / len(sizes))

    def shard_memory_bytes(self) -> List[int]:
        """Resident bytes per shard (embedding buffer + index structures)."""
        return [shard.store.memory_bytes() for shard in self._shards]

    def shard_tiers(self) -> List[str]:
        """The storage tier each shard publishes through (see
        :data:`STORAGE_TIERS`)."""
        return [shard.tier for shard in self._shards]

    def set_storage_tier(self, tier: str, shard_ids: Optional[Iterable[int]] = None) -> None:
        """Move shards between the hot (``shm``) and cold (``mmap``) tiers.

        Applies to every shard unless ``shard_ids`` narrows it.  Changed
        shards bump their version, so process executors republish through
        the new medium on the next scatter; results are bit-identical
        either way — only where the segment bytes live changes.
        """
        if tier not in STORAGE_TIERS:
            raise ValueError(f"unknown storage tier {tier!r}; expected one of {STORAGE_TIERS}")
        targets = range(self.n_shards) if shard_ids is None else shard_ids
        changed = False
        for shard_id in targets:
            shard = self._shards[shard_id]
            if shard.tier != tier:
                shard.tier = tier
                shard.version += 1
                changed = True
        if shard_ids is None:
            self.storage_tier = tier
        if changed:
            self._generation += 1

    def published_tier_bytes(self) -> Dict[str, int]:
        """Published segment bytes by tier, from the replica set's publisher
        (zeros when it publishes nothing, i.e. in-process replicas)."""
        return self._executor.published_tier_bytes()

    def _place(self, label: str, sizes: Sequence[int]) -> int:
        """Pick a shard for a class not placed yet (the single policy site)."""
        if self.assignment == "hash":
            return zlib.crc32(str(label).encode("utf-8")) % self.n_shards
        return int(np.argmin(sizes))

    def shard_of(self, label: str) -> int:
        """Which shard holds (or would hold) a class's references."""
        existing = self._class_shard.get(label)
        if existing is not None:
            return existing
        return self._place(label, [len(shard.store) for shard in self._shards])

    def class_embeddings(self, label: str) -> np.ndarray:
        """The references of one class (from the shard that owns it)."""
        shard_id = self._class_shard.get(label)
        if shard_id is None:
            raise KeyError(f"no references with label {label!r}")
        return self._shards[shard_id].store.class_embeddings(label)

    # ---------------------------------------------------------------- mutation
    def add(self, embeddings: np.ndarray, labels: Iterable[str]) -> None:
        """Append references; whole classes are routed to their shard."""
        embeddings, labels = validate_reference_batch(embeddings, labels, self.embedding_dim)
        n_new = embeddings.shape[0]
        if n_new == 0:
            return
        # Route any new classes (first-occurrence order keeps "balanced"
        # deterministic; counts of rows arriving in this same call are part
        # of the balance).
        occurrences = Counter(labels)
        planned = np.array([len(shard.store) for shard in self._shards], dtype=np.int64)
        for label in dict.fromkeys(labels):
            if label not in self._class_shard:
                self._class_shard[label] = self._place(label, planned)
            planned[self._class_shard[label]] += occurrences[label]

        codes = self._encoding.encode(labels)
        global_ids = np.arange(self._size, self._size + n_new, dtype=np.int64)
        self._codes = np.concatenate([self._codes, codes])
        self._size += n_new

        shard_of_row = np.array([self._class_shard[label] for label in labels], dtype=np.int64)
        for shard_id in np.unique(shard_of_row):
            mask = shard_of_row == shard_id
            shard = self._shards[shard_id]
            shard.store.add(
                embeddings[mask], [label for label, hit in zip(labels, mask) if hit]
            )
            shard.global_ids = np.concatenate([shard.global_ids, global_ids[mask]])
            shard.version += 1
        self._generation += 1

    def remove_class(self, label: str) -> int:
        """Drop a class; global ids renumber exactly like flat compaction."""
        code = self._encoding.code_of(label)
        if code is None:
            raise KeyError(f"no references with label {label!r}")
        shard = self._shards[self._class_shard[label]]
        local_code = shard.store.class_names.index(label)
        local_kept = (shard.store.label_codes != local_code).copy()
        removed_global_ids = np.sort(shard.global_ids[~local_kept])
        shard.store.remove_class(label)
        shard.global_ids = shard.global_ids[local_kept]
        shard.version += 1

        global_kept = self._codes != code
        new_codes = self._codes[global_kept]
        new_codes[new_codes > code] -= 1
        self._codes = new_codes
        removed = self._size - int(global_kept.sum())
        self._size = int(global_kept.sum())
        self._encoding.drop(code)
        del self._class_shard[label]

        for other in self._shards:
            if other.global_ids.size:
                other.global_ids = other.global_ids - np.searchsorted(
                    removed_global_ids, other.global_ids
                )
        self._generation += 1
        return removed

    def replace_class(self, label: str, embeddings: np.ndarray) -> None:
        """Swap one class's references (stays on its shard — the paper's
        adaptation step, sharded)."""
        label = str(label)
        embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        pinned = self._class_shard.get(label)
        if label in self._encoding.index:
            self.remove_class(label)
        if pinned is not None:
            self._class_shard[label] = pinned
        self.add(embeddings, [label] * embeddings.shape[0])

    # ----------------------------------------------------------- requantization
    def drift_ratio(self) -> float:
        """The worst per-shard quantizer drift ratio (1.0 = no drift signal);
        see :meth:`repro.core.index.IVFPQIndex.drift_ratio`."""
        ratios = [
            shard.store.index.drift_ratio() for shard in self._shards if len(shard.store)
        ]
        return max(ratios) if ratios else 1.0

    def retrain_needed(self, *, threshold: float = 1.5, min_samples: int = 64) -> bool:
        """Whether any shard's quantizer has drifted past ``threshold``."""
        return any(
            shard.store.retrain_needed(threshold=threshold, min_samples=min_samples)
            for shard in self._shards
            if len(shard.store)
        )

    def requantize(self, *, sample_size: Optional[int] = None) -> None:
        """Re-train every shard's quantizer in place (serving deployments
        should prefer :meth:`with_requantized` behind a snapshot swap)."""
        for shard in self._shards:
            if len(shard.store):
                shard.store.requantize(sample_size=sample_size)
                shard.version += 1
        self._generation += 1

    def with_requantized(
        self, *, sample_size: Optional[int] = None
    ) -> "ShardedReferenceStore":
        """A copy-on-write clone with every shard's quantizer re-trained on
        its current rows (``self`` untouched).

        Each non-empty shard is materialised — its index state changes, so
        sharing the store with the original would tear in-flight searches —
        and re-encoded via :meth:`ReferenceStore.requantize`.  Fresh shard
        uids make executors republish the new codes/codebooks; global row
        ids, labels and the embedding matrix are untouched, so only the
        quantization (and therefore recall) changes.
        """
        touched = {
            shard_id for shard_id, shard in enumerate(self._shards) if len(shard.store)
        }
        clone = self._cow_clone(touched)
        for shard_id in touched:
            clone._shards[shard_id].store.requantize(sample_size=sample_size)
        clone._generation += 1
        return clone

    # --------------------------------------------------------------- rebalance
    def _move_class(self, label: str, src: int, dst: int) -> None:
        """Relocate one class's rows between shards, global ids untouched.

        The global ledger (encoding, codes, row ids) never changes — only
        which shard answers for those rows — so merged search results are
        bit-identical before and after the move.
        """
        donor = self._shards[src]
        local_code = donor.store.class_names.index(label)
        mask = donor.store.label_codes == local_code
        moved_ids = donor.global_ids[mask].copy()
        embeddings = np.array(donor.store.class_embeddings(label), dtype=np.float64, copy=True)
        donor.store.remove_class(label)
        donor.global_ids = donor.global_ids[~mask]
        donor.version += 1
        recipient = self._shards[dst]
        recipient.store.add(embeddings, [label] * embeddings.shape[0])
        recipient.global_ids = np.concatenate([recipient.global_ids, moved_ids])
        recipient.version += 1
        self._class_shard[label] = dst

    def _rebalance_plan(
        self, threshold: float, max_moves: Optional[int]
    ) -> List[Tuple[str, int, int]]:
        """Greedy class moves shrinking the max-min row spread.

        Pure simulation over ``(sizes, class placement)`` — no store is
        touched — so copy-on-write rebalancing knows which shards to
        materialise before mutating anything.  Each step moves, from the
        fullest to the emptiest shard, the class whose row count lands
        closest to half the spread; a class at least as large as the spread
        would overshoot and is never moved.
        """
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        sizes = self.shard_sizes()
        total = sum(sizes)
        if total == 0 or self.n_shards < 2:
            return []
        placement = dict(self._class_shard)
        counts = self.class_counts()
        budget = max_moves if max_moves is not None else 2 * max(1, len(counts))
        mean = total / self.n_shards
        moves: List[Tuple[str, int, int]] = []
        while len(moves) < budget:
            spread = max(sizes) - min(sizes)
            if spread <= threshold * mean:
                break
            donor = int(np.argmax(sizes))
            recipient = int(np.argmin(sizes))
            best: Optional[Tuple[float, str]] = None
            for label, shard_id in placement.items():
                count = counts[label]
                if shard_id != donor or not 0 < count < spread:
                    continue
                # Prefer the class closest to spread/2; labels break ties so
                # the plan is deterministic.
                goodness = min(count, spread - count)
                if best is None or (goodness, label) > (best[0], best[1]):
                    best = (goodness, label)
            if best is None:
                break  # the donor holds one class bigger than the spread
            label = best[1]
            placement[label] = recipient
            sizes[donor] -= counts[label]
            sizes[recipient] += counts[label]
            moves.append((label, donor, recipient))
        return moves

    def rebalance(
        self, *, threshold: float = 0.25, max_moves: Optional[int] = None
    ) -> List[Tuple[str, int, int]]:
        """Move classes off overloaded shards until the row spread is within
        ``threshold * mean`` (in place; see :meth:`with_rebalanced` for the
        serving-safe copy-on-write variant).

        Returns the ``(label, from_shard, to_shard)`` moves applied.
        Global row ids — and therefore merged search results and
        predictions — are unchanged; only scatter load shifts.
        """
        moves = self._rebalance_plan(threshold, max_moves)
        for label, src, dst in moves:
            self._move_class(label, src, dst)
        if moves:
            self._generation += 1
        return moves

    def with_rebalanced(
        self, *, threshold: float = 0.25, max_moves: Optional[int] = None
    ) -> Tuple["ShardedReferenceStore", List[Tuple[str, int, int]]]:
        """A rebalanced copy-on-write clone (``self`` untouched) plus the
        moves applied; returns ``(self, [])`` when already balanced."""
        moves = self._rebalance_plan(threshold, max_moves)
        if not moves:
            return self, []
        touched = {src for _, src, _ in moves} | {dst for _, _, dst in moves}
        clone = self._cow_clone(touched)
        for label, src, dst in moves:
            clone._move_class(label, src, dst)
        clone._generation += 1
        return clone, moves

    # ----------------------------------------------------------- copy-on-write
    def _cow_clone(self, materialise: Set[int]) -> "ShardedReferenceStore":
        """Clone sharing every shard's store except the ``materialise``d ones.

        Shared shards keep their uid/version, so executor-side caches stay
        warm; materialised shards get a deep-copied store (and a fresh uid)
        that the clone may mutate without the original ever observing it.
        """
        clone = ShardedReferenceStore.__new__(ShardedReferenceStore)
        clone.embedding_dim = self.embedding_dim
        clone.n_shards = self.n_shards
        clone.assignment = self.assignment
        clone.storage_dtype = self.storage_dtype
        clone.storage_tier = self.storage_tier
        clone.index_factory = self.index_factory
        clone._executor = self._executor
        clone._obs = self._obs  # swapped clones keep reporting to the same instruments
        clone._class_shard = dict(self._class_shard)
        clone._encoding = self._encoding.clone()
        clone._codes = self._codes.copy()
        clone._size = self._size
        clone._generation = self._generation
        clone._shards = []
        for shard_id, shard in enumerate(self._shards):
            if shard_id in materialise:
                # Deep copy including the trained index state — no k-means
                # retrain on an adaptation swap (the retraining-free story).
                clone._shards.append(
                    _Shard(shard.store.clone(), shard.global_ids.copy(), tier=shard.tier)
                )
            else:
                clone._shards.append(
                    _Shard(
                        shard.store,
                        shard.global_ids.copy(),
                        uid=shard.uid,
                        version=shard.version,
                        tier=shard.tier,
                    )
                )
        return clone

    def with_class_added(self, label: str, embeddings: np.ndarray) -> "ShardedReferenceStore":
        """A new store with the class appended; ``self`` is untouched."""
        label = str(label)
        embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        shard_id = self.shard_of(label)
        clone = self._cow_clone({shard_id})
        clone._class_shard.setdefault(label, shard_id)
        clone.add(embeddings, [label] * embeddings.shape[0])
        return clone

    def with_class_removed(self, label: str) -> "ShardedReferenceStore":
        """A new store without the class; ``self`` is untouched."""
        label = str(label)
        if label not in self._encoding.index:
            raise KeyError(f"no references with label {label!r}")
        clone = self._cow_clone({self._class_shard[label]})
        clone.remove_class(label)
        return clone

    def with_class_replaced(self, label: str, embeddings: np.ndarray) -> "ShardedReferenceStore":
        """A new store with the class's references swapped; ``self`` untouched."""
        label = str(label)
        embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        shard_id = self.shard_of(label)
        clone = self._cow_clone({shard_id})
        clone._class_shard.setdefault(label, shard_id)
        clone.replace_class(label, embeddings)
        return clone

    # ------------------------------------------------------------------ search
    def search(
        self, queries: np.ndarray, k: int, *, metric: str = "euclidean"
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Merged k nearest references, ordered by ``(distance, global id)``."""
        if self._size == 0:
            raise RuntimeError("the sharded reference store is empty")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.shape[1] != self.embedding_dim:
            raise ValueError(
                f"query embeddings have dimension {queries.shape[1]}, "
                f"store holds dimension {self.embedding_dim}"
            )
        k = min(int(k), self._size)
        live = [shard for shard in self._shards if len(shard.store)]
        obs = self._obs
        outer_trace = obs_tracing.enabled()
        if obs is None and not outer_trace:
            # The untelemetered fast path: no clocks, no collector.
            results = self._executor.search(live, queries, k, metric)
            return self._merge(live, results, k)
        # Collect per-shard scan records (recorded by the executors, or
        # piggybacked from worker processes) in a nested collector, then
        # fold them into the attached histograms and the outer trace.
        collector = obs_tracing.push()
        try:
            scatter_start = time.perf_counter()
            results = self._executor.search(live, queries, k, metric)
            scatter_s = time.perf_counter() - scatter_start
        finally:
            obs_tracing.pop()
        merge_start = time.perf_counter()
        merged = self._merge(live, results, k)
        merge_s = time.perf_counter() - merge_start
        if obs is not None:
            obs["searches"].inc()
            obs["scatter"].observe(scatter_s)
            obs["merge"].observe(merge_s)
            scan_hist = obs["shard_scan"]
            for span in collector:
                if span.stage == "shard_scan":
                    scan_hist.observe(
                        span.seconds, native="yes" if span.detail.get("native") else "no"
                    )
        if outer_trace:
            obs_tracing.record("scatter", scatter_s, n_shards=len(live))
            for span in collector:
                obs_tracing.record_span(span)
            obs_tracing.record("merge", merge_s)
        return merged

    def _merge(
        self, live: List[_Shard], results: List[Tuple[np.ndarray, np.ndarray]], k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Merge per-shard candidates into the global (distance, id) top-k."""
        merged_d = np.concatenate([distances for distances, _ in results], axis=1)
        merged_g = np.concatenate(
            [shard.global_ids[ids] for shard, (_, ids) in zip(live, results)], axis=1
        )
        order = np.lexsort((merged_g, merged_d), axis=1)[:, :k]
        return (
            np.take_along_axis(merged_d, order, axis=1),
            np.take_along_axis(merged_g, order, axis=1),
        )

    # ------------------------------------------------------------- flatten/save
    def flatten(self) -> Tuple[np.ndarray, List[str]]:
        """``(embeddings, labels)`` in global row order (for persistence)."""
        names = self._encoding.names
        labels = [names[code] for code in self._codes[: self._size].tolist()]
        return np.asarray(self.embeddings), labels

    def to_reference_store(
        self, index: Optional[NearestNeighbourIndex] = None
    ) -> ReferenceStore:
        """Collapse back into a flat store (same global row order)."""
        flat = ReferenceStore(
            self.embedding_dim,
            index=index if index is not None else self.index_factory(),
            storage_dtype=self.storage_dtype,
        )
        embeddings, labels = self.flatten()
        if len(labels):
            flat.add(embeddings, labels)
        return flat
