"""Segment transport: the only serving code that touches shared memory.

A shard reaches process-executor workers as one :mod:`repro.core.segment`
``RSG1`` segment in a POSIX shared-memory block.  This module owns both
ends of that hand-off: the one payload layout (:func:`pack_payload` /
:func:`unpack_payload`), the publisher side (:class:`SegmentPublisher`:
pack each shard version once, pin it while a search may still attach it,
unlink what churn retired) and the worker side (:func:`attach_segment`).
"""

from __future__ import annotations

import _posixshmem
import contextlib
import mmap
import os
import threading
from multiprocessing import shared_memory
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.index import NearestNeighbourIndex, index_from_spec
from repro.core.segment import read_segment, segment_size, write_segment


class ServingError(RuntimeError):
    """A serving-layer component failed or was misused."""


_STATE_PREFIX = "state__"


# ----------------------------------------------------------------------- payload
def pack_payload(shard) -> Dict[str, np.ndarray]:
    """Arrays a :class:`~repro.core.reference_store.Shard` publishes into
    its segment.

    Always the trained index state (so workers never re-run k-means); the
    shard's vectors — in the store's storage dtype, so a float32 store
    publishes half the bytes — only when the index still needs them.  A
    trained IVF-PQ shard with ``rerank == 0`` therefore ships only uint8
    codes + codebooks: ~16-32x smaller segments, and republish after an
    adaptation swap is proportionally cheaper.
    """
    arrays = {
        f"{_STATE_PREFIX}{name}": np.ascontiguousarray(array)
        for name, array in shard.index.state().items()
    }
    if shard.index.needs_vectors:
        arrays["vectors"] = shard.vectors
    return arrays


def unpack_payload(
    arrays: Dict[str, np.ndarray], index_spec: Dict[str, object]
) -> Tuple[Optional[np.ndarray], NearestNeighbourIndex]:
    """The inverse of :func:`pack_payload`: ``(vectors or None, index)``.

    The index is built from ``index_spec`` and adopts the published state
    directly (centroids, codebooks, codes — no per-worker k-means); only a
    stateless index (exact, or an untrained quantizer) is rebuilt over the
    published vectors.
    """
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
    return vectors, index


# ---------------------------------------------------------------------- segments
class _SegmentHandle(NamedTuple):
    """Publisher-side handle of one published segment."""

    size: int
    block: shared_memory.SharedMemory  # the publisher's mapping of the shm block

    def unlink(self) -> None:
        """Remove the segment's name; workers already attached keep their
        mapping alive, nobody can attach it again."""
        with contextlib.suppress(Exception):
            self.block.close()
            self.block.unlink()


class _SegmentAttachment(NamedTuple):
    """A worker-side, read-only mapping of one published segment;
    ``arrays`` are zero-copy views over the shared bytes."""

    arrays: Dict[str, np.ndarray]
    mapping: mmap.mmap

    def close(self) -> None:
        """Unmap the segment.  The caller drops every other view first (an
        index restored over ``arrays`` included); one that is still alive —
        a traceback's, after a failed restore — defers the unmap to GC."""
        self.arrays.clear()
        with contextlib.suppress(BufferError):
            self.mapping.close()


def attach_segment(name: str) -> _SegmentAttachment:
    """Map the published shm block ``name`` read-only and parse it
    (CRC-checked once per attach; steady-state requests reuse the cached
    attachment).

    The block is opened read-only (``shm_open``, the call ``SharedMemory``
    makes) and mapped with ``ACCESS_READ``.  No ``SharedMemory`` object is
    built, so an attach never registers with — or starts — a resource
    tracker: the publisher alone owns the segment's name and its
    crash-cleanup entry.
    """
    # ``SharedMemory.name`` drops the leading slash ``shm_open`` needs.
    fd = _posixshmem.shm_open("/" + name, os.O_RDONLY)
    try:
        mapped = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)
    try:
        arrays = read_segment(mapped)
    except BaseException:
        # The in-flight exception's traceback can still reference buffer
        # views of the mapping; GC releases it once the error is handled.
        with contextlib.suppress(BufferError):
            mapped.close()
        raise
    return _SegmentAttachment(arrays, mapped)


# --------------------------------------------------------------------- publisher
class SegmentPublisher:
    """Owns the publication of shard payloads.

    One publisher backs every :class:`~repro.serving.executors.ProcessShardExecutor`
    replica of a :class:`~repro.serving.executors.ReplicaSet`: every
    replica's workers attach the *same* segment for a given shard version,
    so R read replicas cost one publication — the ~16-32x smaller IVF-PQ
    segments are shared, not copied.  All methods are thread-safe; replica
    searches run concurrently on different threads.

    Segments whose shard has not been queried for ``_EVICT_AFTER_CALLS``
    searches — a copy-on-write swap retires the old shard's uid for good —
    are unlinked automatically.  Unlinking removes only the *name*: a
    worker that mapped the segment keeps its pages until it unmaps them,
    which ``_shard_worker`` does under the same rule, counted in its own
    executor's searches.  Together the two keep long-running adaptation
    churn from accumulating shared memory on either side.
    """

    # A published segment is evicted after this many search calls without
    # its shard appearing; in-flight snapshots re-publish on demand.
    _EVICT_AFTER_CALLS = 8

    def __init__(self) -> None:
        # uid -> (version, handle | None); a ``None`` handle marks a slot
        # another thread is packing right now.
        self._published: Dict[int, Tuple[int, Optional[_SegmentHandle]]] = {}
        self._last_used: Dict[int, int] = {}
        # uid -> number of in-flight searches using the segment.  A pinned
        # segment is never unlinked — not by eviction and not by a
        # republish at a newer version: a worker may sit between the
        # publish and its attach, and removing the name under it would
        # fail the attach.
        self._pins: Dict[int, int] = {}
        # uid -> superseded segment handles still pinned; unlinked when the
        # uid's last pin is released.
        self._retired: Dict[int, List[_SegmentHandle]] = {}
        self._search_calls = 0
        self._cond = threading.Condition()
        self._closed = False

    def _pack(self, shard) -> _SegmentHandle:
        """Serialise one shard's payload into a new shm block."""
        arrays = pack_payload(shard)
        size = segment_size(arrays)
        block = shared_memory.SharedMemory(create=True, size=size)
        write_segment(block.buf, arrays)
        return _SegmentHandle(size, block)

    def begin_search(self) -> None:
        """Tick the search clock the stale-segment eviction runs against."""
        with self._cond:
            self._search_calls += 1

    def publish(self, shard) -> str:
        """The shm block name of a shard's RSG1 segment, packing at most
        once per shard version and **pinning** the segment for the caller's
        search (pair every successful call with :meth:`release`).

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
                        return entry[1].block.name
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
                    old[1].unlink()
            if self._closed:
                handle.unlink()
                self._published.pop(uid, None)
                self._cond.notify_all()
                raise ServingError("the segment publisher has been closed")
            self._published[uid] = (version, handle)
            self._pins[uid] = self._pins.get(uid, 0) + 1
            self._cond.notify_all()
            return handle.block.name

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
                        handle.unlink()

    def published_bytes(self) -> Dict[int, int]:
        """Segment size per published shard uid (monitoring: this is what
        the PQ/float32 publication path shrinks)."""
        with self._cond:
            return {
                uid: entry[1].size
                for uid, entry in self._published.items()
                if entry[1] is not None
            }

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
                handle.unlink()

    def close(self) -> None:
        """Unlink every published (and retired) segment and refuse new work."""
        with self._cond:
            self._closed = True
            for _, handle in self._published.values():
                if handle is None:
                    continue  # the packing thread unlinks it when it lands
                handle.unlink()
            for retired in self._retired.values():
                for handle in retired:
                    handle.unlink()
            self._published.clear()
            self._last_used.clear()
            self._pins.clear()
            self._retired.clear()
            self._cond.notify_all()
