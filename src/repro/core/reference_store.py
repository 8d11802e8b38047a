"""The corpus of labelled reference embeddings.

The reference store is the component that makes the attack *adaptive*: to
track a changed page or add a new one, the adversary only swaps or appends
reference embeddings — the embedding model itself is never retrained
(Section IV-C).

One :class:`ReferenceStore` serves the offline experiments and the server
alike.  Whole classes are partitioned across ``n_shards`` :class:`Shard`
leaves (a flat store is the one-shard case), each holding vectors, their
global row ids and a nearest-neighbour index (:mod:`repro.core.index`);
labels live once, as one code per global row.  Global row ids are what a
one-shard store fed the same updates would hold, so a search merged by
``(distance, global id)`` is bit-identical to a one-shard search.  Every
update goes through :meth:`ReferenceStore.with_changes`: a validated
batch applied as one copy-on-write step, which the serving layer swaps in
while in-flight queries finish on the old store.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.core import segment as segment_format
from repro.core.index import NearestNeighbourIndex, index_from_spec, sort_by_distance
from repro.core.kernels import check_k
from repro.obs import tracing as obs_tracing

PathLike = Union[str, os.PathLike]

#: Suffix of the RSG1 archives :meth:`ReferenceStore.save` writes.
SEGMENT_SUFFIX = ".rsg"


def _json_pack(payload: object) -> np.ndarray:
    """A JSON document as a uint8 array (segments hold arrays only)."""
    return np.frombuffer(json.dumps(payload).encode("utf-8"), dtype=np.uint8)


def _json_unpack(array: np.ndarray) -> object:
    return json.loads(np.asarray(array, dtype=np.uint8).tobytes().decode("utf-8"))

_INITIAL_CAPACITY = 32


class LabelEncoding:
    """A store's label ledger: ``names[code]`` is the label, codes stay
    dense and first-occurrence ordered across removals, and per-code
    reference counts ride along, as do the codes' ranks in label order
    (the classifier's last tie-break)."""

    __slots__ = ("names", "index", "counts", "_ranks")

    def __init__(self) -> None:
        self.names: List[str] = []
        self.index: Dict[str, int] = {}
        self.counts: np.ndarray = np.empty(0, dtype=np.int64)
        self._ranks: Optional[np.ndarray] = None

    def encode(self, labels: Sequence[str]) -> np.ndarray:
        """Codes for ``labels`` (allocating new ones) and count them in."""
        codes = np.empty(len(labels), dtype=np.int64)
        for position, label in enumerate(labels):
            code = self.index.get(label)
            if code is None:
                code = len(self.names)
                self.index[label] = code
                self.names.append(label)
            codes[position] = code
        if len(self.names) > self.counts.shape[0]:
            grown = np.zeros(len(self.names), dtype=np.int64)
            grown[: self.counts.shape[0]] = self.counts
            self.counts = grown
            self._ranks = None  # a name was added
        np.add.at(self.counts, codes, 1)
        return codes

    def drop(self, code: int) -> None:
        """Remove a code entirely; later codes shift down by one."""
        del self.names[code]
        self.counts = np.delete(self.counts, code)
        self.index = {name: position for position, name in enumerate(self.names)}
        self._ranks = None

    def label_ranks(self) -> np.ndarray:
        """Read-only rank of each code under lexicographic label order,
        sorted once per change to the set of names."""
        if self._ranks is None:
            names = self.names
            ranks = np.empty(len(names), dtype=np.int64)
            ranks[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
            ranks.flags.writeable = False
            self._ranks = ranks
        return self._ranks

    def clone(self) -> "LabelEncoding":
        """An independent copy (the label ranks, read-only, are shared)."""
        fresh = copy.copy(self)
        fresh.names, fresh.index = list(self.names), dict(self.index)
        fresh.counts = self.counts.copy()
        return fresh


def validate_reference_batch(
    embeddings: np.ndarray, labels: Iterable[str], embedding_dim: int
) -> Tuple[np.ndarray, List[str]]:
    """An add batch as ``(float64 rows, str labels)``, or ``ValueError``."""
    embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
    labels = [str(label) for label in labels]
    if embeddings.shape[0] != len(labels):
        raise ValueError(f"got {embeddings.shape[0]} embeddings but {len(labels)} labels")
    if embeddings.shape[1] != embedding_dim:
        raise ValueError(
            f"embeddings have dimension {embeddings.shape[1]}, store expects {embedding_dim}"
        )
    if any(not label for label in labels):
        raise ValueError("labels must be non-empty strings")
    return embeddings, labels


STORAGE_DTYPES = ("float64", "float32")
CHANGE_KINDS = ("add", "remove", "replace")

_shard_uids = itertools.count()


class Shard:
    """One partition's rows: vectors, their global row ids and their index.

    ``uid`` identifies the shard across copy-on-write steps that share it
    (executor-side caches stay warm) and ``version`` counts its mutations,
    so executors know when to republish.  ``shared`` marks a shard whose
    buffer and index another store also holds: it is copied, never edited.
    """

    __slots__ = ("_buffer", "size", "global_ids", "index", "uid", "version", "shared")

    def __init__(self, dim: int, storage_dtype: str, index: NearestNeighbourIndex) -> None:
        self._buffer = np.empty((0, dim), dtype=storage_dtype)
        self.size = 0
        self.global_ids = np.empty(0, dtype=np.int64)
        self.index = index
        self.uid = next(_shard_uids)
        self.version = 0
        self.shared = False

    @property
    def vectors(self) -> np.ndarray:
        """The shard's ``(rows, dim)`` vectors (a read-only view)."""
        view = self._buffer[: self.size]
        view.flags.writeable = False
        return view

    def copy(self) -> "Shard":
        """A deep copy under a fresh uid, trained index state included (an
        O(rows) copy, no retraining)."""
        fresh = copy.copy(self)
        fresh._buffer = self._buffer[: self.size].copy()
        fresh.index = copy.deepcopy(self.index)
        fresh.uid = next(_shard_uids)
        fresh.shared = False
        return fresh

    def append(self, rows: np.ndarray, global_ids: np.ndarray) -> None:
        """Add rows in place (the buffer grows by doubling)."""
        needed = self.size + rows.shape[0]
        capacity = self._buffer.shape[0]
        if needed > capacity:
            capacity = max(_INITIAL_CAPACITY, capacity)
            while capacity < needed:
                capacity *= 2
            buffer = np.empty((capacity, self._buffer.shape[1]), dtype=self._buffer.dtype)
            buffer[: self.size] = self._buffer[: self.size]
            self._buffer = buffer
        self._buffer[self.size : needed] = rows
        self.size = needed
        self.global_ids = np.concatenate([self.global_ids, global_ids])
        self.index.add(self._buffer[:needed], rows.shape[0])
        self.version += 1

    def keep(self, kept: np.ndarray) -> None:
        """Compact the rows where ``kept`` holds, in order, in place."""
        n_kept = int(kept.sum())
        self._buffer[:n_kept] = self._buffer[: self.size][kept]
        self.size = n_kept
        self.global_ids = self.global_ids[kept]
        self.index.remove(kept)
        self.version += 1


class InProcessShardExecutor:
    """Answer shard searches serially in the calling thread: how a store
    without an ``executor`` scans, and the serving layer's in-process
    replica kind."""

    def search(
        self, shards: Sequence[Shard], queries: np.ndarray, k: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-shard ``(distances, local ids)``, answered serially in-process."""
        results = []
        for shard in shards:
            scan_start = time.perf_counter()
            results.append(shard.index.search(shard.vectors, queries, min(k, shard.size)))
            if obs_tracing.enabled():
                obs_tracing.record(
                    "shard_scan",
                    time.perf_counter() - scan_start,
                    shard=shard.uid,
                    native=shard.index.kernels_active(),
                )
        return results

    def close(self) -> None:
        """Nothing owned; exists so every executor shares one lifecycle."""


_IN_THREAD = InProcessShardExecutor()


def _on_each(work: Callable, items: Sequence) -> None:
    """``work(item)`` for every item: inline for one, else side by side on
    ``min(items, CPUs)`` threads — the calling thread and a pool of helpers
    that is joined before this returns (k-means is BLAS and C passes, which
    release the GIL).  The caller working too keeps one fewer thread's
    malloc arena holding freed training buffers.  The first exception is
    raised after every thread has stopped."""
    workers = min(len(items), os.cpu_count() or 1)
    queue = iter(items)  # shared: a list iterator hands each item out once

    def drain() -> None:
        for item in queue:
            work(item)

    if workers <= 1:
        drain()
        return
    with ThreadPoolExecutor(workers - 1, thread_name_prefix="shard-index") as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
    for helper in helpers:
        helper.result()


# One validated step of a batch: the label of a class to drop, or the
# rows to append with their labels and the shard of each row.
_Step = Tuple[Optional[str], Optional[np.ndarray], Optional[List[str]], Optional[np.ndarray]]


class ReferenceStore:
    """Labelled embedding vectors used as k-NN reference points.

    Classes are the unit of placement, so updating one class touches one
    shard.  A new class goes to the shard the CRC32 of its label names
    (stable across deployments); a replaced class stays where it is, and
    :meth:`with_rebalanced` moves whole classes.  ``index_factory`` builds
    each shard's index (exact by default).  ``executor`` answers every
    scatter: ``None`` scans serially in the calling thread; the serving
    layer passes a ``ReplicaSet`` (duck-typed, so a proxy works too).
    ``storage_dtype`` is ``"float64"`` (bit-compatible with the seed
    pipeline) or ``"float32"``, which halves memory, archives and segments;
    distances still run in float64 (~1e-7 relative error).
    """

    def __init__(
        self,
        embedding_dim: int,
        n_shards: int = 1,
        *,
        index_factory: Optional[Callable[[], NearestNeighbourIndex]] = None,
        executor: Optional[object] = None,
        storage_dtype: str = "float64",
    ) -> None:
        if embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        storage_dtype = np.dtype(storage_dtype).name
        if storage_dtype not in STORAGE_DTYPES:
            raise ValueError(
                f"unsupported storage_dtype {storage_dtype!r}; expected one of {STORAGE_DTYPES}"
            )
        self.embedding_dim = int(embedding_dim)
        self.n_shards = int(n_shards)
        self.storage_dtype = storage_dtype
        self.index_factory: Callable[[], NearestNeighbourIndex] = (
            index_factory if index_factory is not None else lambda: index_from_spec(None)
        )
        self._executor = executor
        self._shards: List[Shard] = [
            Shard(self.embedding_dim, storage_dtype, self.index_factory())
            for _ in range(self.n_shards)
        ]
        self._class_shard: Dict[str, int] = {}
        self._encoding = LabelEncoding()
        self._codes: np.ndarray = np.empty(0, dtype=np.int64)
        self._size = 0
        self._generation = 0
        self._obs: Optional[Dict[str, object]] = None

    @classmethod
    def from_reference_store(
        cls,
        store: "ReferenceStore",
        n_shards: int,
        *,
        index_factory: Optional[Callable[[], NearestNeighbourIndex]] = None,
        executor: Optional[object] = None,
        storage_dtype: Optional[str] = None,
    ) -> "ReferenceStore":
        """Reshard ``store`` (global ids == its current row ids), keeping its
        index factory and storage dtype unless overridden."""
        fresh = cls(
            store.embedding_dim,
            n_shards,
            index_factory=index_factory if index_factory is not None else store.index_factory,
            executor=executor,
            storage_dtype=storage_dtype if storage_dtype is not None else store.storage_dtype,
        )
        fresh.add(store.embeddings, list(store.labels))
        return fresh

    # ------------------------------------------------------------------- state
    def __len__(self) -> int:
        return self._size

    @property
    def generation(self) -> int:
        """Monotonic update counter: one per applied batch."""
        return self._generation

    @property
    def executor(self) -> Optional[object]:
        """What every scatter routes through (``None``: the calling thread)."""
        return self._executor

    @property
    def embeddings(self) -> np.ndarray:
        """The (N, dim) matrix in global row order (read-only; a view for
        one shard, an O(N) gather otherwise)."""
        if self.n_shards == 1:
            return self._shards[0].vectors
        out = np.empty((self._size, self.embedding_dim), dtype=self.storage_dtype)
        for shard in self._shards:
            out[shard.global_ids] = shard.vectors
        out.flags.writeable = False
        return out

    @property
    def labels(self) -> np.ndarray:
        """Per-row labels as an object array (decoded from the codes)."""
        names = np.array(self._encoding.names, dtype=object)
        return names[self._codes] if self._size else np.empty(0, dtype=object)

    @property
    def label_codes(self) -> np.ndarray:
        """Per-row integer class codes; ``class_names[code]`` is the label."""
        view = self._codes[:]
        view.flags.writeable = False
        return view

    @property
    def class_names(self) -> List[str]:
        """Code -> label mapping (codes are first-occurrence ordered)."""
        return list(self._encoding.names)

    @property
    def label_ranks(self) -> np.ndarray:
        """Read-only rank of each class code under lexicographic label order."""
        return self._encoding.label_ranks()

    @property
    def n_classes(self) -> int:
        """How many classes are monitored."""
        return len(self._encoding.names)

    def class_counts(self) -> Dict[str, int]:
        """Reference count per class label."""
        return {
            name: int(self._encoding.counts[code])
            for code, name in enumerate(self._encoding.names)
        }

    def has_class(self, label: str) -> bool:
        """Whether any references carry ``label``."""
        return label in self._encoding.index

    __contains__ = has_class

    @property
    def index(self) -> NearestNeighbourIndex:
        """The first shard's index (the whole store's, with one shard)."""
        return self._shards[0].index

    def index_spec(self) -> Dict[str, object]:
        """The per-shard index spec — part of the scheduler's cache key, so
        differently indexed deployments never share cached predictions."""
        return self.index.spec()

    def attach_metrics(self, registry) -> None:
        """Register the search instruments on ``registry`` (a
        :class:`~repro.obs.metrics.MetricsRegistry`): searches, scatter and
        merge seconds, and per-shard scan seconds by native dispatch (worker
        processes piggyback theirs).  Unattached, ``search`` pays nothing
        for telemetry; copy-on-write updates inherit the attachment."""
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
        """Whether shard scans run the native kernels
        (:func:`repro.core.kernels.kernel_status`); worker processes
        inherit this process's view."""
        from repro.core.kernels import kernel_status

        return kernel_status()

    def shard_sizes(self) -> List[int]:
        """Row count per shard (the rebalance trigger reads the spread)."""
        return [shard.size for shard in self._shards]

    def published_tier_bytes(self) -> Dict[str, int]:
        """Published segment bytes, all in shared memory: ``{"shm": n}``
        (0 unless the executor publishes, i.e. has process replicas)."""
        published = self._executor.published_bytes() if self._executor is not None else {}
        return {"shm": sum(published.values())}

    def _place(self, label: str) -> int:
        """The shard of a class not placed yet: CRC32 of its label."""
        return zlib.crc32(str(label).encode("utf-8")) % self.n_shards

    # ---------------------------------------------------------------- updates
    def with_changes(self, changes: Iterable[Sequence]) -> "ReferenceStore":
        """A new store with ``changes`` applied in order; ``self`` is untouched.

        A change is ``("add", label, embeddings)`` (``label`` is one label
        for every row or one per row), ``("remove", label)`` or
        ``("replace", label, embeddings)`` — the paper's adaptation step,
        which adds an absent class and with zero rows is a removal.  Every
        change is validated against the state the earlier ones leave
        before anything is touched, so a bad batch raises (``KeyError``
        for an absent class, ``ValueError`` otherwise) and changes nothing.
        The touched shards are copied once (trained index state included,
        so nothing is retrained), the rest are shared, and the generation
        moves by one.
        """
        steps, touched = self._plan(changes)
        clone = self._cow_clone(touched)
        clone._apply(steps)
        return clone

    def add(self, embeddings: np.ndarray, labels: Iterable[str]) -> None:
        """Append references in place (an ``"add"`` change on ``self``)."""
        self._apply_in_place(("add", list(labels), embeddings))

    def remove_class(self, label: str) -> int:
        """Drop a class in place; returns how many references it had."""
        removed = self.class_counts().get(str(label), 0)
        self._apply_in_place(("remove", label))
        return removed

    def replace_class(self, label: str, embeddings: np.ndarray) -> None:
        """Swap one class's references in place (a ``"replace"`` change)."""
        self._apply_in_place(("replace", label, embeddings))

    def _apply_in_place(self, change: Sequence) -> None:
        """One change on ``self``; a touched shard that another store
        shares is copied first, so earlier and later stores stay intact."""
        steps, touched = self._plan([change])
        for shard_id in touched:
            if self._shards[shard_id].shared:
                self._shards[shard_id] = self._shards[shard_id].copy()
        self._apply(steps)

    def _plan(self, changes: Iterable[Sequence]) -> Tuple[List[_Step], Set[int]]:
        """Validate a batch and place its new classes, touching nothing:
        the ``(steps, touched shard ids)`` that :meth:`_apply` carries out."""
        placement = dict(self._class_shard)
        steps: List[_Step] = []
        touched: Set[int] = set()
        for kind, label, *rows in changes:
            if kind not in CHANGE_KINDS:
                raise ValueError(f"unknown change {kind!r}; expected one of {CHANGE_KINDS}")
            if len(rows) != (0 if kind == "remove" else 1):
                raise ValueError(f"malformed {kind!r} change")
            labels: List[str] = []
            if kind == "remove":
                label = str(label)
                if label not in placement:
                    raise KeyError(f"no references with label {label!r}")
            else:
                if kind == "replace":
                    label = str(label)
                embeddings = np.atleast_2d(np.asarray(rows[0], dtype=np.float64))
                broadcast = kind == "replace" or isinstance(label, str)
                embeddings, labels = validate_reference_batch(
                    embeddings,
                    [label] * embeddings.shape[0] if broadcast else label,
                    self.embedding_dim,
                )
            if kind != "add" and label in placement:
                pinned = placement.pop(label)
                touched.add(pinned)
                steps.append((label, None, None, None))
                if labels:
                    placement[label] = pinned  # a replaced class stays on its shard
            if labels:
                for name in dict.fromkeys(labels):
                    if name not in placement:
                        placement[name] = self._place(name)
                shard_ids = np.array([placement[name] for name in labels], dtype=np.int64)
                touched.update(np.unique(shard_ids).tolist())
                steps.append((None, embeddings, labels, shard_ids))
        return steps, touched

    def _apply(self, steps: List[_Step]) -> None:
        """Carry out validated steps on this store's own shards."""
        for label, embeddings, labels, shard_ids in steps:
            if label is not None:
                self._drop(label)
            else:
                self._append(embeddings, labels, shard_ids)
        if steps:
            self._generation += 1

    def _append(self, embeddings: np.ndarray, labels: List[str], shard_ids: np.ndarray) -> None:
        n_new = embeddings.shape[0]
        global_ids = np.arange(self._size, self._size + n_new, dtype=np.int64)
        self._codes = np.concatenate([self._codes, self._encoding.encode(labels)])
        self._size += n_new
        self._class_shard.update(zip(labels, shard_ids.tolist()))

        def append(shard_id: int) -> None:
            mask = shard_ids == shard_id
            self._shards[shard_id].append(embeddings[mask], global_ids[mask])

        # A shard's append may train its index: each shard on its own thread.
        _on_each(append, np.unique(shard_ids).tolist())

    def _drop(self, label: str) -> None:
        """Remove a class; global ids renumber exactly like a one-shard
        store's compaction."""
        code = self._encoding.index[label]
        shard = self._shards[self._class_shard.pop(label)]
        kept = self._codes[shard.global_ids] != code
        removed_ids = np.sort(shard.global_ids[~kept])
        shard.keep(kept)
        global_kept = self._codes != code
        codes = self._codes[global_kept]
        codes[codes > code] -= 1
        self._codes = codes
        self._size = codes.shape[0]
        self._encoding.drop(code)
        for other in self._shards:
            if other.global_ids.size:
                other.global_ids = other.global_ids - np.searchsorted(
                    removed_ids, other.global_ids
                )

    def _cow_clone(self, materialise: Set[int]) -> "ReferenceStore":
        """A clone sharing every shard but the ``materialise``d ones, which
        are deep copies (fresh uid, trained index state included).  Shared
        shards keep their uid/version, so executor caches stay warm, and
        are marked ``shared`` on both sides: neither store edits them, the
        clone only replaces their ``global_ids``."""
        clone = copy.copy(self)
        clone._class_shard = dict(self._class_shard)
        clone._encoding = self._encoding.clone()
        clone._shards = []
        for shard_id, shard in enumerate(self._shards):
            if shard_id not in materialise:
                shard.shared = True
            clone._shards.append(shard.copy() if shard_id in materialise else copy.copy(shard))
        return clone

    # ----------------------------------------------------------- requantization
    def drift_ratio(self) -> float:
        """The worst per-shard quantizer drift ratio (1.0 = no drift signal);
        see :meth:`repro.core.index.IVFPQIndex.drift_ratio`."""
        ratios = [shard.index.drift_ratio() for shard in self._shards if shard.size]
        return max(ratios) if ratios else 1.0

    def retrain_needed(self, *, threshold: float = 1.5) -> bool:
        """Whether churn has drifted any shard's quantizer past ``threshold``
        (always ``False`` for non-quantizing indexes); see
        :meth:`repro.core.index.IVFPQIndex.retrain_needed`."""
        return any(
            shard.index.retrain_needed(threshold=threshold) for shard in self._shards if shard.size
        )

    def with_requantized(self, *, sample_size: Optional[int] = None) -> "ReferenceStore":
        """A copy-on-write clone with every shard's quantizer re-trained on
        (a ``sample_size`` sample of) its rows and every row re-encoded.

        Adaptation never retrains the *embedding model*, but the index's
        k-means structures age as references churn; this refreshes them.
        Rows, ids and labels are untouched, so only recall can change.
        Shards retrain side by side, one thread each (up to one per CPU).
        """
        touched = {shard_id for shard_id, shard in enumerate(self._shards) if shard.size}
        clone = self._cow_clone(touched)
        _on_each(
            lambda shard: shard.index.retrain(shard.vectors, sample_size=sample_size),
            [clone._shards[shard_id] for shard_id in sorted(touched)],
        )
        clone._generation += 1
        return clone

    # --------------------------------------------------------------- rebalance
    def _move_class(self, label: str, src: int, dst: int) -> None:
        """Relocate one class's rows between shards, global ids untouched,
        so merged search results are bit-identical before and after."""
        donor = self._shards[src]
        mask = self._codes[donor.global_ids] == self._encoding.index[label]
        moved_ids = donor.global_ids[mask]
        rows = donor.vectors[mask]
        donor.keep(~mask)
        self._shards[dst].append(rows, moved_ids)
        self._class_shard[label] = dst

    def _rebalance_plan(self, threshold: float) -> List[Tuple[str, int, int]]:
        """Greedy class moves shrinking the max-min row spread, simulated
        without touching a shard.  Each moves, from the fullest to the
        emptiest shard, the class whose row count lands closest to half the
        spread (a class as large as the spread is never moved); a plan holds
        at most twice as many moves as there are classes."""
        if threshold < 0:
            raise ValueError("threshold must be non-negative")
        sizes = self.shard_sizes()
        total = sum(sizes)
        if total == 0 or self.n_shards < 2:
            return []
        placement = dict(self._class_shard)
        counts = self.class_counts()
        budget = 2 * max(1, len(counts))
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

    def with_rebalanced(
        self, *, threshold: float = 0.25
    ) -> Tuple["ReferenceStore", List[Tuple[str, int, int]]]:
        """Move classes off overloaded shards until the row spread is within
        ``threshold * mean``, in a copy-on-write clone: ``(clone, moves)``
        of ``(label, from_shard, to_shard)``, or ``(self, [])`` when
        balanced.  Global row ids, and so predictions, never change."""
        moves = self._rebalance_plan(threshold)
        if not moves:
            return self, []
        touched = {src for _, src, _ in moves} | {dst for _, _, dst in moves}
        clone = self._cow_clone(touched)
        for label, src, dst in moves:
            clone._move_class(label, src, dst)
        clone._generation += 1
        return clone, moves

    # ------------------------------------------------------------------ search
    def search(self, queries: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """k nearest references per query, ordered by ``(euclidean
        distance, global row id)``; ``k`` below 1 raises ``ValueError``."""
        k = check_k(k)
        if self._size == 0:
            raise RuntimeError("the reference store is empty")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if queries.shape[1] != self.embedding_dim:
            raise ValueError(
                f"query embeddings have dimension {queries.shape[1]}, "
                f"store holds dimension {self.embedding_dim}"
            )
        k = min(k, self._size)
        live = [shard for shard in self._shards if shard.size]
        obs = self._obs
        outer_trace = obs_tracing.enabled()
        if obs is None and not outer_trace:
            # The untelemetered fast path: no clocks, no collector.
            return self._merge(live, self._scatter(live, queries, k), k)
        # Collect per-shard scan records (recorded by the executors, or
        # piggybacked from worker processes) in a nested collector, then
        # fold them into the attached histograms and the outer trace.
        collector = obs_tracing.push()
        try:
            scatter_start = time.perf_counter()
            results = self._scatter(live, queries, k)
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

    def _scatter(
        self, live: List[Shard], queries: np.ndarray, k: int
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        if self._executor is None:
            return _IN_THREAD.search(live, queries, k)
        return self._executor.search(live, queries, k, "euclidean")

    def _merge(
        self, live: List[Shard], results: List[Tuple[np.ndarray, np.ndarray]], k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Merge per-shard candidates into the global (distance, id) top-k."""
        if self.n_shards == 1:
            return results[0]  # one shard's local rows are the global rows
        merged_d = np.concatenate([distances for distances, _ in results], axis=1)
        merged_g = np.concatenate(
            [shard.global_ids[ids] for shard, (_, ids) in zip(live, results)], axis=1
        )
        return sort_by_distance(merged_d, merged_g, k)

    # ------------------------------------------------------------- persistence
    _INDEX_STATE_PREFIX = "index_state__"

    def save(self, path: PathLike) -> Path:
        """Persist vectors (global row order), labels, the storage dtype and
        a one-shard store's trained index state, which :meth:`load` adopts
        without re-running k-means, as one ``RSG1`` segment
        (:mod:`repro.core.segment`; suffix normalised to ``.rsg``), written
        atomically: a crash mid-save never corrupts a previous archive.
        """
        path = Path(path)
        if path.suffix != SEGMENT_SUFFIX:
            path = path.with_suffix(SEGMENT_SUFFIX)
        arrays: Dict[str, np.ndarray] = {
            "embeddings": self.embeddings,
            "label_codes": self.label_codes,
            "class_names": _json_pack(self.class_names),
            "meta": _json_pack(
                {"embedding_dim": self.embedding_dim, "storage_dtype": self.storage_dtype}
            ),
        }
        if self.n_shards == 1:
            for name, array in self.index.state().items():
                arrays[f"{self._INDEX_STATE_PREFIX}{name}"] = array
        return segment_format.write_segment_file(path, arrays)

    @classmethod
    def load(
        cls,
        path: PathLike,
        index_factory: Optional[Callable[[], NearestNeighbourIndex]] = None,
        *,
        storage_dtype: Optional[str] = None,
    ) -> "ReferenceStore":
        """Restore what :meth:`save` wrote (also found under the ``.rsg``
        suffix) as a one-shard store whose index ``index_factory`` builds;
        anything but a valid segment raises
        :class:`~repro.core.segment.SegmentFormatError`."""
        path = Path(path)
        if not path.exists() and path.suffix != SEGMENT_SUFFIX:
            path = path.with_suffix(SEGMENT_SUFFIX)
        if not path.exists():
            raise FileNotFoundError(f"reference store archive not found: {path}")
        arrays = segment_format.load_segment_file(path)
        try:
            meta = _json_unpack(arrays["meta"])
            class_names = _json_unpack(arrays["class_names"])
            codes = np.asarray(arrays["label_codes"], dtype=np.int64)
            embeddings = arrays["embeddings"]
        except (KeyError, ValueError, json.JSONDecodeError) as error:
            raise segment_format.SegmentFormatError(
                f"{path} is not a reference-store segment: {error}"
            ) from error
        if storage_dtype is None:
            storage_dtype = str(meta.get("storage_dtype", "float64"))
        store = cls(
            int(meta["embedding_dim"]), 1, index_factory=index_factory, storage_dtype=storage_dtype
        )
        shard = store._shards[0]
        labels = [str(class_names[code]) for code in codes.tolist()]
        if labels:
            embeddings, labels = validate_reference_batch(embeddings, labels, store.embedding_dim)
            shard._buffer = embeddings.astype(store.storage_dtype)
            shard.size = store._size = len(labels)
            shard.global_ids = np.arange(len(labels), dtype=np.int64)
            store._codes = store._encoding.encode(labels)
            store._class_shard = dict.fromkeys(store._encoding.names, 0)
        state = {
            name[len(cls._INDEX_STATE_PREFIX) :]: array
            for name, array in arrays.items()
            if name.startswith(cls._INDEX_STATE_PREFIX)
        }
        # Index state is adopted whenever present, even with zero rows (a
        # trained empty store keeps its quantizer); rows without adoptable
        # state rebuild the index.
        if state:
            try:
                shard.index.load_state(state)
            except (KeyError, ValueError):
                state = {}  # mismatched index; rebuild below
        if not state and store._size:
            shard.index.rebuild(shard.vectors)
        return store
