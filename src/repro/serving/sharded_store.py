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

This module owns placement (which shard holds a class), scatter/merge,
rebalance planning and the copy-on-write clones serving swaps in.  Who
answers a scatter is the store's ``executor``, a
:class:`~repro.serving.executors.ReplicaSet`; how a shard's bytes reach
worker processes is :mod:`repro.serving.transport`'s business.
"""

from __future__ import annotations

import copy
import itertools
import time
import zlib
from collections import Counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.index import NearestNeighbourIndex, index_from_spec, sort_by_distance
from repro.core.reference_store import LabelEncoding, ReferenceStore, validate_reference_batch
from repro.obs import tracing as obs_tracing
from repro.obs.metrics import MetricsRegistry
from repro.serving.executors import ReplicaSet

_shard_uids = itertools.count()


class _Shard:
    """One partition: a reference store plus its local-row -> global-row map.

    ``uid`` identifies the shard across copy-on-write clones (a clone that
    *shares* the underlying store keeps the uid, so executor-side caches
    stay warm) and ``version`` counts mutations of the underlying store
    (bumped whenever the embedding matrix changes, so executors know when
    to republish).
    """

    __slots__ = ("store", "global_ids", "uid", "version")

    def __init__(
        self,
        store: ReferenceStore,
        global_ids: np.ndarray,
        *,
        uid: Optional[int] = None,
        version: int = 0,
    ) -> None:
        self.store = store
        self.global_ids = global_ids
        self.uid = next(_shard_uids) if uid is None else uid
        self.version = version


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
        executor: Optional[ReplicaSet] = None,
        storage_dtype: str = "float64",
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
        self.embedding_dim = int(embedding_dim)
        self.n_shards = int(n_shards)
        self.assignment = assignment
        self.storage_dtype = np.dtype(storage_dtype).name
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
        executor: Optional[ReplicaSet] = None,
        storage_dtype: Optional[str] = None,
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
            storage_dtype=storage_dtype if storage_dtype is not None else store.storage_dtype,
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
    def executor(self) -> ReplicaSet:
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
    def label_ranks(self) -> np.ndarray:
        """Read-only rank of each class code under lexicographic label order."""
        return self._encoding.label_ranks()

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
        """Native ADC-kernel status of the scan path the shards run
        (:func:`repro.core.kernels.kernel_status`), so ``repro serve``
        operators can see from ``info`` whether queries hit the fused C
        scan or the NumPy fallback.  Worker processes inherit this one's
        environment and kernel cache, so its view holds for the whole
        replica set.
        """
        from repro.core.kernels import kernel_status

        return kernel_status()

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

    def published_tier_bytes(self) -> Dict[str, int]:
        """Published segment bytes, all in shared memory: ``{"shm": n}``
        (0 when the replica set publishes nothing, i.e. in-process
        replicas)."""
        return {"shm": sum(self._executor.published_bytes().values())}

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
        if pinned is not None and embeddings.shape[0]:
            # Re-pin only when rows land: an empty replace is a removal,
            # exactly as on the flat store, and leaves no placement behind.
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

    def with_rebalanced(
        self, *, threshold: float = 0.25, max_moves: Optional[int] = None
    ) -> Tuple["ShardedReferenceStore", List[Tuple[str, int, int]]]:
        """Move classes off overloaded shards until the row spread is within
        ``threshold * mean``, in a copy-on-write clone (``self`` untouched).

        Returns ``(clone, moves)`` with the ``(label, from_shard, to_shard)``
        moves applied, or ``(self, [])`` when already balanced.  Global row
        ids — and therefore merged search results and predictions — are
        unchanged; only scatter load shifts.
        """
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
        # Configuration, the executor and the metrics attachment are shared
        # (swapped clones keep reporting to the same instruments); only the
        # mutable ledger and the shard list are copied.
        clone = copy.copy(self)
        clone._class_shard = dict(self._class_shard)
        clone._encoding = self._encoding.clone()
        clone._codes = self._codes.copy()
        clone._shards = [
            # Deep copy including the trained index state — no k-means
            # retrain on an adaptation swap (the retraining-free story).
            _Shard(shard.store.clone(), shard.global_ids.copy())
            if shard_id in materialise
            else _Shard(
                shard.store,
                shard.global_ids.copy(),
                uid=shard.uid,
                version=shard.version,
            )
            for shard_id, shard in enumerate(self._shards)
        ]
        return clone

    def with_class_added(self, label: str, embeddings: np.ndarray) -> "ShardedReferenceStore":
        """A new store with the class appended; ``self`` is untouched."""
        label = str(label)
        embeddings = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        clone = self._cow_clone({self.shard_of(label)})
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
        clone = self._cow_clone({self.shard_of(label)})
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
        return sort_by_distance(merged_d, merged_g, k)

    # -------------------------------------------------------------------- save
    def to_reference_store(
        self, index: Optional[NearestNeighbourIndex] = None
    ) -> ReferenceStore:
        """Collapse back into a flat store (same global row order)."""
        flat = ReferenceStore(
            self.embedding_dim,
            index=index if index is not None else self.index_factory(),
            storage_dtype=self.storage_dtype,
        )
        if self._size:
            flat.add(self.embeddings, list(self.labels))
        return flat
