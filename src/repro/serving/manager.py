"""Zero-downtime deployment management for the serving layer.

The paper's operational story is a fingerprinter that keeps classifying
while its reference corpus churns.  :class:`DeploymentManager` makes that
concrete: the live serving state is one immutable
:class:`ServingSnapshot` (sharded store + classifier + optional open-world
detector), and every update builds a *new* snapshot through the store's
copy-on-write :meth:`~repro.core.reference_store.ReferenceStore.with_changes`
and swaps it in with a single reference assignment.  In-flight batches
keep the snapshot they grabbed, so serving never blocks on — and never
observes a torn state from — an update; that is the "zero failed queries
during replace_class" guarantee ``tests/test_serving.py`` asserts.

Warm restarts reuse the deployment persistence layer:
:meth:`DeploymentManager.load` restores a saved deployment with
:func:`~repro.core.deployment.load_deployment` and shards its corpus;
:meth:`DeploymentManager.save` reshards the live corpus into one shard for
the attached fingerprinter and persists it with
:func:`~repro.core.deployment.save_deployment`.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import ClassifierConfig
from repro.core.classifier import KNNClassifier, RankedBlock
from repro.core.openworld import OpenWorldDetector
from repro.core.reference_store import ReferenceStore
from repro.obs.metrics import MetricsRegistry
from repro.serving.executors import ShardedReferenceStore
from repro.serving.transport import ServingError

if TYPE_CHECKING:
    from repro.core.fingerprinter import AdaptiveFingerprinter

PathLike = Union[str, os.PathLike]

# One serial per DeploymentManager in the process: with the generation it
# names a serving state no other deployment ever shares.
_DEPLOYMENT_SERIALS = itertools.count()


@dataclass(frozen=True)
class OpenWorldConfig:
    """Calibration knobs for the serving-side open-world detector."""

    neighbour: int = 5
    percentile: float = 95.0


@dataclass(frozen=True)
class ServingSnapshot:
    """One immutable serving state; batches classify against exactly one."""

    store: ShardedReferenceStore
    classifier: KNNClassifier
    detector: Optional[OpenWorldDetector]
    generation: int
    # The serial of the manager that built it.  Generations restart at 0
    # in every manager (a redeploy, a tenant re-created under a dropped
    # one's name), so the generation alone cannot name a serving state.
    deployment: int

    @property
    def cache_token(self) -> object:
        """What the result cache may key on besides the query itself."""
        return (self.deployment, self.generation)

    def predict(self, embeddings: np.ndarray) -> RankedBlock:
        """Classify a batch against exactly this snapshot's store.

        The answer stays in arrays (codes, scores, the snapshot's class
        names) until the wire; the block is also a ``Sequence[Prediction]``
        for in-process callers."""
        return self.classifier.rank(embeddings)

    def is_unknown(self, embeddings: np.ndarray) -> np.ndarray:
        """Open-world detection per embedding (requires a detector)."""
        if self.detector is None:
            raise ServingError("open-world detection is not enabled on this deployment")
        return self.detector.is_unknown(embeddings)


class DeploymentManager:
    """Owns the live serving snapshot and applies retraining-free updates."""

    def __init__(
        self,
        store: ShardedReferenceStore,
        classifier_config: Optional[ClassifierConfig] = None,
        *,
        fingerprinter: Optional[AdaptiveFingerprinter] = None,
        open_world: Optional[OpenWorldConfig] = None,
    ) -> None:
        if classifier_config is None:
            classifier_config = (
                fingerprinter.classifier_config if fingerprinter is not None else ClassifierConfig()
            )
        self.classifier_config = classifier_config
        self.open_world = open_world
        self._fingerprinter = fingerprinter
        self._swap_lock = threading.Lock()
        self._swaps_total = None
        self._swap_seconds = None
        self._serial = next(_DEPLOYMENT_SERIALS)
        self._snapshot = self._build_snapshot(store, generation=0)

    def attach_metrics(self, registry: MetricsRegistry) -> None:
        """Register deployment telemetry on ``registry``.

        Callback gauges sample live state at scrape time — generation,
        ``drift_ratio``, native-kernel dispatch, and the store's
        :class:`~repro.serving.executors.ReplicaSet` per-replica
        routed/in-flight depths; ``repro_deployment_swaps_total`` /
        ``repro_deployment_swap_seconds`` time every copy-on-write swap.
        Also attaches the live store's search instruments
        (:meth:`~repro.core.reference_store.ReferenceStore.attach_metrics`),
        which copy-on-write updates inherit across swaps.
        """
        registry.gauge(
            "repro_deployment_generation", "Serving generation (bumps on every swap)."
        ).set_function(lambda: float(self.generation))
        registry.gauge(
            "repro_deployment_drift_ratio",
            "Worst per-shard quantizer drift ratio of the live store.",
        ).set_function(lambda: float(self.drift_ratio()))
        registry.gauge(
            "repro_kernels_native_active",
            "Whether shard scans dispatch to the fused native C kernels (1) or NumPy (0).",
        ).set_function(lambda: 1.0 if self.store.kernel_status().get("active") else 0.0)
        self._swaps_total = registry.counter(
            "repro_deployment_swaps_total", "Copy-on-write snapshot swaps applied."
        )
        self._swap_seconds = registry.histogram(
            "repro_deployment_swap_seconds",
            "Time building + swapping one copy-on-write snapshot.",
        )
        executor = self.store.executor
        routed = registry.gauge(
            "repro_replicas_routed",
            "Searches routed per replica.",
            labels=("replica",),
        )
        inflight = registry.gauge(
            "repro_replicas_in_flight",
            "Searches currently executing per replica.",
            labels=("replica",),
        )
        for position in range(executor.n_replicas):
            routed.set_function(
                lambda p=position: float(executor.routed_counts()[p]), replica=str(position)
            )
            inflight.set_function(
                lambda p=position: float(executor.inflight_counts()[p]),
                replica=str(position),
            )
        self.store.attach_metrics(registry)

    # ------------------------------------------------------------ construction
    @classmethod
    def from_fingerprinter(
        cls,
        fingerprinter: AdaptiveFingerprinter,
        *,
        n_shards: int = 2,
        executor: Optional[object] = None,
        classifier_config: Optional[ClassifierConfig] = None,
        open_world: Optional[OpenWorldConfig] = None,
    ) -> "DeploymentManager":
        """Shard an initialised fingerprinter's reference corpus and serve it."""
        store = ShardedReferenceStore.from_reference_store(
            fingerprinter.reference_store,
            n_shards,
            executor=executor,
        )
        return cls(
            store,
            classifier_config if classifier_config is not None else fingerprinter.classifier_config,
            fingerprinter=fingerprinter,
            open_world=open_world,
        )

    @classmethod
    def load(cls, directory: PathLike, **kwargs) -> "DeploymentManager":
        """Warm restart: restore a saved deployment and shard its corpus."""
        # repro.core.deployment pulls in the embedding model (LSTM, trainer);
        # a server started from a bare store never pays for that import.
        from repro.core.deployment import load_deployment

        return cls.from_fingerprinter(load_deployment(directory), **kwargs)

    def save(self, directory: PathLike) -> Path:
        """Persist the live corpus (and model) for the next warm restart."""
        from repro.core.deployment import save_deployment  # deferred as in load()

        if self._fingerprinter is None:
            raise ServingError(
                "no fingerprinter attached; the embedding model is required to persist a deployment"
            )
        flat = ReferenceStore.from_reference_store(
            self._snapshot.store, 1, index_factory=self._fingerprinter.index_factory
        )
        self._fingerprinter.attach_references(flat)
        return save_deployment(self._fingerprinter, directory)

    # ------------------------------------------------------------------- state
    def snapshot(self) -> ServingSnapshot:
        """The current serving state (an atomic reference read)."""
        return self._snapshot

    @property
    def store(self) -> ShardedReferenceStore:
        """The live snapshot's sharded reference store."""
        return self._snapshot.store

    @property
    def classifier(self) -> KNNClassifier:
        """The live snapshot's classifier."""
        return self._snapshot.classifier

    @property
    def generation(self) -> int:
        """The live snapshot's generation (bumps on every swap)."""
        return self._snapshot.generation

    @property
    def fingerprinter(self) -> Optional[AdaptiveFingerprinter]:
        """The attached embedding model owner (None for store-only serving)."""
        return self._fingerprinter

    def _build_snapshot(self, store: ShardedReferenceStore, generation: int) -> ServingSnapshot:
        classifier = KNNClassifier(store, self.classifier_config)
        detector = None
        if self.open_world is not None and len(store):
            detector = OpenWorldDetector(
                store,
                neighbour=self.open_world.neighbour,
                percentile=self.open_world.percentile,
            )
        return ServingSnapshot(
            store=store,
            classifier=classifier,
            detector=detector,
            generation=generation,
            deployment=self._serial,
        )

    # ----------------------------------------------- zero-downtime adaptation
    def _swap(self, build_store) -> ServingSnapshot:
        """Swap in ``build_store(live store)`` one generation on; a builder
        that returns the live store itself swaps nothing."""
        swap_start = time.perf_counter()
        with self._swap_lock:
            old = self._snapshot
            new_store = build_store(old.store)
            if new_store is old.store:
                return old
            snapshot = self._snapshot = self._build_snapshot(new_store, old.generation + 1)
        if self._swaps_total is not None:
            self._swaps_total.inc()
            self._swap_seconds.observe(time.perf_counter() - swap_start)
        return snapshot

    def add_class(self, label: str, embeddings: np.ndarray) -> ServingSnapshot:
        """Start monitoring a page (copy-on-write shard swap)."""
        return self._swap(lambda store: store.with_changes([("add", str(label), embeddings)]))

    def remove_class(self, label: str) -> ServingSnapshot:
        """Stop monitoring a page (copy-on-write shard swap)."""
        return self._swap(lambda store: store.with_changes([("remove", label)]))

    def replace_class(self, label: str, embeddings: np.ndarray) -> ServingSnapshot:
        """Refresh a drifted page's references (copy-on-write shard swap)."""
        return self._swap(lambda store: store.with_changes([("replace", label, embeddings)]))

    def rebalance(self, *, threshold: float = 0.25) -> List[Tuple[str, int, int]]:
        """Relieve shard skew with a zero-downtime copy-on-write swap.

        Moves whole classes from overloaded to underloaded shards until the
        per-shard row spread is within ``threshold * mean``; global row ids
        never change, so predictions before and after are identical — only
        scatter load shifts.  Returns the ``(label, from, to)`` moves (empty
        when already balanced, in which case no swap happens and in-flight
        caches stay warm).
        """
        moves: List[Tuple[str, int, int]] = []

        def rebalanced(store):
            new_store, planned = store.with_rebalanced(threshold=threshold)
            moves.extend(planned)
            return new_store

        self._swap(rebalanced)
        return moves

    def drift_ratio(self) -> float:
        """The live store's worst per-shard quantizer drift ratio."""
        return self._snapshot.store.drift_ratio()

    def retrain_needed(self, *, threshold: float = 1.5) -> bool:
        """Whether adaptation churn has drifted any shard's quantizer far
        enough that :meth:`requantize` would pay off."""
        return self._snapshot.store.retrain_needed(threshold=threshold)

    def requantize(self, *, sample_size: Optional[int] = None) -> ServingSnapshot:
        """Re-train every shard's quantizer on the current corpus behind a
        zero-downtime copy-on-write swap.

        The drift-aware half of the paper's adaptation story: churn keeps
        the *references* current without retraining the embedding model,
        and this keeps the *index* current without interrupting serving.
        Shards are re-trained on a clone (``sample_size`` caps the k-means
        training subsample per shard), then swapped in with a generation
        bump — in-flight batches finish on the old snapshot, and the bumped
        generation invalidates the scheduler's result cache so no stale
        prediction survives the new quantization.
        """
        return self._swap(lambda store: store.with_requantized(sample_size=sample_size))

    def adapt(self, traces: Sequence, *, replace: bool = True) -> ServingSnapshot:
        """Apply fresh traces through the attached model (no retraining).

        The serving twin of :meth:`AdaptiveFingerprinter.adapt`: the same
        change list (:meth:`AdaptiveFingerprinter.adaptation_changes`),
        applied as one copy-on-write swap — one generation, however many
        labels the traces carry.
        """
        if self._fingerprinter is None:
            raise ServingError("no fingerprinter attached; cannot embed traces")
        changes = self._fingerprinter.adaptation_changes(traces, replace=replace)
        return self._swap(lambda store: store.with_changes(changes))

    # ------------------------------------------------------------------- close
    def close(self) -> None:
        """Shut down the replica set (worker processes, shared memory)."""
        self._snapshot.store.executor.close()

    def __enter__(self) -> "DeploymentManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
