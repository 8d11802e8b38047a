"""Property-based churn harness for the serving storage layer.

Two stateful harnesses:

* :class:`MultiTenantChurnMachine` (a `hypothesis`_
  :class:`RuleBasedStateMachine` over :class:`MultiTenantChurnCore`)
  drives churn through a :class:`~repro.serving.tenancy.TenantRegistry`
  with a live :class:`~repro.serving.scheduler.BatchScheduler` on top,
  exploring op interleavings with shrinking.  Invariants: full-ranking
  equivalence against a per-tenant flat exact oracle, zero failed
  tickets, and tenant isolation (mutating one tenant never moves another
  tenant's generation or leaks its labels into another tenant's rankings).

* :class:`ChurnHarness` (stdlib-random, schemathesis-style) drives a long
  randomized sequence of ``add`` / ``remove_class`` / ``replace_class`` /
  ``save``+``load`` / ``rebalance`` operations, applied *identically* to

.. _hypothesis: https://hypothesis.readthedocs.io/

* a flat :class:`ReferenceStore` with an :class:`ExactIndex` (the oracle),
* a sharded store whose shards run :class:`ExactIndex`,
* a sharded store on :class:`CoarseQuantizedIndex` probing every cell, and
* a sharded store on :class:`IVFPQIndex` probing every cell with
  ``rerank >= k``,

and after **every** step classifies a fresh query batch through all four.
The invariants (the acceptance criteria of the serving layer, stated once
instead of once per hand-written scenario):

1. full ranked predictions agree bit-for-bit across all stores — sharding,
   probe-all IVF, re-ranked IVF-PQ, persistence round-trips and rebalance
   moves never change a single ranking;
2. zero queries fail at any step (no exceptions, no ``None`` results);
3. the flat read surface (sizes, labels, global row order) of every
   sharded store mirrors the oracle exactly.

Runs are reproducible from the seed printed in the parametrization; CI
pins the seeds.
"""

import itertools
import random

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.config import ClassifierConfig
from repro.core import KNNClassifier, ReferenceStore
from repro.core.index import CoarseQuantizedIndex, ExactIndex, IVFPQIndex
from repro.serving import (
    BatchScheduler,
    DeploymentManager,
    ReplicaSet,
    ShardedReferenceStore,
    TenantRegistry,
)
from tests.conftest import metric_value

DIM = 6
K = 7
PROBE_ALL = 1_000_000  # n_probe >= n_cells degrades to an exact scan
MIN_TRAIN = 24  # low enough that per-shard quantizers actually train mid-run


def index_factories():
    """The three engines under test; approximate ones configured to be
    provably exact (probe every cell, re-rank at least k candidates)."""
    return {
        "exact": lambda: ExactIndex(),
        "ivf": lambda: CoarseQuantizedIndex(n_probe=PROBE_ALL, min_train_size=MIN_TRAIN),
        "ivfpq": lambda: IVFPQIndex(
            n_probe=PROBE_ALL,
            rerank=64,
            n_subspaces=DIM,
            min_train_size=MIN_TRAIN,
        ),
    }


class ChurnHarness:
    """The stateful system under test plus its oracle."""

    def __init__(self, seed: int, n_shards: int = 3, assignment: str = "hash") -> None:
        self.rng = random.Random(seed)
        self.n_shards = n_shards
        self.assignment = assignment
        self.flat = ReferenceStore(DIM)
        self.stores = {
            name: ShardedReferenceStore(
                DIM, n_shards, assignment=assignment, index_factory=factory
            )
            for name, factory in index_factories().items()
        }
        self.centers = {}
        self.classifier_config = ClassifierConfig(k=K)
        self.label_counter = itertools.count()
        self.ops_applied = 0

    # ------------------------------------------------------------- generators
    def _numpy_rng(self) -> np.random.Generator:
        return np.random.default_rng(self.rng.getrandbits(32))

    def _class_batch(self, label: str, n_rows: int) -> np.ndarray:
        center = self.centers[label]
        return center + self._numpy_rng().normal(0.0, 1.0, size=(n_rows, DIM))

    def _new_label(self) -> str:
        label = f"page-{next(self.label_counter):04d}"
        self.centers[label] = self._numpy_rng().normal(0.0, 8.0, size=DIM)
        return label

    def _pick_label(self):
        labels = self.flat.class_names
        return self.rng.choice(labels) if labels else None

    def all_stores(self):
        return [("flat", self.flat)] + list(self.stores.items())

    # ------------------------------------------------------------- operations
    def op_add_new_class(self) -> str:
        label = self._new_label()
        batch = self._class_batch(label, self.rng.randint(3, 18))
        for _, store in self.all_stores():
            store.add(batch, [label] * batch.shape[0])
        return f"add_new_class({label})"

    def op_add_to_existing(self) -> str:
        label = self._pick_label()
        if label is None:
            return self.op_add_new_class()
        batch = self._class_batch(label, self.rng.randint(1, 9))
        for _, store in self.all_stores():
            store.add(batch, [label] * batch.shape[0])
        return f"add_to_existing({label})"

    def op_remove_class(self) -> str:
        if self.flat.n_classes <= 1:
            return self.op_add_new_class()
        label = self._pick_label()
        for _, store in self.all_stores():
            store.remove_class(label)
        return f"remove_class({label})"

    def op_replace_class(self) -> str:
        label = self._pick_label()
        if label is None:
            return self.op_add_new_class()
        batch = self._class_batch(label, self.rng.randint(2, 12))
        for _, store in self.all_stores():
            store.replace_class(label, batch)
        return f"replace_class({label})"

    def op_rebalance(self) -> str:
        threshold = self.rng.choice([0.0, 0.1, 0.25, 0.5])
        moved = {}
        for name, store in self.stores.items():
            self.stores[name], moves = store.with_rebalanced(threshold=threshold)
            moved[name] = len(moves)
        return f"rebalance(threshold={threshold}, moved={moved})"

    def op_save_load(self, tmp_path) -> str:
        """Round-trip every sharded store through npz persistence.

        The reloaded store must keep serving identically: the flat row
        order is the global-id order, and trained index state (IVF cells,
        PQ codebooks + codes) is adopted rather than retrained.
        """
        factories = index_factories()
        for name in list(self.stores):
            path = tmp_path / f"churn-{name}-{self.ops_applied}.npz"
            self.stores[name].to_reference_store().save(path)
            reloaded = ReferenceStore.load(path, index=factories[name]())
            self.stores[name] = ShardedReferenceStore.from_reference_store(
                reloaded,
                n_shards=self.n_shards,
                assignment=self.assignment,
                index_factory=factories[name],
            )
        return "save_load()"

    # -------------------------------------------------------------- invariants
    def check_read_surface(self) -> None:
        for name, store in self.stores.items():
            assert len(store) == len(self.flat), name
            assert store.class_names == self.flat.class_names, name
            assert np.array_equal(store.label_codes, self.flat.label_codes), name
            assert np.array_equal(store.embeddings, self.flat.embeddings), name
            assert sum(store.shard_sizes()) == len(self.flat), name

    def check_predictions(self) -> str:
        """Classify a fresh batch everywhere; rankings must be identical."""
        if len(self.flat) == 0:
            return "empty store, nothing to classify"
        rng = self._numpy_rng()
        labels = list(self.centers.keys() & set(self.flat.class_names))
        near = np.stack(
            [
                self.centers[self.rng.choice(labels)] + rng.normal(0.0, 1.5, size=DIM)
                for _ in range(6)
            ]
        )
        far = rng.normal(0.0, 1.0, size=(2, DIM)) * 40.0  # open-world outliers
        queries = np.concatenate([near, far], axis=0)
        oracle = KNNClassifier(self.flat, self.classifier_config).predict(queries)
        assert len(oracle) == queries.shape[0] and all(p is not None for p in oracle)
        for name, store in self.stores.items():
            predictions = KNNClassifier(store, self.classifier_config).predict(queries)
            assert all(p is not None for p in predictions), name
            for position, (got, expected) in enumerate(zip(predictions, oracle)):
                assert got.ranked_labels == expected.ranked_labels, (
                    f"{name} ranking diverged from the flat exact oracle on "
                    f"query {position} after {self.ops_applied} ops"
                )
                assert got.scores == pytest.approx(expected.scores), name
        return f"checked {queries.shape[0]} queries"

    # --------------------------------------------------------------------- run
    def run(self, n_ops: int, tmp_path) -> None:
        # Weighted op mix: adds dominate (corpora grow), persistence is
        # periodic (it is the slowest op), everything else is churn.
        weighted = (
            [self.op_add_new_class] * 3
            + [self.op_add_to_existing] * 5
            + [self.op_remove_class] * 3
            + [self.op_replace_class] * 5
            + [self.op_rebalance] * 3
        )
        for _ in range(4):  # a corpus to churn against
            self.op_add_new_class()
            self.ops_applied += 1
        while self.ops_applied < n_ops:
            if self.ops_applied % 40 == 20:
                description = self.op_save_load(tmp_path)
            else:
                description = self.rng.choice(weighted)()
            self.ops_applied += 1
            self.check_predictions(), description
            if self.ops_applied % 10 == 0:
                self.check_read_surface()
        self.check_read_surface()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("assignment", ["hash", "balanced"])
def test_churn_sequence_preserves_equivalence(seed, assignment, tmp_path):
    """>= 200 randomized ops with queries after every step (CI-pinned seeds)."""
    harness = ChurnHarness(seed=seed, assignment=assignment)
    harness.run(200, tmp_path)
    assert harness.ops_applied >= 200
    # The run must have exercised trained quantizers, not just the
    # brute-force fallback of tiny shards.
    assert any(
        shard.store.index.trained
        for shard in harness.stores["ivfpq"]._shards
        if len(shard.store)
    ) or max(harness.stores["ivfpq"].shard_sizes()) < MIN_TRAIN


def test_rebalance_moves_preserve_global_ids_and_predictions():
    """Directed version of the property: heavy skew, then rebalance."""
    rng = np.random.default_rng(7)
    flat = ReferenceStore(DIM)
    sharded = ShardedReferenceStore(DIM, 3, assignment="hash")
    # One giant class plus many small ones lands everything lopsided.
    for store in (flat, sharded):
        store.add(rng.standard_normal((90, DIM)) + 5.0, ["hot-page"] * 90)
        for i in range(12):
            store.add(
                rng.standard_normal((5, DIM)) - 5.0 * i, [f"cold-{i:02d}"] * 5
            )
        rng = np.random.default_rng(7)  # same data both times
    queries = np.asarray(flat.embeddings)[::7] + 0.1
    config = ClassifierConfig(k=K)
    before = KNNClassifier(sharded, config).predict(queries)
    spread_before = sharded.shard_spread()
    sharded, moves = sharded.with_rebalanced(threshold=0.2)
    assert moves, "the skewed layout must trigger at least one move"
    assert sharded.shard_spread() < spread_before
    assert np.array_equal(sharded.embeddings, flat.embeddings)  # global ids stable
    after = KNNClassifier(sharded, config).predict(queries)
    oracle = KNNClassifier(flat, config).predict(queries)
    for a, b, c in zip(before, after, oracle):
        assert a.ranked_labels == b.ranked_labels == c.ranked_labels
    # Idempotence: a balanced store has nothing to move.
    assert sharded.with_rebalanced(threshold=0.2) == (sharded, [])


def test_rebalance_never_splits_a_class():
    rng = np.random.default_rng(11)
    sharded = ShardedReferenceStore(DIM, 2, assignment="balanced")
    sharded.add(rng.standard_normal((60, DIM)), ["big"] * 60)
    sharded.add(rng.standard_normal((4, DIM)), ["small"] * 4)
    assert sharded.shard_sizes() == [60, 4]
    # The donor's only class is bigger than the spread itself: moving it
    # would just swap the imbalance to the other shard, so nothing moves —
    # classes are the unit of placement and are never split across shards.
    assert sharded.with_rebalanced(threshold=0.0) == (sharded, [])


# --------------------------------------------------------- multi-tenant rules
TENANTS = ("t-a", "t-b")


class MultiTenantChurnCore:
    """Rule implementations behind the hypothesis machine: two tenants
    behind one registry + scheduler, each mirrored by a flat exact oracle."""

    def __init__(self) -> None:
        self.registry = TenantRegistry(self._make_manager(), max_tenants=8)
        for tenant in TENANTS:
            self.registry.register(tenant, self._make_manager(), owned=True)
        self.scheduler = BatchScheduler(
            self.registry, max_batch_size=8, max_latency_s=0.001, n_executors=2
        )
        self.scheduler.__enter__()
        self.oracles = {tenant: ReferenceStore(DIM) for tenant in TENANTS}
        self.centers = {tenant: {} for tenant in TENANTS}
        self.mutations = {tenant: 0 for tenant in TENANTS}
        self.tickets = []
        self.counter = itertools.count()

    @staticmethod
    def _make_manager() -> DeploymentManager:
        return DeploymentManager(ShardedReferenceStore(DIM, 2), ClassifierConfig(k=K))

    def close(self) -> None:
        self.scheduler.__exit__(None, None, None)
        self.registry.close()

    # ---------------------------------------------------------------- rules
    def add_class(self, tenant: str, seed: int) -> None:
        rng = np.random.default_rng(seed)
        label = f"{tenant}/page-{next(self.counter):04d}"
        center = rng.normal(0.0, 8.0, size=DIM)
        batch = center + rng.standard_normal((5, DIM))
        self.centers[tenant][label] = center
        self.oracles[tenant].add(batch, [label] * 5)
        self.registry.get(tenant).add_class(label, batch)
        self.mutations[tenant] += 1

    def replace_class(self, tenant: str, seed: int) -> None:
        labels = self.oracles[tenant].class_names
        if not labels:
            return self.add_class(tenant, seed)
        rng = np.random.default_rng(seed)
        label = labels[int(rng.integers(len(labels)))]
        batch = self.centers[tenant][label] + rng.standard_normal((4, DIM))
        self.oracles[tenant].replace_class(label, batch)
        self.registry.get(tenant).replace_class(label, batch)
        self.mutations[tenant] += 1

    def remove_class(self, tenant: str, seed: int) -> None:
        labels = self.oracles[tenant].class_names
        if len(labels) <= 1:
            return self.add_class(tenant, seed)
        rng = np.random.default_rng(seed)
        label = labels[int(rng.integers(len(labels)))]
        self.oracles[tenant].remove_class(label)
        self.centers[tenant].pop(label)
        self.registry.get(tenant).remove_class(label)
        self.mutations[tenant] += 1

    def submit_queries(self, tenant: str, seed: int) -> None:
        if not self.oracles[tenant].class_names:
            return
        rng = np.random.default_rng(seed)
        centers = list(self.centers[tenant].values())
        for _ in range(3):
            query = centers[int(rng.integers(len(centers)))] + rng.standard_normal(DIM)
            self.tickets.append((tenant, self.scheduler.submit(query, tenant=tenant)))

    # ----------------------------------------------------------- invariants
    def check_equivalence_and_isolation(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        for tenant in TENANTS:
            oracle_store = self.oracles[tenant]
            manager = self.registry.get(tenant)
            # Generations are per-tenant: exactly this tenant's mutations.
            assert manager.generation == self.mutations[tenant], tenant
            if not oracle_store.class_names:
                continue
            centers = list(self.centers[tenant].values())
            queries = np.stack(
                [
                    centers[int(rng.integers(len(centers)))] + rng.standard_normal(DIM)
                    for _ in range(4)
                ]
            )
            oracle = KNNClassifier(oracle_store, ClassifierConfig(k=K)).predict(queries)
            served = manager.snapshot().predict(queries)
            for got, expected in zip(served, oracle):
                assert got.ranked_labels == expected.ranked_labels, tenant
                assert got.scores == pytest.approx(expected.scores), tenant
                # Tenant isolation: every ranked label carries this
                # tenant's namespace prefix, never a neighbour's.
                assert all(label.startswith(f"{tenant}/") for label in got.ranked_labels)

    def drain_tickets(self) -> None:
        results = [(tenant, ticket.result(timeout=30.0)) for tenant, ticket in self.tickets]
        assert all(r is not None and r.ranked_labels for _, r in results)
        failed = metric_value(self.scheduler.registry, "repro_scheduler_queries_failed_total")
        assert failed == 0
        for tenant, result in results:
            # Zero failed tickets AND no cross-tenant label in any ranking.
            assert all(label.startswith(f"{tenant}/") for label in result.ranked_labels)
        self.tickets = []


class MultiTenantChurnMachine(RuleBasedStateMachine):
    """Hypothesis explores op interleavings across the two tenants."""

    def __init__(self) -> None:
        super().__init__()
        self.core = MultiTenantChurnCore()

    tenants = st.sampled_from(TENANTS)
    seeds = st.integers(min_value=0, max_value=2**32 - 1)

    @rule(tenant=tenants, seed=seeds)
    def add_class(self, tenant, seed):
        self.core.add_class(tenant, seed)

    @rule(tenant=tenants, seed=seeds)
    def replace_class(self, tenant, seed):
        self.core.replace_class(tenant, seed)

    @rule(tenant=tenants, seed=seeds)
    def remove_class(self, tenant, seed):
        self.core.remove_class(tenant, seed)

    @rule(tenant=tenants, seed=seeds)
    def submit_queries(self, tenant, seed):
        self.core.submit_queries(tenant, seed)

    @invariant()
    def equivalence_and_isolation(self):
        self.core.check_equivalence_and_isolation(seed=0)

    def teardown(self):
        try:
            self.core.drain_tickets()
        finally:
            self.core.close()

MultiTenantChurnMachine.TestCase.settings = settings(
    max_examples=5, stateful_step_count=15, deadline=None
)
TestMultiTenantChurn = MultiTenantChurnMachine.TestCase


def test_manager_churn_with_running_scheduler_zero_failures(tmp_path):
    """Ops through the zero-downtime manager while a background scheduler
    (replica-routed) keeps classifying: no query may ever fail."""
    seed_rng = random.Random(42)
    rng = np.random.default_rng(43)
    flat = ReferenceStore(DIM)
    centers = {f"page-{i:03d}": rng.normal(0.0, 8.0, size=DIM) for i in range(10)}
    for label, center in centers.items():
        flat.add(center + rng.standard_normal((8, DIM)), [label] * 8)
    replica_set = ReplicaSet.in_process(2, router="round_robin")
    manager = DeploymentManager(
        ShardedReferenceStore.from_reference_store(flat, n_shards=3, executor=replica_set),
        ClassifierConfig(k=5),
    )
    scheduler = BatchScheduler(manager, max_batch_size=8, max_latency_s=0.001, n_executors=2)
    tickets = []
    with scheduler:
        for step in range(60):
            label = seed_rng.choice(sorted(centers))
            batch = centers[label] + rng.standard_normal((6, DIM))
            action = step % 4
            if action == 0:
                manager.replace_class(label, batch)
            elif action == 1:
                manager.add_class(f"new-{step:03d}", batch + 3.0)
            elif action == 2 and manager.store.n_classes > 2:
                manager.remove_class(sorted(manager.store.class_names)[-1])
            else:
                manager.rebalance(threshold=0.1)
            for _ in range(4):
                query = centers[label] + rng.standard_normal(DIM)
                tickets.append(scheduler.submit(query))
    results = [ticket.result(timeout=30.0) for ticket in tickets]
    assert len(results) == 240
    assert all(r is not None and r.ranked_labels for r in results)
    assert metric_value(scheduler.registry, "repro_scheduler_queries_failed_total") == 0
    assert sum(replica_set.routed_counts()) > 0
    manager.close()
