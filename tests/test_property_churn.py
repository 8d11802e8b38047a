"""Property-based churn harness for the serving storage layer.

Two stateful harnesses:

* :class:`MultiTenantChurnMachine` (a `hypothesis`_
  :class:`RuleBasedStateMachine` over :class:`MultiTenantChurnCore`)
  drives churn through a :class:`~repro.serving.tenancy.TenantRegistry`
  with a live :class:`~repro.serving.scheduler.BatchScheduler` on top,
  exploring op interleavings with shrinking.  Invariants: full-ranking
  equivalence against a per-tenant :class:`ArrayModel` oracle, zero failed
  tickets, and tenant isolation (mutating one tenant never moves another
  tenant's generation or leaks its labels into another tenant's rankings).

* :class:`ChurnHarness` (stdlib-random, schemathesis-style) drives a long
  randomized sequence of ``add`` / ``remove_class`` / ``replace_class`` /
  ``save``+``load`` / ``rebalance`` operations, applied *identically* to

.. _hypothesis: https://hypothesis.readthedocs.io/

* an :class:`ArrayModel` (the oracle: plain arrays, independent of the
  store under test, ranked with ``seed_predict``'s arithmetic),
* a one-shard :class:`ReferenceStore` with an :class:`ExactIndex`,
* a sharded store whose shards run :class:`ExactIndex`,
* a sharded store on :class:`CoarseQuantizedIndex` probing every cell, and
* a sharded store on :class:`IVFPQIndex` probing every cell and
  re-ranking every row (``rerank`` above any store the harness grows),

and after **every** step classifies a fresh query batch through all five.
The invariants (the acceptance criteria of the serving layer, stated once
instead of once per hand-written scenario):

1. full ranked predictions agree bit-for-bit across all stores — sharding,
   probe-all IVF, re-ranked IVF-PQ, persistence round-trips and rebalance
   moves never change a single ranking;
2. zero queries fail at any step (no exceptions, no ``None`` results);
3. the read surface (sizes, labels, global row order) of every store
   mirrors the oracle exactly.

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
from tests.test_knn_equivalence import seed_predict

DIM = 6
K = 7
PROBE_ALL = 1_000_000  # n_probe >= n_cells degrades to an exact scan
MIN_TRAIN = 24  # low enough that per-shard quantizers actually train mid-run
# Above every store the harnesses grow (the largest reaches ~140 rows), so
# an IVF-PQ re-rank pool holds every row and the ADC ranking cannot drop a
# true neighbour from it; check_read_surface asserts the bound.
RERANK_ALL = 512


def index_factories():
    """The three engines under test; approximate ones configured to be
    provably exact (probe every cell, re-rank every row)."""
    return {
        "exact": lambda: ExactIndex(),
        "ivf": lambda: CoarseQuantizedIndex(n_probe=PROBE_ALL, min_train_size=MIN_TRAIN),
        "ivfpq": lambda: IVFPQIndex(
            n_probe=PROBE_ALL,
            rerank=RERANK_ALL,
            n_subspaces=DIM,
            min_train_size=MIN_TRAIN,
        ),
    }


class ArrayModel:
    """The oracle: the references as a plain row array and label list,
    mutated by the same ops (removals compact in order) and ranked with
    ``seed_predict``'s arithmetic — nothing of the store under test."""

    def __init__(self) -> None:
        self.embeddings = np.empty((0, DIM))
        self.row_labels = []

    def __len__(self) -> int:
        return len(self.row_labels)

    @property
    def labels(self) -> np.ndarray:
        return np.array(self.row_labels, dtype=object)

    @property
    def class_names(self):
        """Classes in order of their first row."""
        return list(dict.fromkeys(self.row_labels))

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def label_codes(self) -> np.ndarray:
        code_of = {name: code for code, name in enumerate(self.class_names)}
        return np.array([code_of[label] for label in self.row_labels], dtype=np.int64)

    def add(self, batch, labels) -> None:
        self.embeddings = np.concatenate([self.embeddings, np.asarray(batch, dtype=np.float64)])
        self.row_labels += list(labels)

    def remove_class(self, label) -> None:
        kept = [position for position, name in enumerate(self.row_labels) if name != label]
        self.embeddings = self.embeddings[kept]
        self.row_labels = [self.row_labels[position] for position in kept]

    def replace_class(self, label, batch) -> None:
        self.remove_class(label)
        self.add(batch, [label] * len(batch))

    def predict(self, queries, config):
        return seed_predict(self, config, queries)


class ChurnHarness:
    """The stateful system under test plus its oracle."""

    def __init__(self, seed: int, n_shards: int = 3) -> None:
        self.rng = random.Random(seed)
        self.n_shards = n_shards
        self.oracle = ArrayModel()
        self.stores = {"one-shard": ReferenceStore(DIM)}
        self.stores.update(
            (
                name,
                ShardedReferenceStore(DIM, n_shards, index_factory=factory),
            )
            for name, factory in index_factories().items()
        )
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
        labels = self.oracle.class_names
        return self.rng.choice(labels) if labels else None

    # --------------------------------------------------------------- changes
    # Each draws one change against the oracle's current state.
    def _add_new_class(self) -> tuple:
        label = self._new_label()
        return ("add", label, self._class_batch(label, self.rng.randint(3, 18)))

    def _add_to_existing(self) -> tuple:
        label = self._pick_label()
        if label is None:
            return self._add_new_class()
        return ("add", label, self._class_batch(label, self.rng.randint(1, 9)))

    def _remove_class(self) -> tuple:
        if self.oracle.n_classes <= 1:
            return self._add_new_class()
        return ("remove", self._pick_label())

    def _replace_class(self) -> tuple:
        label = self._pick_label()
        if label is None:
            return self._add_new_class()
        return ("replace", label, self._class_batch(label, self.rng.randint(2, 12)))

    def _to_oracle(self, change: tuple) -> None:
        kind, label, *rows = change
        if kind == "add":
            self.oracle.add(rows[0], [label] * len(rows[0]))
        elif kind == "remove":
            self.oracle.remove_class(label)
        else:
            self.oracle.replace_class(label, rows[0])

    # ------------------------------------------------------------- operations
    def op_in_place(self, draw) -> str:
        """One change, applied in place to every store."""
        change = draw()
        self._to_oracle(change)
        kind, label, *rows = change
        for store in self.stores.values():
            if kind == "add":
                store.add(rows[0], [label] * len(rows[0]))
            elif kind == "remove":
                store.remove_class(label)
            else:
                store.replace_class(label, rows[0])
        return f"{kind}({label})"

    def op_rebalance(self) -> str:
        threshold = self.rng.choice([0.0, 0.1, 0.25, 0.5])
        moved = {}
        for name, store in self.stores.items():
            self.stores[name], moves = store.with_rebalanced(threshold=threshold)
            moved[name] = len(moves)
        return f"rebalance(threshold={threshold}, moved={moved})"

    def op_save_load(self, tmp_path) -> str:
        """Round-trip every store through RSG1 persistence, as a deployment
        save/load does: reshard to one shard, save, load, reshard back.

        The reloaded store must keep serving identically: the saved row
        order is the global-id order, and trained index state (IVF cells,
        PQ codebooks + codes) is adopted rather than retrained.
        """
        for name, store in list(self.stores.items()):
            path = tmp_path / f"churn-{name}-{self.ops_applied}.rsg"
            ReferenceStore.from_reference_store(store, 1).save(path)
            reloaded = ReferenceStore.load(path, store.index_factory)
            self.stores[name] = type(store).from_reference_store(reloaded, store.n_shards)
        return "save_load()"

    # -------------------------------------------------------------- invariants
    def check_read_surface(self) -> None:
        assert len(self.oracle) <= RERANK_ALL, "the IVF-PQ stores stopped re-ranking every row"
        for name, store in self.stores.items():
            assert len(store) == len(self.oracle), name
            assert store.class_names == self.oracle.class_names, name
            assert np.array_equal(store.label_codes, self.oracle.label_codes), name
            assert np.array_equal(store.embeddings, self.oracle.embeddings), name
            assert sum(store.shard_sizes()) == len(self.oracle), name

    def check_predictions(self) -> str:
        """Classify a fresh batch everywhere; rankings must be identical."""
        if len(self.oracle) == 0:
            return "empty store, nothing to classify"
        rng = self._numpy_rng()
        labels = list(self.centers.keys() & set(self.oracle.class_names))
        near = np.stack(
            [
                self.centers[self.rng.choice(labels)] + rng.normal(0.0, 1.5, size=DIM)
                for _ in range(6)
            ]
        )
        far = rng.normal(0.0, 1.0, size=(2, DIM)) * 40.0  # open-world outliers
        queries = np.concatenate([near, far], axis=0)
        oracle = self.oracle.predict(queries, self.classifier_config)
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
            [lambda: self.op_in_place(self._add_new_class)] * 3
            + [lambda: self.op_in_place(self._add_to_existing)] * 5
            + [lambda: self.op_in_place(self._remove_class)] * 3
            + [lambda: self.op_in_place(self._replace_class)] * 5
            + [self.op_rebalance] * 3
        )
        for _ in range(4):  # a corpus to churn against
            self.op_in_place(self._add_new_class)
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
def test_churn_sequence_preserves_equivalence(seed, tmp_path):
    """>= 200 randomized ops with queries after every step (CI-pinned seeds)."""
    harness = ChurnHarness(seed=seed)
    harness.run(200, tmp_path)
    assert harness.ops_applied >= 200
    # The run must have exercised trained quantizers, not just the
    # brute-force fallback of tiny shards.
    assert any(
        shard.index.trained for shard in harness.stores["ivfpq"]._shards if shard.size
    ) or max(harness.stores["ivfpq"].shard_sizes()) < MIN_TRAIN


@pytest.mark.parametrize("seed", [0, 1])
def test_batched_changes_equal_the_same_changes_one_at_a_time(seed):
    """``with_changes`` applies a batch as one copy-on-write step: each
    change is drawn against the state the earlier ones leave, and the
    result must equal applying them one by one in place — bit for bit,
    rankings, read surface and generation included — on every engine,
    while the store it was called on never moves."""
    harness = ChurnHarness(seed=seed)
    draws = [
        harness._add_new_class,
        harness._add_to_existing,
        harness._remove_class,
        harness._replace_class,
    ]
    # Same configuration, no shared state: the twin's stores take batches.
    batched = ChurnHarness(seed=seed).stores
    for step in range(40):
        changes = []
        for _ in range(4 if step == 0 else harness.rng.randint(2, 4)):
            changes.append((harness._add_new_class if step == 0 else harness.rng.choice(draws))())
            harness._to_oracle(changes[-1])
        for name, store in batched.items():
            before = (store.generation, store.class_names, np.array(store.embeddings))
            batched[name] = store.with_changes(changes)
            assert (store.generation, store.class_names) == before[:2], name
            assert np.array_equal(store.embeddings, before[2]), name
            assert batched[name].generation == store.generation + 1, name
        for change in changes:
            kind, label, *rows = change
            for store in harness.stores.values():
                if kind == "add":
                    store.add(rows[0], [label] * len(rows[0]))
                elif kind == "remove":
                    store.remove_class(label)
                else:
                    store.replace_class(label, rows[0])
        harness.check_read_surface()
        queries = np.concatenate(
            [harness.oracle.embeddings[:: max(1, len(harness.oracle) // 6)] + 0.3,
             np.random.default_rng(seed).normal(0.0, 40.0, size=(2, DIM))]
        )
        for name, store in harness.stores.items():
            one, many = batched[name], store
            assert one.class_names == many.class_names, name
            assert np.array_equal(one.label_codes, many.label_codes), name
            assert np.array_equal(one.embeddings, many.embeddings), name
            assert one.shard_sizes() == many.shard_sizes(), name
            d_one, i_one = one.search(queries, K)
            d_many, i_many = many.search(queries, K)
            assert np.array_equal(i_one, i_many) and np.array_equal(d_one, d_many), name
        oracle = harness.oracle.predict(queries, harness.classifier_config)
        for name in batched:
            served = KNNClassifier(batched[name], harness.classifier_config).predict(queries)
            assert [p.ranked_labels for p in served] == [p.ranked_labels for p in oracle], name


def test_rebalance_moves_preserve_global_ids_and_predictions():
    """Directed version of the property: heavy skew, then rebalance."""
    rng = np.random.default_rng(7)
    flat = ArrayModel()
    sharded = ShardedReferenceStore(DIM, 3)
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
    def spread(store):
        return max(store.shard_sizes()) - min(store.shard_sizes())

    spread_before = spread(sharded)
    sharded, moves = sharded.with_rebalanced(threshold=0.2)
    assert moves, "the skewed layout must trigger at least one move"
    assert spread(sharded) < spread_before
    assert np.array_equal(sharded.embeddings, flat.embeddings)  # global ids stable
    after = KNNClassifier(sharded, config).predict(queries)
    oracle = flat.predict(queries, config)
    for a, b, c in zip(before, after, oracle):
        assert a.ranked_labels == b.ranked_labels == c.ranked_labels
    # Idempotence: a balanced store has nothing to move.
    assert sharded.with_rebalanced(threshold=0.2) == (sharded, [])


def test_rebalance_never_splits_a_class():
    rng = np.random.default_rng(11)
    sharded = ShardedReferenceStore(DIM, 2)
    sharded.add(rng.standard_normal((60, DIM)), ["large"] * 60)  # CRC32 places it on shard 0
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
    behind one registry + scheduler, each mirrored by an :class:`ArrayModel`."""

    def __init__(self) -> None:
        self.registry = TenantRegistry(self._make_manager(), max_tenants=8)
        for tenant in TENANTS:
            self.registry.register(tenant, self._make_manager(), owned=True)
        self.scheduler = BatchScheduler(
            self.registry, max_batch_size=8, max_latency_s=0.001, n_executors=2
        )
        self.scheduler.__enter__()
        self.oracles = {tenant: ArrayModel() for tenant in TENANTS}
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
            oracle = oracle_store.predict(queries, ClassifierConfig(k=K))
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
