"""Drift-aware requantization, end to end through the serving layer.

The compression-v2 acceptance properties (ISSUE 5): when the corpus
churns to a distribution the IVF-PQ quantizer never saw, recall@10
degrades; after ``DeploymentManager.requantize()`` it recovers to within
1% of a fresh-trained index; and the copy-on-write swap fails zero
queries while a live scheduler keeps serving.  Plus the packed 4-bit
engine's equivalence and shared-memory publication contracts at the
serving layer.
"""

import threading

import numpy as np
import pytest

from repro.config import ClassifierConfig
from repro.core.index import ExactIndex, IVFPQIndex
from repro.core.index_bench import clustered_corpus
from repro.core.reference_store import ReferenceStore
from repro.serving import BatchScheduler, DeploymentManager, ShardedReferenceStore

N, N_CLASSES, DIM, K = 6000, 60, 24, 10


def index_factory():
    """Moderate probe/rerank budgets so stale-quantizer error is visible."""
    return IVFPQIndex(bits=4, rerank=32, n_probe=8, min_train_size=64)


def build_deployment(seed=0, executor=None):
    original = clustered_corpus(N, DIM, n_clusters=N_CLASSES, seed=seed + 4)
    labels = [f"page-{i % N_CLASSES:04d}" for i in range(N)]
    flat = ReferenceStore(DIM)
    flat.add(original, labels)
    manager = DeploymentManager(
        ShardedReferenceStore.from_reference_store(
            flat, n_shards=2, index_factory=index_factory, executor=executor
        ),
        ClassifierConfig(k=K),
    )
    return manager


def churn_to_shifted_distribution(manager, seed=0):
    """Replace every monitored class with a shifted, rescaled cluster set."""
    drifted = clustered_corpus(N, DIM, n_clusters=N_CLASSES, seed=seed + 91) * 1.5 + 4.0
    for c in range(N_CLASSES):
        manager.replace_class(f"page-{c:04d}", drifted[c :: N_CLASSES])


def recall_at_k(store, queries, exact_ids):
    _, ids = store.search(queries, K)
    hits = [np.intersect1d(ids[q], exact_ids[q]).size for q in range(ids.shape[0])]
    return float(np.mean(hits) / K)


def drifted_queries(store, seed=0, n_queries=192):
    rng = np.random.default_rng(seed + 3)
    corpus = np.asarray(store.embeddings, dtype=np.float64)
    picks = corpus[rng.choice(len(store), size=n_queries, replace=False)]
    queries = picks + 0.1 * rng.standard_normal(picks.shape)
    _, exact_ids = ExactIndex().search(corpus, queries, K)
    return queries, exact_ids


class TestDriftRecallRecovery:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_recall_degrades_then_recovers_within_1pct_of_fresh(self, seed):
        manager = build_deployment(seed)
        assert not manager.retrain_needed()
        churn_to_shifted_distribution(manager, seed)
        assert manager.retrain_needed()
        assert manager.drift_ratio() > 10.0

        queries, exact_ids = drifted_queries(manager.store, seed)
        recall_stale = recall_at_k(manager.store, queries, exact_ids)

        fresh = ReferenceStore(DIM, index_factory=index_factory)
        fresh.add(np.asarray(manager.store.embeddings), list(manager.store.labels))
        recall_fresh = recall_at_k(fresh, queries, exact_ids)

        # The stale quantizer visibly under-recalls the drifted corpus...
        assert recall_stale < recall_fresh - 0.03
        manager.requantize()
        # ...and requantization recovers to within 1% of a fresh-trained
        # index (in practice above it: per-shard quantizers are finer).
        recall_after = recall_at_k(manager.store, queries, exact_ids)
        assert recall_after >= recall_fresh - 0.01
        assert not manager.retrain_needed()
        assert manager.drift_ratio() == 1.0

    def test_requantize_preserves_ids_labels_and_rows(self):
        manager = build_deployment()
        churn_to_shifted_distribution(manager)
        store = manager.store
        before = (
            np.asarray(store.embeddings).copy(),
            list(store.labels),
            store.shard_sizes(),
        )
        clone = store.with_requantized(sample_size=2000)
        assert np.array_equal(np.asarray(clone.embeddings), before[0])
        assert list(clone.labels) == before[1]
        assert clone.shard_sizes() == before[2]
        assert clone.generation == store.generation + 1
        # Copy-on-write: the original store still serves its stale index.
        assert store.retrain_needed()
        assert not clone.retrain_needed()


class TestZeroDowntimeSwap:
    def test_zero_failed_queries_during_requantize(self):
        manager = build_deployment()
        churn_to_shifted_distribution(manager)
        queries, _ = drifted_queries(manager.store)
        scheduler = BatchScheduler(manager, max_batch_size=32)
        tickets = []
        stop = threading.Event()

        def pump():  # a closed loop of one-row blocks
            position = 0
            while not stop.is_set():
                tickets.append(scheduler.submit_block(queries[position % queries.shape[0]]))
                position += 1

        pumper = threading.Thread(target=pump)
        pumper.start()
        try:
            snapshot = manager.requantize()
        finally:
            stop.set()
            pumper.join()
        assert len(tickets) > 0
        assert sum(1 for ticket in tickets if ticket.failed) == 0
        for ticket in tickets:
            assert ticket.result() is not None
        assert snapshot.generation == manager.generation

    def test_generation_bump_invalidates_scheduler_cache(self):
        manager = build_deployment()
        scheduler = BatchScheduler(manager, cache_size=64)
        query = np.asarray(manager.store.embeddings)[0]
        first = scheduler.classify([query])[0]
        cached = scheduler.submit_block(query)
        assert cached.cached  # warm within one generation
        manager.requantize()
        fresh = scheduler.submit_block(query)
        assert not fresh.cached  # the new generation can't serve stale entries
        assert fresh.result().ranked_labels[0] == first.ranked_labels[0]


class TestPackedEngineServingEquivalence:
    def test_probe_all_4bit_sharded_matches_flat_exact_bitwise(self):
        vectors = clustered_corpus(3000, 16, n_clusters=30, seed=5)
        labels = [f"page-{i % 30:03d}" for i in range(3000)]
        flat = ReferenceStore(16)
        flat.add(vectors, labels)
        sharded = ShardedReferenceStore.from_reference_store(
            flat,
            n_shards=3,
            index_factory=lambda: IVFPQIndex(
                bits=4, n_cells=8, n_probe=8, rerank=256, min_train_size=16
            ),
        )
        rng = np.random.default_rng(6)
        queries = vectors[rng.choice(3000, 64, replace=False)]
        queries = queries + 0.05 * rng.standard_normal(queries.shape)
        d_flat, i_flat = flat.search(queries, K)
        d_sharded, i_sharded = sharded.search(queries, K)
        # Every cell probed and rerank far above k: merged packed results
        # reproduce the flat exact ranking bit-for-bit.
        assert np.array_equal(i_sharded, i_flat)
        assert np.allclose(d_sharded, d_flat)

    def test_process_executor_ships_packed_segments(self):
        from repro.serving import ReplicaSet

        vectors = clustered_corpus(3000, 32, n_clusters=30, seed=5)
        labels = [f"page-{i % 30:03d}" for i in range(3000)]
        flat = ReferenceStore(32)
        flat.add(vectors, labels)
        executor = ReplicaSet.processes(1, n_workers=2)
        try:
            sharded = ShardedReferenceStore.from_reference_store(
                flat,
                n_shards=2,
                executor=executor,
                index_factory=lambda: IVFPQIndex(bits=4, rerank=0, min_train_size=64),
            )
            queries = vectors[:16]
            _, ids = sharded.search(queries, K)
            assert ids.shape == (16, K)
            published = sum(executor.published_bytes().values())
            # Codes-only publication: far below the raw float64 matrix.
            assert 0 < published < 0.25 * vectors.nbytes
        finally:
            executor.close()


class TestRequantizeWireOp:
    def test_frontend_requantize_and_info_drift_fields(self):
        from repro.serving import FrontendClient, FrontendServer

        manager = build_deployment()
        churn_to_shifted_distribution(manager)
        scheduler = BatchScheduler(manager, max_batch_size=16)
        with FrontendServer(scheduler, manager=manager) as server:
            with FrontendClient(server.host, server.port) as client:
                info = client.info()
                assert info["retrain_needed"] is True
                assert info["drift_ratio"] > 10.0
                generation = info["generation"]
                reply = client.requantize(sample_size=2000)
                assert reply["generation"] == generation + 1
                assert reply["drift_ratio_before"] > 10.0
                assert reply["drift_ratio"] == 1.0
                assert client.info()["retrain_needed"] is False
                # Still serving after the swap.
                body = client.classify(
                    np.asarray(manager.store.embeddings)[:2], top_n=1
                )
                assert len(body["predictions"]) == 2

    def test_invalid_sample_size_is_a_structured_error(self):
        from repro.serving import FrontendClient, FrontendServer, ProtocolError

        manager = build_deployment()
        scheduler = BatchScheduler(manager, max_batch_size=16)
        with FrontendServer(scheduler, manager=manager) as server:
            with FrontendClient(server.host, server.port) as client:
                with pytest.raises(ProtocolError) as caught:
                    client.control({"op": "requantize", "sample_size": -3})
                assert caught.value.code == "bad-control"
                assert client.ping()  # connection survived the bad request
