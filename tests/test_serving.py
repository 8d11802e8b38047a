"""Tests for the serving subsystem: sharding, micro-batching, zero-downtime."""

import ast
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro.serving
from repro.config import ClassifierConfig
from repro.core import KNNClassifier, OpenWorldDetector, Prediction, ReferenceStore
from repro.core.index import IVFPQIndex
from repro.serving import frontend
from repro.serving import (
    BatchScheduler,
    DeploymentManager,
    FrontendClient,
    FrontendServer,
    OpenWorldConfig,
    ProtocolError,
    ReplicaSet,
    SegmentPublisher,
    ServingError,
    ShardedReferenceStore,
    TenantRegistry,
    open_world_mix,
    replay,
)
from tests.conftest import metric_value


def clustered_corpus(n=600, dim=8, n_classes=20, seed=0):
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((n_classes, dim)) * 8.0
    assignment = rng.integers(0, n_classes, size=n)
    corpus = centres[assignment] + rng.standard_normal((n, dim))
    labels = [f"page-{code:03d}" for code in assignment]
    return corpus, labels, rng


def flat_and_sharded(n_shards=3, executor=None, **kwargs):
    corpus, labels, rng = clustered_corpus(**kwargs)
    flat = ReferenceStore(corpus.shape[1])
    flat.add(corpus, labels)
    sharded = ShardedReferenceStore.from_reference_store(
        flat, n_shards=n_shards, executor=executor
    )
    return flat, sharded, corpus, rng


class TestShardedReferenceStore:
    def test_flat_read_surface_matches(self):
        flat, sharded, _, _ = flat_and_sharded()
        assert len(sharded) == len(flat)
        assert sharded.embedding_dim == flat.embedding_dim
        assert sharded.class_names == flat.class_names
        assert sharded.n_classes == flat.n_classes
        assert sharded.class_counts() == flat.class_counts()
        assert np.array_equal(sharded.label_codes, flat.label_codes)
        assert np.array_equal(sharded.embeddings, flat.embeddings)
        assert list(sharded.labels) == list(flat.labels)
        assert sum(sharded.shard_sizes()) == len(flat)

    def test_merged_search_identical_to_flat(self):
        flat, sharded, corpus, rng = flat_and_sharded()
        queries = corpus[rng.choice(len(flat), 40, replace=False)] + 0.1
        d_flat, i_flat = flat.search(queries, 9)
        d_sharded, i_sharded = sharded.search(queries, 9)
        assert np.array_equal(i_flat, i_sharded)
        assert np.allclose(d_flat, d_sharded)

    def test_classifier_predictions_identical_to_flat(self):
        flat, sharded, corpus, rng = flat_and_sharded()
        config = ClassifierConfig(k=15)
        queries = corpus[:50] + 0.05 * rng.standard_normal((50, corpus.shape[1]))
        flat_predictions = KNNClassifier(flat, config).predict(queries)
        sharded_predictions = KNNClassifier(sharded, config).predict(queries)
        for a, b in zip(flat_predictions, sharded_predictions):
            assert a.ranked_labels == b.ranked_labels
            assert a.scores == pytest.approx(b.scores)

    def test_churn_mirrors_flat_store(self):
        flat, sharded, corpus, rng = flat_and_sharded()
        fresh = rng.standard_normal((7, corpus.shape[1]))
        for store in (flat, sharded):
            store.remove_class("page-003")
            store.replace_class("page-001", fresh)
            store.add(fresh + 2.0, ["new-page"] * 7)
            store.replace_class("page-004", fresh[:0])  # zero rows: a removal
        assert sharded.class_names == flat.class_names
        assert np.array_equal(sharded.label_codes, flat.label_codes)
        assert np.array_equal(sharded.embeddings, flat.embeddings)
        queries = corpus[:20]
        _, i_flat = flat.search(queries, 11)
        _, i_sharded = sharded.search(queries, 11)
        assert np.array_equal(i_flat, i_sharded)
        # No placement outlives its rows (a dangling one broke the next
        # rebalance), neither in place nor through a copy-on-write add.
        grown = sharded.with_changes([("add", "ghost-page", fresh[:0])])
        assert not grown.has_class("ghost-page") and not grown.has_class("page-004")
        assert set(grown._class_shard) == set(grown.class_names)
        grown.with_rebalanced(threshold=0.0)

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_replace_with_invalid_rows_changes_nothing(self, n_shards):
        # Regression: the replace removed the class, then the add of rows of
        # the wrong dimension raised, leaving the store without the class
        # (and the sharded store with a placement for it).
        flat, _, corpus, _ = flat_and_sharded(n=200, dim=6)
        store = ReferenceStore(6) if n_shards == 1 else ShardedReferenceStore(6, n_shards=2)
        store.add(flat.embeddings, list(flat.labels))
        victim = store.class_names[0]
        home = store._class_shard[victim]
        config = ClassifierConfig(k=9)
        before = KNNClassifier(store, config).predict(corpus[:12])
        names, size = store.class_names, len(store)
        with pytest.raises(ValueError):
            store.replace_class(victim, np.zeros((3, 5)))
        assert store.class_names == names and len(store) == size
        assert store._class_shard[victim] == home
        after = KNNClassifier(store, config).predict(corpus[:12])
        assert [p.ranked_labels for p in after] == [p.ranked_labels for p in before]
        assert [p.scores for p in after] == [p.scores for p in before]

    def test_a_bad_change_fails_the_whole_batch_before_any_applies(self):
        _, sharded, corpus, rng = flat_and_sharded()
        fresh = rng.standard_normal((4, corpus.shape[1]))
        names, generation = sharded.class_names, sharded.generation
        for bad in (
            [("remove", "page-001"), ("remove", "page-001")],
            [("replace", "page-000", fresh), ("add", "x", fresh[:, :3])],
            [("add", "x", fresh), ("rename", "x")],
            [("add", ["a", "b"], fresh)],
        ):
            with pytest.raises((KeyError, ValueError)):
                sharded.with_changes(bad)
            with pytest.raises((KeyError, ValueError)):
                sharded._apply(sharded._plan(bad)[0])
            assert sharded.class_names == names and sharded.generation == generation
        # Later changes see what earlier ones left: add, then remove, the
        # same new class in one batch.
        batch = sharded.with_changes([("add", "x", fresh), ("remove", "x"), ("remove", "page-001")])
        assert batch.generation == generation + 1 and not batch.has_class("x")
        assert batch.class_names == [name for name in names if name != "page-001"]

    def test_placement_is_crc32_of_the_label_and_not_an_option(self):
        _, sharded, _, _ = flat_and_sharded(n_shards=4)
        for label, shard in sharded._class_shard.items():
            assert shard == zlib.crc32(label.encode("utf-8")) % 4
        for build in (
            lambda: ReferenceStore(4, assignment="hash"),
            lambda: ShardedReferenceStore(4, 2, assignment="balanced"),
            lambda: ShardedReferenceStore.from_reference_store(sharded, 2, assignment="hash"),
            lambda: DeploymentManager.from_fingerprinter(None, assignment="hash"),
        ):
            with pytest.raises(TypeError, match="assignment"):
                build()

    def test_replace_keeps_shard_affinity(self):
        _, sharded, corpus, rng = flat_and_sharded()
        home = sharded._class_shard["page-002"]
        sharded.replace_class("page-002", rng.standard_normal((5, corpus.shape[1])))
        assert sharded._class_shard["page-002"] == home

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedReferenceStore(0)
        with pytest.raises(ValueError):
            ShardedReferenceStore(4, n_shards=0)
        sharded = ShardedReferenceStore(4, n_shards=2)
        with pytest.raises(RuntimeError):
            sharded.search(np.zeros((1, 4)), 1)
        with pytest.raises(ValueError):
            sharded.add(np.zeros((2, 3)), ["a", "b"])
        with pytest.raises(KeyError):
            sharded.remove_class("absent")
        sharded.add(np.zeros((1, 4)), ["a"])
        with pytest.raises(ValueError):
            sharded.search(np.zeros((1, 3)), 1)

    def test_openworld_detector_matches_flat_calibration(self):
        flat, sharded, _, _ = flat_and_sharded()
        flat_detector = OpenWorldDetector(flat, neighbour=3, percentile=95)
        sharded_detector = OpenWorldDetector(sharded, neighbour=3, percentile=95)
        assert sharded_detector.threshold == pytest.approx(flat_detector.threshold)

    def test_copy_on_write_leaves_original_untouched(self):
        flat, sharded, corpus, rng = flat_and_sharded()
        before_names = sharded.class_names
        before_size = len(sharded)
        fresh = rng.standard_normal((6, corpus.shape[1]))

        replaced = sharded.with_changes([("replace", "page-000", fresh)])
        removed = sharded.with_changes([("remove", "page-001")])
        added = sharded.with_changes([("add", "brand-new", fresh)])

        assert sharded.class_names == before_names and len(sharded) == before_size
        assert not replaced.has_class("brand-new")
        assert np.array_equal(replaced.embeddings[replaced.labels == "page-000"], fresh)
        assert not removed.has_class("page-001")
        assert added.has_class("brand-new")

        # The updated store still merges exactly like its flat equivalent.
        twin = ReferenceStore(corpus.shape[1])
        twin.add(flat.embeddings, list(flat.labels))
        twin.replace_class("page-000", fresh)
        _, i_twin = twin.search(corpus[:15], 8)
        _, i_cow = replaced.search(corpus[:15], 8)
        assert np.array_equal(i_twin, i_cow)

    def test_cow_shares_untouched_shard_stores(self):
        _, sharded, corpus, rng = flat_and_sharded()
        home = sharded._class_shard["page-000"]
        clone = sharded.with_changes(
            [("replace", "page-000", rng.standard_normal((4, corpus.shape[1])))]
        )
        for shard_id, (old, new) in enumerate(zip(sharded._shards, clone._shards)):
            if shard_id == home:
                assert old.uid != new.uid and old.index is not new.index
            else:
                assert old.uid == new.uid and old.index is new.index

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_in_place_update_never_writes_through_a_shared_shard(self, n_shards):
        # An empty batch shares every shard; in-place updates on either
        # side must copy what they touch instead of editing it for both.
        flat, earlier, corpus, rng = flat_and_sharded(n_shards=n_shards)
        later = earlier.with_changes([])
        queries = corpus[:15]
        before = earlier.search(queries, 8)
        fresh = rng.standard_normal((6, corpus.shape[1]))
        later.add(fresh, ["brand-new"] * 6)
        later.replace_class("page-000", fresh + 1.0)
        assert earlier.class_names == flat.class_names
        for got, want in zip(earlier.search(queries, 8), before):
            assert np.array_equal(got, want)
        earlier.remove_class("page-001")
        twin = ReferenceStore(corpus.shape[1])
        twin.add(flat.embeddings, list(flat.labels))
        twin.add(fresh, ["brand-new"] * 6)
        twin.replace_class("page-000", fresh + 1.0)
        assert later.class_names == twin.class_names
        for got, want in zip(later.search(queries, 8), twin.search(queries, 8)):
            assert np.array_equal(got, want)

    def test_reshard_to_one_shard_roundtrip(self):
        flat, sharded, _, _ = flat_and_sharded()
        collapsed = ReferenceStore.from_reference_store(sharded, 1)
        assert collapsed.n_shards == 1 and collapsed.executor is None
        assert np.array_equal(collapsed.embeddings, flat.embeddings)
        assert list(collapsed.labels) == list(flat.labels)

    def test_ivf_shards(self):
        corpus, labels, rng = clustered_corpus(n=500)
        flat = ReferenceStore(corpus.shape[1])
        flat.add(corpus, labels)
        sharded = ShardedReferenceStore.from_reference_store(
            flat,
            n_shards=2,
            index_factory=lambda: IVFPQIndex(
                n_cells=6, n_probe=6, rerank=512, min_train_size=16
            ),
        )
        queries = corpus[:20]
        _, i_flat = flat.search(queries, 7)
        _, i_sharded = sharded.search(queries, 7)
        # Full-probe IVF-PQ shards re-ranking every row merge to the exact
        # answer.
        assert np.array_equal(i_flat, i_sharded)

    def test_ivfpq_shards_under_churn_match_exact(self):
        # Full probe + a rerank pool well above k makes each IVF-PQ shard
        # exact on this corpus, so the merged result must stay
        # bit-identical to the flat exact store through an adaptation
        # round.
        corpus, labels, rng = clustered_corpus(n=900, dim=12)
        flat = ReferenceStore(corpus.shape[1])
        flat.add(corpus, labels)
        sharded = ShardedReferenceStore.from_reference_store(
            flat,
            n_shards=2,
            index_factory=lambda: IVFPQIndex(
                n_cells=8, n_probe=8, n_subspaces=4, rerank=64, min_train_size=16
            ),
        )
        queries = corpus[:25] + 0.05 * rng.standard_normal((25, corpus.shape[1]))
        _, i_flat = flat.search(queries, 9)
        _, i_sharded = sharded.search(queries, 9)
        assert np.array_equal(i_flat, i_sharded)

        fresh = corpus[:6] + 0.02 * rng.standard_normal((6, corpus.shape[1]))
        for store in (flat, sharded):
            store.replace_class("page-003", fresh)
            store.remove_class("page-007")
            store.add(fresh + 1.0, ["page-new"] * 6)
        _, i_flat2 = flat.search(queries, 9)
        _, i_sharded2 = sharded.search(queries, 9)
        assert np.array_equal(i_flat2, i_sharded2)

    def test_float32_storage_dtype_carries_over(self):
        corpus, labels, _ = clustered_corpus(n=400, dim=8)
        flat = ReferenceStore(corpus.shape[1], storage_dtype="float32")
        flat.add(corpus, labels)
        sharded = ShardedReferenceStore.from_reference_store(flat, n_shards=2)
        assert sharded.storage_dtype == "float32"
        assert sharded.embeddings.dtype == np.float32
        assert all(shard.vectors.dtype == np.float32 for shard in sharded._shards)
        clone = sharded.with_changes([("replace", "page-000", corpus[:4])])
        assert clone.storage_dtype == "float32"
        assert ReferenceStore.from_reference_store(clone, 1).storage_dtype == "float32"


class TestProcessShardExecutor:
    def test_matches_serial_and_survives_republish(self):
        executor = ReplicaSet.processes(1, n_workers=2)
        try:
            flat, sharded, corpus, rng = flat_and_sharded(
                n_shards=2, executor=executor, n=300, dim=6
            )
            queries = corpus[:25]
            _, i_flat = flat.search(queries, 6)
            _, i_process = sharded.search(queries, 6)
            assert np.array_equal(i_flat, i_process)
            # Mutate -> the affected shard republishes, results stay exact.
            fresh = rng.standard_normal((5, corpus.shape[1]))
            sharded.replace_class("page-000", fresh)
            flat.replace_class("page-000", fresh)
            _, i_flat2 = flat.search(queries, 6)
            _, i_process2 = sharded.search(queries, 6)
            assert np.array_equal(i_flat2, i_process2)
        finally:
            executor.close()

    def test_closed_executor_rejects_searches(self):
        executor = ReplicaSet.processes(1, n_workers=1)
        executor.close()
        with pytest.raises(ServingError):
            executor.search([], np.zeros((1, 4)), 1, "euclidean")

    def test_dead_worker_fails_searches_instead_of_hanging(self):
        executor = ReplicaSet.processes(1, n_workers=1)
        try:
            _, sharded, corpus, _ = flat_and_sharded(n_shards=2, executor=executor, n=200, dim=6)
            sharded.search(corpus[:3], 4)
            worker = executor._replicas[0]._workers[0]
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(timeout=5.0)
            assert not worker.is_alive()
            for _ in range(2):  # every later scatter fails fast too
                start = time.monotonic()
                with pytest.raises(ServingError, match=f"worker {worker.pid} died with exit code -9"):
                    sharded.search(corpus[:3], 4)
                assert time.monotonic() - start < 5.0
        finally:
            executor.close()

    def test_ivfpq_shards_publish_codes_not_vectors(self):
        # A trained rerank=0 IVF-PQ shard ships only codes + codebooks into
        # shared memory: the segment must be several times smaller than the
        # raw float64 matrix, and searches must still work (and agree with
        # the serial executor) after an adaptation republish.
        executor = ReplicaSet.processes(1, n_workers=2)
        try:
            corpus, labels, rng = clustered_corpus(n=2000, dim=16)
            flat = ReferenceStore(corpus.shape[1])
            flat.add(corpus, labels)
            factory = lambda: IVFPQIndex(  # noqa: E731
                n_cells=12, n_probe=6, n_subspaces=4, rerank=0, min_train_size=16
            )
            sharded = ShardedReferenceStore.from_reference_store(
                flat, n_shards=2, index_factory=factory, executor=executor
            )
            serial = ShardedReferenceStore.from_reference_store(
                flat, n_shards=2, index_factory=factory
            )
            queries = corpus[:30]
            d_proc, i_proc = sharded.search(queries, 8)
            d_serial, i_serial = serial.search(queries, 8)
            assert np.array_equal(i_proc, i_serial)
            assert np.allclose(d_proc, d_serial, rtol=1e-4, atol=1e-3)

            raw_bytes_per_shard = flat.embeddings.nbytes / 2
            for segment_bytes in executor.published_bytes().values():
                assert segment_bytes < raw_bytes_per_shard / 2

            fresh = corpus[:10] + 0.01 * rng.standard_normal((10, corpus.shape[1]))
            for store in (sharded, serial):
                store.replace_class("page-001", fresh)
            d2_proc, i2_proc = sharded.search(queries, 8)
            d2_serial, i2_serial = serial.search(queries, 8)
            assert np.array_equal(i2_proc, i2_serial)
        finally:
            executor.close()

    @pytest.mark.parametrize("tier", ["shm"])
    def test_workers_unmap_retired_shard_segments(self, tier):
        # Regression: a worker cached every shard uid it ever attached, so
        # each copy-on-write swap left one more segment mapped in it (its
        # name unlinked, its pages resident) for the life of the server.
        marker = "/dev/shm/psm_"

        def mapped_segments(worker):
            lines = Path(f"/proc/{worker.pid}/maps").read_text().splitlines()
            return len({line.split(None, 5)[-1] for line in lines if marker in line})

        executor = ReplicaSet.processes(1, n_workers=2)
        try:
            corpus, labels, rng = clustered_corpus(n=200, dim=6)
            flat = ReferenceStore(corpus.shape[1])
            flat.add(corpus, labels)
            store = ShardedReferenceStore.from_reference_store(
                flat, n_shards=2, executor=executor
            )
            queries = corpus[:5]
            store.search(queries, 3)
            workers = executor._replicas[0]._workers
            before = [mapped_segments(worker) for worker in workers]
            grace = SegmentPublisher._EVICT_AFTER_CALLS
            for _ in range(3 * grace):
                store = store.with_changes(
                    [("replace", "page-000", rng.standard_normal((4, corpus.shape[1])))]
                )
                store.search(queries, 3)
            for worker, baseline in zip(workers, before):
                # The live segment plus the retired ones still inside the
                # grace window, however many swaps ran.
                assert mapped_segments(worker) - baseline <= grace + 1
        finally:
            executor.close()

    def test_one_resource_tracker_per_server(self, tmp_path):
        # Regression: workers attached through SharedMemory(name=...), which
        # registers the segment with a resource tracker; forked before the
        # parent had one, each worker started its own tracker process.
        probe = tmp_path / "probe.py"
        probe.write_text(
            "import json, os\n"
            "import numpy as np\n"
            "from repro.core import ReferenceStore\n"
            "from repro.serving import ReplicaSet, ShardedReferenceStore\n"
            "def descendants(root):\n"
            "    parents = {}\n"
            "    for entry in filter(str.isdigit, os.listdir('/proc')):\n"
            "        try:\n"
            "            stat = open(f'/proc/{entry}/stat').read()\n"
            "        except OSError:\n"
            "            continue\n"
            "        parents[int(entry)] = int(stat[stat.rindex(')') + 2 :].split()[1])\n"
            "    found, frontier = [], [root]\n"
            "    while frontier:\n"
            "        parent = frontier.pop()\n"
            "        children = [pid for pid, ppid in parents.items() if ppid == parent]\n"
            "        found += children\n"
            "        frontier += children\n"
            "    return found\n"
            "executor = ReplicaSet.processes(1, n_workers=2)\n"
            "vectors = np.random.default_rng(0).standard_normal((120, 6))\n"
            "flat = ReferenceStore(6)\n"
            "flat.add(vectors, [f'c{i % 6}' for i in range(120)])\n"
            "store = ShardedReferenceStore.from_reference_store(flat, n_shards=2, executor=executor)\n"
            "store.search(vectors[:3], 3)\n"
            "workers = {worker.pid for worker in executor._replicas[0]._workers}\n"
            "others = [\n"
            "    open(f'/proc/{pid}/cmdline', 'rb').read().decode(errors='replace')\n"
            "    for pid in descendants(os.getpid()) if pid not in workers\n"
            "]\n"
            "print(json.dumps({'workers': len(workers), 'others': others}))\n"
            "executor.close()\n"
        )
        run = subprocess.run([sys.executable, str(probe)], capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        tree = json.loads(run.stdout.strip().splitlines()[-1])
        assert tree["workers"] == 2
        assert len(tree["others"]) <= 1, tree["others"]
        assert all("resource_tracker" in command for command in tree["others"]), tree["others"]

    def test_float32_vectors_halve_segments(self):
        executor = ReplicaSet.processes(1, n_workers=1)
        try:
            corpus, labels, _ = clustered_corpus(n=800, dim=16)
            flat64 = ReferenceStore(corpus.shape[1])
            flat64.add(corpus, labels)
            sharded = ShardedReferenceStore.from_reference_store(
                flat64, n_shards=2, executor=executor, storage_dtype="float32"
            )
            _, i32 = sharded.search(corpus[:20], 6)
            _, i64 = flat64.search(corpus[:20], 6)
            assert (i32 == i64).mean() > 0.99
            raw_bytes_per_shard = flat64.embeddings.nbytes / 2
            # Allow for the fixed RSG1 header + page-aligned data region.
            for segment_bytes in executor.published_bytes().values():
                assert segment_bytes <= raw_bytes_per_shard / 2 + 8192
        finally:
            executor.close()


def build_manager(n_shards=2, k=15, **kwargs):
    flat, sharded, corpus, rng = flat_and_sharded(n_shards=n_shards, **kwargs)
    manager = DeploymentManager(sharded, ClassifierConfig(k=k))
    return manager, flat, corpus, rng


def submit_with_mid_run(scheduler, queries, mid_run):
    """Classify every query as a one-row block on a pump thread, in order,
    while this thread fires ``mid_run`` once half of them are answered, so
    the rest are queued and classified around it; a failed row raises."""
    tickets = []
    halfway = threading.Event()

    def pump():
        for query in queries:
            tickets.append(scheduler.submit_block(query))
            if len(tickets) == len(queries) // 2:
                halfway.set()

    pumper = threading.Thread(target=pump)
    pumper.start()
    try:
        assert halfway.wait(60.0)
        mid_run()
    finally:
        pumper.join(60.0)
    assert not pumper.is_alive() and len(tickets) == len(queries)
    return [ticket.result() for ticket in tickets]


class TestBatchScheduler:
    def test_inline_batching_matches_direct_predict(self):
        manager, flat, corpus, _ = build_manager()
        scheduler = BatchScheduler(manager, max_batch_size=16, cache_size=0)
        queries = corpus[:40]
        predictions = scheduler.classify(queries)
        expected = KNNClassifier(flat, ClassifierConfig(k=15)).predict(queries)
        assert [p.ranked_labels for p in predictions] == [p.ranked_labels for p in expected]
        assert metric_value(scheduler.registry, "repro_scheduler_batches_total") == 3  # 16 + 16 + 8
        assert metric_value(scheduler.registry, "repro_scheduler_largest_batch") == 16
        assert metric_value(scheduler.registry, "repro_scheduler_queries_completed_total") == 40

    def test_cache_serves_duplicates_and_generation_invalidates(self):
        manager, _, corpus, rng = build_manager()
        scheduler = BatchScheduler(manager, max_batch_size=8, cache_size=64)
        query = corpus[0]
        first = scheduler.submit_block(query)
        second = scheduler.submit_block(query)  # exact revisit -> cache hit
        assert second.done() and second.cached
        assert second.result().ranked_labels == first.result().ranked_labels
        assert metric_value(scheduler.registry, "repro_scheduler_cache_hits_total") == 1

        manager.replace_class("page-000", rng.standard_normal((4, corpus.shape[1])))
        third = scheduler.submit_block(query)  # new generation -> cache miss
        assert not third.cached
        assert metric_value(scheduler.registry, "repro_scheduler_cache_misses_total") == 2

    def test_cache_hit_is_a_fresh_prediction_the_caller_cannot_corrupt(self):
        manager, _, corpus, _ = build_manager()
        scheduler = BatchScheduler(manager, max_batch_size=8, cache_size=64)
        query = corpus[:1]
        first = scheduler.classify(query)[0]
        expected = (list(first.ranked_labels), list(first.scores))
        first.ranked_labels.reverse()
        first.scores.clear()
        second = scheduler.classify(query)[0]  # a cache hit
        assert metric_value(scheduler.registry, "repro_scheduler_cache_hits_total") == 1
        assert second is not first
        assert (second.ranked_labels, second.scores) == expected

    def test_batch_failure_fails_tickets_not_scheduler(self):
        manager, _, corpus, _ = build_manager()
        scheduler = BatchScheduler(manager, max_batch_size=8, cache_size=0)
        bad = scheduler.submit_block(np.zeros(3))  # wrong dimension
        with pytest.raises(ServingError):
            bad.result()
        assert metric_value(scheduler.registry, "repro_scheduler_queries_failed_total") == 1
        good = scheduler.classify(corpus[:2])
        assert len(good) == 2

    def test_validation(self):
        manager, _, _, _ = build_manager()
        with pytest.raises(ValueError):
            BatchScheduler(manager, max_batch_size=0)
        with pytest.raises(ValueError):
            BatchScheduler(manager, cache_size=-1)


class SlowSource:
    """A scheduler source whose ``predict`` sleeps, counts how many calls
    overlap and answers each row with a label naming that row."""

    generation = 0

    def __init__(self, predict_s):
        self.predict_s = predict_s
        self.lock = threading.Lock()
        self.active = self.most_active = 0
        self.seen = []  # the rows predict was given, by their label number

    def snapshot(self):
        return self

    def predict(self, embeddings):
        with self.lock:
            self.active += 1
            self.most_active = max(self.most_active, self.active)
            self.seen.extend(int(row[0]) for row in embeddings)
        time.sleep(self.predict_s)
        with self.lock:
            self.active -= 1
        return [Prediction([f"row-{int(row[0])}"], [1.0]) for row in embeddings]


class GatedSource:
    """A scheduler source whose first ``predict`` holds until ``release``
    is set and whose second raises ``KeyboardInterrupt``; later calls
    answer each row with a label naming that row."""

    generation = 0

    def __init__(self):
        self.calls = 0
        self.entered = threading.Event()
        self.release = threading.Event()

    def snapshot(self):
        return self

    def predict(self, embeddings):
        self.calls += 1
        if self.calls == 1:
            self.entered.set()
            assert self.release.wait(10.0)
        elif self.calls == 2:
            raise KeyboardInterrupt
        return [Prediction([f"row-{int(row[0])}"], [1.0]) for row in embeddings]


class TestFlusher:
    """Batches run on the callers' threads: at once when a slot is free,
    coalesced while every slot is busy, and never for a caller that left."""

    def test_an_interrupted_batch_frees_its_slot_and_fails_every_ticket_in_it(self):
        source = GatedSource()
        scheduler = BatchScheduler(source, cache_size=0)  # one executor slot
        outcomes = {}

        def submit(row):
            start = time.monotonic()
            try:
                ticket = scheduler.submit_block(np.full((1, 4), float(row)), timeout=10.0)
                outcome = "failed" if ticket.failed else "answered"
            except KeyboardInterrupt:
                outcome = "interrupted"
            outcomes[row] = (outcome, time.monotonic() - start)

        holder = threading.Thread(target=submit, args=(0,))
        holder.start()
        assert source.entered.wait(10.0)  # row 0's batch holds the one slot
        waiters = [threading.Thread(target=submit, args=(row,)) for row in (1, 2)]
        for thread in waiters:
            thread.start()
        deadline = time.monotonic() + 10.0
        while len(scheduler._pending) < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        source.release.set()  # rows 1 and 2 now form one batch, which is interrupted
        for thread in (holder, *waiters):
            thread.join(15.0)
        assert outcomes[0][0] == "answered"
        # The thread that ran the batch sees the interrupt; the other
        # thread's ticket fails at once instead of waiting out its timeout.
        assert sorted(outcomes[row][0] for row in (1, 2)) == ["failed", "interrupted"]
        assert max(outcomes[row][1] for row in (1, 2)) < 5.0
        # The slot was freed: the next block runs at once.
        assert scheduler._busy == 0
        assert scheduler.classify(np.full((1, 4), 3.0), timeout=0.3)[0].best == "row-3"
        assert source.calls == 3
        assert metric_value(scheduler.registry, "repro_scheduler_queries_failed_total") == 2

    def test_lone_queries_never_wait_out_a_poll(self):
        manager, _, corpus, _ = build_manager()
        scheduler = BatchScheduler(manager, cache_size=0)
        latencies = []
        for query in corpus[:20]:
            start = time.perf_counter()
            scheduler.submit_block(query, timeout=5.0).result()
            latencies.append(time.perf_counter() - start)
        assert statistics.median(latencies) < 0.015

    def test_frame_flushes_whole_as_soon_as_it_is_complete(self):
        manager, _, corpus, _ = build_manager()
        scheduler = BatchScheduler(manager, cache_size=0)  # a frame is a quarter of a batch
        sizes = scheduler.registry.get("repro_scheduler_batch_size")
        latencies = []
        with FrontendServer(scheduler, manager=manager) as server:
            with FrontendClient(server.host, server.port) as client:
                for frame in range(20):
                    start = time.perf_counter()
                    body = client.classify(corpus[frame : frame + 16])
                    latencies.append(time.perf_counter() - start)
                    assert len(body["predictions"]) == 16
        assert statistics.median(latencies) < 0.025
        # One frame is outstanding at a time, so no batch holds more than 16
        # rows: 20 batches holding 320 rows are one batch of 16 per frame.
        assert (sizes.count(), sizes.sum()) == (20, 320)
        assert metric_value(scheduler.registry, "repro_scheduler_largest_batch") == 16

    def test_executors_bound_in_flight_batches_and_busy_time_coalesces(self):
        source = SlowSource(0.02)
        scheduler = BatchScheduler(source, n_executors=2, cache_size=0)
        answers = {}

        def client(worker):
            for row in range(worker * 25, worker * 25 + 25):
                answers[row] = scheduler.classify(np.full((1, 4), float(row)), timeout=10.0)

        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            threads = [threading.Thread(target=client, args=(worker,)) for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch_interval)
        assert {row: [p.best for p in got] for row, got in answers.items()} == {
            row: [f"row-{row}"] for row in range(200)
        }
        assert source.most_active <= 2
        # Unbounded hand-off would run 200 batches of one; rows that arrive
        # while both executors are busy share a batch instead.
        sizes = scheduler.registry.get("repro_scheduler_batch_size")
        assert sizes.sum() == 200 and sizes.sum() / sizes.count() >= 2

    def test_served_classify_starts_no_scheduler_thread(self):
        manager, _, corpus, _ = build_manager()
        scheduler = BatchScheduler(manager, n_executors=2, cache_size=0)
        before = set(threading.enumerate())
        seen = set()
        # Entered the way bench/server.py enters it: that starts nothing either.
        with scheduler, FrontendServer(scheduler, manager=manager) as server:

            def client(worker):
                with FrontendClient(server.host, server.port) as connection:
                    for frame in range(5):
                        start = worker * 40 + frame * 8
                        body = connection.classify(corpus[start : start + 8])
                        assert len(body["predictions"]) == 8
                        seen.update(threading.enumerate())

            clients = [threading.Thread(target=client, args=(worker,)) for worker in range(8)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in clients)
        started = {thread.name for thread in seen - before - set(clients)}
        # Only the front-end's own threads: its listener and one per connection.
        assert started and all(
            name.startswith(("serving-frontend", "frontend-connection")) for name in started
        ), started
        assert metric_value(scheduler.registry, "repro_scheduler_queries_completed_total") == 320

    def test_a_frame_that_times_out_leaves_the_queue(self, monkeypatch):
        monkeypatch.setattr(frontend, "_RESULT_TIMEOUT_S", 0.2)
        manager, _, _, _ = build_manager(dim=4)
        source = SlowSource(1.0)
        scheduler = BatchScheduler(source, cache_size=0)  # one executor slot
        with FrontendServer(scheduler, manager=manager) as server:
            with FrontendClient(server.host, server.port) as first, \
                    FrontendClient(server.host, server.port) as second:
                stalled = threading.Thread(target=first.classify, args=(np.zeros((1, 4)),))
                stalled.start()
                deadline = time.monotonic() + 5.0
                while not source.seen and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert source.seen == [0]  # its batch holds the only slot
                with pytest.raises(ProtocolError) as excinfo:
                    second.classify(np.ones((1, 4)))
                assert excinfo.value.code == "query-failed"
                stalled.join(timeout=10.0)
                assert not stalled.is_alive()
                assert second.ping()  # the connection that gave up keeps serving
        # The frame that gave up took its row with it: once the slot freed,
        # nothing classified it for nobody.
        assert source.seen == [0]
        registry = scheduler.registry
        assert metric_value(registry, "repro_scheduler_queue_depth") == 0
        assert metric_value(registry, "repro_scheduler_queries_failed_total") == 1


class VanishingTenants(TenantRegistry):
    """A registry that drops ``acme`` as it is resolved the second time —
    a ``tenant drop`` landing between two lookups of one frame."""

    lookups = 0

    def get(self, tenant=None):
        self.lookups += 1
        if self.lookups == 2:
            self.drop("acme")
        return super().get(tenant)


class TestFrameIsQueuedWholeOrNotAtAll:
    def build(self):
        manager, _, corpus, _ = build_manager()
        acme, _, _, _ = build_manager(seed=1)
        tenants = VanishingTenants(manager)
        tenants.register("acme", acme)
        return tenants, BatchScheduler(tenants, cache_size=0), manager, corpus

    def test_tenant_dropped_before_the_frame_is_queued(self):
        tenants, scheduler, manager, corpus = self.build()
        with FrontendServer(scheduler, manager=manager, tenants=tenants) as server:
            with FrontendClient(server.host, server.port) as client:
                with pytest.raises(ProtocolError) as excinfo:  # 1st lookup: dimension check
                    client.classify(corpus[:3], tenant="acme")  # 2nd: the scheduler's
        assert excinfo.value.code == "unknown-tenant"
        assert metric_value(scheduler.registry, "repro_scheduler_queries_submitted_total") == 0

    def test_tenant_dropped_after_the_frame_is_queued(self):
        tenants, scheduler, _, corpus = self.build()
        with pytest.raises(ServingError):  # 1st lookup queues the frame, 2nd fails its batch
            scheduler.classify(corpus[:3], tenant="acme")
        registry = scheduler.registry
        assert metric_value(registry, "repro_scheduler_queries_submitted_total") == 3
        assert metric_value(registry, "repro_scheduler_queries_failed_total") == 3


def _imported_modules(path):
    """Every module ``path`` imports, at module level or inside a function."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def test_serving_layers_import_one_way():
    """core never imports serving; transport imports neither the executors
    nor the store; and nothing on the query path — the serving modules and
    the core modules a query runs through — imports scipy."""
    serving = Path(repro.serving.__file__).parent
    core = serving.parent / "core"
    for path in core.glob("*.py"):
        names = _imported_modules(path)
        assert not any(name.startswith("repro.serving") for name in names), path.name
    assert not _imported_modules(serving / "transport.py") & {
        "repro.serving.executors", "repro.core.reference_store"
    }
    query_path = list(serving.glob("*.py")) + [
        core / f"{name}.py" for name in ("index", "reference_store", "classifier", "openworld")
    ]
    for path in query_path:
        names = _imported_modules(path)
        assert not any(name.split(".")[0] == "scipy" for name in names), path.name


def test_serving_import_leaves_out_the_simulator_and_the_trainer():
    probe = (
        "import sys, repro.serving; "
        "print([m for m in ('networkx', 'repro.web', 'repro.nn', 'scipy', 'asyncio') "
        "if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.strip() == "[]"


class TestDeploymentManager:
    def test_snapshot_swap_is_atomic_and_cow(self):
        manager, _, corpus, rng = build_manager()
        before = manager.snapshot()
        manager.replace_class("page-000", rng.standard_normal((5, corpus.shape[1])))
        after = manager.snapshot()
        assert after.generation == before.generation + 1
        assert before.store is not after.store
        # The old snapshot still answers queries (in-flight batches).
        distances, _ = before.store.search(corpus[:3], 4)
        assert np.isfinite(distances).all()

    def test_open_world_detector_recalibrates_on_swap(self):
        flat, sharded, corpus, rng = flat_and_sharded()
        manager = DeploymentManager(
            sharded, ClassifierConfig(k=15), open_world=OpenWorldConfig(neighbour=3, percentile=95)
        )
        first = manager.snapshot()
        assert first.detector is not None
        far = corpus[:4] + 500.0
        assert first.is_unknown(far).all()
        manager.remove_class("page-000")
        second = manager.snapshot()
        assert second.detector is not None and second.detector is not first.detector

    def test_zero_failed_queries_during_mid_run_replace(self):
        manager, flat, corpus, rng = build_manager()
        queries, _ = open_world_mix(corpus, 120, unmonitored_fraction=0.2, seed=3)
        fresh = rng.standard_normal((6, corpus.shape[1]))
        generations = []

        def swap():
            generations.append(manager.generation)
            manager.replace_class("page-000", fresh)
            generations.append(manager.generation)

        scheduler = BatchScheduler(manager, max_batch_size=16)
        predictions = submit_with_mid_run(scheduler, queries, swap)
        assert len(predictions) == 120
        assert all(prediction is not None for prediction in predictions)
        assert generations[1] == generations[0] + 1

    def test_zero_failed_queries_with_background_thread_and_processes(self):
        executor = ReplicaSet.processes(1, n_workers=2)
        try:
            manager, _, corpus, rng = build_manager(executor=executor, n=300, dim=6)
            queries, _ = open_world_mix(corpus, 80, seed=4)
            fresh = rng.standard_normal((5, corpus.shape[1]))
            scheduler = BatchScheduler(manager, max_batch_size=16)
            predictions = submit_with_mid_run(
                scheduler, queries, lambda: manager.replace_class("page-001", fresh)
            )
            assert all(prediction is not None for prediction in predictions)
        finally:
            executor.close()

    def test_zero_failed_queries_over_the_wire_while_classes_are_replaced(self):
        """The wire-level twin: a replay runs on a worker thread against a
        front-end over process executors while this thread keeps swapping."""
        executor = ReplicaSet.processes(1, n_workers=2)
        try:
            manager, _, corpus, rng = build_manager(executor=executor, n=300, dim=6)
            queries, _ = open_world_mix(corpus, 160, seed=4)
            started_at = manager.generation
            scheduler = BatchScheduler(manager, max_batch_size=16)
            with FrontendServer(scheduler, manager=manager) as server:
                with ThreadPoolExecutor(max_workers=1) as pool:
                    future = pool.submit(
                        replay, server.host, server.port, queries, request_batch_size=8
                    )
                    swaps = 0
                    while swaps == 0 or not future.done():
                        manager.replace_class("page-001", rng.standard_normal((5, 6)))
                        swaps += 1
                    result = future.result(timeout=60)
            assert result.n_queries == 160 and result.failed == 0
            assert started_at <= min(result.generations)
            assert max(result.generations) <= manager.generation == started_at + swaps
        finally:
            executor.close()

    def test_concurrent_swap_and_serving_share_process_executor(self):
        # The swap recalibrates the open-world detector, whose calibration
        # searches through the same executor the pump thread's batches use —
        # the executor must serialise the two scatter/gathers.
        executor = ReplicaSet.processes(1, n_workers=2)
        try:
            flat, sharded, corpus, rng = flat_and_sharded(n_shards=2, executor=executor, n=300, dim=6)
            manager = DeploymentManager(
                sharded,
                ClassifierConfig(k=10),
                open_world=OpenWorldConfig(neighbour=3, percentile=95),
            )
            queries, _ = open_world_mix(corpus, 80, seed=6)
            fresh = rng.standard_normal((5, corpus.shape[1]))
            scheduler = BatchScheduler(manager, max_batch_size=8)
            predictions = submit_with_mid_run(
                scheduler, queries, lambda: manager.replace_class("page-002", fresh)
            )
            assert all(prediction is not None for prediction in predictions)
            assert manager.snapshot().detector is not None
        finally:
            executor.close()

    def test_process_executor_evicts_retired_shard_segments(self):
        executor = ReplicaSet.processes(1, n_workers=2)
        try:
            _, sharded, corpus, rng = flat_and_sharded(n_shards=2, executor=executor, n=200, dim=6)
            queries = corpus[:5]
            sharded.search(queries, 3)
            assert len(executor.published_bytes()) == 2
            # Copy-on-write swaps retire one shard uid per update; after the
            # grace window the retired segments must be unlinked.
            grace = SegmentPublisher._EVICT_AFTER_CALLS
            store = sharded
            for round_ in range(grace + 2):
                store = store.with_changes(
                    [("replace", "page-000", rng.standard_normal((4, corpus.shape[1])))]
                )
                store.search(queries, 3)
            assert len(executor.published_bytes()) <= 2 + grace
        finally:
            executor.close()

    def test_adapt_requires_fingerprinter(self):
        manager, _, _, _ = build_manager()
        with pytest.raises(ServingError):
            manager.adapt([object()])
        with pytest.raises(ServingError):
            manager.save("/tmp/never-written")


class TestReplay:
    """The one traffic driver, against a real front-end."""

    @pytest.fixture(scope="class")
    def served(self):
        manager, _, corpus, _ = build_manager()
        scheduler = BatchScheduler(manager, max_batch_size=16)
        with FrontendServer(scheduler, manager=manager) as server:
            yield server.host, server.port, corpus

    @pytest.mark.parametrize("n_clients", [1, 3])
    def test_answers_come_back_in_query_order(self, served, n_clients):
        host, port, corpus = served
        queries, _ = open_world_mix(corpus, 50, seed=9)
        result = replay(
            host, port, queries, request_batch_size=7, top_n=3, n_clients=n_clients
        )
        with FrontendClient(host, port) as client:
            body = client.classify(queries, top_n=3)
        whole = body["predictions"]
        assert result.n_queries == 50 and result.failed == 0
        assert [labels for labels, _ in result.predictions] == [e["labels"] for e in whole]
        for (_, scores), entry in zip(result.predictions, whole):
            assert np.allclose(scores, entry["scores"])
        n_requests = -(-50 // 7)
        assert len(result.generations) == result.latency.count() == n_requests
        assert set(result.generations) == {body["generation"]}
        assert 0.0 < result.p50_ms <= result.p99_ms
        assert result.throughput_qps == pytest.approx(50 / result.duration_s)

    def test_connection_refused_counts_every_query_failed(self):
        with socket.socket() as probe:  # a port nobody listens on
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        result = replay("127.0.0.1", port, np.zeros((10, 8)), request_batch_size=4)
        assert result.predictions == [None] * 10
        assert (result.n_queries, result.failed) == (10, 10)
        assert result.generations == [] and result.latency.count() == 0
        assert (result.p50_ms, result.p99_ms) == (0.0, 0.0)

    def test_error_frames_count_failed_and_the_server_keeps_serving(self, served):
        host, port, corpus = served
        wrong_dim = np.zeros((10, corpus.shape[1] + 1))
        result = replay(host, port, wrong_dim, request_batch_size=4, n_clients=1)
        assert result.failed == result.n_queries == 10
        assert result.latency.count() == 0
        assert replay(host, port, corpus[:10], request_batch_size=4).failed == 0

    def test_results_merge(self, served):
        host, port, corpus = served
        first = replay(host, port, corpus[:10], request_batch_size=4)
        second = replay(host, port, np.zeros((6, corpus.shape[1] + 1)), request_batch_size=4)
        answers, durations = list(first.predictions), first.duration_s + second.duration_s
        total = first.latency.sum() + second.latency.sum()
        first.merge_from(second)
        assert first.predictions == answers + [None] * 6
        assert (first.n_queries, first.failed) == (16, 6)
        assert len(first.generations) == first.latency.count() == 3
        assert first.latency.sum() == pytest.approx(total)
        assert first.duration_s == pytest.approx(durations)

    def test_validation(self):
        for kwargs in ({"request_batch_size": 0}, {"top_n": 0}, {"n_clients": 0}):
            with pytest.raises(ValueError, match="must be positive"):
                replay("127.0.0.1", 1, np.zeros((2, 4)), **kwargs)
        with pytest.raises(ValueError, match="empty"):
            replay("127.0.0.1", 1, np.zeros((0, 4)))


class TestOpenWorldMix:
    def test_mix_shapes_and_fractions(self):
        corpus, _, _ = clustered_corpus(n=200)
        queries, is_unmonitored = open_world_mix(
            corpus, 100, unmonitored_fraction=0.3, revisit_fraction=0.2, seed=0
        )
        assert queries.shape == (100, corpus.shape[1])
        assert is_unmonitored.sum() == 30
        # Revisits duplicate earlier monitored queries exactly.
        monitored = queries[~is_unmonitored]
        unique = np.unique(monitored, axis=0)
        assert unique.shape[0] < monitored.shape[0]

    def test_unmonitored_queries_are_outliers(self):
        corpus, labels, _ = clustered_corpus(n=200)
        store = ReferenceStore(corpus.shape[1])
        store.add(corpus, labels)
        detector = OpenWorldDetector(store, neighbour=3, percentile=95)
        queries, is_unmonitored = open_world_mix(corpus, 100, outlier_shift=50.0, seed=1)
        flags = detector.is_unknown(queries)
        assert flags[is_unmonitored].mean() > 0.95
        assert flags[~is_unmonitored].mean() < 0.3

    def test_validation(self):
        corpus, _, _ = clustered_corpus(n=20)
        with pytest.raises(ValueError):
            open_world_mix(np.empty((0, 4)), 10)
        with pytest.raises(ValueError):
            open_world_mix(corpus, 10, unmonitored_fraction=1.5)
        with pytest.raises(ValueError):
            open_world_mix(corpus, 10, revisit_fraction=1.0)


class TestSchedulerCacheKey:
    """The LRU result cache keys on the snapshot's (deployment serial,
    generation), never on the generation alone."""

    class SwappableSource:
        def __init__(self, manager):
            self.manager = manager

        def snapshot(self):
            return self.manager.snapshot()

    def build(self, label, index_factory):
        rng = np.random.default_rng(zlib.crc32(label.encode()))
        corpus = rng.standard_normal((300, 6)) + 4.0
        flat = ReferenceStore(6)
        flat.add(corpus, [label] * 300)
        return DeploymentManager(
            ShardedReferenceStore.from_reference_store(
                flat, n_shards=2, index_factory=index_factory
            ),
            ClassifierConfig(k=5),
        )

    def test_two_deployments_at_one_generation_never_share_a_token(self):
        first = self.build("page-same", None)
        second = self.build("page-same", None)  # same corpus, same index spec
        assert first.generation == second.generation == 0
        assert first.snapshot().cache_token != second.snapshot().cache_token

    def test_a_recreated_tenant_never_gets_the_dropped_ones_answers(self):
        def provision(name):
            return DeploymentManager(ShardedReferenceStore(6, 2), ClassifierConfig(k=1))

        tenants = TenantRegistry(self.build("page-default", None), factory=provision)
        scheduler = BatchScheduler(tenants, cache_size=64)
        query = np.full((1, 6), 4.0)
        with FrontendServer(scheduler, tenants=tenants) as server:
            with FrontendClient(server.host, server.port) as client:
                client.create_tenant("acme")
                client.add_class("old-page", query + 0.1, tenant="acme")
                before = client.classify(query, tenant="acme")["predictions"][0]["labels"]
                client.drop_tenant("acme")
                client.create_tenant("acme")  # its generations count from 0 again
                client.add_class("new-page", query + 0.1, tenant="acme")
                after = client.classify(query, tenant="acme")["predictions"][0]["labels"]
        tenants.close()
        assert (before, after) == (["old-page"], ["new-page"])

    def test_index_config_swap_never_serves_stale_predictions(self):
        # Two deployments, both at generation 0, same query — but different
        # corpora AND different index specs (a redeploy with a new index
        # config).  Keying on the generation alone would serve deployment
        # A's cached prediction for deployment B.
        manager_a = self.build("page-aaa", None)
        manager_b = self.build(
            "page-bbb",
            lambda: IVFPQIndex(n_cells=4, n_probe=4, n_subspaces=2, min_train_size=16),
        )
        source = self.SwappableSource(manager_a)
        scheduler = BatchScheduler(source, max_batch_size=4, cache_size=64)
        query = np.full(6, 4.0)
        first = scheduler.classify([query])[0]
        assert first.best == "page-aaa"
        assert metric_value(scheduler.registry, "repro_scheduler_cache_misses_total") == 1

        source.manager = manager_b  # redeploy with a different index config
        second = scheduler.classify([query])[0]
        assert second.best == "page-bbb", "stale cached prediction served across index configs"
        # And within one deployment the cache still hits.
        third = scheduler.classify([query])[0]
        assert third.best == "page-bbb"
        assert metric_value(scheduler.registry, "repro_scheduler_cache_hits_total") == 1

    def test_same_config_same_generation_still_hits(self):
        manager = self.build("page-hit", None)
        scheduler = BatchScheduler(manager, max_batch_size=4, cache_size=64)
        query = np.full(6, 4.0)
        scheduler.classify([query])
        scheduler.classify([query])
        assert metric_value(scheduler.registry, "repro_scheduler_cache_hits_total") == 1


class TestReplicaSet:
    def test_round_robin_rotates(self):
        flat, sharded, corpus, _ = flat_and_sharded(
            executor=ReplicaSet.in_process(2, router="round_robin")
        )
        for _ in range(4):
            sharded.search(corpus[:3], 5)
        assert sharded.executor.routed_counts() == [2, 2]

    def test_least_loaded_is_deterministic_when_serial(self):
        _, sharded, corpus, _ = flat_and_sharded(
            executor=ReplicaSet.in_process(3, router="least_loaded")
        )
        for _ in range(3):
            sharded.search(corpus[:3], 5)
        assert sharded.executor.routed_counts() == [3, 0, 0]

    def test_replica_results_identical_to_flat(self):
        flat, sharded, corpus, rng = flat_and_sharded(
            executor=ReplicaSet.in_process(3, router="round_robin")
        )
        queries = corpus[:30] + 0.1 * rng.standard_normal((30, corpus.shape[1]))
        d_flat, i_flat = flat.search(queries, 9)
        for _ in range(3):  # every replica must answer identically
            d_rep, i_rep = sharded.search(queries, 9)
            assert np.array_equal(i_flat, i_rep)
            assert np.allclose(d_flat, d_rep)

    def test_process_replicas_share_one_publication(self):
        replica_set = ReplicaSet.processes(2, n_workers=1, router="round_robin")
        try:
            flat, sharded, corpus, _ = flat_and_sharded(
                n_shards=2, executor=replica_set, n=200, dim=6
            )
            _, i_flat = flat.search(corpus[:5], 4)
            for _ in range(2):  # route through both replicas
                _, i_rep = sharded.search(corpus[:5], 4)
                assert np.array_equal(i_flat, i_rep)
            # One publication serves both replicas: one segment per shard,
            # not per (shard, replica).
            assert len(replica_set.published_bytes()) == 2
            assert replica_set.routed_counts() == [1, 1]
        finally:
            replica_set.close()

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicaSet([])
        with pytest.raises(ValueError):
            ReplicaSet.in_process(0)
        with pytest.raises(ValueError):
            ReplicaSet.in_process(2, router="random")


class TestZipfMix:
    def test_zipf_mix_is_head_heavy(self):
        corpus, labels, _ = clustered_corpus(n=400, n_classes=10)
        store = ReferenceStore(corpus.shape[1])
        store.add(corpus, labels)
        queries, is_unmonitored = open_world_mix(
            corpus,
            600,
            unmonitored_fraction=0.0,
            noise_scale=0.01,
            class_mix="zipf",
            zipf_s=1.5,
            reference_labels=labels,
            seed=3,
        )
        predictions = KNNClassifier(store, ClassifierConfig(k=5)).predict(queries)
        counts = {}
        for p in predictions:
            counts[p.best] = counts.get(p.best, 0) + 1
        ranked = sorted(counts.values(), reverse=True)
        # The hottest class dominates; the head outweighs the tail.
        assert ranked[0] > 600 / 10 * 2
        assert ranked[0] > 5 * ranked[-1]

    def test_zipf_requires_labels(self):
        corpus, labels, _ = clustered_corpus(n=50)
        with pytest.raises(ValueError):
            open_world_mix(corpus, 10, class_mix="zipf")
        with pytest.raises(ValueError):
            open_world_mix(corpus, 10, class_mix="zipf", reference_labels=labels[:-1])
        with pytest.raises(ValueError):
            open_world_mix(corpus, 10, class_mix="zipf", reference_labels=labels, zipf_s=0.0)
        with pytest.raises(ValueError):
            open_world_mix(corpus, 10, class_mix="pareto")


class TestSegmentPublisherPins:
    def test_pinned_segments_survive_eviction_until_released(self):
        _, sharded, _, _ = flat_and_sharded(n_shards=2, n=200, dim=6)
        publisher = SegmentPublisher()
        shard = sharded._shards[0]
        publisher.begin_search()
        publisher.publish(shard)  # pins the segment
        assert len(publisher.published_bytes()) == 1
        # Age the segment far past the grace window while still pinned: an
        # in-flight scatter may sit between publish and worker attach, so
        # eviction must not unlink under it, no matter the load.
        for _ in range(SegmentPublisher._EVICT_AFTER_CALLS + 5):
            publisher.begin_search()
        publisher.evict_stale()
        assert len(publisher.published_bytes()) == 1
        publisher.release([shard.uid])
        publisher.evict_stale()
        assert publisher.published_bytes() == {}
        publisher.close()

    def test_eviction_runs_under_sustained_churn(self):
        # Retired shard uids (copy-on-write swaps) must be unlinked even
        # when every search call is busy — no idle window required.
        executor = ReplicaSet.processes(1, n_workers=1)
        try:
            _, sharded, corpus, rng = flat_and_sharded(n_shards=2, executor=executor, n=150, dim=6)
            store = sharded
            grace = SegmentPublisher._EVICT_AFTER_CALLS
            for _ in range(3 * grace):
                store = store.with_changes(
                    [("replace", "page-000", rng.standard_normal((4, corpus.shape[1])))]
                )
                store.search(corpus[:3], 3)
            # One live uid per shard plus at most the grace window of
            # retired ones awaiting their age-out.
            assert len(executor.published_bytes()) <= 2 + grace + 1
        finally:
            executor.close()

    def test_republish_defers_unlink_while_old_version_is_pinned(self):
        # Replica A pins (uid, v) and its worker has not attached yet when
        # replica B publishes (uid, v+1): the v segment's name must stay
        # attachable until A releases its pin.
        from multiprocessing import shared_memory

        _, sharded, corpus, rng = flat_and_sharded(n_shards=2, n=150, dim=6)
        publisher = SegmentPublisher()
        shard = sharded._shards[0]
        publisher.begin_search()
        old_name = publisher.publish(shard)  # A pins version v
        victim = next(label for label, home in sharded._class_shard.items() if home == 0)
        sharded.replace_class(victim, rng.standard_normal((4, 6)))  # bumps shard 0's version
        publisher.begin_search()
        new_name = publisher.publish(shard)  # B publishes v+1
        assert new_name != old_name
        attached = shared_memory.SharedMemory(name=old_name)  # A's worker attaches late
        attached.close()
        publisher.release([shard.uid])  # A done with v
        publisher.release([shard.uid])  # B done with v+1
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=old_name)  # now retired for real
        shared_memory.SharedMemory(name=new_name).close()  # live version remains
        publisher.close()

    def test_publish_released_on_every_search_even_after_failure(self):
        publisher = SegmentPublisher()
        _, sharded, corpus, _ = flat_and_sharded(n_shards=2, n=150, dim=6)
        for shard in sharded._shards:
            publisher.begin_search()
            publisher.publish(shard)
            publisher.release([shard.uid])
        assert publisher._pins == {}
        publisher.close()
        with pytest.raises(ServingError):
            publisher.publish(sharded._shards[0])
