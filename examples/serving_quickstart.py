#!/usr/bin/env python3
"""Serving quickstart: sharded store + micro-batching + rolling adaptation.

The script trains a small fingerprinter, hands its reference corpus to the
serving subsystem (two shards behind a micro-batching scheduler and the TCP
front-end, as ``repro serve`` wires them), replays a stream of victim page
loads over the wire — including open-world loads of unmonitored pages —
and refreshes a drifted page's references between the two halves of the
stream with a copy-on-write swap that never fails a query.

Run with::

    PYTHONPATH=src python examples/serving_quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.config import ClassifierConfig, TrainingConfig
from repro.core import AdaptiveFingerprinter
from repro.experiments import ci_hyperparameters
from repro.serving import (
    BatchScheduler,
    DeploymentManager,
    FrontendServer,
    OpenWorldConfig,
    open_world_mix,
    replay,
)
from repro.traces import SequenceExtractor, collect_dataset, reference_test_split
from repro.web import WikipediaLikeGenerator


def main() -> None:
    # 1. Provision a small deployment (identical to examples/quickstart.py).
    website = WikipediaLikeGenerator(n_pages=10, seed=7).generate()
    extractor = SequenceExtractor(max_sequences=3, sequence_length=24)
    dataset = collect_dataset(website, extractor, visits_per_page=12, seed=1)
    reference, held_out = reference_test_split(dataset, 0.85, seed=0)
    fingerprinter = AdaptiveFingerprinter(
        n_sequences=3,
        sequence_length=24,
        hyperparameters=ci_hyperparameters(),
        training_config=TrainingConfig(epochs=6, pairs_per_epoch=900, seed=0),
        classifier_config=ClassifierConfig(k=10),
        extractor=extractor,
        seed=0,
    )
    fingerprinter.provision(reference)
    fingerprinter.initialize(reference)
    print(f"Provisioned: {len(fingerprinter.reference_store)} references, "
          f"{fingerprinter.reference_store.n_classes} monitored pages")

    # 2. Shard the corpus and put a micro-batching scheduler in front of it.
    #    The open-world detector recalibrates automatically on every swap.
    manager = DeploymentManager.from_fingerprinter(
        fingerprinter, n_shards=2, open_world=OpenWorldConfig(neighbour=3, percentile=95)
    )
    print(f"Serving: shard sizes {manager.store.shard_sizes()}, "
          f"generation {manager.generation}")

    # 3. A query stream: embedded victim page loads, 20% of them loads of
    #    pages outside the monitored set.
    corpus = np.asarray(manager.store.embeddings)
    # Monitored revisits land ~the intra-page neighbour distance from their
    # references (the embedding model maps revisits of a page that close);
    # unmonitored pages land far outside every cluster.
    threshold = manager.snapshot().detector.threshold
    queries, is_unmonitored = open_world_mix(
        corpus,
        200,
        unmonitored_fraction=0.2,
        noise_scale=0.1 * threshold,
        outlier_shift=20.0 * threshold,
        revisit_fraction=0.15,
        seed=3,
    )

    # 4. Replay over TCP from two connections; halfway in, refresh one
    #    page's references (a page changed — the paper's adaptation case)
    #    with a copy-on-write swap.  The server stays up across the swap
    #    and batches in flight keep the old snapshot, so no query fails.
    victim_page = manager.store.class_names[0]
    fresh = fingerprinter.model.embed_dataset(held_out.first_n_classes(1))
    half = len(queries) // 2

    scheduler = BatchScheduler(manager, max_batch_size=32)
    with FrontendServer(scheduler, manager=manager) as server:
        result = replay(server.host, server.port, queries[:half], request_batch_size=8)
        snapshot = manager.replace_class(victim_page, fresh)
        print(f"  ... mid-stream: refreshed {victim_page!r} "
              f"(now generation {snapshot.generation})")
        result.merge_from(
            replay(server.host, server.port, queries[half:], request_batch_size=8)
        )

    print(f"Replayed {result.n_queries} queries: {result.throughput_qps:.0f} q/s, "
          f"p50 {result.p50_ms:.2f} ms, p99 {result.p99_ms:.2f} ms per request, "
          f"failed: {result.failed}, generations seen: {sorted(set(result.generations))}")
    registry = scheduler.registry  # the scheduler's counters live here
    batches = registry.get("repro_scheduler_batches_total").value()
    hits = registry.get("repro_scheduler_cache_hits_total").value()
    misses = registry.get("repro_scheduler_cache_misses_total").value()
    print(f"Scheduler: {batches:.0f} batches, "
          f"cache hit rate {hits / max(hits + misses, 1):.2f}")

    # 5. Open-world detection on the final snapshot.
    flagged = manager.snapshot().is_unknown(queries)
    tpr = flagged[is_unmonitored].mean()
    fpr = flagged[~is_unmonitored].mean()
    print(f"Open-world detector: flags {tpr:.0%} of unmonitored loads "
          f"at {fpr:.0%} false positives")


if __name__ == "__main__":
    main()
