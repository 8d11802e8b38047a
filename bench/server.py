"""The system under test, as a subprocess of the benchmark driver.

Assembles the serving stack exactly as ``repro serve`` (``cli._serve``)
does — ``ReferenceStore`` -> ``ShardedReferenceStore.from_reference_store``
behind a one-replica ``ReplicaSet`` -> ``DeploymentManager`` (default
tenant of a ``TenantRegistry``) -> ``BatchScheduler`` -> ``FrontendServer``
— but over the driver's deployment instead of ``clustered_corpus``, which is
all ``repro serve`` can serve.  Every knob not on the command line stays
at the program default.

Protocol with the driver: the deployment to serve arrives on stdin (an
8-byte length, then an ``.npz`` of references and labels); one JSON
``ready`` line goes to stdout once the port is bound; the server then
serves until stdin reaches end-of-file (the driver closing it, or dying),
prints one JSON ``report`` line and shuts down cleanly.

With ``--trace`` the stack is built with timing proxies at its public
duck-typed seams — the scheduler's ``source``, the store's ``executor=``
and the executor's ``publisher=`` — which record spans on
``CLOCK_MONOTONIC`` (shared with the driver) and change nothing else.
"""

import sys
import time

_PROCESS_START = time.monotonic()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402

import benchenv  # noqa: E402

K_NEIGHBOURS = 50  # `repro serve --k` default
N_SHARDS = 2  # `repro serve --shards` default
MAX_TENANTS = 16  # `repro serve --max-tenants` default
SLOW_QUERY_S = 0.25  # `repro serve --slow-query-ms` default


class _Timed:
    """Delegating proxy base: everything not overridden is the inner
    object's, so the program sees the seam's full duck type."""

    def __init__(self, inner, spans):
        self._inner = inner
        self._spans = spans

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TimedSource(_Timed):
    """Scheduler ``source`` whose snapshots time ``predict``."""

    def __init__(self, inner, spans):
        super().__init__(inner, spans)
        self._wrapped = None

    def snapshot(self):
        snapshot = self._inner.snapshot()
        wrapped = self._wrapped
        # The scheduler takes a snapshot per submitted query; one proxy
        # per live snapshot keeps that to an identity check.
        if wrapped is None or wrapped._inner is not snapshot:
            wrapped = self._wrapped = TimedSnapshot(snapshot, self._spans)
        return wrapped


class TimedSnapshot(_Timed):
    def predict(self, embeddings):
        start = time.monotonic()
        try:
            return self._inner.predict(embeddings)
        finally:
            self._spans.append(("manager.predict", start, time.monotonic(), len(embeddings)))


class TimedExecutor(_Timed):
    """Store ``executor=`` whose scatter is timed."""

    def search(self, shards, queries, k, metric):
        start = time.monotonic()
        try:
            return self._inner.search(shards, queries, k, metric)
        finally:
            self._spans.append(("sharded_store.scatter", start, time.monotonic(), len(queries)))


class TimedPublisher(_Timed):
    """Executor ``publisher=`` timing the publications that pack a new shard
    version; calls that only pin an already published segment are not spans."""

    def __init__(self, inner, spans):
        super().__init__(inner, spans)
        self._packed = set()

    def publish(self, shard):
        version = (shard.uid, shard.version)
        packs = version not in self._packed
        self._packed.add(version)
        start = time.monotonic()
        try:
            return self._inner.publish(shard)
        finally:
            if packs:
                self._spans.append(("segment.publish", start, time.monotonic(), 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--index", choices=("exact", "ivfpq"), required=True)
    parser.add_argument("--executor", choices=("serial", "process"), required=True)
    parser.add_argument("--cache-size", type=int, default=4096)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    benchenv.pin()
    import numpy as np

    from repro.config import ClassifierConfig
    from repro.core.index import ExactIndex, IVFPQIndex
    from repro.core.reference_store import ReferenceStore
    from repro.obs import MetricsRegistry, Tracer
    from repro.serving import (
        BatchScheduler,
        DeploymentManager,
        FrontendServer,
        ProcessShardExecutor,
        ReplicaSet,
        SegmentPublisher,
        ShardedReferenceStore,
        TenantRegistry,
    )

    import_s = time.monotonic() - _PROCESS_START
    spans = []  # (name, start, end, n); list.append is atomic across threads

    index_factory = (
        (lambda: IVFPQIndex(bits=8, rerank=64)) if args.index == "ivfpq" else ExactIndex
    )
    if args.executor == "serial":
        executor = ReplicaSet.in_process(1)
    elif args.trace:
        publisher = TimedPublisher(SegmentPublisher(), spans)
        executor = ReplicaSet(
            [ProcessShardExecutor(N_SHARDS, publisher=publisher)], publisher=publisher
        )
    else:
        executor = ReplicaSet.processes(1, n_workers=N_SHARDS)
    if args.trace:
        executor = TimedExecutor(executor, spans)

    build_start = time.monotonic()
    size = int.from_bytes(sys.stdin.buffer.read(8), "big")
    with np.load(io.BytesIO(sys.stdin.buffer.read(size))) as deployment:
        references, labels = deployment["references"], deployment["labels"].tolist()
    flat = ReferenceStore(references.shape[1])
    flat.add(references, labels)
    manager = DeploymentManager(
        ShardedReferenceStore.from_reference_store(
            flat, n_shards=N_SHARDS, executor=executor, index_factory=index_factory
        ),
        ClassifierConfig(k=K_NEIGHBOURS),
    )
    store_build_s = time.monotonic() - build_start

    def provision_tenant(name):
        return DeploymentManager(
            ShardedReferenceStore(
                references.shape[1], n_shards=N_SHARDS,
                executor=ReplicaSet.in_process(1), index_factory=index_factory,
            ),
            ClassifierConfig(k=K_NEIGHBOURS),
        )

    tenants = TenantRegistry(manager, factory=provision_tenant, max_tenants=MAX_TENANTS)
    registry = MetricsRegistry()
    manager.attach_metrics(registry)
    scheduler = BatchScheduler(
        TimedSource(tenants, spans) if args.trace else tenants,
        cache_size=args.cache_size,
        registry=registry,
        tracer=Tracer(registry, sample_every=0, slow_threshold_s=SLOW_QUERY_S),
    )
    server = FrontendServer(scheduler, manager=manager, tenants=tenants, port=0)
    try:
        with scheduler, server:
            print(json.dumps({
                "event": "ready", "port": server.port,
                "import_s": import_s, "store_build_s": store_build_s,
            }), flush=True)
            while sys.stdin.buffer.read(4096):
                pass
        store = manager.store
        report = {
            "event": "report",
            "spans": spans,
            "published_bytes": sum(store.published_tier_bytes().values()),
            "index_spec": store.index_spec(),
            "shard_sizes": store.shard_sizes(),
            "embedding_dim": store.embedding_dim,
            "storage_dtype": store.storage_dtype,
            "kernel_status": store.kernel_status(),
            "generation": manager.generation,
        }
        try:
            print(json.dumps(report), flush=True)
        except BrokenPipeError:
            # The driver died; nobody reads the report.  Point stdout away
            # from the dead pipe so interpreter exit does not fail flushing it.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    finally:
        tenants.close()
        manager.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
