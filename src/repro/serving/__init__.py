"""The serving subsystem: answering trace queries at deployment scale.

PR 1 made one query cheap; this layer makes a *stream* of queries cheap
while the reference corpus churns, which is the paper's actual operating
mode (an adversary monitoring pages for months, adapting as they change):

* :class:`~repro.serving.executors.ShardedReferenceStore` — the core
  :class:`~repro.core.reference_store.ReferenceStore` with the serving
  defaults: monitored classes partitioned across shard leaves (vectors,
  global ids, index); merged top-k is interchangeable with a one-shard
  store's.  The store owns placement, scatter/merge, rebalance planning
  and copy-on-write updates; every scatter routes through its
  :class:`~repro.serving.executors.ReplicaSet`.
* :class:`~repro.serving.scheduler.BatchScheduler` — coalesces the rows
  of concurrent requests into micro-batches of up to ``max_batch_size``
  for the batched k-NN path, run on the requests' own threads, with an
  LRU cache keyed on quantized embeddings.
* :class:`~repro.serving.manager.DeploymentManager` — owns the live
  serving snapshot; adaptation lands as a copy-on-write shard swap, so
  serving never blocks on (or tears under) a retraining-free update, and
  warm restarts reuse ``save_deployment``/``load_deployment``.
* :func:`~repro.serving.loadgen.replay` — drives a query stream (e.g. an
  :func:`~repro.serving.loadgen.open_world_mix`, uniform or hot-class
  Zipf) at a running front-end over TCP and returns one
  :class:`~repro.serving.loadgen.ReplayResult`: per-query answers,
  throughput and histogram-backed p50/p99 round trips.
* :class:`~repro.serving.frontend.FrontendServer` +
  :mod:`repro.serving.protocol` — the TCP front-end, one thread per
  connection: length-prefixed binary frames (packed float32 query
  batches, JSON control messages) into the scheduler, structured error
  frames for every malformed input (``repro serve``).
* :class:`~repro.serving.executors.ReplicaSet` — R read replicas of the
  shard scatter behind a round-robin/least-loaded router; each replica
  scans in-process or across worker processes
  (:class:`~repro.serving.executors.ProcessShardExecutor`).
* :class:`~repro.serving.transport.SegmentPublisher` — the only code that
  touches shared memory: process replicas attach one shared publication
  of the (PQ-compressed) index segments.
* :class:`~repro.serving.tenancy.TenantRegistry` — the named deployments
  one front-end serves (a single deployment is a registry of one).

One wiring is supported, the one ``repro serve`` assembles:
``FrontendServer`` → ``BatchScheduler`` → ``TenantRegistry`` of
``DeploymentManager`` → ``ShardedReferenceStore`` → ``ReplicaSet``.
Every component reports through :mod:`repro.obs`: scheduler, front-end,
store and deployment metrics live only in one
:class:`~repro.obs.metrics.MetricsRegistry` (scraped via the ``metrics``
control op or ``repro serve --metrics-port``), and sampled queries carry
per-stage :mod:`~repro.obs.tracing` spans — see ``docs/observability.md``.
"""

from repro.serving.executors import (
    InProcessShardExecutor,
    ProcessShardExecutor,
    ReplicaSet,
    ShardedReferenceStore,
)
from repro.serving.frontend import FrontendServer
from repro.serving.loadgen import ReplayResult, open_world_mix, replay
from repro.serving.manager import DeploymentManager, OpenWorldConfig, ServingSnapshot
from repro.serving.protocol import FrontendClient, ProtocolError
from repro.serving.scheduler import BatchScheduler, QueryTicket
from repro.serving.tenancy import DEFAULT_TENANT, TenantRegistry, UnknownTenantError
from repro.serving.transport import SegmentPublisher, ServingError

__all__ = [
    "BatchScheduler",
    "DEFAULT_TENANT",
    "DeploymentManager",
    "FrontendClient",
    "FrontendServer",
    "InProcessShardExecutor",
    "OpenWorldConfig",
    "ProcessShardExecutor",
    "ProtocolError",
    "QueryTicket",
    "ReplayResult",
    "ReplicaSet",
    "SegmentPublisher",
    "ServingError",
    "ServingSnapshot",
    "ShardedReferenceStore",
    "TenantRegistry",
    "UnknownTenantError",
    "open_world_mix",
    "replay",
]
