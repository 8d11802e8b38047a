"""Open-world load generation and latency reporting for the serving layer.

A realistic query stream for the paper's deployment is a mix: mostly page
loads of monitored pages (embeddings near the reference clusters, since the
embedding model maps revisits of a page close together) plus a fraction of
loads of *unmonitored* pages, which land far from every reference cluster
(Section VI-C's open-world case).  :func:`open_world_mix` synthesises such
a stream from a reference corpus; :class:`LoadGenerator` replays it through
a :class:`~repro.serving.scheduler.BatchScheduler`, optionally firing an
adaptation callback mid-stream, and reports throughput and latency
percentiles.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.classifier import Prediction
from repro.obs.metrics import Histogram
from repro.serving.protocol import FrontendClient, ProtocolError
from repro.serving.scheduler import BatchScheduler, QueryTicket
from repro.serving.sharded_store import ServingError

CLASS_MIXES = ("uniform", "zipf")


def _zipf_rows(
    reference_labels: Sequence[str],
    n_rows: int,
    zipf_s: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Reference-row sample with Zipf-distributed *class* popularity.

    Real victim traffic is head-heavy: a few monitored pages absorb most
    loads.  Classes are ranked in first-occurrence order and class ``r``
    (1-based) is drawn with probability ∝ ``r**-zipf_s``; the row within
    the class is uniform.  This is the hot-class traffic that makes shard
    skew (and therefore :meth:`ShardedReferenceStore.rebalance`) and
    least-loaded replica routing observable in the serve bench.
    """
    labels = np.asarray(list(reference_labels), dtype=object)
    classes = list(dict.fromkeys(labels.tolist()))
    ranks = np.arange(1, len(classes) + 1, dtype=np.float64)
    weights = ranks**-zipf_s
    weights /= weights.sum()
    rows_by_class = [np.flatnonzero(labels == name) for name in classes]
    chosen = rng.choice(len(classes), size=n_rows, p=weights)
    offsets = rng.random(n_rows)
    return np.array(
        [rows_by_class[c][int(offset * rows_by_class[c].size)] for c, offset in zip(chosen, offsets)],
        dtype=np.int64,
    )


def open_world_mix(
    reference_embeddings: np.ndarray,
    n_queries: int,
    *,
    unmonitored_fraction: float = 0.2,
    noise_scale: float = 0.1,
    outlier_shift: float = 25.0,
    revisit_fraction: float = 0.0,
    class_mix: str = "uniform",
    zipf_s: float = 1.2,
    reference_labels: Optional[Sequence[str]] = None,
    seed: int = 0,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Synthesise ``(queries, is_unmonitored)`` for an open-world replay.

    Monitored queries are reference embeddings perturbed by
    ``noise_scale``-scaled Gaussian noise (a revisit of a monitored page);
    unmonitored queries are references displaced by ``outlier_shift`` along
    a random direction (a page no reference lies near).  A
    ``revisit_fraction`` of the monitored queries are exact duplicates of
    earlier ones — the cache-friendly victim who reloads a page.

    ``class_mix`` picks which monitored pages get visited: ``"uniform"``
    samples reference rows uniformly, ``"zipf"`` (requires
    ``reference_labels``, one per reference row) makes class popularity
    follow a Zipf law with exponent ``zipf_s`` — the realistic hot-class
    traffic for rebalancing and replica-routing experiments.

    Every draw — rows, Zipf classes, noise, outlier directions, the final
    shuffle — comes from one explicit :class:`numpy.random.Generator`:
    pass ``rng`` to share a generator across calls (a scenario schedule
    drawing several mixes from one seeded stream), or ``seed`` alone to
    get the same stream on every platform.  Module-level NumPy random
    state is never touched, so replays are reproducible bit-for-bit.
    """
    references = np.atleast_2d(np.asarray(reference_embeddings, dtype=np.float64))
    if references.shape[0] == 0:
        raise ValueError("reference_embeddings must be non-empty")
    if not 0.0 <= unmonitored_fraction <= 1.0:
        raise ValueError("unmonitored_fraction must be in [0, 1]")
    if not 0.0 <= revisit_fraction < 1.0:
        raise ValueError("revisit_fraction must be in [0, 1)")
    if class_mix not in CLASS_MIXES:
        raise ValueError(f"unknown class_mix {class_mix!r}; expected one of {CLASS_MIXES}")
    if class_mix == "zipf":
        if zipf_s <= 0:
            raise ValueError("zipf_s must be positive")
        if reference_labels is None:
            raise ValueError("class_mix='zipf' needs reference_labels (one per reference row)")
        if len(reference_labels) != references.shape[0]:
            raise ValueError(
                f"got {len(reference_labels)} reference_labels for {references.shape[0]} references"
            )
    if rng is None:
        rng = np.random.default_rng(seed)
    elif not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    n_unmonitored = int(round(n_queries * unmonitored_fraction))
    n_monitored = n_queries - n_unmonitored

    if class_mix == "zipf":
        rows = _zipf_rows(reference_labels, n_monitored, zipf_s, rng)
    else:
        rows = rng.integers(0, references.shape[0], size=n_monitored)
    monitored = references[rows] + noise_scale * rng.standard_normal((n_monitored, references.shape[1]))
    n_revisits = int(round(n_monitored * revisit_fraction))
    if n_revisits and n_monitored > n_revisits:
        sources = rng.integers(0, n_monitored - n_revisits, size=n_revisits)
        monitored[n_monitored - n_revisits :] = monitored[sources]

    directions = rng.standard_normal((n_unmonitored, references.shape[1]))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    unmonitored = (
        references[rng.integers(0, references.shape[0], size=n_unmonitored)]
        + outlier_shift * directions / norms
    )

    queries = np.concatenate([monitored, unmonitored], axis=0)
    is_unmonitored = np.zeros(n_queries, dtype=bool)
    is_unmonitored[n_monitored:] = True
    order = rng.permutation(n_queries)
    return queries[order], is_unmonitored[order]


@dataclass
class LatencyReport:
    """Throughput and latency percentiles of one replay."""

    n_queries: int
    duration_s: float
    throughput_qps: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    failed: int

    def as_dict(self) -> Dict[str, float]:
        """The report as a JSON-serialisable dict (bench snapshots)."""
        return {
            "n_queries": self.n_queries,
            "duration_s": self.duration_s,
            "throughput_qps": self.throughput_qps,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
            "max_ms": self.max_ms,
            "failed": self.failed,
        }


@dataclass
class ReplayResult:
    """Everything one :meth:`LoadGenerator.replay` produced."""

    predictions: List[Optional[Prediction]]
    tickets: List[QueryTicket]
    report: LatencyReport
    # The same latencies folded into a fixed-bucket obs histogram, so bench
    # sections can cross-check histogram-derived percentiles against the
    # exact ones (must agree within one bucket width) and merge replays.
    latency_histogram: Optional[Histogram] = field(default=None, repr=False)

    @property
    def failed(self) -> int:
        """How many queries failed during the replay (acceptance: zero)."""
        return self.report.failed


def report_from_latencies(
    latencies_s: np.ndarray, n_queries: int, duration_s: float, failed: int
) -> LatencyReport:
    """Throughput + p50/p95/p99 percentiles from raw per-query latencies."""
    latencies = np.asarray(latencies_s, dtype=np.float64)
    if latencies.size == 0:
        latencies = np.zeros(1)
    return LatencyReport(
        n_queries=n_queries,
        duration_s=duration_s,
        throughput_qps=n_queries / duration_s if duration_s > 0 else float("inf"),
        p50_ms=float(np.percentile(latencies, 50) * 1e3),
        p99_ms=float(np.percentile(latencies, 99) * 1e3),
        mean_ms=float(latencies.mean() * 1e3),
        max_ms=float(latencies.max() * 1e3),
        failed=failed,
    )


def _latency_histogram(latencies_s: Sequence[float]) -> Histogram:
    """Fold client-side latencies into a standard obs latency histogram."""
    histogram = Histogram(
        "repro_client_latency_seconds", "Client-observed per-query latency."
    )
    for latency in latencies_s:
        histogram.observe(latency)
    return histogram


def latency_report(tickets: List[QueryTicket], duration_s: float, failed: int) -> LatencyReport:
    """A :class:`LatencyReport` over completed scheduler tickets."""
    latencies = np.array(
        [ticket.latency_s for ticket in tickets if ticket.latency_s is not None], dtype=np.float64
    )
    return report_from_latencies(latencies, len(tickets), duration_s, failed)


class LoadGenerator:
    """Replay a fixed query stream through a scheduler and time it."""

    def __init__(self, queries: np.ndarray) -> None:
        self.queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if self.queries.shape[0] == 0:
            raise ValueError("the query stream is empty")

    def replay(
        self,
        scheduler: BatchScheduler,
        *,
        mid_run: Optional[Callable[[], object]] = None,
        result_timeout_s: float = 60.0,
    ) -> ReplayResult:
        """Submit every query in order; fire ``mid_run`` at the halfway point.

        ``mid_run`` is where a rolling-adaptation callback goes (e.g.
        ``manager.replace_class``): it runs between two submissions while
        earlier queries may still be in flight, which is exactly the
        zero-downtime scenario the serving layer must survive.
        """
        halfway = self.queries.shape[0] // 2
        tickets: List[QueryTicket] = []
        start = time.monotonic()
        for position, query in enumerate(self.queries):
            if mid_run is not None and position == halfway:
                mid_run()
            tickets.append(scheduler.submit(query))
        if not scheduler.running:
            scheduler.flush()
        predictions: List[Optional[Prediction]] = []
        failed = 0
        for ticket in tickets:
            try:
                predictions.append(ticket.result(result_timeout_s))
            except ServingError:
                predictions.append(None)
                failed += 1
        duration = time.monotonic() - start
        return ReplayResult(
            predictions=predictions,
            tickets=tickets,
            report=latency_report(tickets, duration, failed),
            latency_histogram=_latency_histogram(
                [ticket.latency_s for ticket in tickets if ticket.latency_s is not None]
            ),
        )


# ------------------------------------------------------------- network replay
@dataclass
class NetworkReplayResult:
    """Everything one :meth:`NetworkLoadGenerator.replay` produced.

    ``predictions[i]`` is the ``(labels, scores)`` pair the server returned
    for query ``i`` (``None`` if its request failed); latencies are
    measured per request round-trip on the client side, so they include
    framing, the socket and the scheduler queue — the number a real
    deployment's tail is made of.
    """

    predictions: List[Optional[Tuple[List[str], List[float]]]]
    report: LatencyReport
    generations: List[int]
    # Client-side round-trip latencies in an obs histogram (same fixed
    # buckets as the server's repro_query_latency_seconds, so scraped
    # server percentiles and client percentiles are directly comparable).
    latency_histogram: Optional[Histogram] = field(default=None, repr=False)

    @property
    def failed(self) -> int:
        """How many queries failed during the replay (acceptance: zero)."""
        return self.report.failed


class NetworkLoadGenerator:
    """Replay a query stream against a front-end server over TCP.

    The stream is cut into request batches of ``request_batch_size``
    queries and spread round-robin over ``n_clients`` concurrent
    connections — several capture boxes shipping embeddings at once, which
    is the traffic shape that lets the server's replica router actually
    fan out.  ``top_n`` bounds the ranked labels requested per query (use
    the class count to compare full rankings against a baseline).
    """

    def __init__(
        self,
        queries: np.ndarray,
        *,
        request_batch_size: int = 32,
        top_n: int = 1,
        tenant: Optional[str] = None,
    ) -> None:
        self.queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if self.queries.shape[0] == 0:
            raise ValueError("the query stream is empty")
        if request_batch_size <= 0:
            raise ValueError("request_batch_size must be positive")
        if top_n <= 0:
            raise ValueError("top_n must be positive")
        self.request_batch_size = int(request_batch_size)
        self.top_n = int(top_n)
        # Route the whole stream to one tenant's deployment (None = default).
        self.tenant = tenant

    def replay(
        self,
        host: str,
        port: int,
        *,
        n_clients: int = 2,
        timeout_s: float = 60.0,
    ) -> NetworkReplayResult:
        """Drive the server from ``n_clients`` concurrent connections."""
        if n_clients <= 0:
            raise ValueError("n_clients must be positive")
        spans = [
            (start, min(start + self.request_batch_size, self.queries.shape[0]))
            for start in range(0, self.queries.shape[0], self.request_batch_size)
        ]
        predictions: List[Optional[Tuple[List[str], List[float]]]] = [None] * self.queries.shape[0]
        latencies: List[float] = []
        generations: List[int] = []
        failures = [0] * n_clients
        lock = threading.Lock()

        def run_client(client_id: int) -> None:
            try:
                client = FrontendClient(host, port, timeout_s=timeout_s)
            except OSError:
                with lock:
                    failures[client_id] += sum(
                        end - start for start, end in spans[client_id::n_clients]
                    )
                return
            try:
                for start, end in spans[client_id::n_clients]:
                    began = time.monotonic()
                    try:
                        body = client.classify(
                            self.queries[start:end], top_n=self.top_n, tenant=self.tenant
                        )
                    except (ProtocolError, OSError):
                        with lock:
                            failures[client_id] += end - start
                        continue
                    elapsed = time.monotonic() - began
                    decoded = [
                        (entry["labels"], entry["scores"]) for entry in body["predictions"]
                    ]
                    with lock:
                        latencies.append(elapsed)
                        generations.append(int(body.get("generation", -1)))
                        for offset, entry in enumerate(decoded):
                            predictions[start + offset] = entry
            finally:
                client.close()

        threads = [
            threading.Thread(target=run_client, args=(client_id,), daemon=True)
            for client_id in range(n_clients)
        ]
        began = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        duration = time.monotonic() - began
        return NetworkReplayResult(
            predictions=predictions,
            report=report_from_latencies(
                np.array(latencies), self.queries.shape[0], duration, sum(failures)
            ),
            generations=generations,
            latency_histogram=_latency_histogram(latencies),
        )
