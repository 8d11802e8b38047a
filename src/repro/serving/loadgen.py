"""Open-world query streams and the one way to replay them at a live server.

A realistic query stream for the paper's deployment is a mix: mostly page
loads of monitored pages (embeddings near the reference clusters, since the
embedding model maps revisits of a page close together) plus a fraction of
loads of *unmonitored* pages, which land far from every reference cluster
(Section VI-C's open-world case).  :func:`open_world_mix` synthesises such
a stream from a reference corpus; :func:`replay` drives a stream at a
running front-end over TCP from several concurrent connections and returns
a :class:`ReplayResult` — per-query answers, per-request generations and a
histogram of client round trips.  Anything more elaborate (tenants in
parallel, an update between two halves) composes calls to :func:`replay`
and merges their results.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import Histogram
from repro.serving.protocol import FrontendClient, ProtocolError

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
    skew (and therefore :meth:`DeploymentManager.rebalance`) and
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


def _round_trip_histogram() -> Histogram:
    # Default edges = LATENCY_BUCKETS_S, those of the server's
    # repro_query_latency_seconds: comparable bucket for bucket, mergeable.
    return Histogram("repro_client_latency_seconds", "Client-observed request round trips.")


@dataclass
class ReplayResult:
    """What one :func:`replay` (or several, merged) measured.

    ``predictions[i]`` is the ``(labels, scores)`` pair the server returned
    for query ``i``, ``None`` if its request went unanswered (connection
    refused or lost, timeout, ``ERROR`` frame).  ``generations`` holds the
    deployment generation of every answered request and ``latency`` its
    client-side round trip — framing, socket and scheduler queue included,
    the number a real deployment's tail is made of.  Everything else is
    derived, so a query can never be both unanswered and uncounted.
    """

    predictions: List[Optional[Tuple[List[str], List[float]]]] = field(default_factory=list)
    generations: List[int] = field(default_factory=list)
    duration_s: float = 0.0
    latency: Histogram = field(default_factory=_round_trip_histogram, repr=False)

    @property
    def n_queries(self) -> int:
        """How many queries were sent."""
        return len(self.predictions)

    @property
    def failed(self) -> int:
        """How many queries went unanswered (acceptance: zero)."""
        return sum(prediction is None for prediction in self.predictions)

    @property
    def throughput_qps(self) -> float:
        """Queries sent per second of wall-clock replay time."""
        return self.n_queries / self.duration_s if self.duration_s > 0 else float("inf")

    def _quantile_ms(self, q: float) -> float:
        return self.latency.quantile(q) * 1e3 if self.latency.count() else 0.0

    @property
    def p50_ms(self) -> float:
        """Median request round trip at bucket resolution (0.0 when empty)."""
        return self._quantile_ms(0.50)

    @property
    def p99_ms(self) -> float:
        """99th-percentile request round trip (0.0 when empty)."""
        return self._quantile_ms(0.99)

    def merge_from(self, other: "ReplayResult") -> None:
        """Append a later (or concurrent) replay: answers and generations
        concatenate in order, durations and histogram counts add."""
        self.predictions.extend(other.predictions)
        self.generations.extend(other.generations)
        self.duration_s += other.duration_s
        self.latency.merge_from(other.latency)


def replay(
    host: str,
    port: int,
    queries: np.ndarray,
    *,
    request_batch_size: int = 32,
    top_n: int = 1,
    tenant: Optional[str] = None,
    n_clients: int = 2,
    timeout_s: float = 60.0,
) -> ReplayResult:
    """Replay a query stream against a front-end server over TCP.

    The stream is cut into requests of ``request_batch_size`` queries and
    dealt round-robin to ``n_clients`` concurrent connections — several
    capture boxes shipping embeddings at once, the traffic shape that lets
    the server's replica router fan out.  ``top_n`` bounds the ranked
    labels requested per query; ``tenant`` routes the whole stream to one
    tenant's deployment (``None`` = the default one).  A request that
    cannot be answered leaves its queries ``None`` in the result instead
    of raising: under fault injection that count is the measurement.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.shape[0] == 0:
        raise ValueError("the query stream is empty")
    if request_batch_size <= 0:
        raise ValueError("request_batch_size must be positive")
    if top_n <= 0:
        raise ValueError("top_n must be positive")
    if n_clients <= 0:
        raise ValueError("n_clients must be positive")
    starts = range(0, queries.shape[0], request_batch_size)

    def run_client(client_starts: Sequence[int]) -> List[Tuple[int, dict, float]]:
        answered = []
        try:
            client = FrontendClient(host, port, timeout_s=timeout_s)
        except OSError:
            return answered
        with client:
            for start in client_starts:
                began = time.monotonic()
                try:
                    body = client.classify(
                        queries[start : start + request_batch_size], top_n=top_n, tenant=tenant
                    )
                except (ProtocolError, OSError):
                    continue
                answered.append((start, body, time.monotonic() - began))
        return answered

    result = ReplayResult(predictions=[None] * queries.shape[0])
    began = time.monotonic()
    with ThreadPoolExecutor(max_workers=n_clients) as pool:
        per_client = list(pool.map(run_client, [starts[c::n_clients] for c in range(n_clients)]))
    result.duration_s = time.monotonic() - began
    for answered in per_client:
        for start, body, elapsed in answered:
            for offset, entry in enumerate(body["predictions"]):
                result.predictions[start + offset] = (entry["labels"], entry["scores"])
            result.generations.append(int(body.get("generation", -1)))
            result.latency.observe(elapsed)
    return result
