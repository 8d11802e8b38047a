"""Lock-cheap metrics primitives for the serving telemetry layer.

Three metric kinds — :class:`Counter`, :class:`Gauge`, :class:`Histogram` —
behind one :class:`MetricsRegistry`, modelled on the Prometheus data model
(``docs/observability.md`` catalogues every metric the serving stack
registers).  The design constraints come from the serving hot path:

* **Lock-cheap.**  Every update is one dict lookup plus an integer/float
  add under a per-metric lock that is never held across anything slower;
  there is no global registry lock on the update path.  A counter ``inc``
  costs well under a microsecond, which is what lets the scheduler count
  every single query without a measurable throughput tax.
* **Mergeable percentiles.**  Histograms use *fixed* log-spaced bucket
  edges shared by construction (:data:`LATENCY_BUCKETS_S` for seconds,
  :data:`SIZE_BUCKETS` for counts), so bucket-count vectors from
  different threads, replicas and worker processes can simply be added
  (:meth:`Histogram.merge_from`) and the merged quantile estimate is
  exactly what a single histogram fed all observations would report.
* **Callback gauges.**  A gauge may be backed by a function sampled at
  scrape time (:meth:`Gauge.set_function`) — queue depth, in-flight
  counts and drift ratios are reads of live state, not events.

:class:`NullRegistry` hands out no-op metrics with the same interface, so
the instrumentation's own cost can be measured (the obs CI gate) and hot
loops can opt out without ``if``-litter at every call site.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """A metric was registered or used inconsistently."""


def exponential_buckets(lower: float, upper: float, *, per_decade: int = 8) -> Tuple[float, ...]:
    """Log-spaced bucket upper edges covering ``[lower, upper]``.

    ``per_decade`` edges per power of ten (8 keeps any value within ~15%
    of a bucket edge — the "one bucket width" the percentile-agreement
    acceptance test is stated in).  Edges are deterministic for given
    arguments, which is what makes histograms built from the same
    constants mergeable across processes.
    """
    if lower <= 0 or upper <= lower:
        raise MetricError("exponential_buckets needs 0 < lower < upper")
    if per_decade <= 0:
        raise MetricError("per_decade must be positive")
    n_edges = int(math.ceil(per_decade * math.log10(upper / lower))) + 1
    edges = [lower * 10 ** (i / per_decade) for i in range(n_edges)]
    if edges[-1] < upper:
        edges.append(upper)
    return tuple(round(edge, 12) for edge in edges)


#: Latency bucket edges in seconds: 10 µs … 100 s, 8 per decade.  Every
#: latency histogram in the serving stack uses these, so their percentile
#: estimates are mergeable across threads, replicas and workers.
LATENCY_BUCKETS_S: Tuple[float, ...] = exponential_buckets(1e-5, 100.0, per_decade=8)

#: Size/count bucket edges (batch sizes, queue depths): powers of two up
#: to 65536.
SIZE_BUCKETS: Tuple[float, ...] = tuple(float(2**i) for i in range(17))


def _format_labels(label_names: Sequence[str], label_values: Sequence[str]) -> Dict[str, str]:
    return dict(zip(label_names, label_values))


class _Metric:
    """Shared machinery: naming, label handling, per-metric locking."""

    kind = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r} on metric {name!r}")
        self.name = name
        self.help = str(help)
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if not labels and not self.label_names:  # the hot unlabeled path
            return ()
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise MetricError(
                f"metric {self.name!r} takes labels {self.label_names}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)


class Counter(_Metric):
    """A monotonically increasing count (events: queries, errors, swaps)."""

    kind = "counter"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (must be >= 0) to the counter for ``labels``."""
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """The current count for ``labels`` (0.0 before the first inc)."""
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        """The sum over every label combination (the unlabeled total)."""
        with self._lock:
            return sum(self._values.values())

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        """``(labels, value)`` pairs for exposition, insertion-ordered."""
        with self._lock:
            items = list(self._values.items())
        return [(_format_labels(self.label_names, key), value) for key, value in items]


class Gauge(_Metric):
    """A value that goes up and down (depths, ratios, generations).

    A gauge is either *set-based* (:meth:`set`/:meth:`inc`/:meth:`dec`)
    or *callback-based* (:meth:`set_function`, sampled at scrape time);
    the callback wins when both were used for a label set.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str, label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, label_names)
        self._values: Dict[Tuple[str, ...], float] = {}
        self._functions: Dict[Tuple[str, ...], Callable[[], float]] = {}

    def set(self, value: float, **labels: str) -> None:
        """Set the gauge for ``labels`` to ``value``."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` to the gauge for ``labels``."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        """Subtract ``amount`` from the gauge for ``labels``."""
        self.inc(-amount, **labels)

    def set_max(self, value: float, **labels: str) -> None:
        """Raise the gauge to ``value`` if it is below it (high-water marks)."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = max(self._values.get(key, 0.0), float(value))

    def set_function(self, fn: Callable[[], float], **labels: str) -> None:
        """Back the gauge for ``labels`` with ``fn``, called at scrape time."""
        key = self._key(labels)
        with self._lock:
            self._functions[key] = fn

    def value(self, **labels: str) -> float:
        """The current value for ``labels`` (calls the callback if set)."""
        key = self._key(labels)
        with self._lock:
            fn = self._functions.get(key)
            if fn is None:
                return self._values.get(key, 0.0)
        return float(fn())

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        """``(labels, value)`` pairs for exposition; callbacks are sampled
        outside the metric lock (a callback may itself take locks)."""
        with self._lock:
            keys = list(dict.fromkeys([*self._values, *self._functions]))
            functions = dict(self._functions)
            values = dict(self._values)
        out: List[Tuple[Dict[str, str], float]] = []
        for key in keys:
            fn = functions.get(key)
            value = float(fn()) if fn is not None else values.get(key, 0.0)
            out.append((_format_labels(self.label_names, key), value))
        return out


class Histogram(_Metric):
    """Fixed-bucket distribution (latencies, batch sizes) with quantiles.

    Buckets are *upper edges* with Prometheus ``le`` semantics (a value
    lands in the first bucket whose edge is >= it; anything above the last
    edge lands in the implicit ``+Inf`` overflow bucket).  Because the
    edges are fixed at construction, two histograms built with the same
    edges merge by adding their count vectors (:meth:`merge_from`) — the
    property that lets per-worker scan timings aggregate in the parent and
    per-replica latencies aggregate fleet-wide.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        *,
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
        label_names: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help, label_names)
        edges = tuple(float(edge) for edge in buckets)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise MetricError(f"histogram {name!r} needs strictly increasing bucket edges")
        self.buckets: Tuple[float, ...] = edges
        self._bucket_array = np.asarray(edges)  # observe_many's searchsorted haystack
        self._counts: Dict[Tuple[str, ...], List[int]] = {}
        self._sums: Dict[Tuple[str, ...], float] = {}

    def _bins(self, key: Tuple[str, ...]) -> List[int]:
        bins = self._counts.get(key)
        if bins is None:
            bins = [0] * (len(self.buckets) + 1)  # +1 = the +Inf overflow
            self._counts[key] = bins
            self._sums[key] = 0.0
        return bins

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation (one bisect + one int add under the lock)."""
        value = float(value)
        position = bisect_left(self.buckets, value)
        key = self._key(labels)
        with self._lock:
            self._bins(key)[position] += 1
            self._sums[key] += value

    def observe_many(self, values: Iterable[float], **labels: str) -> None:
        """Record a batch of observations under one lock acquisition.

        The scheduler's per-batch fulfilment path uses this so telemetry
        costs one vectorised bucket search and one lock round-trip per
        *batch* instead of a bisect and a lock per query.
        """
        array = np.asarray(values if isinstance(values, (list, np.ndarray)) else list(values))
        if array.size == 0:
            return
        # side="left" matches bisect_left in observe(): an observation on a
        # bucket edge lands in the bucket whose upper bound is that edge.
        positions = np.searchsorted(self._bucket_array, array, side="left")
        hit_bins, hit_counts = np.unique(positions, return_counts=True)
        total = float(array.sum())
        key = self._key(labels)
        with self._lock:
            bins = self._bins(key)
            for position, count in zip(hit_bins.tolist(), hit_counts.tolist()):
                bins[position] += count
            self._sums[key] += total

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram with identical edges into this one."""
        if other.buckets != self.buckets:
            raise MetricError(
                f"cannot merge histogram {other.name!r} into {self.name!r}: bucket edges differ"
            )
        with other._lock:
            counts = {key: list(bins) for key, bins in other._counts.items()}
            sums = dict(other._sums)
        with self._lock:
            for key, bins in counts.items():
                mine = self._bins(key)
                for position, count in enumerate(bins):
                    mine[position] += count
                self._sums[key] += sums[key]

    def count(self, **labels: str) -> int:
        """Total observations for ``labels``."""
        key = self._key(labels)
        with self._lock:
            return sum(self._counts.get(key, ()))

    def sum(self, **labels: str) -> float:
        """Sum of observed values for ``labels``."""
        key = self._key(labels)
        with self._lock:
            return self._sums.get(key, 0.0)

    def bucket_counts(self, **labels: str) -> List[int]:
        """Per-bucket (non-cumulative) counts, overflow bucket last."""
        key = self._key(labels)
        with self._lock:
            return list(self._counts.get(key, [0] * (len(self.buckets) + 1)))

    def quantile(self, q: float, **labels: str) -> float:
        """Estimate the ``q``-quantile (``q`` in [0, 1]) by interpolating
        within the bucket the target rank falls in.

        The estimate is always inside the true value's bucket, so it is
        within one bucket width of the exact sample quantile — the bound
        ``tests/test_obs.py::TestServingTelemetry`` asserts.  Returns
        ``nan`` on an empty histogram; an overflow-bucket hit returns the
        last finite edge (there is no upper edge to interpolate towards).
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile takes q in [0, 1], got {q}")
        bins = self.bucket_counts(**labels)
        total = sum(bins)
        if total == 0:
            return float("nan")
        target = q * total
        cumulative = 0.0
        for position, count in enumerate(bins):
            if count == 0:
                continue
            if cumulative + count >= target:
                if position >= len(self.buckets):
                    return self.buckets[-1]
                lower = self.buckets[position - 1] if position else 0.0
                upper = self.buckets[position]
                fraction = (target - cumulative) / count if count else 0.0
                return lower + min(1.0, max(0.0, fraction)) * (upper - lower)
            cumulative += count
        return self.buckets[-1]

    def bucket_bounds(self, value: float) -> Tuple[float, float]:
        """The ``(lower, upper)`` edges of the bucket ``value`` lands in
        (upper is ``inf`` for the overflow bucket) — the "one bucket
        width" tolerance of the percentile-agreement acceptance check."""
        position = bisect_left(self.buckets, float(value))
        lower = self.buckets[position - 1] if position else 0.0
        upper = self.buckets[position] if position < len(self.buckets) else float("inf")
        return lower, upper

    def samples(self) -> List[Tuple[Dict[str, str], List[int], float]]:
        """``(labels, per-bucket counts, sum)`` per label set (exposition)."""
        with self._lock:
            items = [(key, list(bins), self._sums[key]) for key, bins in self._counts.items()]
        return [
            (_format_labels(self.label_names, key), bins, total) for key, bins, total in items
        ]


class MetricsRegistry:
    """Get-or-create home for metrics; one per serving process (or test).

    Registration is idempotent: asking for an existing name returns the
    existing metric if kind, labels and (for histograms) buckets match,
    and raises :class:`MetricError` otherwise.  Components default to a
    private registry so unit tests never share counters; ``repro serve``
    threads one registry through scheduler, front-end, manager and store
    so a single scrape covers the whole pipeline.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, label_names, **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.label_names != tuple(label_names):
                    raise MetricError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.label_names}"
                    )
                buckets = kwargs.get("buckets")
                if buckets is not None and existing.buckets != tuple(float(b) for b in buckets):
                    raise MetricError(f"histogram {name!r} already registered with other buckets")
                return existing
            metric = cls(name, help, label_names=label_names, **kwargs) if kwargs else cls(
                name, help, label_names
            )
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str, labels: Sequence[str] = ()) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str, labels: Sequence[str] = ()) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str,
        *,
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
        labels: Sequence[str] = (),
    ) -> Histogram:
        """Get or create a :class:`Histogram` with the given bucket edges."""
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        """The registered metric with ``name``, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def collect(self) -> List[_Metric]:
        """Every registered metric, in registration order (for exposition)."""
        with self._lock:
            return list(self._metrics.values())

    def names(self) -> List[str]:
        """Registered metric names, in registration order."""
        with self._lock:
            return list(self._metrics)


class _NullMetric(Counter):
    """A metric that accepts every update and reports nothing."""

    def __init__(self) -> None:  # bypass name validation entirely
        self.name = "_null"
        self.help = ""
        self.label_names = ()
        self.buckets = LATENCY_BUCKETS_S

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Discard the update."""

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        """Discard the update."""

    def set(self, value: float, **labels: str) -> None:
        """Discard the update."""

    def set_max(self, value: float, **labels: str) -> None:
        """Discard the update."""

    def set_function(self, fn: Callable[[], float], **labels: str) -> None:
        """Discard the callback."""

    def observe(self, value: float, **labels: str) -> None:
        """Discard the observation."""

    def observe_many(self, values: Iterable[float], **labels: str) -> None:
        """Discard the observations."""

    def merge_from(self, other) -> None:
        """Discard the merge."""

    def value(self, **labels: str) -> float:
        """Always 0.0."""
        return 0.0

    def total(self) -> float:
        """Always 0.0."""
        return 0.0

    def count(self, **labels: str) -> int:
        """Always 0."""
        return 0

    def sum(self, **labels: str) -> float:
        """Always 0.0."""
        return 0.0

    def quantile(self, q: float, **labels: str) -> float:
        """Always ``nan`` (no observations are kept)."""
        return float("nan")

    def bucket_counts(self, **labels: str) -> List[int]:
        """Always empty-shaped zeros."""
        return [0] * (len(LATENCY_BUCKETS_S) + 1)

    def samples(self) -> List:
        """Always empty."""
        return []


class NullRegistry(MetricsRegistry):
    """A registry whose metrics are all no-ops.

    Used to measure the instrumentation's own cost (the obs CI job runs
    one scheduler replay against a real registry and a null registry and
    gates the difference) and to switch telemetry off wholesale without
    touching call sites.
    """

    _NULL = _NullMetric()

    def counter(self, name: str, help: str, labels: Sequence[str] = ()) -> Counter:
        """The shared no-op metric."""
        return self._NULL

    def gauge(self, name: str, help: str, labels: Sequence[str] = ()) -> Gauge:
        """The shared no-op metric."""
        return self._NULL  # type: ignore[return-value]

    def histogram(self, name: str, help: str, *, buckets=LATENCY_BUCKETS_S, labels=()) -> Histogram:
        """The shared no-op metric."""
        return self._NULL  # type: ignore[return-value]

    def collect(self) -> List[_Metric]:
        """Always empty — a null registry exposes nothing."""
        return []
