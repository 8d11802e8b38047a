"""Serving observability: metrics registry, query tracing, Prometheus export.

The measurement substrate the serving pipeline reports through:

- :mod:`repro.obs.metrics` — lock-cheap :class:`Counter` / :class:`Gauge`
  / :class:`Histogram` behind a get-or-create :class:`MetricsRegistry`;
  histograms use fixed log-spaced buckets so percentile estimates merge
  across threads, replicas and worker processes.
- :mod:`repro.obs.tracing` — per-query :class:`QueryTrace` spans riding
  the scheduler's queue with 1-in-N sampling and a threshold-triggered
  slow-query log (:class:`Tracer`), plus the thread-local collector
  stack deep pipeline stages report through.
- :mod:`repro.obs.export` — Prometheus text-format exposition
  (:func:`render_prometheus`), the strict :func:`parse_prometheus`
  used by tests/CI/CLI, and the ``--metrics-port``
  :class:`MetricsHTTPServer`.

See ``docs/observability.md`` for the metric catalogue, the trace span
map, and a scrape example.
"""

from .export import (
    CONTENT_TYPE,
    MetricsHTTPServer,
    format_metrics_table,
    histogram_quantile,
    parse_prometheus,
    render_prometheus,
)
from .metrics import (
    LATENCY_BUCKETS_S,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NullRegistry,
    exponential_buckets,
)
from .tracing import QueryTrace, SpanRecord, Tracer, timed

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_S",
    "MetricError",
    "MetricsHTTPServer",
    "MetricsRegistry",
    "NullRegistry",
    "QueryTrace",
    "SIZE_BUCKETS",
    "SpanRecord",
    "Tracer",
    "exponential_buckets",
    "format_metrics_table",
    "histogram_quantile",
    "parse_prometheus",
    "render_prometheus",
    "timed",
]
