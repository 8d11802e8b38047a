"""Per-query trace spans with 1-in-N sampling and a slow-query log.

A *trace* is the list of per-stage timings one query accumulated on its
way through the serving pipeline — queue wait, batch assembly, cache
lookup, scatter (with per-shard scan records tagged native vs fallback),
merge, rerank — riding the query's row through the scheduler's queue and
kept by :meth:`Tracer.recent` so tests can assert on it.

The cost model is the whole point:

* **Sampling.**  :meth:`Tracer.maybe_trace` hands out a
  :class:`QueryTrace` for one in every ``sample_every`` queries (0 =
  tracing off).  An unsampled query pays a single counter increment and
  carries ``trace=None``; all span bookkeeping is skipped because the
  pipeline stages consult :func:`enabled` before doing any timing work.
* **Slow-query log.**  Independently of sampling, every fulfilment is
  checked against ``slow_threshold_s`` — one float comparison.  A query
  over the threshold is recorded (with whatever spans it collected, or
  just its latency) to a bounded deque and the ``repro.obs`` logger, so
  the tail is never invisible just because it wasn't sampled.

Stages deep in the pipeline (index scans, shard workers) don't see the
ticket; they report through a **thread-local collector stack**
(:func:`push` / :func:`pop` / :func:`record`).  The scheduler pushes a
collector around batch execution, the sharded store pushes its own
around the scatter to capture per-shard records, and each layer folds
what it collected into the layer above.  When no collector is pushed —
the common, unsampled case — :func:`enabled` is ``False`` and the hooks
cost one attribute read.
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .metrics import LATENCY_BUCKETS_S, MetricsRegistry

logger = logging.getLogger("repro.obs")

_local = threading.local()


@dataclass
class SpanRecord:
    """One timed stage of one query (or batch): name, duration, detail."""

    stage: str
    seconds: float
    detail: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form: ``{"stage", "seconds", **detail}``."""
        return {"stage": self.stage, "seconds": self.seconds, **self.detail}


def _stack() -> List[List[SpanRecord]]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def enabled() -> bool:
    """Whether a span collector is active on this thread.

    Pipeline hooks guard their timing work with this — it is one
    attribute read plus a truth test, which is what keeps the unsampled
    hot path at effectively zero tracing cost.
    """
    return bool(getattr(_local, "stack", None))


def push(records: Optional[List[SpanRecord]] = None) -> List[SpanRecord]:
    """Activate a span collector on this thread and return it.

    Collectors nest: the innermost push receives subsequent
    :func:`record` calls, and the pusher is responsible for folding the
    collected records outward (or into a trace) after :func:`pop`.
    """
    if records is None:
        records = []
    _stack().append(records)
    return records


def pop() -> List[SpanRecord]:
    """Deactivate and return the innermost collector pushed on this thread."""
    return _stack().pop()


def record(stage: str, seconds: float, **detail: Any) -> None:
    """Append a span to the innermost active collector (no-op if none)."""
    stack = getattr(_local, "stack", None)
    if stack:
        stack[-1].append(SpanRecord(stage, float(seconds), dict(detail)))


def record_span(span: SpanRecord) -> None:
    """Append an already-built :class:`SpanRecord` to the active collector."""
    stack = getattr(_local, "stack", None)
    if stack:
        stack[-1].append(span)


class QueryTrace:
    """The spans one sampled query collected end to end.

    Rides the query's pending row (``None`` on unsampled queries) and is
    completed by :meth:`Tracer.finish`, which stamps the total latency
    and feeds the per-stage histogram.
    """

    __slots__ = ("spans", "latency_s", "cached", "failed")

    def __init__(self) -> None:
        self.spans: List[SpanRecord] = []
        self.latency_s: Optional[float] = None
        self.cached = False
        self.failed = False

    def add(self, stage: str, seconds: float, **detail: Any) -> None:
        """Append one span."""
        self.spans.append(SpanRecord(stage, float(seconds), dict(detail)))

    def extend(self, spans: List[SpanRecord]) -> None:
        """Append a batch of collected spans."""
        self.spans.extend(spans)

    def stage_seconds(self) -> Dict[str, float]:
        """Total seconds per stage name (a span map summary)."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.stage] = out.get(span.stage, 0.0) + span.seconds
        return out

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready form with latency, flags, and every span."""
        return {
            "latency_s": self.latency_s,
            "cached": self.cached,
            "failed": self.failed,
            "spans": [span.as_dict() for span in self.spans],
        }


class Tracer:
    """Sampling policy + slow-query log + span-histogram sink.

    ``sample_every=N`` traces one query in N (0 disables tracing);
    ``slow_threshold_s`` (``None`` disables) logs any query slower than
    the threshold regardless of sampling.  Thread-safe: the sampling
    decision rides :class:`itertools.count` (atomic in CPython) and the
    slow/recent deques are bounded and lock-protected.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        *,
        sample_every: int = 0,
        slow_threshold_s: Optional[float] = None,
        keep_recent: int = 64,
        keep_slow: int = 64,
    ) -> None:
        self.sample_every = int(sample_every)
        self.slow_threshold_s = slow_threshold_s
        self._counter = itertools.count()
        self._lock = threading.Lock()
        self._recent: deque = deque(maxlen=keep_recent)
        self._slow: deque = deque(maxlen=keep_slow)
        self.registry = registry
        if registry is not None:
            self._sampled_total = registry.counter(
                "repro_trace_sampled_total", "Queries selected for span tracing."
            )
            self._slow_total = registry.counter(
                "repro_trace_slow_queries_total",
                "Queries slower than the slow-query threshold.",
            )
            self._span_seconds = registry.histogram(
                "repro_trace_span_seconds",
                "Per-stage time from sampled query traces.",
                buckets=LATENCY_BUCKETS_S,
                labels=("stage",),
            )
        else:
            self._sampled_total = None
            self._slow_total = None
            self._span_seconds = None

    def maybe_trace(self) -> Optional[QueryTrace]:
        """A fresh :class:`QueryTrace` for 1-in-``sample_every`` calls,
        else ``None``.  With sampling off (``sample_every <= 0``) this is
        a single attribute read."""
        if self.sample_every <= 0:
            return None
        if next(self._counter) % self.sample_every:
            return None
        if self._sampled_total is not None:
            self._sampled_total.inc()
        return QueryTrace()

    def finish(
        self,
        trace: Optional[QueryTrace],
        latency_s: float,
        *,
        cached: bool = False,
        failed: bool = False,
    ) -> None:
        """Complete a query: stamp its trace (if sampled), feed the span
        histogram, and apply the slow-query check to **every** call."""
        if trace is not None:
            trace.latency_s = latency_s
            trace.cached = cached
            trace.failed = failed
            if self._span_seconds is not None:
                for span in trace.spans:
                    self._span_seconds.observe(span.seconds, stage=span.stage)
            with self._lock:
                self._recent.append(trace)
        threshold = self.slow_threshold_s
        if threshold is not None and latency_s > threshold:
            self._record_slow(trace, latency_s, cached=cached, failed=failed)

    def _record_slow(self, trace, latency_s, *, cached, failed):
        if self._slow_total is not None:
            self._slow_total.inc()
        entry = (
            trace.as_dict()
            if trace is not None
            else {"latency_s": latency_s, "cached": cached, "failed": failed, "spans": []}
        )
        with self._lock:
            self._slow.append(entry)
        logger.warning(
            "slow query: %.1f ms (threshold %.1f ms)%s%s",
            latency_s * 1e3,
            self.slow_threshold_s * 1e3,
            " [cached]" if cached else "",
            " [failed]" if failed else "",
        )

    def recent(self) -> List[Dict[str, Any]]:
        """The most recent sampled traces, as dicts (newest last)."""
        with self._lock:
            return [trace.as_dict() for trace in self._recent]

    def slow(self) -> List[Dict[str, Any]]:
        """The most recent slow-query entries, as dicts (newest last)."""
        with self._lock:
            return list(self._slow)


class timed:
    """Context manager that records its block as a span on exit.

    ``with timed("merge"): ...`` appends a ``merge`` span to the active
    collector; when no collector is active the overhead is one
    :func:`enabled` check and the clock is never read.
    """

    __slots__ = ("stage", "detail", "_start", "seconds")

    def __init__(self, stage: str, **detail: Any) -> None:
        self.stage = stage
        self.detail = detail
        self._start: Optional[float] = None
        self.seconds = 0.0

    def __enter__(self) -> "timed":
        """Start the clock only if a collector is listening."""
        if enabled():
            self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Record the elapsed span (when the clock was started)."""
        if self._start is not None:
            self.seconds = time.perf_counter() - self._start
            record(self.stage, self.seconds, **self.detail)
