"""The observability layer: metrics registry, tracing, Prometheus exposition.

Covers the acceptance criteria of the telemetry PR:

* metric primitives (counter/gauge/histogram) are correct and mergeable,
  and histogram quantile estimates land within one bucket width of exact
  numpy percentiles;
* the text exposition renders and survives a strict parser that enforces
  the format invariants (TYPE before samples, cumulative buckets, +Inf);
* the server-side latency histogram never reads more than one bucket
  width above the client-side round-trip histogram of the same replay;
* per-stage trace spans cover the full pipeline (queue wait, batch
  assembly, scatter, per-shard scan incl. the native flag, merge) and the
  slow-query log fires when a query blows its threshold;
* instrumentation overhead with sampling off stays small (NullRegistry
  vs. live registry replay);
* the ``metrics`` control op and the standalone HTTP endpoint both return
  valid exposition, and ``stats`` reports replica-router state.
"""

import bisect
import json
import logging
import time
import urllib.request

import numpy as np
import pytest

from repro.config import ClassifierConfig
from repro.core.reference_store import ReferenceStore
from repro.obs import (
    CONTENT_TYPE,
    LATENCY_BUCKETS_S,
    Histogram,
    MetricError,
    MetricsHTTPServer,
    MetricsRegistry,
    NullRegistry,
    Tracer,
    exponential_buckets,
    format_metrics_table,
    histogram_quantile,
    parse_prometheus,
    render_prometheus,
)
from repro.obs import tracing as obs_tracing
from repro.serving import (
    BatchScheduler,
    DeploymentManager,
    FrontendClient,
    FrontendServer,
    ReplicaSet,
    ShardedReferenceStore,
    replay,
)

DIM = 8


def bucket_bounds(hist, value):
    """The ``(lower, upper)`` edges of the bucket ``value`` lands in (upper
    is ``inf`` for the overflow bucket): the "one bucket width" tolerance
    of the percentile-agreement checks."""
    position = bisect.bisect_left(hist.buckets, value)
    lower = hist.buckets[position - 1] if position else 0.0
    upper = hist.buckets[position] if position < len(hist.buckets) else float("inf")
    return lower, upper


def _flat_store(n=240, n_classes=12, seed=0):
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((n_classes, DIM)) * 8.0
    assignment = rng.integers(0, n_classes, size=n)
    corpus = centres[assignment] + rng.standard_normal((n, DIM))
    flat = ReferenceStore(DIM)
    flat.add(corpus, [f"page-{code:03d}" for code in assignment])
    return flat, corpus


# ------------------------------------------------------------ metric units
class TestMetrics:
    def test_counter_increments_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_t_total", "t")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_labeled_counter_tracks_series_independently(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_t_total", "t", labels=("code",))
        counter.inc(code="bad_frame")
        counter.inc(2, code="bad_json")
        assert counter.value(code="bad_frame") == 1
        assert counter.value(code="bad_json") == 2
        assert counter.total() == 3
        with pytest.raises(MetricError):
            counter.inc()  # missing the declared label

    def test_gauge_set_max_and_callback(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_g", "g")
        gauge.set(3.0)
        gauge.set_max(1.0)
        assert gauge.value() == 3.0
        gauge.set_max(9.0)
        assert gauge.value() == 9.0
        depth = [0]
        live = registry.gauge("repro_live", "g")
        live.set_function(lambda: float(depth[0]))
        depth[0] = 7
        assert live.value() == 7.0

    def test_registry_is_idempotent_and_type_safe(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_t_total", "t")
        assert registry.counter("repro_t_total", "t") is first
        with pytest.raises(MetricError):
            registry.gauge("repro_t_total", "t")
        with pytest.raises(MetricError):
            registry.counter("repro_t_total", "t", labels=("other",))
        with pytest.raises(MetricError):
            registry.counter("not a metric name", "t")

    def test_exponential_buckets_are_log_spaced(self):
        buckets = exponential_buckets(1e-3, 1.0, per_decade=4)
        assert buckets[0] == pytest.approx(1e-3)
        assert buckets[-1] == pytest.approx(1.0)
        ratios = np.diff(np.log10(buckets))
        assert np.allclose(ratios, ratios[0])

    def test_histogram_quantile_within_one_bucket_of_numpy(self):
        rng = np.random.default_rng(1)
        latencies = np.abs(rng.lognormal(mean=-6.0, sigma=1.2, size=4000))
        hist = Histogram("repro_h_seconds", "h")
        for value in latencies:
            hist.observe(float(value))
        for q in (0.5, 0.9, 0.99):
            exact = float(np.quantile(latencies, q))
            estimate = hist.quantile(q)
            lower, upper = bucket_bounds(hist, exact)
            width = upper - lower
            assert abs(estimate - exact) <= width, (q, exact, estimate)

    def test_histogram_merge_is_exact(self):
        left = Histogram("repro_h_seconds", "h")
        right = Histogram("repro_h_seconds", "h")
        rng = np.random.default_rng(2)
        for value in rng.uniform(1e-4, 1e-1, size=500):
            left.observe(float(value))
        for value in rng.uniform(1e-4, 1e-1, size=300):
            right.observe(float(value))
        merged = Histogram("repro_h_seconds", "h")
        merged.merge_from(left)
        merged.merge_from(right)
        assert merged.count() == 800
        assert merged.sum() == pytest.approx(left.sum() + right.sum())
        assert merged.bucket_counts() == [
            a + b for a, b in zip(left.bucket_counts(), right.bucket_counts())
        ]

    def test_histogram_merge_rejects_mismatched_buckets(self):
        left = Histogram("repro_h_seconds", "h")
        other = Histogram(
            "repro_h_seconds", "h", buckets=exponential_buckets(1e-3, 1.0, per_decade=2)
        )
        with pytest.raises(MetricError):
            left.merge_from(other)

    def test_overflow_observation_lands_in_inf_bucket(self):
        hist = Histogram("repro_h_seconds", "h")
        hist.observe(LATENCY_BUCKETS_S[-1] * 10)
        assert hist.count() == 1
        assert hist.bucket_counts()[-1] == 1
        lower, upper = bucket_bounds(hist, LATENCY_BUCKETS_S[-1] * 10)
        assert upper == float("inf")

    def test_null_registry_is_inert(self):
        registry = NullRegistry()
        counter = registry.counter("repro_t_total", "t")
        counter.inc()
        hist = registry.histogram("repro_h_seconds", "h")
        hist.observe(0.5)
        gauge = registry.gauge("repro_g", "g")
        gauge.set(3.0)
        gauge.set_function(lambda: 9.0)
        assert counter.value() == 0.0
        assert hist.count() == 0
        assert gauge.value() == 0.0
        assert registry.collect() == []
        assert render_prometheus(registry) == ""


# -------------------------------------------------------------- exposition
class TestExposition:
    def _populated_registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_q_total", "Queries.").inc(5)
        errors = registry.counter("repro_e_total", "Errors.", labels=("code",))
        errors.inc(code='bad "frame"\\n')
        gauge = registry.gauge("repro_depth", "Depth.")
        gauge.set(3.0)
        hist = registry.histogram("repro_lat_seconds", "Latency.")
        for value in (1e-4, 3e-4, 2e-3, 0.5, 200.0):
            hist.observe(value)
        return registry

    def test_round_trip_through_strict_parser(self):
        registry = self._populated_registry()
        text = render_prometheus(registry)
        families = parse_prometheus(text)
        assert families["repro_q_total"]["type"] == "counter"
        assert families["repro_q_total"]["samples"] == [("repro_q_total", {}, 5.0)]
        (sample,) = families["repro_e_total"]["samples"]
        assert sample[1] == {"code": 'bad "frame"\\n'}
        assert families["repro_depth"]["samples"] == [("repro_depth", {}, 3.0)]
        hist_family = families["repro_lat_seconds"]
        count = [s for s in hist_family["samples"] if s[0] == "repro_lat_seconds_count"]
        assert count[0][2] == 5.0

    def test_scraper_side_quantile_matches_histogram(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_lat_seconds", "Latency.")
        rng = np.random.default_rng(3)
        for value in rng.lognormal(mean=-5.0, sigma=1.0, size=2000):
            hist.observe(float(value))
        families = parse_prometheus(render_prometheus(registry))
        for q in (0.5, 0.99):
            assert histogram_quantile(families["repro_lat_seconds"], q) == pytest.approx(
                hist.quantile(q), rel=1e-9
            )

    def test_parser_rejects_sample_before_type(self):
        with pytest.raises(ValueError):
            parse_prometheus("repro_q_total 5\n# TYPE repro_q_total counter\n")

    def test_parser_rejects_non_cumulative_buckets(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.1"} 5\n'
            'repro_h_bucket{le="1"} 3\n'
            'repro_h_bucket{le="+Inf"} 5\n'
            "repro_h_sum 1\n"
            "repro_h_count 5\n"
        )
        with pytest.raises(ValueError):
            parse_prometheus(text)

    def test_parser_rejects_missing_inf_bucket(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="0.1"} 5\n'
            "repro_h_sum 1\n"
            "repro_h_count 5\n"
        )
        with pytest.raises(ValueError):
            parse_prometheus(text)

    def test_parser_rejects_inf_bucket_count_mismatch(self):
        text = (
            "# TYPE repro_h histogram\n"
            'repro_h_bucket{le="+Inf"} 4\n'
            "repro_h_sum 1\n"
            "repro_h_count 5\n"
        )
        with pytest.raises(ValueError):
            parse_prometheus(text)

    def test_parser_rejects_malformed_samples(self):
        with pytest.raises(ValueError):
            parse_prometheus("# TYPE repro_q counter\nrepro_q not-a-number\n")
        with pytest.raises(ValueError):
            parse_prometheus('# TYPE repro_q counter\nrepro_q{code=unquoted} 1\n')

    def test_format_metrics_table_summarises_histograms(self):
        text = render_prometheus(self._populated_registry())
        table = format_metrics_table(text)
        assert "repro_q_total 5" in table
        assert "count=5" in table and "p99=" in table

    def test_http_endpoint_serves_exposition(self):
        registry = self._populated_registry()
        with MetricsHTTPServer(registry, port=0) as server:
            with urllib.request.urlopen(server.url(), timeout=5) as response:
                assert response.status == 200
                assert response.headers["Content-Type"] == CONTENT_TYPE
                body = response.read().decode("utf-8")
            parse_prometheus(body)
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(server.url().replace("/metrics", "/x"), timeout=5)


# ----------------------------------------------------------------- tracing
class TestTracing:
    def test_sampling_one_in_n(self):
        tracer = Tracer(MetricsRegistry(), sample_every=4)
        traces = [tracer.maybe_trace() for _ in range(100)]
        assert sum(trace is not None for trace in traces) == 25
        assert Tracer(MetricsRegistry()).maybe_trace() is None  # sampling off

    def test_collector_stack_scopes_records(self):
        assert not obs_tracing.enabled()
        collector = obs_tracing.push()
        try:
            assert obs_tracing.enabled()
            with obs_tracing.timed("stage_a", detail=1):
                time.sleep(0.001)
            obs_tracing.record("stage_b", 0.5, native=True)
        finally:
            assert obs_tracing.pop() is collector
        assert not obs_tracing.enabled()
        stages = [span.stage for span in collector]
        assert stages == ["stage_a", "stage_b"]
        assert collector[0].seconds >= 0.001
        assert collector[1].detail == {"native": True}

    def test_timed_is_inert_without_collector(self):
        with obs_tracing.timed("nothing"):
            pass  # must not raise or record anywhere

    def test_slow_query_log_fires(self, caplog):
        tracer = Tracer(MetricsRegistry(), slow_threshold_s=0.010)
        trace = obs_tracing.QueryTrace()
        trace.add("queue_wait", 0.040)
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            tracer.finish(trace, 0.042)
            tracer.finish(None, 0.001)  # below threshold, untraced
        assert len(tracer.slow()) == 1
        assert tracer.slow()[0]["latency_s"] == pytest.approx(0.042)
        assert any("slow query" in message for message in caplog.messages)
        counter = tracer.registry.get("repro_trace_slow_queries_total")
        assert counter.value() == 1

    def test_finish_observes_span_histogram(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry, sample_every=1)
        trace = tracer.maybe_trace()
        trace.add("scatter", 0.002, shard=0)
        trace.add("merge", 0.001)
        tracer.finish(trace, 0.004)
        hist = registry.get("repro_trace_span_seconds")
        assert hist.count(stage="scatter") == 1
        assert hist.count(stage="merge") == 1
        assert tracer.recent()[0]["latency_s"] == pytest.approx(0.004)


# --------------------------------------------------- end-to-end pipeline
@pytest.fixture(scope="module")
def served():
    """A full serving stack (replicas, scheduler, TCP front-end) sharing
    one registry, with 1-in-1 trace sampling so every span stage shows."""
    flat, corpus = _flat_store()
    registry = MetricsRegistry()
    tracer = Tracer(registry, sample_every=1, slow_threshold_s=30.0)
    replica_set = ReplicaSet.in_process(2)
    manager = DeploymentManager(
        ShardedReferenceStore.from_reference_store(flat, n_shards=2, executor=replica_set),
        ClassifierConfig(k=9),
    )
    manager.attach_metrics(registry)
    scheduler = BatchScheduler(
        manager,
        max_batch_size=16,
        max_latency_s=0.001,
        n_executors=2,
        registry=registry,
        tracer=tracer,
    )
    with scheduler:
        with FrontendServer(scheduler, manager=manager) as server:
            queries = corpus[:64] + 0.05
            result = replay(server.host, server.port, queries, request_batch_size=4)
            yield {
                "registry": registry,
                "scheduler": scheduler,
                "manager": manager,
                "result": result,
                "address": (server.host, server.port),
                "corpus": corpus,
            }
    manager.close()


class TestServingTelemetry:
    def test_server_histogram_matches_client_report(self, served):
        """The CI obs job's relation: server latency excludes the socket
        hop, so it may sit below the client's number but never more than
        one bucket width above it."""
        result = served["result"]
        assert result.failed == 0 and result.latency.count() == 16
        hist = served["registry"].get("repro_query_latency_seconds")
        assert hist.count() >= result.n_queries
        for q, client_ms in ((0.50, result.p50_ms), (0.99, result.p99_ms)):
            lower, upper = bucket_bounds(hist, client_ms / 1e3)
            assert hist.quantile(q) <= client_ms / 1e3 + (upper - lower)

    def test_trace_spans_cover_the_pipeline(self, served):
        hist = served["registry"].get("repro_trace_span_seconds")
        for stage in ("queue_wait", "batch_assemble", "batch_execute", "scatter",
                      "shard_scan", "merge", "cache_lookup"):
            assert hist.count(stage=stage) > 0, stage

    def test_metrics_control_op_returns_valid_exposition(self, served):
        with FrontendClient(*served["address"]) as client:
            body = client.metrics()
        assert body["content_type"] == CONTENT_TYPE
        families = parse_prometheus(body["exposition"])
        assert "repro_query_latency_seconds" in families
        assert "repro_frontend_frames_total" in families
        assert "repro_deployment_generation" in families

    def test_stats_op_reports_replica_router_state(self, served):
        with FrontendClient(*served["address"]) as client:
            queries = served["corpus"][:4]
            client.classify(queries, top_n=1)
            info = client.info()
            families = parse_prometheus(client.metrics()["exposition"])
        assert (info["n_replicas"], info["router"]) == (2, "least_loaded")
        routed = [value for _, _, value in families["repro_replicas_routed"]["samples"]]
        assert len(routed) == 2
        assert sum(routed) >= 1
        assert len(families["repro_replicas_in_flight"]["samples"]) == 2

    def test_exposition_is_json_safe(self, served):
        with FrontendClient(*served["address"]) as client:
            body = client.metrics()
        json.dumps(body)  # the control channel is JSON frames


class TestProcessExecutorPiggyback:
    def test_worker_scan_timings_ride_the_scatter_reply(self):
        flat, corpus = _flat_store(n=120, n_classes=6, seed=4)
        executor = ReplicaSet.processes(1, n_workers=2)
        try:
            store = ShardedReferenceStore.from_reference_store(
                flat, n_shards=2, executor=executor
            )
            collector = obs_tracing.push()
            try:
                store.search(corpus[:4], k=5)
            finally:
                obs_tracing.pop()
            scans = [span for span in collector if span.stage == "shard_scan"]
            assert len(scans) == 2
            for span in scans:
                assert span.seconds >= 0.0
                assert span.detail["native"] in (True, False)
                assert "shard" in span.detail
            stages = {span.stage for span in collector}
            assert {"scatter", "merge"} <= stages
        finally:
            executor.close()


class TestOverhead:
    def test_sampling_off_instrumentation_overhead_is_small(self):
        """Classify the same stream against a live registry (sampling off)
        and a NullRegistry in inline-flush mode — the identical submit ->
        batch -> observe path minus flusher-thread jitter.  The live path
        must stay within 1.5x best-of-5 (the CI obs job enforces the
        tighter <5% gate on the same methodology)."""
        flat, corpus = _flat_store(n=200, n_classes=10, seed=5)
        queries = np.repeat(corpus[:50], 8, axis=0) + 0.01
        manager = DeploymentManager(
            ShardedReferenceStore.from_reference_store(flat, n_shards=2),
            ClassifierConfig(k=9),
        )

        def run_once(registry):
            scheduler = BatchScheduler(
                manager,
                max_batch_size=64,
                max_latency_s=0.001,
                cache_size=0,
                registry=registry,
                tracer=Tracer(registry, sample_every=0),
            )
            start = time.perf_counter()
            scheduler.classify(queries)
            return time.perf_counter() - start

        try:
            run_once(NullRegistry())  # warm up imports / allocator
            live_runs, null_runs = [], []
            for _ in range(5):  # interleaved so machine-load drift hits both
                live_runs.append(run_once(MetricsRegistry()))
                null_runs.append(run_once(NullRegistry()))
        finally:
            manager.close()
        live, null = min(live_runs), min(null_runs)
        assert live <= null * 1.5 + 0.050, (live, null)
