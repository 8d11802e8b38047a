"""The traced run: spans recorded from outside the program, nested into
one tree per request, and the per-layer metrics derived from them.

The driver records a span around each public call it makes; the server
subprocess records spans at its timing proxies (``bench/server.py``) on the
same ``CLOCK_MONOTONIC``.  A server span belongs to the request whose
client-side ``frontend.classify`` interval contains it — per connection
those intervals never overlap, so containment is unambiguous; a
micro-batch that served two connections is a child of both requests.
A span's self time is its duration minus what its children cover.

Stages with no outside seam (frame decode/encode, queue wait, worker-side
shard scan, cache hits, batch sizes, swap time) come from the program's own
registry, read over the public ``metrics`` control op before and after the
window and reported as ``_sum / _count`` deltas — ``None`` when a series
is absent.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import parse_prometheus
from repro.serving import protocol

ServerSpan = Tuple[str, float, float, int]  # name, start, end, n


class Recorder:
    """In-memory span store; written out once, when the run ends."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []

    def add(
        self, name: str, start: float, end: float, *, request: int,
        parent: Optional[int] = None, lane: int = 0, n: int = 1,
    ) -> Dict:
        span = dict(id=len(self.spans), parent=parent, request=request, name=name,
                    start=start, end=end, n=n, lane=lane)
        self.spans.append(span)
        return span

    def named(self, name: str) -> List[Dict]:
        return [span for span in self.spans if span["name"] == name]

    def attach_server_spans(self, server_spans: Sequence[ServerSpan]) -> None:
        """Hang the server's spans under the requests that contain them:
        predict under classify, scatter under predict, publish under scatter."""
        by_name: Dict[str, List[ServerSpan]] = {}
        for span in sorted(server_spans, key=lambda s: s[1]):
            by_name.setdefault(span[0], []).append(tuple(span))
        lanes = sorted({span["lane"] for span in self.spans})
        for lane in lanes:
            parents = [s for s in self.named("frontend.classify") if s["lane"] == lane]
            for name in ("manager.predict", "sharded_store.scatter", "segment.publish"):
                parents = self._nest(by_name.get(name, []), parents)

    def _nest(self, children: Sequence[ServerSpan], parents: List[Dict]) -> List[Dict]:
        """Add each child under the parent that contains it; ``parents``
        are sorted and do not overlap."""
        starts = [parent["start"] for parent in parents]
        nested = []
        for name, start, end, n in children:
            position = bisect_right(starts, start) - 1
            if position >= 0 and parents[position]["end"] >= end:
                parent = parents[position]
                nested.append(self.add(name, start, end, request=parent["request"],
                                       parent=parent["id"], lane=parent["lane"], n=n))
        return nested

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append((span["start"], span["end"]))
        out = {}
        for span in self.spans:
            covered, edge = 0.0, span["start"]
            for start, end in sorted(children.get(span["id"], ())):
                start, end = max(start, edge), min(end, span["end"])
                if end > start:
                    covered += end - start
                    edge = end
            out[span["id"]] = (span["end"] - span["start"]) - covered
        return out

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total and self milliseconds."""
        selfs = self.self_times()
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span["name"], dict(count=0, total_ms=0.0, self_ms=0.0))
            row["count"] += 1
            row["total_ms"] += (span["end"] - span["start"]) * 1e3
            row["self_ms"] += selfs[span["id"]] * 1e3
        return out

    def dump(self, path, **header) -> None:
        with open(path, "w") as handle:
            json.dump(dict(header, clock="CLOCK_MONOTONIC", summary=self.summary(),
                           spans=self.spans), handle)


# ------------------------------------------------------------------ registry
def scrape(client) -> Dict[str, float]:
    """The server's registry as ``{sample name: value summed over label
    sets}``, histogram buckets left out."""
    families = parse_prometheus(client.metrics()["exposition"])
    totals: Dict[str, float] = {}
    for family in families.values():
        for sample, _, value in family["samples"]:
            if not sample.endswith("_bucket"):
                totals[sample] = totals.get(sample, 0.0) + value
    return totals


def _delta(before: Dict[str, float], after: Dict[str, float], sample: str) -> Optional[float]:
    if sample not in after:
        return None
    return after[sample] - before.get(sample, 0.0)


def _ratio(top: Optional[float], bottom: Optional[float], scale: float = 1.0) -> Optional[float]:
    if top is None or not bottom:
        return None
    return scale * top / bottom


def _mean(before, after, family: str, scale: float = 1.0) -> Optional[float]:
    """Mean observation of a histogram family over the window."""
    return _ratio(_delta(before, after, family + "_sum"),
                  _delta(before, after, family + "_count"), scale)


# ------------------------------------------------------------------ protocol
def replay_protocol(samples: Sequence[Tuple[np.ndarray, Dict]], top_n: int) -> Dict[str, float]:
    """Time the four wire codecs on recorded request/response pairs, and
    count their exact bytes.  The server-side functions
    (``decode_query``, ``encode_result``) are pure, so replaying them here
    on the payloads the server saw measures the same work."""
    seconds = dict(encode_query=0.0, decode_query=0.0, encode_result=0.0, decode_result=0.0)
    queries = request_bytes = response_bytes = 0
    clock = time.perf_counter
    for batch, body in samples:
        t0 = clock()
        frame = protocol.encode_query(batch, top_n)
        t1 = clock()
        protocol.decode_query(frame[protocol.HEADER.size:])
        t2 = clock()
        ranked = [(p["labels"], p["scores"]) for p in body["predictions"]]
        t3 = clock()
        reply = protocol.encode_result(body["generation"], ranked)
        t4 = clock()
        protocol.decode_json(reply[protocol.HEADER.size:], code="bad-result")
        t5 = clock()
        seconds["encode_query"] += t1 - t0
        seconds["decode_query"] += t2 - t1
        seconds["encode_result"] += t4 - t3
        seconds["decode_result"] += t5 - t4
        queries += len(batch)
        request_bytes += len(frame)
        response_bytes += len(reply)
    return {
        "protocol.encode_query_us_per_query": 1e6 * seconds["encode_query"] / queries,
        "protocol.decode_query_us_per_query": 1e6 * seconds["decode_query"] / queries,
        "protocol.encode_result_us_per_label": 1e6 * seconds["encode_result"] / queries,
        "protocol.decode_result_us_per_label": 1e6 * seconds["decode_result"] / queries,
        "protocol.request_bytes_per_query": request_bytes / queries,
        "protocol.response_bytes_per_label": response_bytes / queries,
    }


# -------------------------------------------------------------- scan traffic
def scan_bytes_per_query(report: Dict) -> float:
    """Bytes one query's scan reads, *computed* from the index layout (not
    measured): every stored vector for the exact index; for IVF-PQ the
    probed share of the codes plus their per-row constants, plus the raw
    vectors of the re-ranked candidates."""
    spec, dim = report["index_spec"], report["embedding_dim"]
    vector_bytes = dim * np.dtype(report["storage_dtype"]).itemsize
    total = 0.0
    for rows in report["shard_sizes"]:
        if spec["kind"] == "exact":
            total += rows * vector_bytes
            continue
        cells = spec["n_cells"] or math.ceil(9.0 * math.sqrt(rows))  # IVFPQIndex's auto rule
        probed = rows * min(1.0, spec["n_probe"] / cells)
        code_bytes = spec["n_subspaces"] * spec["bits"] / 8 + 4  # codes + float32 constant
        total += probed * code_bytes + min(spec["rerank"], rows) * vector_bytes
    return total


# ------------------------------------------------------------ layer metrics
def layer_metrics(
    recorder: Recorder,
    server_spans: Sequence[ServerSpan],
    window: Tuple[float, float],
    before: Dict[str, float],
    after: Dict[str, float],
    report: Dict,
    *,
    scan_parallelism: int,
    updates: int,
) -> Dict[str, Optional[float]]:
    """Everything the traced window says about single layers.  Values are
    ``None`` where the workload bypasses the layer or a series is absent."""
    out: Dict[str, Optional[float]] = {}
    selfs = recorder.self_times()

    def total(name: str) -> float:
        return sum(span["end"] - span["start"] for span in recorder.named(name))

    # Client pipeline (driver spans).
    traces = float(sum(span["n"] for span in recorder.named("traces.extract")))
    out["traces.extract_ms_per_trace"] = _ratio(total("traces.extract"), traces, 1e3)
    out["embedding.embed_ms_per_trace"] = _ratio(total("embedding.embed"), traces, 1e3)
    out["embedding.batch_size"] = _ratio(traces, len(recorder.named("embedding.embed")))

    # Front-end and scheduler, per request.
    classifies = recorder.named("frontend.classify")
    out["frontend.rtt_ms_per_request"] = _ratio(total("frontend.classify"), len(classifies), 1e3)
    out["frontend.self_ms_per_request"] = _ratio(
        sum(selfs[span["id"]] for span in classifies), len(classifies), 1e3)
    out["frontend.handle_ms_per_request"] = _mean(
        before, after, "repro_frontend_request_seconds", 1e3)
    first_predict: Dict[int, float] = {}
    for span in recorder.named("manager.predict"):
        first_predict.setdefault(span["parent"], span["start"])
    waits = [first_predict[s["id"]] - s["start"] for s in classifies if s["id"] in first_predict]
    decode_ms = _mean(before, after, "repro_frontend_decode_seconds", 1e3) or 0.0
    out["scheduler.wait_ms_per_request"] = (
        1e3 * sum(waits) / len(waits) - decode_ms if waits else None)
    out["scheduler.queue_wait_ms_mean"] = _mean(
        before, after, "repro_scheduler_queue_wait_seconds", 1e3)
    out["scheduler.batch_size_mean"] = _mean(before, after, "repro_scheduler_batch_size")
    hits = _delta(before, after, "repro_scheduler_cache_hits_total")
    misses = _delta(before, after, "repro_scheduler_cache_misses_total")
    out["scheduler.cache_hit_ratio"] = _ratio(hits, (hits or 0.0) + (misses or 0.0))

    # Classification, from the server's own spans inside the window (a
    # micro-batch shared by two requests counts once here).
    inside = [s for s in server_spans if window[0] <= s[1] and s[2] <= window[1]]
    seconds = {name: 0.0 for name in ("manager.predict", "sharded_store.scatter")}
    queries = dict(seconds)
    for name, start, end, n in inside:
        if name in seconds:
            seconds[name] += end - start
            queries[name] += n
    predicted, scattered = queries["manager.predict"], queries["sharded_store.scatter"]
    out["manager.predict_ms_per_query"] = _ratio(seconds["manager.predict"], predicted, 1e3)
    out["sharded_store.scatter_ms_per_query"] = _ratio(
        seconds["sharded_store.scatter"], scattered, 1e3)
    # Scatter happens inside predict for exactly the same queries.
    out["classifier.vote_merge_ms_per_query"] = _ratio(
        seconds["manager.predict"] - seconds["sharded_store.scatter"], predicted, 1e3)
    scan_s = _delta(before, after, "repro_store_shard_scan_seconds_sum")
    out["index.scan_ms_per_query"] = _ratio(scan_s, scattered, 1e3)
    # Worker processes scan shards side by side, so only 1/parallelism of
    # the summed scan time lies on the scatter's blocking path.
    out["sharded_store.scatter_self_ms_per_query"] = (
        None if scan_s is None else
        _ratio(seconds["sharded_store.scatter"] - scan_s / scan_parallelism, scattered, 1e3))
    scan_bytes = scan_bytes_per_query(report)
    out["index.scan_bytes_per_query"] = scan_bytes
    out["index.scan_gb_per_s"] = _ratio(scan_bytes * scattered, scan_s, 1e-9)

    # Updates.
    out["manager.swap_ms"] = _mean(before, after, "repro_deployment_swap_seconds", 1e3)
    publishes = [end - start for name, start, end, _ in inside if name == "segment.publish"]
    out["segment.publish_ms_per_update"] = _ratio(sum(publishes), updates, 1e3)
    out["segment.published_bytes"] = float(report["published_bytes"]) or None

    # How much of the requests' time no span explains.
    requests = recorder.named("request")
    out["budget.unattributed_share"] = _ratio(
        sum(selfs[span["id"]] for span in requests), total("request"))
    return out
