"""The repository's benchmark: a captured page load in, ranked labels out.

    python3 bench/run.py [--workload NAME]... [--seed S] [--seconds T]
                         [--trace [0|1]] [--smoke] [--out FILE]

Builds the seeded fixture, starts the real serving stack in a subprocess
(``bench/server.py``), loads it from this one process through the public
client path (``SequenceExtractor.extract_array`` -> ``EmbeddingModel.embed``
-> ``FrontendClient.classify``), checks every answer against a flat exact
oracle, prints every metric by name with its unit, and exits non-zero on
any failed check.  ``--trace 0`` (the default) measures the end-to-end
metrics with tracing off; ``--trace 1`` is the separate traced run that
yields the per-layer metrics and writes ``bench/out/trace-<workload>.json``.
After each workload the last line printed is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  Metric and workload
definitions live in ``BENCHMARK.json``; see ``bench/README.md``.
"""

import benchenv

benchenv.pin()  # before NumPy loads BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import numpy as np  # noqa: E402

import fixtures  # noqa: E402
import harness  # noqa: E402
import spans as tracing  # noqa: E402
from oracle import Answer, Oracle  # noqa: E402
from repro.core.kernels import kernel_status  # noqa: E402
from repro.serving import FrontendClient  # noqa: E402
from server import K_NEIGHBOURS, N_SHARDS  # noqa: E402

DEFAULT_CACHE_SIZE = 4096  # `repro serve --cache-size` default
# Share of a traced run's --seconds spent on the untraced reference window
# that trace.overhead_share compares against.
REFERENCE_SHARE = 0.4


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one deployment (``why`` is in BENCHMARK.json)."""

    fixture: str
    from_captures: bool  # start at the PacketCapture, or send pre-embedded queries
    per_request: int
    connections: int
    index: str
    executor: str
    cache_size: int
    updates: bool
    min_agreement: float  # with the flat exact oracle; 1.0 for exact indexes


_WIKI = dict(fixture="wiki", from_captures=True, connections=1, index="exact",
             executor="serial", updates=False, min_agreement=1.0,
             # Cycling a finite capture pool would otherwise turn into LRU hits
             # that no real revisit produces.
             cache_size=0)
_CLUSTERED = dict(fixture="clustered", from_captures=False, executor="process",
                  cache_size=DEFAULT_CACHE_SIZE)
WORKLOADS: Dict[str, Workload] = {
    "live_single": Workload(per_request=1, **_WIKI),
    "bulk_traces": Workload(per_request=64, **_WIKI),
    "fleet_scan": Workload(per_request=32, connections=2, index="ivfpq", updates=False,
                           min_agreement=0.995, **_CLUSTERED),
    "churn_mixed": Workload(per_request=16, connections=1, index="exact", updates=True,
                            min_agreement=1.0, **_CLUSTERED),
}

PRESETS = {
    "full": dict(warmup_s=1.5, setups=3, update_period_s=0.25),
    "smoke": dict(warmup_s=0.2, setups=1, update_period_s=0.1, seconds=0.6),
}


def load_definitions() -> Dict:
    with open(benchenv.REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def provenance(seed: int) -> Dict:
    """Where and on what the numbers were taken."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=benchenv.REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ[name] for name in benchenv.BLAS_THREAD_VARS},
        "kernel_status": kernel_status(),
        "seed": seed,
        "load_1min": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------- setup
def probe_query(fixture: fixtures.Fixture, workload: Workload) -> np.ndarray:
    """The first query of the pool, through the client pipeline if the
    workload starts at the capture."""
    if workload.from_captures:
        return fixtures.embed_captures(fixture.extractor, fixture.model, fixture.captures[:1])
    return fixture.queries[:1]


def start_server(
    workload: Workload, deployment: bytes, query: np.ndarray, want, *, trace: bool
) -> harness.ServerProcess:
    """Spawn the server and wait for its first correct RESULT; records
    ``setup_s`` (spawn -> that answer) and ``first_query_s`` on the server."""
    server = harness.ServerProcess(
        deployment, index=workload.index, executor=workload.executor,
        cache_size=workload.cache_size, trace=trace,
    )
    try:
        server.wait_ready()
        with FrontendClient(harness.HOST, server.ready["port"]) as client:
            body = client.classify(query, top_n=harness.TOP_N)
        answered = time.monotonic()
        got = tuple(body["predictions"][0]["labels"])
        if got != want and workload.min_agreement == 1.0:
            raise RuntimeError(f"probe query answered {list(got)}, the oracle says {list(want)}")
    except BaseException:
        server.kill()
        raise
    server.setup_s = answered - server.spawned_at
    server.first_query_s = answered - server.ready_at
    return server


# -------------------------------------------------------------------- metrics
def window_metrics(m: harness.Measurement) -> Dict[str, Optional[float]]:
    """Throughput, latency and cost of one measured window."""
    done = [r for r in m.requests
            if r.error is None and r.start >= m.started and r.end <= m.ended]
    if not done:
        raise RuntimeError("no request completed inside the measured window")
    latencies_ms = [1e3 * (entry.end - entry.start) for entry in done]
    labels = sum(len(entry.batch) for entry in done)
    updates = [u for u in m.updates
               if u.error is None and u.due >= m.started and u.done <= m.ended]
    return {
        # Over the whole window, not a median of sub-windows: the host flips
        # between two speeds every few seconds (one vCPU or the other is
        # ~25 % slower at any time), and a median of slots reports whichever
        # speed held the majority, which doubles the run-to-run spread.
        # ... and up to the last completion, so the idle tail before the
        # deadline does not turn the rate into a count over a constant.
        "labels_per_s": labels / (max(entry.end for entry in done) - m.started),
        "latency_p50_ms": float(np.percentile(latencies_ms, 50)),
        "latency_p95_ms": float(np.percentile(latencies_ms, 95)),
        "cpu_s_per_klabel": m.cpu_s / (labels / 1e3),
        "peak_rss_mb": m.peak_rss_mb,
        "update_p50_ms": (statistics.median(1e3 * (u.done - u.due) for u in updates)
                          if updates else None),
        "_requests": len(done),
        "_labels": labels,
        "_updates": len(updates),
    }


def check_answers(oracle: Oracle, m: harness.Measurement):
    """Judge every answer of a measurement against the oracle."""
    mutations = [(u.label, u.rows) for u in m.updates if u.error is None]
    generations = [u.generation for u in m.updates if u.error is None]
    problems = []
    if generations != list(range(1, len(generations) + 1)):
        problems.append(f"update acknowledgements carried generations {generations[:8]}..., "
                        f"expected 1, 2, 3, ...")
    answers = [
        Answer(query, labels, entry.generation, entry.floor_generation, entry.request)
        for entry in m.requests if entry.error is None
        # float32, as encode_query put it on the wire
        for query, labels in zip(np.ascontiguousarray(entry.batch, dtype="<f4"), entry.labels)
    ]
    return oracle.check(answers, mutations), problems


# ------------------------------------------------------------------------ run
def run_workload(name: str, *, seed: int, seconds: float, trace: bool, preset: str) -> Dict:
    """One benchmark run of one workload; returns its result record."""
    workload, knobs = WORKLOADS[name], PRESETS[preset]
    fixture = fixtures.BUILDERS[workload.fixture](seed, fixtures.SIZES[preset])
    oracle = Oracle(fixture.references, fixture.labels, k=K_NEIGHBOURS, top_n=harness.TOP_N)
    query = probe_query(fixture, workload)
    want = oracle.expected([(0, fixtures.wire_rounded(query)[0])])[0]
    deployment = fixture.deployment_npz()

    def start(*, traced: bool) -> harness.ServerProcess:
        return start_server(workload, deployment, query, want, trace=traced)

    def measure(server, length_s: float, recorder=None) -> harness.Measurement:
        return harness.measure(
            server, fixture, connections=workload.connections,
            per_request=workload.per_request, from_captures=workload.from_captures,
            updates=fixtures.update_stream(fixture, seed) if workload.updates else None,
            update_period_s=knobs["update_period_s"], warmup_s=knobs["warmup_s"],
            seconds=length_s, recorder=recorder,
        )

    metrics: Dict[str, Optional[float]] = {}
    notes: Dict[str, str] = {}
    checks: List[str] = []
    if not trace:
        setups = []
        for attempt in range(knobs["setups"]):
            if attempt:
                server.stop()
            server = start(traced=False)
            setups.append(server.setup_s)
        with server:
            m = measure(server, seconds)
            report = server.stop()
        measurements = [m]
        metrics["setup_s"] = statistics.median(setups)
        notes["setup_s"] = f"median of {len(setups)} server starts"
    else:
        # Separate servers, so the reference carries no proxy at all.
        reference_s = seconds * REFERENCE_SHARE
        with start(traced=False) as server:
            reference = measure(server, reference_s)
            server.stop()
        recorder = tracing.Recorder()
        with start(traced=True) as server:
            m = measure(server, seconds - reference_s, recorder)
            report = server.stop()
        measurements = [reference, m]
        metrics.update({
            "setup.import_s": server.ready["import_s"],
            "setup.store_build_s": server.ready["store_build_s"],
            "setup.first_query_s": server.first_query_s,
        })

    window = window_metrics(m)
    metrics.update({key: value for key, value in window.items() if not key.startswith("_")})
    samples = f"n={window['_requests']} requests"
    notes.update({
        "labels_per_s": f"{window['_labels']} labels in {m.ended - m.started:.0f} s",
        "latency_p50_ms": samples, "latency_p95_ms": samples,
        "update_p50_ms": f"n={window['_updates']} updates",
    })

    # Correctness: the oracle, failed operations, the traffic itself.
    started = time.perf_counter()
    verdict, problems = check_answers(oracle, m)
    checks.extend(problems)
    attempted = sum(len(x.requests) + len(x.updates) for x in measurements)
    failures = [entry for x in measurements for entry in x.requests + x.updates
                if entry.error is not None]
    metrics["failed_fraction"] = len(failures) / attempted
    metrics["oracle_agreement"] = verdict.agreement
    notes["oracle_agreement"] = (
        f"{verdict.checked} of {verdict.answers} answers checked in "
        f"{time.perf_counter() - started:.1f} s, {verdict.straddled} straddled a swap")
    metrics["fixture.duplicate_embedding_share"] = fixture.duplicate_embedding_share
    metrics["fixture.build_s"] = fixture.build_s
    notes["fixture.build_s"] = (
        f"{len(fixture.labels)} references, pool of {len(fixture.queries)} cycled "
        f"{m.pool_wraps:.2f} times")
    if failures:
        checks.append(f"{len(failures)} of {attempted} operations failed; first: "
                      f"{failures[0].error}")
    if verdict.agreement < workload.min_agreement:
        checks.append(f"oracle agreement {verdict.agreement:.4f} < {workload.min_agreement}; "
                      f"first mismatch: {verdict.first_mismatch}")
    if m.early_repeats:
        checks.append(f"{m.early_repeats} pool entries were sent twice before the pool "
                      f"was exhausted")
    if workload.index == "ivfpq" and not report["kernel_status"].get("active"):
        checks.append(f"native scan kernels are inactive ({report['kernel_status']}); "
                      f"the workload is invalid without them")

    if trace:
        recorder.attach_server_spans(report["spans"])
        metrics.update(tracing.layer_metrics(
            recorder, report["spans"], (m.started, m.scraped_at),
            m.registry_before, m.registry_after, report,
            scan_parallelism=N_SHARDS if workload.executor == "process" else 1,
            updates=window["_updates"],
        ))
        metrics.update(tracing.replay_protocol(m.samples, harness.TOP_N))
        reference_rate = window_metrics(reference)["labels_per_s"]
        metrics["trace.overhead_share"] = 1.0 - metrics["labels_per_s"] / reference_rate
        notes["trace.overhead_share"] = f"untraced reference {reference_rate:.1f} labels/s"
        benchenv.OUT_DIR.mkdir(exist_ok=True)
        trace_path = benchenv.OUT_DIR / f"trace-{name}.json"
        recorder.dump(trace_path, workload=name, seed=seed)
        notes["budget.unattributed_share"] = f"spans in {trace_path.relative_to(benchenv.REPO_ROOT)}"

    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not checks, "attempted": attempted, "failed": len(failures),
        "checks": checks, "metrics": metrics, "notes": notes,
    }


# --------------------------------------------------------------------- output
def print_result(result: Dict, definitions: Dict) -> None:
    """Every metric by name with its unit, then the one-line JSON summary."""
    units = {d["name"]: d["unit"] for d in definitions["end_to_end"] + definitions["per_layer"]}
    reported = [d["name"] for d in definitions["per_layer" if result["trace"] else "end_to_end"]]
    shown = reported if result["trace"] else reported + [
        "update_p50_ms", "failed_fraction", "oracle_agreement",
        "fixture.duplicate_embedding_share", "fixture.build_s"]
    for name in shown:
        value = result["metrics"][name]
        text = "null" if value is None else f"{value:.6g}"
        print(f"{result['workload']:<12} {name:<42} {text:>12} {units[name]:<6} "
              f"{result['notes'].get(name, '')}")
    for check in result["checks"]:
        print(f"{result['workload']:<12} FAILED CHECK: {check}")
    # A layer the workload bypasses spends no time and moves no bytes: 0.
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name] or 0.0, "unit": units[name]}
                    for name in reported},
    }), flush=True)


def main(argv=None) -> int:
    definitions = load_definitions()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured window (default {definitions['run_seconds']})")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                        help="1: the traced run (per-layer metrics); 0: end-to-end metrics")
    parser.add_argument("--smoke", action="store_true", help="tiny fixtures, sub-second windows")
    parser.add_argument("--out", help="also write header + results as JSON here")
    args = parser.parse_args(argv)
    preset = "smoke" if args.smoke else "full"
    seconds = args.seconds or PRESETS[preset].get("seconds", definitions["run_seconds"])

    header = provenance(args.seed)
    print("# " + json.dumps(header))
    print(f"{'workload':<12} {'metric':<42} {'value':>12} {'unit':<6} note")
    results = []
    for name in args.workload or list(WORKLOADS):
        result = run_workload(name, seed=args.seed, seconds=seconds, trace=bool(args.trace),
                              preset=preset)
        results.append(result)
        print_result(result, definitions)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"header": header, "results": results}, handle, indent=1)
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
