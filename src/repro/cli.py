"""Command-line interface for the reproduction.

The subcommands cover the common workflows::

    python -m repro info                     # package / scale overview
    python -m repro experiment exp1 --scale smoke
    python -m repro experiment all  --scale ci --index ivf
    python -m repro table3 --no-measure
    python -m repro serve --port 7010        # TCP serving front-end
    python -m repro serve --port 7010 --metrics-port 9110   # + Prometheus scrape
    python -m repro stats 127.0.0.1:7010     # info + metrics of a running server
    python -m repro scenario list            # built-in adversarial scenarios
    python -m repro scenario run --scenario padding-adaptive --tenants 2
    python -m repro scenario run --scenario all --out scenarios.json
    python -m repro requantize DIR --check   # drift report on a saved deployment

Performance is measured by ``python3 bench/run.py`` (``bench/README.md``),
not by a subcommand here.

Index-engine knob help (``--n-cells``/``--n-probe``/``--n-subspaces``/
``--bits``/``--opq``/``--rerank``/``--max-cell-fraction``) comes from the
single source of truth in :mod:`repro.core.knobs`, which
``docs/index-tuning.md`` mirrors.  ``experiment`` and ``serve`` each turn
the knob flags they accept into one ``index_from_spec`` dict
(:func:`_index_spec`).

The ``experiment`` subcommand builds the shared
:class:`~repro.experiments.setup.ExperimentContext` once and runs the
requested experiment(s), printing the same tables the benchmark harness
regenerates and (optionally) writing them to an output directory; the
``--index`` flags pick the k-NN query engine so paper-scale runs can use
the sublinear IVF index.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import __version__
from repro.config import SCALES, get_scale
from repro.core.knobs import INDEX_ENGINES, INDEX_KNOB_HELP
from repro.costs.catalogue import table_iii_rows
from repro.metrics.reports import format_table

EXPERIMENT_NAMES = ("exp1", "exp2", "exp3", "exp4", "exp5", "table3")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Adaptive Webpage Fingerprinting from TLS Traces' (DSN 2023)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("info", help="show package, scale and experiment inventory")

    experiment = subparsers.add_parser("experiment", help="run one or all experiments")
    experiment.add_argument(
        "name", choices=EXPERIMENT_NAMES + ("all",), help="experiment to run (or 'all')"
    )
    experiment.add_argument("--scale", default="smoke", choices=sorted(SCALES), help="experiment scale")
    experiment.add_argument(
        "--output-dir", type=Path, default=None, help="write the regenerated tables to this directory"
    )
    experiment.add_argument(
        "--index", default="exact", choices=INDEX_ENGINES,
        help="k-NN query engine for every reference store (ivf = sublinear "
             "CoarseQuantizedIndex, ivfpq = product-quantized IVFPQIndex)",
    )
    experiment.add_argument("--n-cells", type=int, default=None, help=INDEX_KNOB_HELP["n_cells"])
    experiment.add_argument("--n-probe", type=int, default=None, help=INDEX_KNOB_HELP["n_probe"])
    experiment.add_argument(
        "--n-subspaces", type=int, default=8, help=INDEX_KNOB_HELP["n_subspaces"]
    )
    experiment.add_argument("--bits", type=int, default=8, help=INDEX_KNOB_HELP["bits"])
    experiment.add_argument("--opq", action="store_true", help=INDEX_KNOB_HELP["opq"])
    experiment.add_argument("--rerank", type=int, default=64, help=INDEX_KNOB_HELP["rerank"])
    experiment.add_argument(
        "--max-cell-fraction", type=float, default=None,
        help=INDEX_KNOB_HELP["max_cell_fraction"],
    )

    table3 = subparsers.add_parser("table3", help="print the Table III cost catalogue")
    table3.add_argument("--no-measure", action="store_true", help="catalogue only, skip measured timings")
    table3.add_argument("--scale", default="smoke", choices=sorted(SCALES), help="scale for measured timings")

    serve = subparsers.add_parser(
        "serve",
        help="start the TCP serving front-end over a synthetic deployment",
    )
    serve.add_argument("--host", default="127.0.0.1", help="interface to bind")
    serve.add_argument("--port", type=int, default=7010, help="TCP port (0 = ephemeral)")
    serve.add_argument("--references", type=int, default=6000, help="reference corpus size")
    serve.add_argument("--classes", type=int, default=120, help="monitored classes")
    serve.add_argument("--dim", type=int, default=32, help="embedding dimension")
    serve.add_argument("--k", type=int, default=50, help="neighbours per query")
    serve.add_argument("--shards", type=int, default=2, help="reference-store shards (>= 2)")
    serve.add_argument(
        "--replicas", type=int, default=1, help="read replicas behind the router (>= 1)"
    )
    serve.add_argument(
        "--router", default="least_loaded", choices=("round_robin", "least_loaded"),
        help="replica routing policy",
    )
    serve.add_argument(
        "--executor", default="serial", choices=("serial", "process"),
        help="replica backend: calling-thread scan or worker processes (shared memory)",
    )
    serve.add_argument(
        "--index", default="exact", choices=INDEX_ENGINES, help="per-shard k-NN engine"
    )
    serve.add_argument("--rerank", type=int, default=0, help=INDEX_KNOB_HELP["rerank"])
    serve.add_argument("--bits", type=int, default=8, help=INDEX_KNOB_HELP["bits"])
    serve.add_argument("--opq", action="store_true", help=INDEX_KNOB_HELP["opq"])
    serve.add_argument(
        "--max-cell-fraction", type=float, default=None,
        help=INDEX_KNOB_HELP["max_cell_fraction"],
    )
    serve.add_argument(
        "--storage-dtype", default="float64", choices=("float64", "float32"),
        help="resident dtype of shard embedding buffers",
    )
    serve.add_argument("--batch-size", type=int, default=64, help="micro-batch size cap")
    serve.add_argument(
        "--max-latency-ms",
        type=float,
        default=2.0,
        help="longest a query submitted on its own (in-process submit()) waits for company; "
        "the rows of a QUERY frame are due at once and wait only while every executor is busy",
    )
    serve.add_argument(
        "--cache-size", type=int, default=4096, help="LRU result-cache entries (0 disables)"
    )
    serve.add_argument("--seed", type=int, default=0, help="synthetic corpus seed")
    serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="also serve Prometheus text exposition over HTTP on this port "
             "(GET /metrics; 0 = ephemeral). The `metrics` control op works "
             "either way.",
    )
    serve.add_argument(
        "--trace-sample", type=int, default=0,
        help="collect per-stage trace spans for 1-in-N queries (0 disables "
             "sampling; the slow-query log stays on regardless)",
    )
    serve.add_argument(
        "--slow-query-ms", type=float, default=250.0,
        help="log any query slower than this many milliseconds (0 disables)",
    )
    serve.add_argument(
        "--max-tenants", type=int, default=16,
        help="cap on wire-provisioned tenant deployments (the `tenant create` "
             "control op); 1 = the default tenant only, no provisioning",
    )

    scenario = subparsers.add_parser(
        "scenario",
        help="replay adversarial / multi-tenant scenarios against a live "
             "front-end -> scenarios.json",
    )
    scenario.add_argument(
        "action", choices=("run", "list"),
        help="run scenarios, or list the built-in catalogue",
    )
    scenario.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="scenario to run (repeatable; 'all' = whole catalogue; default: "
             "the CI suite of 4)",
    )
    scenario.add_argument(
        "--tenants", type=int, default=2,
        help="isolated tenants provisioned per scenario (tenant 0 is the "
             "victim receiving churn/drift/faults)",
    )
    scenario.add_argument(
        "--target", default=None, metavar="HOST:PORT",
        help="run against an existing `repro serve` front-end (its --dim must "
             "match --dim here) instead of self-hosting one",
    )
    scenario.add_argument(
        "--queries", type=int, default=None,
        help="override every scenario's query count (CI pins this)",
    )
    scenario.add_argument("--seed", type=int, default=None, help="override every scenario's seed")
    scenario.add_argument(
        "--dim", type=int, default=16,
        help="trace-embedding dimension (must match the target server's corpus)",
    )
    scenario.add_argument(
        "--out", type=Path, default=None,
        help="write the snapshot JSON here (e.g. scenarios.json); default: print only",
    )

    stats = subparsers.add_parser(
        "stats",
        help="query a running `repro serve` front-end for its info and metrics",
    )
    stats.add_argument(
        "target", help="HOST:PORT of a running front-end (e.g. 127.0.0.1:7010)"
    )
    stats.add_argument(
        "--raw", action="store_true",
        help="print the raw Prometheus exposition instead of the summary table",
    )

    requantize = subparsers.add_parser(
        "requantize",
        help="re-train a saved deployment's quantizer when corpus churn has "
             "drifted it from its training distribution",
    )
    requantize.add_argument(
        "deployment", type=Path, help="deployment directory (save_deployment layout)"
    )
    requantize.add_argument(
        "--sample-size", type=int, default=None,
        help="cap the per-store k-means training subsample (every row is still re-encoded)",
    )
    requantize.add_argument(
        "--threshold", type=float, default=1.5,
        help="drift ratio above which retraining is considered needed",
    )
    requantize.add_argument(
        "--check", action="store_true", help="report drift and exit without retraining"
    )
    requantize.add_argument(
        "--force", action="store_true", help="requantize even when drift is below threshold"
    )
    return parser


def _info() -> str:
    lines = [f"repro {__version__} — adaptive webpage fingerprinting reproduction", ""]
    scale_rows = [
        [name, scale.train_classes, "/".join(str(c) for c in scale.exp1_class_counts),
         "/".join(str(c) for c in scale.exp2_class_counts), scale.samples_per_class]
        for name, scale in sorted(SCALES.items())
    ]
    lines.append(
        format_table(
            ["scale", "train classes", "exp1 sweep", "exp2 sweep", "samples/class"],
            scale_rows,
            title="Available experiment scales",
        )
    )
    lines.append("")
    lines.append(
        format_table(
            ["id", "reproduces", "module"],
            [
                ["exp1", "Figure 6 (static classification)", "repro.experiments.exp1_static"],
                ["exp2", "Figure 7 + Table II (unseen classes)", "repro.experiments.exp2_adaptability"],
                ["exp3", "Figure 8 (cross-website transfer)", "repro.experiments.exp3_transfer"],
                ["exp4", "Figures 9-11 (per-class CDFs)", "repro.experiments.exp4_distinguishability"],
                ["exp5", "Figures 12-13 (FL padding)", "repro.experiments.exp5_padding"],
                ["table3", "Table III (operational costs)", "repro.experiments.table3"],
            ],
            title="Experiments",
        )
    )
    return "\n".join(lines)


def _index_spec(arguments: argparse.Namespace) -> Dict[str, object]:
    """The ``index_from_spec`` dict of a subcommand's ``--index`` and knob
    flags.  A knob the subcommand has no flag for, or left unset, is
    absent and takes the engine's default; knobs the chosen engine does not
    take are ignored by ``index_from_spec``."""
    spec: Dict[str, object] = {"kind": arguments.index}
    for knob in INDEX_KNOB_HELP:
        value = getattr(arguments, knob, None)
        if value is not None:
            spec[knob] = value
    return spec


def _run_experiments(
    name: str,
    scale_name: str,
    output_dir: Optional[Path],
    index_spec: Dict[str, object],
) -> List[str]:
    # Imported lazily so `repro info` stays instant.
    from repro.experiments import (
        ExperimentContext,
        run_experiment1,
        run_experiment2,
        run_experiment3,
        run_experiment4,
        run_experiment5,
        run_table3,
    )

    context = ExperimentContext.build(get_scale(scale_name), index_spec=index_spec)
    runners: Dict[str, Callable[[], List[str]]] = {
        "exp1": lambda: [run_experiment1(context).as_table()],
        "exp2": lambda: (lambda r: [r.as_table(), r.table2_as_table()])(run_experiment2(context)),
        "exp3": lambda: [run_experiment3(context).as_table()],
        "exp4": lambda: [run_experiment4(context).as_table()],
        "exp5": lambda: (lambda r: [r.as_table(), r.overhead_table()])(run_experiment5(context)),
        "table3": lambda: (lambda r: [r.as_table(), r.measured_as_table()])(run_table3(context)),
    }
    selected = EXPERIMENT_NAMES if name == "all" else (name,)
    outputs: List[str] = [
        f"scale: {scale_name}, index: {index_spec['kind']}", context.wiki_split.summary()
    ]
    for key in selected:
        tables = runners[key]()
        outputs.extend(tables)
        if output_dir is not None:
            output_dir.mkdir(parents=True, exist_ok=True)
            (output_dir / f"{key}.txt").write_text("\n\n".join(tables) + "\n")
    return outputs


def _table3(no_measure: bool, scale_name: str) -> List[str]:
    if no_measure:
        rows = table_iii_rows()
        headers = list(rows[0].keys())
        return [format_table(headers, [[row[h] for h in headers] for row in rows], title="Table III (catalogue)")]
    from repro.experiments import ExperimentContext, run_table3

    context = ExperimentContext.build(get_scale(scale_name))
    result = run_table3(context)
    return [result.as_table(), result.measured_as_table()]


def _serve(arguments) -> int:
    from repro.config import ClassifierConfig
    from repro.core.index import index_from_spec
    from repro.core.index_bench import clustered_corpus
    from repro.obs import MetricsHTTPServer, MetricsRegistry, Tracer
    from repro.serving import (
        BatchScheduler,
        DeploymentManager,
        FrontendServer,
        ReplicaSet,
        ServingError,
        ShardedReferenceStore,
        TenantRegistry,
    )

    if arguments.shards < 2:
        raise SystemExit("--shards must be >= 2")
    if arguments.replicas < 1:
        raise SystemExit("--replicas must be >= 1")
    if arguments.max_tenants < 1:
        raise SystemExit("--max-tenants must be >= 1")
    index_spec = _index_spec(arguments)

    def index_factory():
        return index_from_spec(index_spec)

    corpus = clustered_corpus(
        arguments.references, arguments.dim, n_clusters=arguments.classes, seed=arguments.seed
    )
    labels = [f"page-{i % arguments.classes:04d}" for i in range(arguments.references)]

    def empty_store(executor: ReplicaSet) -> ShardedReferenceStore:
        return ShardedReferenceStore(
            arguments.dim,
            arguments.shards,
            executor=executor,
            index_factory=index_factory,
            storage_dtype=arguments.storage_dtype,
        )

    # Extra deployments are provisioned over the wire (`tenant create`) by a
    # factory replicating this server's store shape, up to --max-tenants.
    def provision_tenant(name: str) -> DeploymentManager:
        return DeploymentManager(
            empty_store(ReplicaSet.in_process(arguments.replicas, router=arguments.router)),
            ClassifierConfig(k=arguments.k),
        )

    # SIGTERM stops the server the way Ctrl-C does: from the first worker
    # fork on, every exit path below closes the whole stack.
    previous_sigterm = signal.signal(signal.SIGTERM, signal.default_int_handler)
    replica_set = tenants = metrics_server = None
    try:
        replica_set = (
            ReplicaSet.in_process(arguments.replicas, router=arguments.router)
            if arguments.executor == "serial"
            else ReplicaSet.processes(
                arguments.replicas, n_workers=arguments.shards, router=arguments.router
            )
        )
        manager = DeploymentManager(
            empty_store(replica_set).with_changes([("add", labels, corpus)]),
            ClassifierConfig(k=arguments.k),
        )
        tenants = TenantRegistry(manager, factory=provision_tenant, max_tenants=arguments.max_tenants)
        registry = MetricsRegistry()
        tracer = Tracer(
            registry,
            sample_every=arguments.trace_sample,
            slow_threshold_s=(
                arguments.slow_query_ms / 1e3 if arguments.slow_query_ms > 0 else None
            ),
        )
        manager.attach_metrics(registry)
        scheduler = BatchScheduler(
            tenants,
            max_batch_size=arguments.batch_size,
            max_latency_s=arguments.max_latency_ms / 1e3,
            cache_size=arguments.cache_size,
            n_executors=arguments.replicas,
            registry=registry,
            tracer=tracer,
        )
        server = FrontendServer(scheduler, tenants=tenants, host=arguments.host, port=arguments.port)
        if arguments.metrics_port is not None:
            metrics_server = MetricsHTTPServer(registry, host=arguments.host, port=arguments.metrics_port)
        with scheduler, server:
            metrics_note = (
                f", metrics at {metrics_server.url()}" if metrics_server is not None else ""
            )
            print(
                f"serving {len(manager.store)} references / {arguments.classes} classes on "
                f"{server.host}:{server.port} ({arguments.shards} shards, "
                f"{arguments.replicas} {arguments.executor} replica(s), "
                f"index={arguments.index}{metrics_note}); Ctrl-C or SIGTERM to stop"
            )
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        print("stopping")
    except (OSError, ServingError) as error:  # a port already in use, mostly
        raise SystemExit(f"repro serve: {error}") from None
    finally:
        if metrics_server is not None:
            metrics_server.close()
        if tenants is not None:
            tenants.close()
        if replica_set is not None:
            replica_set.close()
        signal.signal(signal.SIGTERM, previous_sigterm)
    return 0


def _scenario(arguments) -> int:
    from repro.scenarios.bench import (
        DEFAULT_SUITE,
        available_scenarios,
        format_scenario_summary,
        run_scenario_bench,
    )
    from repro.scenarios.builtin import builtin_scenarios

    if arguments.action == "list":
        for name, description in available_scenarios():
            print(f"{name:<18} {description}")
        return 0
    names = arguments.scenario if arguments.scenario else list(DEFAULT_SUITE)
    if "all" in names:
        names = list(builtin_scenarios())
    unknown = [name for name in names if name not in builtin_scenarios()]
    if unknown:
        raise SystemExit(
            f"unknown scenario(s) {', '.join(unknown)}; see `repro scenario list`"
        )
    target = None
    if arguments.target is not None:
        host, _, port_text = arguments.target.rpartition(":")
        if not host or not port_text.isdigit():
            raise SystemExit(f"--target must be HOST:PORT, got {arguments.target!r}")
        target = (host, int(port_text))
    if arguments.tenants < 1:
        raise SystemExit("--tenants must be >= 1")
    snapshot = run_scenario_bench(
        names,
        tenants=arguments.tenants,
        n_queries=arguments.queries,
        seed=arguments.seed,
        target=target,
        dim=arguments.dim,
        out=arguments.out,
    )
    for line in format_scenario_summary(snapshot):
        print(line)
    if arguments.out is not None:
        print(f"wrote {arguments.out}")
    acceptance = snapshot["acceptance"]
    return 0 if acceptance["zero_failed_queries"] and acceptance["tenant_isolation"] else 1


def _stats(arguments) -> int:
    import json

    from repro.obs import format_metrics_table
    from repro.serving.protocol import FrontendClient

    host, _, port_text = arguments.target.rpartition(":")
    if not host or not port_text.isdigit():
        raise SystemExit(f"--target must be HOST:PORT, got {arguments.target!r}")
    with FrontendClient(host, int(port_text)) as client:
        info = client.info()
        exposition = client.metrics()["exposition"]
    if arguments.raw:
        print(exposition, end="")
        return 0
    print(json.dumps(info, indent=2, sort_keys=True))
    print()
    print(format_metrics_table(exposition))
    return 0


def _requantize(arguments) -> int:
    from repro.core.deployment import load_deployment, save_deployment

    fingerprinter = load_deployment(arguments.deployment)
    store = fingerprinter.reference_store
    ratio = store.drift_ratio()
    needed = store.retrain_needed(threshold=arguments.threshold)
    print(
        f"deployment {arguments.deployment}: {len(store)} references, "
        f"index {store.index.spec().get('kind')}, drift ratio {ratio:.2f} "
        f"({'re-training recommended' if needed else 'within threshold'})"
    )
    if arguments.check:
        return 0
    if not needed and not arguments.force:
        print("quantizer is still representative; use --force to requantize anyway")
        return 0
    if arguments.sample_size is not None and arguments.sample_size <= 0:
        raise SystemExit("--sample-size must be positive")
    store = store.with_requantized(sample_size=arguments.sample_size)
    fingerprinter.attach_references(store)
    save_deployment(fingerprinter, arguments.deployment)
    print(
        f"requantized on {len(store)} rows "
        f"(drift ratio now {store.drift_ratio():.2f}); deployment saved"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    arguments = parser.parse_args(argv)
    if arguments.command is None:
        parser.print_help()
        return 1
    if arguments.command == "info":
        print(_info())
        return 0
    if arguments.command == "experiment":
        blocks = _run_experiments(
            arguments.name,
            arguments.scale,
            arguments.output_dir,
            _index_spec(arguments),
        )
        for block in blocks:
            print(block)
            print()
        return 0
    if arguments.command == "table3":
        for block in _table3(arguments.no_measure, arguments.scale):
            print(block)
            print()
        return 0
    if arguments.command == "serve":
        return _serve(arguments)
    if arguments.command == "scenario":
        return _scenario(arguments)
    if arguments.command == "stats":
        return _stats(arguments)
    if arguments.command == "requantize":
        return _requantize(arguments)
    parser.error(f"unknown command {arguments.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
