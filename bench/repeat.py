"""Run the benchmark several times and say how far its numbers move.

    python3 bench/repeat.py [--sets K] [--seed S] [--workload NAME]... [--out FILE]
    python3 bench/repeat.py --compare BEFORE.json AFTER.json

A set is one run of every workload; set ``i`` uses seed ``S + i`` and
every other set runs the workloads in reverse order, so drift over the
session does not line up with one workload.  For each end-to-end metric x
workload it prints the median, the min-max range and the spread — the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``; the range over the median when
there are fewer than four values) — and whether that spread is inside the
metric's bound from ``BENCHMARK.json``.  ``--compare`` reads two files
written with ``--out`` (the same commit twice for repeatability, or a
parent and a change) and judges each median against the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

BENCH_DIR = Path(__file__).resolve().parent
DEFINITIONS = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
END_TO_END = {d["name"]: d for d in DEFINITIONS["end_to_end"]}
# End-to-end by the issue's definition, though BENCHMARK.json's schema has
# to list it per layer (it exists on one workload only).
UPDATE_BOUND = {"update_p50_ms": dict(unit="ms", better="lower", bound=0.15)}

Values = Dict[str, Dict[str, List[float]]]  # workload -> metric -> one value per run


def run_sets(sets: int, seed: int, workloads: List[str], smoke: bool) -> Dict:
    """``sets`` runs of each workload, in alternating order."""
    runs = []
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as scratch:
        for index in range(sets):
            for name in workloads if index % 2 == 0 else reversed(workloads):
                out = Path(scratch) / "run.json"
                command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                           "--seed", str(seed + index), "--out", str(out)]
                finished = subprocess.run(command + (["--smoke"] if smoke else []),
                                          stdout=subprocess.DEVNULL)
                if finished.returncode != 0:
                    raise SystemExit(f"{name} seed {seed + index}: run.py exited with "
                                     f"{finished.returncode}; run it alone to see why")
                record = json.loads(out.read_text())
                runs.append(dict(record["results"][0], header=record["header"]))
                print(f"set {index + 1}/{sets}  {name:<12} done", file=sys.stderr)
    return {"runs": runs}


def collect(record: Dict) -> Values:
    values: Values = {}
    for run in record["runs"]:
        for metric, value in run["metrics"].items():
            if value is not None and (metric in END_TO_END or metric in UPDATE_BOUND):
                values.setdefault(run["workload"], {}).setdefault(metric, []).append(value)
    return values


def spread(values: List[float]) -> float:
    """Quartile distance over the median (range over median under 4 values)."""
    if len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def definition(metric: str) -> Dict:
    return END_TO_END.get(metric) or UPDATE_BOUND[metric]


def print_spreads(values: Values) -> bool:
    print(f"{'workload':<12} {'metric':<18} {'median':>11} {'min':>11} {'max':>11} "
          f"{'spread':>7} {'bound':>6}  n")
    steady = True
    for workload, metrics in values.items():
        for metric, series in metrics.items():
            bound = definition(metric)["bound"]
            inside = spread(series) <= bound or metric == "setup_s"
            steady &= inside
            print(f"{workload:<12} {metric:<18} {statistics.median(series):>11.5g} "
                  f"{min(series):>11.5g} {max(series):>11.5g} {spread(series):>7.1%} "
                  f"{bound:>6.0%}  {len(series)} {'' if inside else 'SPREAD EXCEEDS BOUND'}")
    return steady


def compare(before: Values, after: Values) -> bool:
    """Each median of ``after`` against ``before``; False on a regression."""
    print(f"{'workload':<12} {'metric':<18} {'before':>11} {'after':>11} {'worse by':>9} "
          f"{'bound':>6}  verdict")
    held = True
    for workload, metrics in before.items():
        for metric, series in metrics.items():
            if metric not in after.get(workload, {}):
                continue
            spec = definition(metric)
            old, new = statistics.median(series), statistics.median(after[workload][metric])
            worse = (new - old) / old if spec["better"] == "lower" else (old - new) / old
            if worse > spec["bound"]:
                verdict, held = "REGRESSED", False
            elif spread(series) > spec["bound"]:
                verdict = "unresolved (spread wider than the bound)"
            elif -worse > spread(series):
                verdict = "better"
            else:
                verdict = "same"
            print(f"{workload:<12} {metric:<18} {old:>11.5g} {new:>11.5g} {worse:>+9.1%} "
                  f"{spec['bound']:>6.0%}  {verdict}")
    return held


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in DEFINITIONS["workloads"]])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="write every run's record here")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        before, after = (collect(json.loads(Path(p).read_text())) for p in args.compare)
        return 0 if compare(before, after) else 1
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    workloads = args.workload or [w["name"] for w in DEFINITIONS["workloads"]]
    record = run_sets(args.sets, args.seed, workloads, args.smoke)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    return 0 if print_spreads(collect(record)) else 1


if __name__ == "__main__":
    sys.exit(main())
