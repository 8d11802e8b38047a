"""Tier-1 smoke test of the benchmark (``bench/run.py --smoke``).

Holds the benchmark to its own definitions — the workload and metric names
it emits are exactly those in ``BENCHMARK.json`` — and to a resource
ledger: no server or worker process, POSIX shm segment, spill directory or
listening port outlives a run, not even one whose driver was killed.
"""

import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import procstat
from repro.core.kernels import ivfpq_kernels

# fleet_scan declares itself invalid without the native scan kernels.
pytestmark = pytest.mark.skipif(
    ivfpq_kernels() is None, reason="no system C compiler / kernel build failed"
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DEFINITIONS = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
EXACT_WORKLOADS = {"live_single", "bulk_traces", "churn_mixed"}


def start(*arguments):
    return subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--smoke", *arguments],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )


def new_leftovers(before, *, patience_s=0.0):
    """What exists now that did not before, once ``patience_s`` has been
    given for an orphaned server to notice and shut down."""
    deadline = time.monotonic() + patience_s
    while True:
        now = procstat.leftovers()
        extra = {kind: now[kind] - before[kind] for kind in now if now[kind] - before[kind]}
        if not extra or time.monotonic() >= deadline:
            return extra
        time.sleep(0.1)


def summaries(stdout):
    """The one-line JSON summaries a run printed, in order."""
    return [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]


def test_smoke_emits_the_defined_metrics_and_leaves_nothing_behind(tmp_path):
    before = procstat.leftovers()
    # Both runs wait on the server most of the time; side by side they fit
    # the tier-1 budget.
    untraced = start("--out", str(tmp_path / "untraced.json"))
    traced = start("--trace", "1", "--workload", "churn_mixed",
                   "--out", str(tmp_path / "traced.json"))
    untraced_out, _ = untraced.communicate(timeout=120)
    traced_out, _ = traced.communicate(timeout=120)
    assert untraced.returncode == 0, untraced_out
    assert traced.returncode == 0, traced_out

    workloads = [w["name"] for w in DEFINITIONS["workloads"]]
    end_to_end = [m["name"] for m in DEFINITIONS["end_to_end"]]
    per_layer = [m["name"] for m in DEFINITIONS["per_layer"]]
    assert all(NAME.fullmatch(name) for name in workloads + end_to_end + per_layer)

    results = json.loads((tmp_path / "untraced.json").read_text())["results"]
    assert [r["workload"] for r in results] == workloads
    for result, summary in zip(results, summaries(untraced_out)):
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert list(summary["metrics"]) == end_to_end
        assert all(entry["value"] > 0 for entry in summary["metrics"].values()), summary
        assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
        assert result["metrics"]["failed_fraction"] == 0
        if result["workload"] in EXACT_WORKLOADS:
            assert result["metrics"]["oracle_agreement"] == 1.0
    assert results[workloads.index("churn_mixed")]["metrics"]["update_p50_ms"] > 0

    (summary,) = summaries(traced_out)
    assert list(summary["metrics"]) == per_layer
    layers = json.loads((tmp_path / "traced.json").read_text())["results"][0]["metrics"]
    # The update path only exists on this workload; the client pipeline is bypassed.
    assert layers["manager.swap_ms"] > 0 and layers["segment.publish_ms_per_update"] > 0
    assert layers["traces.extract_ms_per_trace"] is None
    assert (BENCH / "out" / "trace-churn_mixed.json").exists()

    assert new_leftovers(before, patience_s=5.0) == {}


def test_killed_driver_leaves_nothing_behind():
    before = procstat.leftovers()
    driver = start("--workload", "churn_mixed", "--seconds", "60")
    try:
        deadline = time.monotonic() + 30
        while not {"processes", "shm"} <= set(new_leftovers(before)):
            assert driver.poll() is None and time.monotonic() < deadline, \
                "the server and its shm segments never appeared"
            time.sleep(0.05)
    finally:
        driver.send_signal(signal.SIGKILL)  # no chance to clean up
        driver.communicate()
    # The orphaned server sees its stdin close and shuts itself down.
    assert new_leftovers(before, patience_s=20.0) == {}
