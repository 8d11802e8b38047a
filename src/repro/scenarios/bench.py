"""The scenario bench: run a scenario suite, snapshot scenarios.json.

One row per scenario — recall@1/@k, client p50/p99, defence bandwidth
overhead, update cost and the isolation verdict — measured against a live
front-end (self-hosted by default, any reachable ``repro serve`` via
``target``).  The snapshot layout: a ``platform`` header for cross-run
comparability, the workload knobs, then the measured rows.
"""

from __future__ import annotations

import dataclasses
import json
import platform
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.scenarios.builtin import builtin_scenarios, get_scenario
from repro.scenarios.engine import ScenarioReport, ScenarioRunner, ServedScenarioHost

PathLike = Union[str, Path]

DEFAULT_SUITE = ("baseline", "padding-adaptive", "padding-fixed", "drift-gradual")


def run_scenario_bench(
    scenario_names: Sequence[str] = DEFAULT_SUITE,
    *,
    tenants: int = 2,
    n_queries: Optional[int] = None,
    seed: Optional[int] = None,
    target: Optional[Tuple[str, int]] = None,
    dim: int = 16,
    out: Optional[PathLike] = None,
) -> Dict:
    """Run the named scenarios and return (optionally write) the snapshot.

    ``target`` points the runner at an existing front-end (its deployment
    dimension must match ``dim``); without it a
    :class:`~repro.scenarios.engine.ServedScenarioHost` is stood up for the
    duration of the suite.  ``n_queries``/``seed`` override every spec —
    CI pins both so snapshots are comparable across runs.
    """
    overrides = {"embedding_dim": int(dim)}
    if n_queries is not None:
        overrides["n_queries"] = int(n_queries)
    if seed is not None:
        overrides["seed"] = int(seed)
    specs = [dataclasses.replace(get_scenario(name), **overrides) for name in scenario_names]

    reports: List[ScenarioReport] = []
    if target is None:
        with ServedScenarioHost(dim=dim) as host:
            runner = ScenarioRunner(host.host, host.port, tenants=tenants)
            for spec in specs:
                reports.append(runner.run(spec))
    else:
        runner = ScenarioRunner(target[0], target[1], tenants=tenants)
        for spec in specs:
            reports.append(runner.run(spec))

    snapshot = {
        "snapshot": "scenarios",
        "platform": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "workload": {
            "tenants": tenants,
            "n_queries": n_queries,
            "seed": seed,
            "dim": dim,
            "self_hosted": target is None,
        },
        "scenarios": [report.as_dict() for report in reports],
        "acceptance": {
            "zero_failed_queries": all(report.failed == 0 for report in reports),
            "tenant_isolation": all(report.isolation_ok for report in reports),
        },
    }
    if out is not None:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2) + "\n")
    return snapshot


def format_scenario_summary(snapshot: Dict) -> List[str]:
    """Human-readable table of a scenario bench snapshot."""
    lines = [
        "scenario           tenants  queries  recall@1  recall@k   p50 ms   p99 ms  overhead  failed  isolated",
    ]
    for row in snapshot["scenarios"]:
        lines.append(
            f"{row['scenario']:<18} {len(row['tenants']):>7} {row['n_queries']:>8} "
            f"{row['recall_at_1']:>9.3f} {row['recall_at_k']:>9.3f} "
            f"{row['p50_ms']:>8.2f} {row['p99_ms']:>8.2f} "
            f"{row['defence_overhead']:>9.3f} {row['failed']:>7} "
            f"{'yes' if row['isolation_ok'] else 'NO':>9}"
        )
    acceptance = snapshot["acceptance"]
    lines.append(
        "acceptance: zero failed queries="
        + ("pass" if acceptance["zero_failed_queries"] else "FAIL")
        + ", tenant isolation="
        + ("pass" if acceptance["tenant_isolation"] else "FAIL")
    )
    return lines


def available_scenarios() -> List[Tuple[str, str]]:
    """``(name, description)`` pairs for ``repro scenario list``."""
    return [(name, spec.description) for name, spec in builtin_scenarios().items()]
