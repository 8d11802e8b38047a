"""Scenario-spec generation and the invariants every replay must satisfy.

Scenario schedules are a natural property-based domain: any *valid* spec —
whatever defence, drift schedule, churn mix or fault list it draws — must
replay against a live front-end with zero failed queries and intact tenant
isolation.  :func:`scenario_specs` is the one generator for that search;
:func:`check_report_invariants` is the contract, plain assertions over a
:class:`~repro.scenarios.engine.ScenarioReport`.
"""

from typing import Optional

from hypothesis import strategies as st

from repro.scenarios.engine import ScenarioReport, ScenarioSpec

_DEFENCE_SPECS = (
    None,
    {"kind": "none"},
    {"kind": "adaptive", "fill_probability": 0.4},
    {"kind": "fixed-length"},
    {"kind": "random", "max_fraction": 0.3},
)

_DRIFT_SPECS = (
    None,
    {"kind": "minor", "relative_change": 0.1, "fraction": 0.5},
    {"kind": "gradual", "steps": 4, "per_step_change": 0.1, "fraction": 0.5},
)

_CHURN_SPECS = (
    None,
    {"replace": 1},
    {"replace": 2, "add": 1},
    {"replace": 1, "add": 1, "remove": 1},
)

_OPEN_WORLD_SPECS = (None, {"fraction": 0.25})

_FAULT_SPECS = ((), ("replica-flap",))


def scenario_specs(*, max_queries: int = 48):
    """A hypothesis strategy drawing small valid :class:`ScenarioSpec`\\ s.

    Sizes are deliberately tiny (a handful of pages, tens of queries) so a
    drawn spec replays against a live server in well under a second and
    hypothesis can afford dozens of examples.
    """
    return st.builds(
        ScenarioSpec,
        name=st.just("property-draw"),
        n_pages=st.integers(min_value=5, max_value=8),
        visits_per_page=st.integers(min_value=4, max_value=6),
        holdout_pages=st.integers(min_value=1, max_value=2),
        n_queries=st.integers(min_value=8, max_value=max_queries),
        top_k=st.integers(min_value=1, max_value=3),
        request_batch_size=st.sampled_from((4, 8, 16)),
        n_clients=st.integers(min_value=1, max_value=3),
        defence=st.sampled_from(_DEFENCE_SPECS),
        drift=st.sampled_from(_DRIFT_SPECS),
        churn=st.sampled_from(_CHURN_SPECS),
        open_world=st.sampled_from(_OPEN_WORLD_SPECS),
        faults=st.sampled_from(_FAULT_SPECS),
        seed=st.integers(min_value=0, max_value=2**16),
    )


def check_report_invariants(
    report: ScenarioReport, *, min_baseline_recall: Optional[float] = None
) -> None:
    """Assert the invariants every scenario replay must satisfy.

    * zero failed queries — churn, drift, faults and defences may cost
      recall, never availability;
    * tenant isolation — no prediction carries a foreign tenant's label,
      and no bystander deployment changed generation;
    * internal consistency — recalls in ``[0, 1]``, recall@k >= recall@1,
      p99 >= p50, per-tenant query counts sum to the total.

    ``min_baseline_recall`` additionally bounds recall@1 from below — only
    meaningful for undefended, drift-free scenarios.
    """
    assert report.failed == 0, f"{report.scenario}: {report.failed} failed queries"
    assert report.isolation_ok, f"{report.scenario}: tenant isolation violated"
    for tenant in report.tenants:
        assert tenant.foreign_labels == 0, (
            f"{report.scenario}/{tenant.tenant}: {tenant.foreign_labels} foreign labels"
        )
        assert 0.0 <= tenant.recall_at_1 <= 1.0
        assert 0.0 <= tenant.recall_at_k <= 1.0
        assert tenant.recall_at_k >= tenant.recall_at_1 - 1e-9
        assert tenant.p99_ms >= tenant.p50_ms - 1e-9
    assert 0.0 <= report.recall_at_1 <= 1.0
    assert report.recall_at_k >= report.recall_at_1 - 1e-9
    assert report.n_queries == sum(tenant.n_queries for tenant in report.tenants)
    if min_baseline_recall is not None:
        assert report.recall_at_1 >= min_baseline_recall, (
            f"{report.scenario}: recall@1 {report.recall_at_1:.3f} "
            f"< floor {min_baseline_recall:.3f}"
        )
    assert report.ok
