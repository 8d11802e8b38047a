"""Scenario engine tests: specs, corpora, live replays, fault injection.

The live tests stand up one self-hosted front-end per module
(:class:`~repro.scenarios.engine.ServedScenarioHost`) and drive it over
the real wire protocol — the same path ``repro scenario run`` takes — so
what is asserted here (zero failed queries under churn and replica loss,
tenant isolation, structured rejection of corrupt configs) is what the CI
scenarios job measures at larger N.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.defences import DefenceConfigError, defence_from_spec
from repro.scenarios import (
    ScenarioCorpus,
    ScenarioRunner,
    ScenarioSpec,
    ScenarioSpecError,
    ServedScenarioHost,
    TraceEmbedder,
    builtin_scenarios,
    get_scenario,
)
from repro.scenarios.bench import format_scenario_summary, run_scenario_bench
from repro.serving import ProtocolError
from tests.strategies.scenarios import check_report_invariants, scenario_specs


# ------------------------------------------------------------------ the specs
class TestScenarioSpec:
    def test_builtin_catalogue_is_complete_and_valid(self):
        scenarios = builtin_scenarios()
        assert len(scenarios) >= 6
        for required in (
            "baseline",
            "padding-adaptive",
            "padding-fixed",
            "padding-random",
            "drift-gradual",
            "openworld-surge",
            "churn-storm",
            "replica-flap",
        ):
            assert required in scenarios
            scenarios[required].validate()

    def test_unknown_scenario_name_lists_catalogue(self):
        with pytest.raises(KeyError, match="padding-adaptive"):
            get_scenario("nope")

    def test_corrupt_defence_config_is_a_structured_error(self):
        """A corrupt defence spec must surface a DefenceConfigError naming
        the bad field — before any server traffic, never a crash."""
        spec = ScenarioSpec(name="bad", defence={"kind": "adaptive", "fill_probability": 7.0})
        with pytest.raises(DefenceConfigError) as excinfo:
            spec.validate()
        assert excinfo.value.field == "fill_probability"
        with pytest.raises(DefenceConfigError):
            ScenarioSpec(name="bad", defence={"kind": "quantum"}).validate()

    def test_spec_validation_names_the_offending_field(self):
        cases = [
            (ScenarioSpec(name=""), "name"),
            (ScenarioSpec(name="x", generator="gopher"), "generator"),
            (ScenarioSpec(name="x", n_queries=0), "n_queries"),
            (ScenarioSpec(name="x", holdout_pages=10, n_pages=10), "holdout_pages"),
            (ScenarioSpec(name="x", drift={"kind": "warp"}), "drift"),
            (ScenarioSpec(name="x", drift={"kind": "minor", "fraction": 0.0}), "drift"),
            (ScenarioSpec(name="x", churn={"explode": 1}), "churn"),
            (ScenarioSpec(name="x", open_world={"fraction": 1.5}), "open_world"),
            (ScenarioSpec(name="x", faults=("meteor",)), "faults"),
        ]
        for spec, field in cases:
            with pytest.raises(ScenarioSpecError) as excinfo:
                spec.validate()
            assert excinfo.value.field == field, field

    def test_catalogue_hands_out_copies(self):
        """Editing a fetched spec (as --queries/--seed and _fast() do) must
        not change what the next caller of the catalogue gets."""
        spec = get_scenario("churn-storm")
        spec.n_queries, spec.seed = 3, 999
        spec.churn["replace"] = 50
        builtin_scenarios()["baseline"].n_queries = 3
        assert get_scenario("churn-storm") is not spec
        assert get_scenario("churn-storm").n_queries == ScenarioSpec(name="x").n_queries
        assert get_scenario("churn-storm").seed == 31
        assert get_scenario("churn-storm").churn == {"replace": 2, "add": 1, "remove": 1}
        assert get_scenario("baseline").n_queries == ScenarioSpec(name="x").n_queries

    def test_spec_round_trips_to_dict(self):
        spec = get_scenario("churn-storm")
        data = spec.as_dict()
        assert data["churn"] == {"replace": 2, "add": 1, "remove": 1}
        json.dumps(data)  # JSON-serialisable for BENCH snapshots


# ----------------------------------------------------------------- the corpus
class TestScenarioCorpus:
    def test_build_is_deterministic_in_seed(self):
        a = ScenarioCorpus.build(n_pages=6, visits_per_page=4, seed=5)
        b = ScenarioCorpus.build(n_pages=6, visits_per_page=4, seed=5)
        assert np.array_equal(a.embedder.embed(a.reference), b.embedder.embed(b.reference))
        emb_a, labels_a, _ = a.query_stream(10, rng=np.random.default_rng(1))
        emb_b, labels_b, _ = b.query_stream(10, rng=np.random.default_rng(1))
        assert np.array_equal(emb_a, emb_b)
        assert labels_a == labels_b

    def test_holdout_pages_are_not_monitored(self):
        corpus = ScenarioCorpus.build(n_pages=6, visits_per_page=4, seed=0, holdout_pages=2)
        assert len(corpus.holdout_labels) == 2
        assert not set(corpus.holdout_labels) & set(corpus.monitored_labels)
        assert set(corpus.reference_embeddings()) == set(corpus.monitored_labels)

    def test_embedder_rejects_mismatched_shapes(self):
        corpus = ScenarioCorpus.build(n_pages=6, visits_per_page=4, seed=0)
        other = TraceEmbedder(corpus.reference.n_sequences + 1, 8)
        with pytest.raises(ValueError, match="does not match"):
            other.embed(corpus.reference)
        with pytest.raises(ValueError, match="dim must be positive"):
            TraceEmbedder(3, 8, dim=0)

    def test_undefended_queries_separate_classes(self):
        """Held-out visits must land near their page's reference cluster —
        the property that makes scenario recall meaningful."""
        corpus = ScenarioCorpus.build(n_pages=8, visits_per_page=10, seed=3)
        references = corpus.reference_embeddings()
        names = list(references)
        centroids = np.stack([references[name].mean(axis=0) for name in names])
        embeddings, labels, overhead = corpus.query_stream(40, rng=np.random.default_rng(0))
        assert overhead == 0.0
        hits = sum(
            names[int(np.argmin(((centroids - e) ** 2).sum(axis=1)))] == label
            for e, label in zip(embeddings, labels)
        )
        assert hits / len(labels) >= 0.8

    def test_defence_displaces_queries_and_costs_bandwidth(self):
        corpus = ScenarioCorpus.build(n_pages=8, visits_per_page=10, seed=3)
        defence = defence_from_spec({"kind": "fixed-length"})
        _, _, overhead = corpus.query_stream(
            30, defence=defence, rng=np.random.default_rng(0)
        )
        assert overhead > 0.5  # padding to corpus max is expensive

    def test_recrawl_requires_pages(self):
        corpus = ScenarioCorpus.build(n_pages=6, visits_per_page=4, seed=0)
        with pytest.raises(ValueError, match="at least one page"):
            corpus.recrawl([])
        fresh = corpus.recrawl(corpus.monitored_labels[:2])
        assert set(fresh.class_names) == set(corpus.monitored_labels[:2])


# ------------------------------------------------------------- live scenarios
@pytest.fixture(scope="module")
def live_host():
    with ServedScenarioHost() as host:
        yield host


def _fast(spec: ScenarioSpec, n_queries: int = 24) -> ScenarioSpec:
    spec.n_queries = n_queries
    spec.n_pages = 7
    spec.visits_per_page = 6
    return spec


class TestLiveScenarios:
    def test_baseline_replay_zero_failed_and_isolated(self, live_host):
        runner = ScenarioRunner(live_host.host, live_host.port, tenants=2)
        report = runner.run(_fast(get_scenario("baseline")))
        check_report_invariants(report, min_baseline_recall=0.5)
        assert report.ok
        assert len(report.tenants) == 2
        assert report.n_queries == 2 * 24
        json.dumps(report.as_dict())

    def test_padding_defence_costs_recall_and_bandwidth(self, live_host):
        runner = ScenarioRunner(live_host.host, live_host.port, tenants=2)
        baseline = runner.run(_fast(get_scenario("baseline")))
        padded = runner.run(_fast(get_scenario("padding-fixed")))
        check_report_invariants(padded)
        assert padded.defence_overhead > 0.5
        assert padded.recall_at_1 < baseline.recall_at_1

    def test_replica_kill_mid_replay_recovers_with_zero_failed_queries(self, live_host):
        """The fault-injection acceptance: a replica dies between the two
        replay halves, the router drains around it, nothing fails, and the
        replica is restored afterwards."""
        runner = ScenarioRunner(live_host.host, live_host.port, tenants=2)
        report = runner.run(_fast(get_scenario("replica-flap")))
        check_report_invariants(report)
        assert report.faults_injected == ["replica-flap"]
        assert report.failed == 0

    def test_churn_storm_prices_updates_and_spares_bystanders(self, live_host):
        runner = ScenarioRunner(live_host.host, live_host.port, tenants=2)
        report = runner.run(_fast(get_scenario("churn-storm")))
        check_report_invariants(report)
        assert report.update_cost is not None
        assert report.update_cost["updated_classes"] == 4
        assert report.update_cost["total"] > 0
        bystander = report.tenants[1]
        assert not bystander.victim
        # The victim's churn must not move the bystander's generation.
        assert bystander.generation_start == bystander.generation_end

    def test_drift_triggers_retraining_free_adaptation(self, live_host):
        runner = ScenarioRunner(live_host.host, live_host.port, tenants=2)
        report = runner.run(_fast(get_scenario("drift-gradual")))
        check_report_invariants(report)
        assert report.drift_info is not None
        assert report.drift_info["monitored_updated"]
        assert report.update_cost is not None

    def test_corrupt_defence_config_rejected_before_any_traffic(self, live_host):
        runner = ScenarioRunner(live_host.host, live_host.port, tenants=1)
        spec = ScenarioSpec(name="bad", defence={"kind": "random", "max_fraction": -1})
        with pytest.raises(DefenceConfigError) as excinfo:
            runner.run(spec)
        assert excinfo.value.field == "max_fraction"
        # The rejection left no tenants behind on the server.
        assert live_host.registry.names() == ["default"]

    @pytest.mark.parametrize(
        "knobs, message",
        [
            # fails mid-replay, when the fault is injected
            ({"faults": ("replica-flap",), "replica_position": 7}, "replica 7 does not exist"),
            # fails half-way through provisioning: tenant created, first add refused
            ({"embedding_dim": 8}, "store expects 16"),
        ],
    )
    def test_failed_run_leaves_no_tenants_behind(self, live_host, knobs, message):
        """The runner drops what it provisioned on the failure path too,
        and the failure it reports is the run's own."""
        runner = ScenarioRunner(live_host.host, live_host.port, tenants=2)
        spec = ScenarioSpec(name="x", n_queries=16, n_pages=6, visits_per_page=4, **knobs)
        with pytest.raises(ProtocolError, match=message):
            runner.run(spec)
        assert live_host.registry.names() == ["default"]

    @given(spec=scenario_specs(max_queries=20))
    @settings(
        derandomize=True,
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_random_specs_replay_clean(self, live_host, spec):
        """Strategy-driven schedules: whatever valid spec the generator
        draws must replay with zero failures and intact isolation."""
        report = ScenarioRunner(live_host.host, live_host.port, tenants=2).run(spec)
        check_report_invariants(report)
        assert report.n_queries >= 2 * spec.n_queries  # open-world outliers add to it

    def test_bench_snapshot_shape(self, live_host, tmp_path):
        out = tmp_path / "scenarios.json"
        snapshot = run_scenario_bench(
            ("baseline",),
            tenants=2,
            n_queries=16,
            seed=5,
            target=(live_host.host, live_host.port),
            out=out,
        )
        assert snapshot["snapshot"] == "scenarios"
        assert snapshot["acceptance"]["zero_failed_queries"]
        assert snapshot["acceptance"]["tenant_isolation"]
        reloaded = json.loads(out.read_text())
        assert reloaded["scenarios"][0]["scenario"] == "baseline"
        lines = format_scenario_summary(snapshot)
        assert any("baseline" in line for line in lines)
        assert "pass" in lines[-1]
        # The n_queries/seed overrides applied to a copy, not the catalogue.
        assert reloaded["scenarios"][0]["spec"]["seed"] == 5
        assert get_scenario("baseline").seed == 11
        assert get_scenario("baseline").n_queries == ScenarioSpec(name="x").n_queries


# ----------------------------------------------------------------- strategies
class TestStrategies:
    def test_runner_rejects_bad_tenancy_knobs(self):
        with pytest.raises(ValueError, match="tenants must be positive"):
            ScenarioRunner("127.0.0.1", 1, tenants=0)
        with pytest.raises(Exception):
            ScenarioRunner("127.0.0.1", 1, tenant_prefix="-bad-")

    @given(spec=scenario_specs())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_hypothesis_specs_always_validate(self, spec):
        spec.validate()
        assert spec.n_queries <= 48
        data = spec.as_dict()
        assert data["name"] == "property-draw"
