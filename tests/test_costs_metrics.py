"""Tests for the cost model, Table III catalogue and the metrics package."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.costs import CostModel, Complexity, TABLE_III_SYSTEMS, system_profiles, table_iii_rows
from repro.metrics import (
    PerClassDistinguishability,
    accuracy_curve,
    format_accuracy_table,
    format_table,
    guess_cdf,
    n_for_target_accuracy,
    per_class_mean_guesses,
)


class TestCostModel:
    def make_models(self):
        adaptive = CostModel(
            name="adaptive", instances_per_class=90, requires_retraining=False, training_cost_per_trace=0.2
        )
        retraining = CostModel(
            name="retraining", instances_per_class=90, requires_retraining=True, training_cost_per_trace=0.2
        )
        return adaptive, retraining

    def test_collection_cost_formula(self):
        model = CostModel(name="x", instances_per_class=10, collection_cost_per_trace=2.0)
        assert model.collection_cost(n_classes=5, versions=3) == 2.0 * 5 * 3 * 10

    def test_training_cost_scales_with_classes(self):
        model, _ = self.make_models()
        small = model.training_cost(100).total
        large = model.training_cost(1000).total
        assert large == pytest.approx(10 * small)

    def test_update_cost_retraining_vs_adaptive(self):
        adaptive, retraining = self.make_models()
        total_classes = 1000
        adaptive_cost = adaptive.update_cost(updated_classes=10, total_classes=total_classes)
        retraining_cost = retraining.update_cost(updated_classes=10, total_classes=total_classes)
        # Same collection cost, but the retraining system pays a full refit.
        assert adaptive_cost.collection == retraining_cost.collection
        assert retraining_cost.computation > 10 * adaptive_cost.computation

    def test_update_cost_zero_updates(self):
        adaptive, _ = self.make_models()
        assert adaptive.update_cost(0, 100).total == 0.0

    def test_testing_cost_no_collection(self):
        adaptive, _ = self.make_models()
        cost = adaptive.testing_cost(victims=3, pages_per_victim=50)
        assert cost.collection == 0.0
        assert cost.computation > 0.0

    def test_yearly_update_cost_grows_with_churn(self):
        adaptive, _ = self.make_models()
        low = adaptive.yearly_update_cost(1000, 0.01)
        high = adaptive.yearly_update_cost(1000, 0.10)
        assert high > low

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModel(name="bad", instances_per_class=0)
        model, _ = self.make_models()
        with pytest.raises(ValueError):
            model.collection_cost(0)
        with pytest.raises(ValueError):
            model.testing_cost(0, 5)
        with pytest.raises(ValueError):
            model.update_cost(-1, 10)
        with pytest.raises(ValueError):
            model.yearly_update_cost(100, 1.5)

    @given(st.integers(1, 50), st.integers(1, 2000))
    @settings(max_examples=30, deadline=None)
    def test_update_cheaper_than_full_retrain_for_adaptive(self, updated, total):
        updated = min(updated, total)
        adaptive = CostModel(name="a", instances_per_class=90, requires_retraining=False)
        assert adaptive.update_cost(updated, total).total <= adaptive.training_cost(total).total + 1e-9


class TestCatalogue:
    def test_all_paper_systems_present(self):
        names = {profile.name for profile in TABLE_III_SYSTEMS}
        expected = {
            "Adaptive Fingerprinting",
            "Miller et al.",
            "Bissias et al.",
            "Triplet Fingerprinting",
            "Deep Fingerprinting",
            "Var-CNN",
            "k-fingerprinting",
        }
        assert expected == names

    def test_adaptive_row_matches_paper(self):
        adaptive = system_profiles()["Adaptive Fingerprinting"]
        assert adaptive.protocol == "TLS"
        assert adaptive.max_classes == 13_000
        assert adaptive.handles_distribution_shift
        assert not adaptive.requires_retraining
        assert adaptive.training_instances == "90"
        assert adaptive.complexity is Complexity.HIGH

    def test_retraining_systems_flagged(self):
        profiles = system_profiles()
        for name in ("Deep Fingerprinting", "Var-CNN", "Miller et al."):
            assert profiles[name].requires_retraining
        for name in ("Adaptive Fingerprinting", "k-fingerprinting", "Triplet Fingerprinting", "Bissias et al."):
            assert not profiles[name].requires_retraining

    def test_table_rows_shape(self):
        rows = table_iii_rows()
        assert len(rows) == len(TABLE_III_SYSTEMS)
        assert all("Name" in row and "Retraining" in row for row in rows)


class TestTopNMetrics:
    def test_accuracy_curve_monotone(self):
        guesses = np.array([1, 2, 2, 5, 3, 1])
        curve = accuracy_curve(guesses, max_n=5)
        assert len(curve) == 5
        assert curve == sorted(curve)
        assert curve[-1] == pytest.approx(1.0)

    def test_accuracy_curve_validation(self):
        with pytest.raises(ValueError):
            accuracy_curve(np.array([]), 3)
        with pytest.raises(ValueError):
            accuracy_curve(np.array([0.5]), 3)
        with pytest.raises(ValueError):
            accuracy_curve(np.array([1.0]), 0)

    def test_n_for_target_accuracy(self):
        guesses = np.array([1, 1, 2, 3, 10])
        assert n_for_target_accuracy(guesses, 0.4, max_n=20) == 1
        assert n_for_target_accuracy(guesses, 0.8, max_n=20) == 3
        assert n_for_target_accuracy(guesses, 1.0, max_n=20) == 10
        # unreachable target within max_n falls back to max_n
        assert n_for_target_accuracy(guesses, 1.0, max_n=5) == 5
        with pytest.raises(ValueError):
            n_for_target_accuracy(guesses, 0.0, max_n=5)

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_curve_matches_direct_computation(self, ranks):
        guesses = np.array(ranks, dtype=float)
        curve = accuracy_curve(guesses, max_n=50)
        for n in (1, 10, 50):
            assert curve[n - 1] == pytest.approx(np.mean(guesses <= n))


class TestPerClassMetrics:
    def test_per_class_means(self):
        guesses = np.array([1, 3, 2, 10])
        labels = ["a", "a", "b", "b"]
        means = per_class_mean_guesses(guesses, labels)
        assert means == {"a": 2.0, "b": 6.0}

    def test_per_class_validation(self):
        with pytest.raises(ValueError):
            per_class_mean_guesses(np.array([1.0]), ["a", "b"])
        with pytest.raises(ValueError):
            per_class_mean_guesses(np.array([]), [])

    def test_guess_cdf(self):
        means = {"a": 1.0, "b": 2.5, "c": 9.0}
        cdf = guess_cdf(means, thresholds=[2, 5, 10])
        assert cdf == [pytest.approx(1 / 3), pytest.approx(2 / 3), pytest.approx(1.0)]
        with pytest.raises(ValueError):
            guess_cdf({}, [1])
        with pytest.raises(ValueError):
            guess_cdf(means, [0])

    def test_distinguishability_summary(self):
        summary = PerClassDistinguishability(
            scenario="known", per_class_guesses={"a": 1.0, "b": 4.0, "c": 20.0}
        )
        assert summary.n_classes == 3
        assert summary.fraction_below(2) == pytest.approx(1 / 3)
        assert summary.cdf([2, 30]) == [pytest.approx(1 / 3), pytest.approx(1.0)]


class TestReports:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1.23456], ["long-name", True]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.235" in table and "yes" in table

    def test_format_table_validation(self):
        with pytest.raises(ValueError):
            format_table([], [])
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_format_accuracy_table(self):
        table = format_accuracy_table({"500 classes": {1: 0.58, 3: 0.9}}, ns=(1, 3, 10))
        assert "top-1" in table and "0.580" in table and "-" in table
