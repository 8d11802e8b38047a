"""Tests for the trace-level padding defences and overhead accounting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.defences import (
    AdaptivePaddingDefence,
    AnonymitySetPadding,
    FixedLengthPadding,
    RandomPaddingDefence,
    bandwidth_overhead,
)
from repro.traces import Trace, TraceDataset


def raw_dataset(n_classes=5, samples_per_class=6, seed=0, log_scaled=False):
    """A dataset of raw (non-log) byte counts with class-dependent volume."""
    rng = np.random.default_rng(seed)
    traces = []
    for class_id in range(n_classes):
        for _ in range(samples_per_class):
            sequences = np.zeros((3, 12))
            sequences[0, 0] = 400 + rng.integers(0, 50)
            sequences[1, 1:6] = (class_id + 1) * 10_000 + rng.integers(0, 500, size=5)
            sequences[2, 2:4] = 5_000 + rng.integers(0, 300, size=2)
            if log_scaled:
                sequences = np.log1p(sequences)
            traces.append(Trace(label=f"page-{class_id}", website="w", sequences=sequences))
    return TraceDataset.from_traces(traces)


class TestFixedLengthPadding:
    def test_per_sequence_totals_equalised(self):
        dataset = raw_dataset()
        defended = FixedLengthPadding(per_sequence=True).apply(dataset, log_scaled=False)
        totals = defended.data.sum(axis=2)
        # After FL padding every trace has the same per-sequence totals.
        assert np.allclose(totals, totals[0][None, :], rtol=1e-9)

    def test_whole_trace_totals_equalised(self):
        dataset = raw_dataset()
        defended = FixedLengthPadding(per_sequence=False).apply(dataset, log_scaled=False)
        totals = defended.data.sum(axis=(1, 2))
        assert np.allclose(totals, totals.max())

    def test_padding_never_removes_bytes(self):
        dataset = raw_dataset()
        defended = FixedLengthPadding().apply(dataset, log_scaled=False)
        assert np.all(defended.data + 1e-9 >= dataset.data)

    def test_log_scaled_roundtrip(self):
        dataset = raw_dataset(log_scaled=True)
        defended = FixedLengthPadding().apply(dataset, log_scaled=True)
        totals = np.expm1(defended.data).sum(axis=2)
        assert np.allclose(totals, totals[0][None, :], rtol=1e-6)

    def test_explicit_targets(self):
        dataset = raw_dataset()
        targets = np.array([10_000.0, 400_000.0, 50_000.0])
        defended = FixedLengthPadding(target_totals=targets).apply(dataset, log_scaled=False)
        totals = defended.data.sum(axis=2)
        assert np.allclose(totals, targets[None, :])

    def test_bad_targets_rejected(self):
        dataset = raw_dataset()
        with pytest.raises(ValueError):
            FixedLengthPadding(target_totals=np.array([1.0, 2.0])).apply(dataset, log_scaled=False)

    def test_labels_and_classes_preserved(self):
        dataset = raw_dataset()
        defended = FixedLengthPadding().apply(dataset, log_scaled=False)
        assert np.array_equal(defended.labels, dataset.labels)
        assert defended.class_names == dataset.class_names

    def test_name(self):
        assert "per_sequence" in FixedLengthPadding().name


class TestOtherDefences:
    def test_random_padding_adds_bounded_overhead(self):
        dataset = raw_dataset()
        defence = RandomPaddingDefence(max_fraction=0.2)
        defended = defence.apply(dataset, log_scaled=False, seed=1)
        overhead = bandwidth_overhead(dataset, defended, log_scaled=False)
        assert 0.0 < overhead < 0.2
        with pytest.raises(ValueError):
            RandomPaddingDefence(max_fraction=0.0)

    def test_adaptive_padding_fills_silent_slots(self):
        dataset = raw_dataset()
        defence = AdaptivePaddingDefence(fill_probability=1.0)
        defended = defence.apply(dataset, log_scaled=False, seed=2)
        # every position that had real traffic elsewhere in the row is filled
        assert (defended.data > 0).sum() > (dataset.data > 0).sum()
        assert np.all(defended.data + 1e-9 >= dataset.data)
        with pytest.raises(ValueError):
            AdaptivePaddingDefence(fill_probability=0.0)
        with pytest.raises(ValueError):
            AdaptivePaddingDefence(burst_scale=0.0)

    def test_anonymity_sets_group_similar_sizes(self):
        dataset = raw_dataset(n_classes=6)
        defence = AnonymitySetPadding(set_size=3)
        assignments = defence.class_assignments_from_raw(dataset.data, dataset)
        assert set(assignments) == set(range(6))
        assert len(set(assignments.values())) == 2
        # classes sorted by volume: 0,1,2 -> set 0; 3,4,5 -> set 1
        assert assignments[0] == assignments[1] == assignments[2]
        assert assignments[3] == assignments[4] == assignments[5]

    def test_anonymity_sets_equalise_within_set(self):
        dataset = raw_dataset(n_classes=4, samples_per_class=5)
        defence = AnonymitySetPadding(set_size=2)
        defended = defence.apply(dataset, log_scaled=False)
        assignments = defence.class_assignments_from_raw(dataset.data, dataset)
        totals = defended.data.sum(axis=2)
        for set_id in set(assignments.values()):
            members = [i for i, label in enumerate(dataset.labels) if assignments[int(label)] == set_id]
            member_totals = totals[members]
            assert np.allclose(member_totals, member_totals[0][None, :])

    def test_anonymity_set_cheaper_than_fl(self):
        dataset = raw_dataset(n_classes=6, samples_per_class=5)
        fl = FixedLengthPadding().apply(dataset, log_scaled=False)
        sets = AnonymitySetPadding(set_size=2).apply(dataset, log_scaled=False)
        assert bandwidth_overhead(dataset, sets, log_scaled=False) < bandwidth_overhead(
            dataset, fl, log_scaled=False
        )

    def test_anonymity_set_validation(self):
        with pytest.raises(ValueError):
            AnonymitySetPadding(set_size=1)


class TestOverhead:
    def test_overhead_zero_for_identity(self):
        dataset = raw_dataset()
        assert bandwidth_overhead(dataset, dataset, log_scaled=False) == pytest.approx(0.0)

    def test_overhead_shape_mismatch(self):
        a = raw_dataset(n_classes=2)
        b = raw_dataset(n_classes=3)
        with pytest.raises(ValueError):
            bandwidth_overhead(a, b, log_scaled=False)

    @given(st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=15, deadline=None)
    def test_fl_padding_overhead_non_negative(self, n_classes, samples):
        dataset = raw_dataset(n_classes=n_classes, samples_per_class=samples, seed=n_classes)
        defended = FixedLengthPadding().apply(dataset, log_scaled=False)
        assert bandwidth_overhead(dataset, defended, log_scaled=False) >= 0.0
