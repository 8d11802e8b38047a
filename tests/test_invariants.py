"""Cross-module property-based invariants.

These tests use hypothesis to exercise invariants that hold across module
boundaries: preprocessing must conserve byte volume, defences may only add
traffic, dataset algebra must never lose or duplicate samples, and the
classifier's metrics must be internally consistent.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClassifierConfig
from repro.core import KNNClassifier, ReferenceStore
from repro.defences import AdaptivePaddingDefence, FixedLengthPadding, RandomPaddingDefence, bandwidth_overhead
from repro.metrics import accuracy_curve, n_for_target_accuracy
from repro.net import IPAddress, Packet, PacketCapture
from repro.traces import SequenceExtractor, Trace, TraceDataset


CLIENT = IPAddress("10.0.0.1")
SERVERS = [IPAddress("10.0.0.2"), IPAddress("10.0.0.3"), IPAddress("10.0.0.4")]


@st.composite
def captures(draw):
    """Random small packet captures involving the client and 1-3 servers."""
    n_packets = draw(st.integers(1, 40))
    n_servers = draw(st.integers(1, 3))
    packets = []
    time = 0.0
    for _ in range(n_packets):
        time += draw(st.floats(0.001, 0.1))
        size = draw(st.integers(1, 20_000))
        if draw(st.booleans()):
            src, dst = CLIENT, SERVERS[draw(st.integers(0, n_servers - 1))]
        else:
            src, dst = SERVERS[draw(st.integers(0, n_servers - 1))], CLIENT
        packets.append(Packet(time, src, dst, size))
    return PacketCapture(client_ip=CLIENT, packets=packets)


class TestPreprocessingConservation:
    @given(captures())
    @settings(max_examples=60, deadline=None)
    def test_volume_conserved_with_tail_aggregation(self, capture):
        """With tail aggregation, no quantization and enough sequences, the
        extracted sequences carry exactly the capture's byte volume."""
        extractor = SequenceExtractor(
            max_sequences=4, sequence_length=16, log_scale=False, tail_aggregate=True
        )
        array = extractor.extract_array(capture)
        assert array.sum() == pytest.approx(capture.total_bytes)

    @given(captures())
    @settings(max_examples=60, deadline=None)
    def test_client_row_matches_outgoing_bytes(self, capture):
        extractor = SequenceExtractor(
            max_sequences=4, sequence_length=16, log_scale=False, tail_aggregate=True
        )
        array = extractor.extract_array(capture)
        outgoing = sum(p.size for p in capture.packets if p.src == CLIENT)
        assert array[0].sum() == pytest.approx(outgoing)

    @given(captures(), st.integers(2, 4), st.integers(4, 32))
    @settings(max_examples=40, deadline=None)
    def test_extracted_shape_and_non_negativity(self, capture, max_sequences, length):
        extractor = SequenceExtractor(max_sequences=max_sequences, sequence_length=length)
        array = extractor.extract_array(capture)
        assert array.shape == (max_sequences, length)
        assert np.all(array >= 0.0)


def random_dataset(rng, n_classes=4, samples=5):
    traces = []
    for class_id in range(n_classes):
        for _ in range(samples):
            sequences = np.abs(rng.normal(loc=(class_id + 1) * 1000, scale=100, size=(3, 8)))
            traces.append(Trace(label=f"p{class_id}", website="w", sequences=sequences))
    return TraceDataset.from_traces(traces)


class TestDefenceInvariants:
    @pytest.mark.parametrize(
        "defence",
        [FixedLengthPadding(), FixedLengthPadding(per_sequence=False), RandomPaddingDefence(0.4), AdaptivePaddingDefence(0.5)],
        ids=["fl-per-seq", "fl-total", "random", "adaptive"],
    )
    def test_padding_only_adds_bytes(self, defence):
        rng = np.random.default_rng(1)
        dataset = random_dataset(rng)
        defended = defence.apply(dataset, log_scaled=False, seed=3)
        assert defended.data.shape == dataset.data.shape
        assert np.all(defended.data + 1e-9 >= dataset.data)
        assert bandwidth_overhead(dataset, defended, log_scaled=False) >= 0.0
        assert np.array_equal(defended.labels, dataset.labels)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_fl_padding_equalises_for_any_seed(self, seed):
        rng = np.random.default_rng(seed)
        dataset = random_dataset(rng, n_classes=3, samples=4)
        defended = FixedLengthPadding().apply(dataset, log_scaled=False)
        totals = defended.data.sum(axis=2)
        assert np.allclose(totals, totals[0][None, :], rtol=1e-9)


class TestDatasetAlgebra:
    @given(st.integers(2, 6), st.integers(2, 6), st.floats(0.2, 0.8))
    @settings(max_examples=30, deadline=None)
    def test_filter_then_split_conserves_samples(self, n_classes, samples, fraction):
        rng = np.random.default_rng(n_classes * 7 + samples)
        dataset = random_dataset(rng, n_classes=n_classes, samples=samples)
        kept = dataset.filter_classes(range(max(1, n_classes - 1)))
        first, second = kept.split_per_class(fraction, seed=0)
        assert len(first) + len(second) == len(kept)
        assert set(first.class_names) == set(kept.class_names)
        # No trace appears on both sides: totals of the union match.
        assert first.data.shape[0] + second.data.shape[0] == kept.data.shape[0]

    @given(st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=20, deadline=None)
    def test_merge_is_size_additive(self, a_classes, b_classes):
        rng = np.random.default_rng(a_classes * 13 + b_classes)
        a = random_dataset(rng, n_classes=a_classes, samples=3)
        b = random_dataset(rng, n_classes=b_classes, samples=2)
        merged = a.merge(b)
        assert len(merged) == len(a) + len(b)
        assert set(merged.class_names) == set(a.class_names) | set(b.class_names)


class TestClassifierMetricConsistency:
    @given(st.integers(2, 6), st.integers(3, 10))
    @settings(max_examples=20, deadline=None)
    def test_guesses_and_topn_agree(self, n_classes, per_class):
        rng = np.random.default_rng(n_classes * 31 + per_class)
        store = ReferenceStore(4)
        centres = rng.standard_normal((n_classes, 4)) * 6
        for class_id in range(n_classes):
            points = centres[class_id] + 0.4 * rng.standard_normal((per_class, 4))
            store.add(points, [f"c{class_id}"] * per_class)
        classifier = KNNClassifier(store, ClassifierConfig(k=per_class))
        queries = centres + 0.2 * rng.standard_normal(centres.shape)
        labels = [f"c{i}" for i in range(n_classes)]

        guesses = classifier.guesses_needed(queries, labels)
        for n in (1, 2, n_classes):
            direct = classifier.topn_accuracy(queries, labels, ns=(n,))[n]
            from_guesses = float(np.mean(guesses <= n))
            assert direct == pytest.approx(from_guesses)
        curve = accuracy_curve(guesses, max_n=n_classes)
        assert curve[-1] >= curve[0]
        target_n = n_for_target_accuracy(guesses, 1.0, max_n=n_classes)
        assert 1 <= target_n <= n_classes
