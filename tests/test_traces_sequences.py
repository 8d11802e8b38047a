"""Tests for trace preprocessing: IP sequences, quantization, Trace."""

import itertools
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Tuple
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.net import IPAddress, Packet, PacketCapture
from repro.traces import SequenceExtractor, Trace, kernels, quantize_counts

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


CLIENT = IPAddress("10.0.0.1")
TEXT = IPAddress("10.0.0.2")
MEDIA = IPAddress("10.0.0.3")
EXTRA = IPAddress("10.0.0.4")


def capture_from(events):
    """Build a capture from (time, sender, size) triples; receiver inferred."""
    return PacketCapture(client_ip=CLIENT, packets=[
        Packet(time, sender, TEXT if sender == CLIENT else CLIENT, size)
        for time, sender, size in events
    ])


class TestExtractIPRuns:
    """Figure 4's run rule, read off the extracted rows (client, then remotes)."""

    extractor = SequenceExtractor(max_sequences=3, sequence_length=4, log_scale=False)

    def test_consecutive_same_sender_aggregated(self):
        capture = capture_from([
            (0.0, CLIENT, 300),
            (0.1, TEXT, 1000),
            (0.2, TEXT, 500),
            (0.3, CLIENT, 200),
        ])
        rows = self.extractor.extract_array(capture).tolist()
        assert rows == [[300, 0, 200, 0], [0, 1500, 0, 0], [0, 0, 0, 0]]

    def test_interleaving_breaks_runs(self):
        capture = capture_from([
            (0.0, TEXT, 100),
            (0.1, MEDIA, 200),
            (0.2, TEXT, 300),
        ])
        rows = self.extractor.extract_array(capture).tolist()
        assert rows == [[0, 0, 0, 0], [100, 0, 300, 0], [0, 200, 0, 0]]

    def test_empty_capture(self):
        rows = self.extractor.extract_array(PacketCapture(client_ip=CLIENT)).tolist()
        assert rows == [[0, 0, 0, 0]] * 3

class TestQuantize:
    def test_disabled_for_small_step(self):
        counts = np.array([1.0, 1499.0, 3.0])
        assert np.allclose(quantize_counts(counts, 0), counts)
        assert np.allclose(quantize_counts(counts, 1), counts)

    def test_rounds_to_step(self):
        counts = np.array([0.0, 100.0, 749.0, 751.0])
        assert np.allclose(quantize_counts(counts, 500), [0.0, 500.0, 500.0, 1000.0])

    def test_nonzero_never_erased(self):
        counts = np.array([1.0, 10.0, 0.0])
        quantized = quantize_counts(counts, 1000)
        assert quantized[0] == 1000.0 and quantized[1] == 1000.0 and quantized[2] == 0.0

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            quantize_counts(np.array([1.0]), -5)

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=50), st.integers(2, 4096))
    @settings(max_examples=50, deadline=None)
    def test_quantization_properties(self, values, step):
        counts = np.array(values, dtype=float)
        quantized = quantize_counts(counts, step)
        # Zero stays zero, non-zero stays non-zero, and the error is bounded.
        assert np.all((counts == 0) == (quantized == 0))
        nonzero = counts > 0
        assert np.all(np.abs(quantized[nonzero] - counts[nonzero]) <= step)
        assert np.all(quantized[nonzero] % step == 0)


class TestTrace:
    def test_valid_trace(self):
        trace = Trace(label="page", website="w", sequences=np.zeros((3, 10)))
        assert trace.n_sequences == 3 and trace.length == 10

    def test_model_input_is_time_major(self):
        sequences = np.arange(6, dtype=float).reshape(2, 3)
        trace = Trace(label="p", website="w", sequences=sequences)
        model_input = trace.as_model_input()
        assert model_input.shape == (3, 2)
        assert np.allclose(model_input, sequences.T)

    def test_invalid_traces(self):
        with pytest.raises(ValueError):
            Trace(label="", website="w", sequences=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Trace(label="p", website="w", sequences=np.zeros(5))
        with pytest.raises(ValueError):
            Trace(label="p", website="w", sequences=-np.ones((2, 2)))


class TestSequenceExtractor:
    def test_client_is_always_first_sequence(self):
        capture = capture_from([
            (0.0, CLIENT, 300),
            (0.1, TEXT, 5000),
            (0.2, MEDIA, 7000),
        ])
        extractor = SequenceExtractor(max_sequences=3, sequence_length=10, log_scale=False)
        array = extractor.extract_array(capture)
        assert array.shape == (3, 10)
        assert array[0, 0] == 300.0  # client's first transmission
        assert array[1, 1] == 5000.0  # first remote (text) second event
        assert array[2, 2] == 7000.0

    def test_zero_padding_preserves_relative_order(self):
        capture = capture_from([
            (0.0, CLIENT, 100),
            (0.1, TEXT, 200),
            (0.2, CLIENT, 300),
        ])
        array = SequenceExtractor(max_sequences=3, sequence_length=5, log_scale=False).extract_array(capture)
        # Event positions: client@0, text@1, client@2 — zeros elsewhere.
        assert array[0, 0] == 100 and array[0, 1] == 0 and array[0, 2] == 300
        assert array[1, 0] == 0 and array[1, 1] == 200 and array[1, 2] == 0

    def test_overflow_servers_folded_into_last_slot(self):
        capture = capture_from([
            (0.0, CLIENT, 100),
            (0.1, TEXT, 200),
            (0.2, MEDIA, 300),
            (0.3, EXTRA, 400),
        ])
        array = SequenceExtractor(max_sequences=3, sequence_length=8, log_scale=False).extract_array(capture)
        # EXTRA is beyond the 2-server budget: folded into MEDIA's row.
        assert array[2, 2] == 300 and array[2, 3] == 400

    def test_two_sequence_encoding_merges_servers(self):
        capture = capture_from([
            (0.0, CLIENT, 100),
            (0.1, TEXT, 200),
            (0.2, MEDIA, 300),
            (0.3, CLIENT, 50),
        ])
        extractor = SequenceExtractor(max_sequences=2, merge_servers=True, sequence_length=6, log_scale=False)
        array = extractor.extract_array(capture)
        assert array.shape == (2, 6)
        assert array[0, 0] == 100 and array[0, 3] == 50
        assert array[1, 1] == 200 and array[1, 2] == 300

    def test_truncation_and_padding(self):
        events = [(0.01 * i, CLIENT if i % 2 == 0 else TEXT, 10 + i) for i in range(30)]
        capture = capture_from(events)
        short = SequenceExtractor(max_sequences=2, sequence_length=5, log_scale=False).extract_array(capture)
        long = SequenceExtractor(max_sequences=2, sequence_length=100, log_scale=False).extract_array(capture)
        assert short.shape == (2, 5)
        assert long.shape == (2, 100)
        assert np.all(long[:, 30:] == 0)

    def test_log_scale_and_quantization(self):
        capture = capture_from([(0.0, CLIENT, 1000), (0.1, TEXT, 2100)])
        raw = SequenceExtractor(sequence_length=4, log_scale=False).extract_array(capture)
        logged = SequenceExtractor(sequence_length=4, log_scale=True).extract_array(capture)
        quantized = SequenceExtractor(
            sequence_length=4, log_scale=False, quantization_step=500
        ).extract_array(capture)
        assert np.allclose(logged, np.log1p(raw))
        assert quantized[1, 1] == 2000.0

    def test_aggregation_toggle(self):
        capture = capture_from([
            (0.0, TEXT, 100),
            (0.1, TEXT, 200),
        ])
        aggregated = SequenceExtractor(sequence_length=5, log_scale=False).extract_array(capture)
        raw = SequenceExtractor(
            sequence_length=5, log_scale=False, aggregate_consecutive=False
        ).extract_array(capture)
        assert aggregated[1, 0] == 300
        assert raw[1, 0] == 100 and raw[1, 1] == 200

    def test_extract_returns_labelled_trace(self):
        capture = capture_from([(0.0, CLIENT, 10), (0.1, TEXT, 20)])
        trace = SequenceExtractor(sequence_length=4).extract(capture, label="page-1", website="wiki")
        assert trace.label == "page-1" and trace.website == "wiki"
        assert "total_bytes" in trace.metadata

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            SequenceExtractor(max_sequences=1)
        with pytest.raises(ValueError):
            SequenceExtractor(sequence_length=0)
        with pytest.raises(ValueError):
            SequenceExtractor(quantization_step=-1)
        with pytest.raises(ValueError):
            SequenceExtractor(max_sequences=3, merge_servers=True)

    def test_empty_capture_gives_zero_array(self):
        array = SequenceExtractor(sequence_length=6).extract_array(PacketCapture(client_ip=CLIENT))
        assert array.shape == (3, 6)
        assert np.all(array == 0)

    def test_self_addressed_packet_is_one_client_event(self):
        # src == dst == client used to make the client its own "remote":
        # two rows aliased one list and every event was written twice.
        extractor = SequenceExtractor(max_sequences=3, sequence_length=4, log_scale=False)
        alone = PacketCapture(client_ip=CLIENT, packets=[Packet(0.0, CLIENT, CLIENT, 100)])
        assert extractor.extract_array(alone).tolist() == [[100, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        mixed = PacketCapture(client_ip=CLIENT, packets=[
            Packet(0.0, CLIENT, CLIENT, 100),
            Packet(0.1, TEXT, CLIENT, 200),
            Packet(0.2, CLIENT, CLIENT, 300),
            Packet(0.3, CLIENT, MEDIA, 50),
        ])
        # The client is never a remote: TEXT and MEDIA keep rows 1 and 2.
        assert extractor.extract_array(mixed).tolist() == [[100, 0, 350, 0], [0, 200, 0, 0], [0, 0, 0, 0]]


# --------------------------------------------------------------------------
# Reference oracle: the extraction this module's single pass replaced, moved
# here verbatim (methods of SequenceExtractor then; ``self`` is an extractor).
# It walks the capture three times and builds one Python list per sequence.


def _reference_ip_runs(capture: PacketCapture) -> List[Tuple[IPAddress, int]]:
    runs: List[Tuple[IPAddress, int]] = []
    for timestamp, sender, size in capture.transmissions():
        if runs and runs[-1][0] == sender:
            runs[-1] = (sender, runs[-1][1] + size)
        else:
            runs.append((sender, size))
    return runs


class ReferenceExtractor(SequenceExtractor):
    def extract_array(self, capture: PacketCapture) -> np.ndarray:
        """The ``(max_sequences, sequence_length)`` array for one capture."""
        variable = self._variable_length_sequences(capture)
        fixed = self._pad_truncate(variable)
        if self.quantization_step > 1:
            fixed = quantize_counts(fixed, self.quantization_step)
        if self.log_scale:
            fixed = np.log1p(fixed)
        return fixed

    def _sender_events(self, capture: PacketCapture) -> List[Tuple[IPAddress, int]]:
        if self.aggregate_consecutive:
            return _reference_ip_runs(capture)
        return [(sender, size) for _, sender, size in capture.transmissions()]

    def _variable_length_sequences(self, capture: PacketCapture) -> List[List[float]]:
        events = self._sender_events(capture)
        client = capture.client_ip

        if self.merge_servers:
            sequence_keys: List[object] = [client, "incoming"]

            def key_for(sender: IPAddress) -> object:
                return client if sender == client else "incoming"

        else:
            # Client first, then servers in order of first appearance;
            # any servers beyond the budget are folded into the last slot.
            remotes = capture.remote_ips()
            kept = remotes[: self.max_sequences - 1]
            sequence_keys = [client] + list(kept)
            overflow_key = kept[-1] if kept else None

            def key_for(sender: IPAddress) -> object:
                if sender == client or sender in kept:
                    return sender
                return overflow_key

        sequences: Dict[object, List[float]] = {key: [] for key in sequence_keys}
        for sender, size in events:
            key = key_for(sender)
            if key is None:
                continue
            for other_key in sequence_keys:
                sequences[other_key].append(float(size) if other_key == key else 0.0)
        return [sequences[key] for key in sequence_keys]

    def _pad_truncate(self, variable: List[List[float]]) -> np.ndarray:
        fixed = np.zeros((self.max_sequences, self.sequence_length), dtype=np.float64)
        for row, sequence in enumerate(variable[: self.max_sequences]):
            if len(sequence) >= self.sequence_length:
                fixed[row, :] = sequence[: self.sequence_length]
                if self.tail_aggregate:
                    fixed[row, -1] += float(sum(sequence[self.sequence_length :]))
            else:
                fixed[row, : len(sequence)] = sequence
        return fixed


# The client, six servers, and an outsider that also talks past the client.
ADDRESSES = [IPAddress(f"10.0.0.{host}") for host in range(1, 9)]
OUTSIDER = ADDRESSES[-1]
SIZES = st.one_of(st.just(0), st.integers(0, 1600), st.integers(0, 10**7))
# Few distinct timestamps, so captures are unsorted *and* full of ties.
TIMES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0])


@st.composite
def captures(draw) -> PacketCapture:
    """Up to 40 packets among the client, 0-6 servers and the outsider."""
    hosts = st.sampled_from([*ADDRESSES[: 1 + draw(st.integers(0, 6))], OUTSIDER])
    packets = draw(st.lists(st.tuples(TIMES, hosts, hosts, SIZES), max_size=40))
    return capture_of(p for p in packets if not p[1] == p[2] == CLIENT)  # self-addressed: own test


def capture_of(packets) -> PacketCapture:
    return PacketCapture(client_ip=CLIENT, packets=[Packet(*packet) for packet in packets])


OPTION_GRID = [
    dict(max_sequences=rows, merge_servers=merge, aggregate_consecutive=aggregate,
         tail_aggregate=tail, quantization_step=step, log_scale=log)
    for (rows, merge), aggregate, tail, step, log in itertools.product(
        [(2, False), (2, True), (3, False), (4, False)],
        [True, False], [True, False], [0, 1, 500], [True, False],
    )
]


# 300 distinct remotes: far more than rows, and past the C walk's on-stack
# rank table (the heap table takes the rest).
MANY = [IPAddress.from_int(CLIENT.as_int + 100 + i) for i in range(300)]
MANY_REMOTES = capture_of(
    [(0.01 * i, MANY[i], CLIENT, 100 + i) for i in range(300)]
    + [(0.01 * i + 0.005, CLIENT, MANY[(7 * i) % 300], 10) for i in range(300)])

EXAMPLES = [
    (capture_of([]), 5),
    (capture_of([(0.0, CLIENT, TEXT, 10), (0.0, CLIENT, MEDIA, 0), (1.0, CLIENT, TEXT, 7)]), 2),
    (capture_of([(1.0, TEXT, CLIENT, 5), (0.0, MEDIA, CLIENT, 6), (1.0, MEDIA, CLIENT, 7),
                 (0.0, TEXT, CLIENT, 8)]), 5),  # unsorted, tied
    (capture_of([(0.1 * i, ADDRESSES[1 + i % 6], CLIENT, 100 + i) for i in range(30)]), 5),
    (capture_of([(0.0, OUTSIDER, EXTRA, 9), (0.5, EXTRA, OUTSIDER, 0), (1.0, CLIENT, EXTRA, 4),
                 (1.5, OUTSIDER, CLIENT, 2)]), 40),  # an outsider talks past the client
    (capture_of([(2.0, CLIENT, OUTSIDER, 3), (1.0, OUTSIDER, TEXT, 4), (1.0, TEXT, OUTSIDER, 5),
                 (0.5, CLIENT, TEXT, 6), (2.0, TEXT, CLIENT, 7), (0.5, OUTSIDER, CLIENT, 8)]), 2),
    (MANY_REMOTES, 40),
    (MANY_REMOTES, 1000),
]


def over_the_reference_grid(test):
    """Hypothesis captures plus the hand-picked ones, at several lengths."""
    test = settings(max_examples=150, deadline=None)(test)
    for capture, sequence_length in reversed(EXAMPLES):
        test = example(capture, sequence_length)(test)
    return given(captures(), st.sampled_from([1, 2, 5, 40]))(test)


def assert_matches_reference(capture, sequence_length, option_grid=OPTION_GRID):
    for options in option_grid:
        new = SequenceExtractor(sequence_length=sequence_length, **options)
        old = ReferenceExtractor(sequence_length=sequence_length, **options)
        result = new.extract_array(capture)
        assert result.dtype == np.float64 and result.flags.c_contiguous
        assert np.array_equal(result, old.extract_array(capture)), options


@contextmanager
def walk(native):
    """Run extraction on the native walk (which must then do all of it) or
    on the NumPy fallback."""
    if native:
        if kernels.extraction_kernels() is None:
            pytest.skip("extraction kernel unavailable")
        with patch.object(SequenceExtractor, "_sum_runs", side_effect=AssertionError("NumPy ran")):
            yield
    else:
        with patch.object(kernels, "extraction_kernels", lambda: None):
            yield


class TestSinglePassMatchesReference:
    @over_the_reference_grid
    def test_extract_array_is_bitwise_equal(self, capture, sequence_length):
        with walk(native=True):
            assert_matches_reference(capture, sequence_length)

    @over_the_reference_grid
    def test_numpy_fallback_is_bitwise_equal(self, capture, sequence_length):
        with walk(native=False):
            assert_matches_reference(capture, sequence_length)

    @pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
    @pytest.mark.parametrize("rows", [2, 3, 17, 18, 19, 150, 301, 302, 400])
    def test_as_many_rows_as_remotes(self, native, rows):
        # Every remote its own row, up to and past the number of remotes.
        grid = [dict(max_sequences=rows, aggregate_consecutive=aggregate, tail_aggregate=tail,
                     log_scale=False) for aggregate in (True, False) for tail in (True, False)]
        with walk(native):
            assert_matches_reference(MANY_REMOTES, 8, grid)
            assert_matches_reference(MANY_REMOTES, 700, grid)


def test_importing_serving_and_serving_leaves_the_extraction_kernel_unbuilt():
    # The server never extracts: neither its imports nor a running
    # FrontendServer may load the extraction kernel (setup cost, RSS).
    probe = "\n".join([
        "import numpy as np",
        "import repro.serving",
        "from repro.config import ClassifierConfig",
        "from repro.core import ReferenceStore",
        "from repro.serving import BatchScheduler, DeploymentManager, FrontendServer",
        "from repro.serving import ShardedReferenceStore",
        "flat = ReferenceStore(4)",
        "flat.add(np.eye(4), ['a', 'b', 'c', 'd'])",
        "manager = DeploymentManager(",
        "    ShardedReferenceStore.from_reference_store(flat, n_shards=2), ClassifierConfig(k=1))",
        "with FrontendServer(BatchScheduler(manager), manager=manager):",
        "    pass",
        "from repro.traces import kernels",
        "print('attempted', kernels._latch.attempted)",
    ])
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("REPRO_DISABLE_KERNELS", None)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["attempted", "False"]
