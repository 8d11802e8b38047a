"""Trace representation and preprocessing.

This package converts raw packet captures into the paper's input
representation (Section IV-A.1, Figure 4): per-IP byte-count sequences with
preserved relative ordering, optional quantization, and fixed-shape arrays
ready for the embedding network.  It also provides the labelled dataset
container and the Set A/B/C/D split geometry of Figure 5.
"""

from repro.traces.trace import Trace
from repro.traces.sequences import SequenceExtractor
from repro.traces.quantize import quantize_counts
from repro.traces.dataset import TraceDataset
from repro.traces.splits import FourWaySplit, four_way_split, reference_test_split
from repro.traces.build import collect_dataset

__all__ = [
    "collect_dataset",
    "Trace",
    "SequenceExtractor",
    "quantize_counts",
    "TraceDataset",
    "FourWaySplit",
    "four_way_split",
    "reference_test_split",
]
