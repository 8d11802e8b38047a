"""Experiment runners reproducing the paper's evaluation (Section VI-VII).

Each module reproduces one table or figure:

* :mod:`repro.experiments.exp1_static` — Figure 6 (static classification,
  class-count sweep, plus the TLS 1.3 series of Experiment 3).
* :mod:`repro.experiments.exp2_adaptability` — Figure 7 and Table II
  (classes never seen during training, sub-linear growth of n).
* :mod:`repro.experiments.exp3_transfer` — Figure 8 (two-sequence model
  transferred from the Wikipedia-like to the Github-like site).
* :mod:`repro.experiments.exp4_distinguishability` — Figures 9, 10, 11
  (per-class guess CDFs, known / unknown / padded).
* :mod:`repro.experiments.exp5_padding` — Figures 12, 13 (FL padding on
  known and unknown classes) plus bandwidth overheads.
* :mod:`repro.experiments.table3` — Table III (operational costs).

:class:`repro.experiments.setup.ExperimentContext` builds the shared
datasets and the provisioned model once per scale so the runners (and the
benchmark harness) do not repeat the expensive steps.
"""

from repro.experiments.setup import (
    ExperimentContext,
    ci_hyperparameters,
    ci_training_config,
)
from repro.experiments.exp1_static import run_experiment1, Experiment1Result
from repro.experiments.exp2_adaptability import run_experiment2, Experiment2Result
from repro.experiments.exp3_transfer import run_experiment3, Experiment3Result
from repro.experiments.exp4_distinguishability import run_experiment4, Experiment4Result
from repro.experiments.exp5_padding import run_experiment5, Experiment5Result
from repro.experiments.table3 import run_table3, Table3Result

__all__ = [
    "ExperimentContext",
    "ci_hyperparameters",
    "ci_training_config",
    "run_experiment1",
    "Experiment1Result",
    "run_experiment2",
    "Experiment2Result",
    "run_experiment3",
    "Experiment3Result",
    "run_experiment4",
    "Experiment4Result",
    "run_experiment5",
    "Experiment5Result",
    "run_table3",
    "Table3Result",
]
