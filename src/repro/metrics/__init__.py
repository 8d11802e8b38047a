"""Evaluation metrics: top-n accuracy, per-class guess distributions, reports."""

from repro.metrics.topn import accuracy_curve, n_for_target_accuracy
from repro.metrics.perclass import per_class_mean_guesses, guess_cdf, PerClassDistinguishability
from repro.metrics.reports import format_table, format_accuracy_table

__all__ = [
    "accuracy_curve",
    "n_for_target_accuracy",
    "per_class_mean_guesses",
    "guess_cdf",
    "PerClassDistinguishability",
    "format_table",
    "format_accuracy_table",
]
