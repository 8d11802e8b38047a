"""Hypothesis strategies and invariant checks shared across test modules."""
