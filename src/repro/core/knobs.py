"""The single source of truth for index-engine knob documentation.

``repro experiment`` and ``repro serve`` build their ``--help`` text from
:data:`INDEX_KNOB_HELP`, and ``tests/test_docs.py`` asserts that
``docs/index-tuning.md`` documents every knob listed here — so the CLI,
the README and the tuning guide cannot drift apart again (PR 3 shipped
``rerank``/``bits`` flags that the help text and README forgot).

This module is deliberately import-light (no NumPy/SciPy) so building the
argument parser keeps ``repro info`` instant.
"""

from __future__ import annotations

from typing import Dict

#: Engines selectable everywhere an ``--index`` flag exists.
INDEX_ENGINES = ("exact", "ivf", "ivfpq")

#: Knob name -> the one-line description shared by CLI ``--help`` and docs.
INDEX_KNOB_HELP: Dict[str, str] = {
    "n_cells": (
        "coarse k-means cells (default: ceil(sqrt(N)) for ivf, ceil(9*sqrt(N)) "
        "for ivfpq, capped at 65535 when bits <= 4)"
    ),
    "n_probe": (
        "cells scanned per query (default: 8 for ivf, 16 for ivfpq); "
        "more probes buy recall at scan cost"
    ),
    "n_subspaces": (
        "PQ subspaces per vector (default 8): a code row is n_subspaces bytes "
        "at 8 bits, half that packed at 4 bits"
    ),
    "bits": (
        "bits per PQ code (1-8, default 8); bits <= 4 selects the packed "
        "engine — two codes per byte, uint8-quantized LUT scan, slim side "
        "structures"
    ),
    "rerank": (
        "exact re-rank depth over the best ADC candidates (default 64; "
        "0 = pure ADC, raw vectors never touched after training — keep "
        "several times k when exact rankings matter)"
    ),
    "opq": (
        "learn an orthogonal OPQ rotation before subspace splitting "
        "(lower quantization error when embedding dimensions are correlated)"
    ),
    "max_cell_fraction": (
        "cap any coarse cell at this fraction of the corpus (0 < f <= 1) "
        "during (re)training and add — overflow rows spill to their "
        "nearest cell with room, so one hot cluster cannot blow up "
        "per-probe candidate counts on skewed corpora"
    ),
}
