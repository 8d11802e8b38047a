"""The single source of truth for index-engine knob documentation.

``repro experiment`` and ``repro serve`` build their ``--help`` text from
:data:`INDEX_KNOB_HELP`, and ``tests/test_docs.py`` asserts that
``docs/index-tuning.md`` documents exactly the knobs listed here — so the CLI,
the README and the tuning guide cannot drift apart again (PR 3 shipped
``rerank``/``bits`` flags that the help text and README forgot).

This module is deliberately import-light (no NumPy/SciPy) so building the
argument parser keeps ``repro info`` instant.
"""

from __future__ import annotations

from typing import Dict

#: Engines selectable everywhere an ``--index`` flag exists.
INDEX_ENGINES = ("exact", "ivfpq")

#: Knob name -> the one-line description shared by CLI ``--help`` and docs.
INDEX_KNOB_HELP: Dict[str, str] = {
    "n_cells": (
        "coarse k-means cells (default: ceil(9*sqrt(N)), capped at 65535 "
        "when bits <= 4)"
    ),
    "n_probe": (
        "cells scanned per query (default 16); more probes buy recall at "
        "scan cost"
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
}
