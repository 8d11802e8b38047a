"""Saving and restoring a complete fingerprinting deployment.

The paper's adversary provisions once and then operates the deployment over
a long period, so being able to persist the trained embedding model, the
reference corpus and the configuration together — and restore them later on
a different machine — is part of making the attack (and the research
artefact) operationally real.  A deployment directory contains::

    deployment/
      config.json        architecture + classifier configuration
      weights.npz        embedding-model parameters
      references.rsg     labelled reference embeddings (RSG1 segment)

Writes are crash-safe: :func:`save_deployment` assembles the directory in a
hidden staging sibling and swaps it into place with renames, so a reader
never observes a half-written deployment and an interrupted save keeps the
previous deployment (if any) on disk — either still in place, or under a
retired sibling name that :func:`load_deployment` promotes back
automatically.  :func:`load_deployment` validates the directory up front
and raises :class:`DeploymentError` — instead of a bare
``KeyError``/``FileNotFoundError`` from deep inside the loaders — when
files are missing, the config is malformed or the index spec is unknown.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict
from pathlib import Path
from typing import Union

from repro.config import ClassifierConfig, EmbeddingHyperparameters
from repro.core.fingerprinter import AdaptiveFingerprinter
from repro.core.index import index_from_spec
from repro.core.reference_store import ReferenceStore
from repro.traces.sequences import SequenceExtractor

PathLike = Union[str, os.PathLike]

_CONFIG_FILE = "config.json"
_WEIGHTS_FILE = "weights.npz"
_REFERENCES_FILE = "references.rsg"
_REQUIRED_FILES = (_CONFIG_FILE, _WEIGHTS_FILE, _REFERENCES_FILE)
#: Classifier keys older deployments wrote for options that no longer
#: exist, with the one value each may hold (the behaviour that remains).
_RETIRED_CLASSIFIER_KEYS = {"distance_metric": "euclidean", "weighting": "uniform"}


class DeploymentError(RuntimeError):
    """A deployment directory is missing, incomplete or malformed."""


class DeploymentNotFoundError(DeploymentError, FileNotFoundError):
    """The deployment directory itself does not exist.

    Also a ``FileNotFoundError`` so callers that predate
    :class:`DeploymentError` keep working.
    """


def save_deployment(fingerprinter: AdaptiveFingerprinter, directory: PathLike) -> Path:
    """Persist a provisioned (and typically initialised) deployment.

    The three files are written into a staging directory next to the target
    and renamed into place, so a crash mid-save never leaves ``directory``
    partially written.
    """
    if not fingerprinter.provisioned:
        raise RuntimeError("cannot save a deployment whose model was never provisioned")
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    # Clear staging leftovers of earlier interrupted saves (single-writer
    # protocol: deployments are saved by one operator process at a time).
    # Retired `.replaced.*` backups are cleaned only *after* this save
    # lands, so a crash can never destroy the last valid deployment.
    for leftover in directory.parent.glob(f".{directory.name}.staging.*"):
        shutil.rmtree(leftover, ignore_errors=True)
    staging = directory.parent / f".{directory.name}.staging.{os.getpid()}"
    staging.mkdir()

    config = {
        "hyperparameters": fingerprinter.model.hyperparameters.as_dict(),
        "classifier": asdict(fingerprinter.classifier_config),
        "index": fingerprinter.reference_store.index.spec(),
        "extractor": {
            "max_sequences": fingerprinter.extractor.max_sequences,
            "sequence_length": fingerprinter.extractor.sequence_length,
            "aggregate_consecutive": fingerprinter.extractor.aggregate_consecutive,
            "quantization_step": fingerprinter.extractor.quantization_step,
            "log_scale": fingerprinter.extractor.log_scale,
            "merge_servers": fingerprinter.extractor.merge_servers,
            "tail_aggregate": fingerprinter.extractor.tail_aggregate,
        },
        "seed": fingerprinter.model.seed,
    }
    try:
        (staging / _CONFIG_FILE).write_text(json.dumps(config, indent=2, sort_keys=True))
        fingerprinter.model.save(staging / _WEIGHTS_FILE)
        fingerprinter.reference_store.save(staging / _REFERENCES_FILE)
        if directory.exists():
            # Directories cannot be renamed over each other, so retire the
            # old deployment first; it survives on disk until the new one is
            # in place, keeping the window without a valid deployment empty.
            retired = directory.parent / f".{directory.name}.replaced.{os.getpid()}"
            if retired.exists():
                shutil.rmtree(retired)
            os.rename(directory, retired)
            os.rename(staging, directory)
        else:
            os.rename(staging, directory)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    # The new deployment is in place; every retired backup (this save's and
    # any left by earlier crashed saves) is now obsolete.
    for leftover in directory.parent.glob(f".{directory.name}.replaced.*"):
        shutil.rmtree(leftover, ignore_errors=True)
    return directory


def _classifier_keys(saved: object, directory: Path) -> object:
    """The saved classifier config without its retired keys, each checked
    to hold the value the classifier still implements."""
    if not isinstance(saved, dict):
        return saved  # ClassifierConfig(**saved) reports it
    for key, only in _RETIRED_CLASSIFIER_KEYS.items():
        if key in saved and saved[key] != only:
            raise DeploymentError(
                f"deployment {directory} sets classifier.{key} = {saved[key]!r}; "
                f"the classifier supports only {only!r}"
            )
    return {key: value for key, value in saved.items() if key not in _RETIRED_CLASSIFIER_KEYS}


def load_deployment(directory: PathLike) -> AdaptiveFingerprinter:
    """Restore a deployment saved by :func:`save_deployment`.

    The returned fingerprinter is marked as provisioned and, if the saved
    reference corpus is non-empty, ready to fingerprint immediately.

    Raises :class:`DeploymentError` when the directory is missing files or
    holds an unreadable/unknown configuration (and the
    ``FileNotFoundError``-compatible :class:`DeploymentNotFoundError` when
    the directory itself does not exist).
    """
    directory = Path(directory)
    if not directory.is_dir():
        # A crash between an overwriting save's two renames leaves the
        # previous (fully valid) deployment under its retired name; promote
        # it back rather than reporting the deployment lost.
        retired = (
            list(directory.parent.glob(f".{directory.name}.replaced.*"))
            if directory.parent.is_dir()
            else []
        )
        if retired:
            os.rename(max(retired, key=lambda path: path.stat().st_mtime), directory)
        else:
            raise DeploymentNotFoundError(f"deployment directory does not exist: {directory}")
    missing = [name for name in _REQUIRED_FILES if not (directory / name).is_file()]
    if missing:
        raise DeploymentError(
            f"incomplete deployment directory {directory}: missing {', '.join(missing)} "
            "(was the save interrupted, or is this not a deployment directory?)"
        )
    try:
        config = json.loads((directory / _CONFIG_FILE).read_text())
    except json.JSONDecodeError as error:
        raise DeploymentError(f"unreadable {_CONFIG_FILE} in {directory}: {error}") from error
    if not isinstance(config, dict):
        raise DeploymentError(
            f"malformed {_CONFIG_FILE} in {directory}: expected a JSON object, "
            f"got {type(config).__name__}"
        )

    index_spec = config.get("index")  # absent in pre-index deployments -> exact
    try:
        index_from_spec(index_spec)  # validate the spec before building anything
    except (ValueError, TypeError) as error:
        raise DeploymentError(
            f"deployment {directory} has an unknown index spec {index_spec!r}: {error}"
        ) from error

    try:
        hyperparameters = EmbeddingHyperparameters(
            **{
                **config["hyperparameters"],
                "hidden_layer_sizes": tuple(config["hyperparameters"]["hidden_layer_sizes"]),
            }
        )
        classifier_config = ClassifierConfig(**_classifier_keys(config["classifier"], directory))
        extractor = SequenceExtractor(**config["extractor"])
        seed = int(config.get("seed", 0))
    except (KeyError, TypeError) as error:
        raise DeploymentError(
            f"malformed {_CONFIG_FILE} in {directory}: {error!r} "
            "(expected the schema written by save_deployment)"
        ) from error

    fingerprinter = AdaptiveFingerprinter(
        n_sequences=extractor.max_sequences,
        sequence_length=extractor.sequence_length,
        hyperparameters=hyperparameters,
        classifier_config=classifier_config,
        extractor=extractor,
        seed=seed,
        index_factory=lambda: index_from_spec(index_spec),
    )
    try:
        fingerprinter.model.load(directory / _WEIGHTS_FILE)
    except (KeyError, ValueError) as error:
        raise DeploymentError(
            f"weights in {directory / _WEIGHTS_FILE} do not match the configured architecture: {error!r}"
        ) from error
    fingerprinter.mark_provisioned()

    # The load adopts the saved index state, or rebuilds the index once.
    store = ReferenceStore.load(
        directory / _REFERENCES_FILE, index_factory=fingerprinter.index_factory
    )
    if len(store):
        fingerprinter.attach_references(store)
    return fingerprinter
