"""The paper's primary contribution: adaptive webpage fingerprinting.

The pipeline has three processes (Section IV):

* **Provisioning** — train the class-agnostic embedding model once, on
  pairs of traces labelled only "same page" / "different page"
  (:class:`~repro.core.trainer.ContrastiveTrainer`).
* **Fingerprinting** — embed the reference corpus and the captured trace,
  classify by proximity (:class:`~repro.core.classifier.KNNClassifier` over
  a :class:`~repro.core.reference_store.ReferenceStore`).
* **Adaptation** — keep the reference corpus up to date with changed pages
  without retraining the model (:class:`~repro.core.adaptation.AdaptationPolicy`).

:class:`~repro.core.fingerprinter.AdaptiveFingerprinter` is the facade that
ties the three together.
"""

import importlib

# Public name -> the submodule that defines it.  Resolved on first access
# (PEP 562) so that importing one submodule — the serving stack needs only
# the classifier, store and index — does not also import the LSTM, the
# trainer and the website simulator behind the adaptation policy.
_EXPORTS = {
    "ExactIndex": "index",
    "IVFPQIndex": "index",
    "PackedPQ": "index",
    "ProductQuantizer": "index",
    "NearestNeighbourIndex": "index",
    "index_from_spec": "index",
    "top_k_by_distance": "index",
    "sort_by_distance": "index",
    "OpenWorldDetector": "openworld",
    "OpenWorldResult": "openworld",
    "DeploymentError": "deployment",
    "DeploymentNotFoundError": "deployment",
    "save_deployment": "deployment",
    "load_deployment": "deployment",
    "EmbeddingModel": "embedding",
    "PairGenerator": "pairs",
    "random_pairs": "pairs",
    "hard_negative_pairs": "pairs",
    "ContrastiveTrainer": "trainer",
    "TrainingHistory": "trainer",
    "ReferenceStore": "reference_store",
    "KNNClassifier": "classifier",
    "Prediction": "classifier",
    "RankedBlock": "classifier",
    "AdaptiveFingerprinter": "fingerprinter",
    "AdaptationPolicy": "adaptation",
    "AdaptationReport": "adaptation",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
