"""Comparator fingerprinting attacks (Related Work / Table III).

These are the attacks the paper's measured comparisons run against.  They
are class-coupled classifiers — feature extraction and classification are
fit to the label set seen at training time — so, unlike the embedding
approach, they must be retrained whenever the monitored pages change.
Each is implemented from scratch on NumPy.  Table III
(:mod:`repro.experiments.table3`) measures DF and k-FP; the other rows of
its cost catalogue (:mod:`repro.costs.catalogue`) are literature cost
profiles, not code:

* :class:`~repro.baselines.kfp.KFingerprintingAttack` — k-fingerprinting
  (Hayes & Danezis): random-forest leaf vectors + k-NN.
* :class:`~repro.baselines.hmm.UserJourneyHMM` — Miller et al.: per-page
  classifier combined with a hidden Markov model over the site's link graph
  to decode browsing journeys.
* :class:`~repro.baselines.deep_fingerprinting.DeepFingerprintingClassifier`
  — a Deep-Fingerprinting-style end-to-end softmax classifier (MLP stand-in
  for the paper's CNN; see the module docstring for the substitution note).
"""

from repro.baselines.features import handcrafted_features, feature_names
from repro.baselines.random_forest import DecisionTree, RandomForest
from repro.baselines.kfp import KFingerprintingAttack
from repro.baselines.hmm import UserJourneyHMM
from repro.baselines.deep_fingerprinting import DeepFingerprintingClassifier

__all__ = [
    "handcrafted_features",
    "feature_names",
    "DecisionTree",
    "RandomForest",
    "KFingerprintingAttack",
    "UserJourneyHMM",
    "DeepFingerprintingClassifier",
]
