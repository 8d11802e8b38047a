"""Proximity-based classification of embeddings (Section IV-B.2).

The classifier attributes an unlabelled embedding to webpages by looking at
the labelled reference points in its neighbourhood: the k nearest
references vote, and the ranked vote counts give the top-n prediction list
the evaluation uses.  The paper uses k = 250 with Euclidean distance.

Queries are answered through the reference store's nearest-neighbour index
(:mod:`repro.core.index`) and the vote is one array routine over the
``(queries, k)`` neighbour block — never a ``(queries, n_classes)``
matrix, so its cost does not grow with the number of monitored pages.
Each row's neighbours are stable-sorted by class (in label order), so
every class is a contiguous run still in neighbour order; ``np.bincount``
sums each run in that order, which reproduces the sequential summation of
the original per-query Python voting loop bit for bit; a run's first
neighbour is its closest; and two stable argsorts (by closest distance,
then by votes) rank the runs by ``(-votes, closest distance, label)`` —
the seed's deterministic tie-break.  Every neighbour casts one vote, so
scores are exact integer counts (as float64) and rankings and scores are
bit-identical to the seed's on the equivalence fuzz corpus.

The answer stays in arrays: :meth:`KNNClassifier.rank` returns a
:class:`RankedBlock` (class codes and scores per row, plus the class
names), which the serving layer carries to the wire, decoding only the
labels a client asked for.  :class:`Prediction` is the in-process view of
one row, built on demand.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.config import ClassifierConfig
from repro.core.reference_store import ReferenceStore

# Queries per store search: bounds the (chunk, N) distance block an exact
# search allocates.
_QUERY_CHUNK = 4096


@dataclass
class Prediction:
    """The ranked label list produced for one classified trace."""

    ranked_labels: List[str]
    scores: List[float]

    def top(self, n: int = 1) -> List[str]:
        if n <= 0:
            raise ValueError("n must be positive")
        return self.ranked_labels[:n]

    def contains(self, label: str, n: int) -> bool:
        """Whether ``label`` appears within the top ``n`` predictions."""
        return label in self.ranked_labels[:n]

    @property
    def best(self) -> str:
        return self.ranked_labels[0]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class RankedRow(NamedTuple):
    """One query's ranking: class codes best first, their scores, and the
    ``code -> label`` names the codes index.  The arrays are read-only."""

    codes: np.ndarray
    scores: np.ndarray
    names: Sequence[str]

    def top(self, n: int) -> Tuple[List[str], List[float]]:
        """Fresh ``(labels, scores)`` lists of the ``n`` best classes; only
        those ``n`` labels are decoded."""
        names = self.names
        return [names[code] for code in self.codes[:n].tolist()], self.scores[:n].tolist()

    def prediction(self) -> Prediction:
        """A fresh :class:`Prediction` of the whole ranking."""
        return Prediction(*self.top(self.codes.shape[0]))


class RankedBlock(SequenceABC):
    """A batch's rankings as read-only arrays: row ``q`` ranks
    ``counts[q]`` classes, ``codes[q, :counts[q]]`` best first with their
    ``scores``; ``names[code]`` is a class's label.

    Also a ``Sequence[Prediction]`` for in-process callers: indexing builds
    a fresh :class:`Prediction` every time.
    """

    __slots__ = ("codes", "scores", "counts", "names")

    def __init__(
        self, codes: np.ndarray, scores: np.ndarray, counts: np.ndarray, names: Sequence[str]
    ) -> None:
        self.codes = _frozen(codes)
        self.scores = _frozen(scores)
        self.counts = _frozen(counts)
        self.names = names

    def __len__(self) -> int:
        return self.counts.shape[0]

    def __getitem__(self, position):
        if isinstance(position, slice):
            return [self[row] for row in range(*position.indices(len(self)))]
        count = int(self.counts[position])
        codes, scores = self.codes[position, :count], self.scores[position, :count]
        return RankedRow(codes, scores, self.names).prediction()

    def rows(self) -> List[RankedRow]:
        """Every row as a compact read-only copy: a kept row (a cache
        entry, say) holds its own ``counts[q]`` entries, never the block."""
        return [
            RankedRow(_frozen(codes[:count].copy()), _frozen(scores[:count].copy()), self.names)
            for codes, scores, count in zip(self.codes, self.scores, self.counts.tolist())
        ]

    def labels(self, n: int) -> List[List[str]]:
        """The top-``n`` labels of every row."""
        names = self.names
        return [
            [names[code] for code in codes[:count]]
            for codes, count in zip(self.codes[:, :n].tolist(), self.counts.tolist())
        ]


def ranked_rows(predictions: Sequence[Prediction]) -> List[RankedRow]:
    """Compact per-row records of a classified batch: a
    :class:`RankedBlock`'s own rows, or rows rebuilt from any other
    sequence of :class:`Prediction` (each its own ``names``)."""
    if isinstance(predictions, RankedBlock):
        return predictions.rows()
    return [
        RankedRow(
            _frozen(np.arange(len(prediction.ranked_labels))),
            _frozen(np.array(prediction.scores, dtype=np.float64)),
            tuple(prediction.ranked_labels),
        )
        for prediction in predictions
    ]


class KNNClassifier:
    """k-nearest-neighbour classification against a reference store."""

    def __init__(self, reference_store: ReferenceStore, config: Optional[ClassifierConfig] = None) -> None:
        self.store = reference_store
        self.config = config if config is not None else ClassifierConfig()
        if self.config.k <= 0:
            raise ValueError("k must be positive")

    # ---------------------------------------------------------------- queries
    def _validated_queries(self, embeddings: np.ndarray) -> np.ndarray:
        if len(self.store) == 0:
            raise RuntimeError("the reference store is empty; initialize it before classifying")
        queries = np.atleast_2d(np.asarray(embeddings, dtype=np.float64))
        if queries.shape[1] != self.store.embedding_dim:
            raise ValueError(
                f"query embeddings have dimension {queries.shape[1]}, "
                f"store holds dimension {self.store.embedding_dim}"
            )
        if not np.isfinite(queries).all():
            bad = int(np.flatnonzero(~np.isfinite(queries).all(axis=1))[0])
            raise ValueError(
                f"query embedding {bad} contains NaN/inf values; refusing to classify "
                "(non-finite embeddings would silently mis-rank every candidate)"
            )
        return queries

    def _vote(
        self, distances: np.ndarray, neighbour_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rank the classes of a ``(rows, k)`` neighbour block, given in
        ascending ``(distance, id)`` order: ``(codes, scores, counts)``,
        each row's ``counts[q]`` classes first, best first."""
        n_rows, k = distances.shape
        # Flat index of each row's first entry: every gather below is a
        # 1-D take over flat indices.
        base = np.arange(0, n_rows * k, k)[:, None]
        columns = np.arange(k)
        shift = max(1, (k - 1).bit_length())  # bits of a column number
        low = (1 << shift) - 1
        codes = self.store.label_codes[neighbour_ids]
        # One sort of (label rank, column) keys groups each row's neighbours
        # into one run per class — runs in label order, neighbour order
        # inside each run.  Each slot of the result keeps the flat index of
        # its neighbour.
        keys = np.sort((self.store.label_ranks[codes] << shift) | columns, axis=1)
        neighbour = (keys & low) + base
        keys >>= shift
        starts = np.ones((n_rows, k), dtype=bool)
        starts[:, 1:] = keys[:, 1:] != keys[:, :-1]
        # Every neighbour casts one vote into the slot its run starts at.
        anchors = np.maximum.accumulate(np.where(starts, columns, 0), axis=1) + base
        votes = np.bincount(anchors.ravel(), weights=np.ones(n_rows * k), minlength=n_rows * k)
        # A run's first neighbour is its class's closest reference.  The
        # block is distance-sorted, so a column's dense rank among its row's
        # distinct distances orders closest distances exactly, ties
        # included; slots that start no run hold no class, no votes and
        # rank past every class.
        dense = np.zeros((n_rows, k), dtype=np.int64)
        np.cumsum(distances[:, 1:] != distances[:, :-1], axis=1, out=dense[:, 1:])
        closest = np.where(starts, dense.take(neighbour), k)
        # Slots are in label order: one sort of (closest, slot) keys, then
        # a stable argsort by votes, ranks the classes by (-votes, closest,
        # label).
        slots = (np.sort((closest << shift) | columns, axis=1) & low) + base
        order = np.argsort(-votes.take(slots), axis=1, kind="stable")
        slots = slots.take(order + base)
        return codes.take(neighbour.take(slots)), votes.take(slots), starts.sum(axis=1)

    def _ranked(self, queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_vote` over the store's k nearest references of every
        query, searched ``_QUERY_CHUNK`` queries at a time."""
        k = min(self.config.k, len(self.store))
        n_queries = queries.shape[0]
        codes = np.empty((n_queries, k), dtype=np.int64)
        scores = np.empty((n_queries, k))
        counts = np.empty(n_queries, dtype=np.int64)
        for start in range(0, n_queries, _QUERY_CHUNK):
            stop = start + _QUERY_CHUNK
            distances, neighbour_ids = self.store.search(queries[start:stop], k)
            codes[start:stop], scores[start:stop], counts[start:stop] = self._vote(
                distances, neighbour_ids
            )
        return codes, scores, counts

    # ----------------------------------------------------------------- predict
    def rank(self, embeddings: np.ndarray) -> RankedBlock:
        """Rank candidate labels for each query embedding, as arrays."""
        queries = self._validated_queries(embeddings)
        codes, scores, counts = self._ranked(queries)
        return RankedBlock(codes, scores, counts, self.store.class_names)

    def predict(self, embeddings: np.ndarray) -> List[Prediction]:
        """Rank candidate labels for each query embedding."""
        return list(self.rank(embeddings))

    def _true_positions(
        self, embeddings: np.ndarray, true_labels: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """0-based rank of each true label (-1 if unranked) and ranking sizes."""
        queries = self._validated_queries(embeddings)
        true_labels = [str(label) for label in true_labels]
        if queries.shape[0] != len(true_labels):
            raise ValueError("number of embeddings and labels differ")
        code_of = {name: code for code, name in enumerate(self.store.class_names)}
        true_codes = np.array([code_of.get(label, -1) for label in true_labels], dtype=np.int64)
        codes, _, counts = self._ranked(queries)
        hits = (codes == true_codes[:, None]) & (np.arange(codes.shape[1]) < counts[:, None])
        positions = np.where(hits.any(axis=1), hits.argmax(axis=1), -1)
        return positions, counts

    # ---------------------------------------------------------------- evaluate
    def topn_accuracy(
        self,
        embeddings: np.ndarray,
        true_labels: Sequence[str],
        ns: Sequence[int] = (1, 3, 5, 10, 20),
    ) -> Dict[int, float]:
        """Top-n accuracy of the classifier over a labelled query set."""
        positions, _ = self._true_positions(embeddings, true_labels)
        found = positions >= 0
        results: Dict[int, float] = {}
        for n in ns:
            results[int(n)] = float((found & (positions < int(n))).mean())
        return results

    def guesses_needed(self, embeddings: np.ndarray, true_labels: Sequence[str]) -> np.ndarray:
        """Rank position of the true label for each query (1 = first guess).

        Labels that never appear in the ranking are assigned one more than
        the number of ranked candidates, matching the "adversary exhausted
        their guesses" interpretation used for the per-class CDFs
        (Figures 9-11).
        """
        positions, lengths = self._true_positions(embeddings, true_labels)
        return np.where(positions >= 0, positions + 1, lengths + 1).astype(np.float64)
