"""The correctness harness: a flat exact oracle, replayed per generation.

Every answer the server gives is compared with ``KNNClassifier`` over a
flat ``ReferenceStore(ExactIndex)`` holding the same references and fed
the same float32-rounded query.  Under churn the oracle replays the
acknowledged ``replace_class`` sequence and judges each answer against
the generation its RESULT frame reports; an answer whose frame straddled
a swap (the frame reports the newest generation that served any of its
queries) may instead match an older generation that was live while the
request was in flight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import ClassifierConfig
from repro.core.classifier import KNNClassifier
from repro.core.reference_store import ReferenceStore

Labels = Tuple[str, ...]

# Distinct (generation, query) pairs checked per run.  Exact k-NN costs
# about 0.1 us per query x reference, so this bounds the check to a few
# seconds; every workload currently stays under it, and a run that does
# not checks an evenly strided sample and reports the share it covered.
MAX_CHECKED_PAIRS = 8192


@dataclass(frozen=True)
class Answer:
    """One ranked-label answer as the client saw it."""

    query: np.ndarray  # (dim,) the float32 values that went on the wire
    labels: Labels
    generation: int
    # Oldest generation that can have served it: what the previous RESULT
    # on the same connection reported.
    floor_generation: int
    request: int


@dataclass
class Verdict:
    """Outcome of checking a run's answers."""

    answers: int
    checked: int
    agreeing: int
    straddled: int
    first_mismatch: Optional[str]

    @property
    def agreement(self) -> float:
        return self.agreeing / self.checked if self.checked else 0.0

    @property
    def checked_share(self) -> float:
        return self.checked / self.answers if self.answers else 0.0


class Oracle:
    """Flat exact k-NN over the references, at any generation."""

    def __init__(
        self, references: np.ndarray, labels: Sequence[str], *, k: int, top_n: int
    ) -> None:
        self._references = references
        self._labels = list(labels)
        self._config = ClassifierConfig(k=k)
        self._top_n = top_n

    def expected(
        self,
        pairs: Sequence[Tuple[int, np.ndarray]],
        mutations: Sequence[Tuple[str, np.ndarray]] = (),
    ) -> List[Labels]:
        """Top-n labels for each ``(generation, query)`` pair; generation
        ``g`` is the references after ``mutations[:g]``."""
        positions: Dict[int, List[int]] = {}
        for position, (generation, _) in enumerate(pairs):
            positions.setdefault(generation, []).append(position)
        out: List[Labels] = [()] * len(pairs)
        if not positions:
            return out
        flat = ReferenceStore(self._references.shape[1])
        flat.add(self._references, self._labels)
        for generation in range(max(positions) + 1):
            if generation:
                flat.replace_class(*mutations[generation - 1])
            where = positions.get(generation)
            if where is None:
                continue
            queries = np.stack([pairs[p][1] for p in where]).astype(np.float64)
            predictions = KNNClassifier(flat, self._config).predict(queries)
            for position, prediction in zip(where, predictions):
                out[position] = tuple(prediction.ranked_labels[: self._top_n])
        return out

    def check(
        self, answers: Sequence[Answer], mutations: Sequence[Tuple[str, np.ndarray]] = ()
    ) -> Verdict:
        """Compare answers with the oracle; identical (generation, query)
        pairs are computed once."""
        groups: Dict[Tuple[int, bytes], List[Answer]] = {}
        for answer in answers:
            groups.setdefault((answer.generation, answer.query.tobytes()), []).append(answer)
        keys = list(groups)
        stride = -(-len(keys) // MAX_CHECKED_PAIRS) if keys else 1
        keys = keys[::stride]
        expected = self.expected(
            [(generation, groups[(generation, raw)][0].query) for generation, raw in keys],
            mutations,
        )
        verdict = Verdict(len(answers), 0, 0, 0, None)
        doubtful: List[Answer] = []
        for key, want in zip(keys, expected):
            for answer in groups[key]:
                verdict.checked += 1
                if answer.labels == want:
                    verdict.agreeing += 1
                else:
                    doubtful.append(answer)
        # A mismatch is forgiven only if an older generation that was live
        # during the request gives exactly this answer.
        older = [
            (generation, answer)
            for answer in doubtful
            for generation in range(answer.floor_generation, answer.generation)
        ]
        wants = self.expected([(g, a.query) for g, a in older], mutations)
        forgiven = {id(a) for (_, a), want in zip(older, wants) if a.labels == want}
        for answer in doubtful:
            if id(answer) in forgiven:
                verdict.agreeing += 1
                verdict.straddled += 1
            elif verdict.first_mismatch is None:
                want = self.expected([(answer.generation, answer.query)], mutations)[0]
                verdict.first_mismatch = (
                    f"request {answer.request} at generation {answer.generation}: "
                    f"served {list(answer.labels)}, oracle {list(want)}, "
                    f"query[:4]={answer.query[:4].tolist()}"
                )
        return verdict
