"""Miller et al.'s user-journey HMM (PETS 2014).

A per-page classifier assigns each observed page load a distribution over
candidate pages; a hidden Markov model whose transition structure is the
website's hyperlink graph then decodes the most likely *sequence* of pages
(the "user journey"), exploiting the fact that consecutive page loads are
not independent.  The paper compares against this system both for accuracy
on 500-page sets and for its retraining cost under content drift.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.web.website import Website


class UserJourneyHMM:
    """Viterbi decoding of page-load journeys over a website's link graph."""

    def __init__(self, website: Website, self_transition: float = 0.05, smoothing: float = 1e-3) -> None:
        if not 0.0 <= self_transition < 1.0:
            raise ValueError("self_transition must be in [0, 1)")
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        self.website = website
        self.states: List[str] = list(website.page_ids)
        if not self.states:
            raise ValueError("website has no pages")
        self._state_index = {page: index for index, page in enumerate(self.states)}
        self.self_transition = float(self_transition)
        self.smoothing = float(smoothing)
        self._transition = self._build_transition_matrix()
        self._initial = np.full(len(self.states), 1.0 / len(self.states))

    # ------------------------------------------------------------------ model
    def _build_transition_matrix(self) -> np.ndarray:
        n = len(self.states)
        matrix = np.full((n, n), self.smoothing)
        for src in self.states:
            src_index = self._state_index[src]
            links = [dst for dst in self.website.outgoing_links(src) if dst in self._state_index]
            matrix[src_index, src_index] += self.self_transition
            if links:
                share = (1.0 - self.self_transition) / len(links)
                for dst in links:
                    matrix[src_index, self._state_index[dst]] += share
            else:
                # Dead-end pages: the user may jump anywhere (e.g. via search).
                matrix[src_index, :] += (1.0 - self.self_transition) / n
        return matrix / matrix.sum(axis=1, keepdims=True)

    # ----------------------------------------------------------------- decode
    def decode(self, emission_scores: np.ndarray) -> List[str]:
        """Most likely page sequence for per-load emission scores.

        ``emission_scores`` has shape ``(journey_length, n_pages)`` where
        each row holds the per-page scores (e.g. classifier probabilities)
        of one observed page load, in the order of :attr:`states`.
        """
        scores = np.asarray(emission_scores, dtype=np.float64)
        if scores.ndim != 2 or scores.shape[1] != len(self.states):
            raise ValueError(
                f"emission_scores must have shape (T, {len(self.states)}), got {scores.shape}"
            )
        scores = np.clip(scores, 1e-12, None)
        scores = scores / scores.sum(axis=1, keepdims=True)

        log_transition = np.log(self._transition)
        log_emission = np.log(scores)
        steps, n = scores.shape
        viterbi = np.full((steps, n), -np.inf)
        backpointer = np.zeros((steps, n), dtype=np.int64)
        viterbi[0] = np.log(self._initial) + log_emission[0]
        for t in range(1, steps):
            candidate = viterbi[t - 1][:, None] + log_transition
            backpointer[t] = candidate.argmax(axis=0)
            viterbi[t] = candidate.max(axis=0) + log_emission[t]

        path = np.zeros(steps, dtype=np.int64)
        path[-1] = int(viterbi[-1].argmax())
        for t in range(steps - 2, -1, -1):
            path[t] = backpointer[t + 1, path[t + 1]]
        return [self.states[index] for index in path]

    # ------------------------------------------------------------- simulation
    def sample_journey(self, length: int, rng: np.random.Generator, start: Optional[str] = None) -> List[str]:
        """Sample a browsing journey by walking the link graph."""
        if length <= 0:
            raise ValueError("length must be positive")
        current = start if start is not None else self.states[int(rng.integers(0, len(self.states)))]
        if current not in self._state_index:
            raise KeyError(f"unknown start page {current!r}")
        journey = [current]
        for _ in range(length - 1):
            row = self._transition[self._state_index[current]]
            current = self.states[int(rng.choice(len(self.states), p=row))]
            journey.append(current)
        return journey
