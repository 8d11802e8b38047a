"""Content-drift models (the "distributional shift" of Section III-B.2).

Websites update their pages: article text grows or shrinks, images are
swapped, and over many small edits a page can end up sharing almost nothing
with the version the adversary trained on.  The drift models below mutate
:class:`~repro.web.page.WebPage` objects so the experiments can study how
the attack (and the baselines) behave as the target distribution moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.web.generators import _lognormal_size
from repro.web.page import WebPage
from repro.web.resource import Resource, ResourceKind
from repro.web.website import Website


class ContentDrift:
    """Interface for page-update models."""

    def apply(self, page: WebPage, rng: np.random.Generator) -> WebPage:
        """Return an updated version of ``page`` (the input is not mutated)."""
        raise NotImplementedError

    def apply_to_website(
        self,
        website: Website,
        rng: np.random.Generator,
        fraction: float = 1.0,
    ) -> List[str]:
        """Update a random ``fraction`` of the website's pages in place.

        Returns the ids of the pages that were updated, which is what the
        adversary's adaptation process would discover by monitoring the
        site (Section IV-C).
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        page_ids = website.page_ids
        n_updates = int(round(fraction * len(page_ids)))
        if n_updates == 0:
            return []
        chosen = rng.choice(page_ids, size=n_updates, replace=False)
        updated = []
        for page_id in chosen:
            page_id = str(page_id)
            new_page = self.apply(website.get_page(page_id), rng)
            website.update_page(new_page)
            updated.append(page_id)
        return updated


@dataclass
class MinorUpdate(ContentDrift):
    """Small edits: content resource sizes change by a few percent."""

    relative_change: float = 0.05

    def __post_init__(self) -> None:
        if self.relative_change <= 0:
            raise ValueError("relative_change must be positive")

    def apply(self, page: WebPage, rng: np.random.Generator) -> WebPage:
        new_content = []
        for resource in page.content_resources:
            factor = 1.0 + float(rng.normal(0.0, self.relative_change))
            new_content.append(resource.resized(max(64, int(resource.size * factor))))
        return page.with_content(new_content)


@dataclass
class MajorUpdate(ContentDrift):
    """A rewrite: the page's content resources are replaced wholesale."""

    mean_content_bytes: float = 60_000.0
    sigma: float = 0.9
    max_images: int = 6
    image_mean_bytes: float = 35_000.0

    def apply(self, page: WebPage, rng: np.random.Generator) -> WebPage:
        roles = sorted({r.server_role for r in page.content_resources}) or ["text"]
        text_role = roles[0]
        image_role = roles[-1]
        new_content = [
            Resource(
                f"{page.page_id}-v{page.version + 1}.html",
                ResourceKind.HTML,
                _lognormal_size(rng, self.mean_content_bytes, self.sigma),
                text_role,
            )
        ]
        for index in range(int(rng.integers(0, self.max_images + 1))):
            new_content.append(
                Resource(
                    f"{page.page_id}-v{page.version + 1}-img{index}.jpg",
                    ResourceKind.IMAGE,
                    _lognormal_size(rng, self.image_mean_bytes, 0.8),
                    image_role,
                )
            )
        return page.with_content(new_content)


@dataclass
class GradualDrift(ContentDrift):
    """Many small edits applied in sequence.

    Section III-C.2 points out that pages are often replaced through small
    but frequent updates whose cumulative effect is a large distributional
    shift; ``steps`` controls how many successive minor edits are applied.
    """

    steps: int = 10
    per_step_change: float = 0.08
    replace_probability: float = 0.15

    def __post_init__(self) -> None:
        if self.steps <= 0:
            raise ValueError("steps must be positive")

    def apply(self, page: WebPage, rng: np.random.Generator) -> WebPage:
        minor = MinorUpdate(relative_change=self.per_step_change)
        major = MajorUpdate()
        current = page
        for _ in range(self.steps):
            if rng.random() < self.replace_probability:
                current = major.apply(current, rng)
            else:
                current = minor.apply(current, rng)
        return current


DRIFT_KINDS = ("minor", "major", "gradual")


def drift_from_spec(spec: Optional[Dict]) -> Optional[ContentDrift]:
    """A :class:`ContentDrift` model from a declarative spec dict.

    The scenario engine describes drift schedules as plain dicts —
    ``{"kind": "gradual", "steps": 5}`` — mirroring
    :func:`repro.defences.defence_from_spec` for defences.  ``None`` (and
    ``{"kind": "none"}``) mean "no drift".  Recognised kinds: ``"minor"``
    (``relative_change``), ``"major"`` (``mean_content_bytes``), and
    ``"gradual"`` (``steps``, ``per_step_change``, ``replace_probability``).
    Anything else raises ``ValueError`` naming the bad field.
    """
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ValueError(f"a drift spec must be a dict, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind == "none":
        return None
    if kind == "minor":
        return MinorUpdate(relative_change=float(spec.get("relative_change", 0.05)))
    if kind == "major":
        return MajorUpdate(mean_content_bytes=float(spec.get("mean_content_bytes", 60_000.0)))
    if kind == "gradual":
        return GradualDrift(
            steps=int(spec.get("steps", 10)),
            per_step_change=float(spec.get("per_step_change", 0.08)),
            replace_probability=float(spec.get("replace_probability", 0.15)),
        )
    raise ValueError(f"unknown drift kind {kind!r}; expected one of {DRIFT_KINDS}")
