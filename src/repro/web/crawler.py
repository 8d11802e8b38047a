"""The adversary's crawler: repeated, labelled page loads.

The paper's crawlers (100 EC2 instances) visit each URL in a shuffled order
and store one pcap per visit.  :class:`Crawler` does the same against a
synthetic website, producing :class:`LabeledCapture` objects the trace
pipeline turns into training/reference data.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.net.capture import PacketCapture
from repro.web.browser import Browser
from repro.web.website import Website


@dataclass
class LabeledCapture:
    """A single labelled page-load capture (one pcap in the paper's terms)."""

    page_id: str
    capture: PacketCapture
    visit: int
    website: str


class Crawler:
    """Visits a list of pages repeatedly and labels the resulting captures."""

    def __init__(self, browser: Optional[Browser] = None, seed: int = 0) -> None:
        self.browser = browser if browser is not None else Browser()
        self.seed = int(seed)

    def crawl(
        self,
        website: Website,
        page_ids: Optional[Sequence[str]] = None,
        visits_per_page: int = 10,
    ) -> List[LabeledCapture]:
        """Crawl ``page_ids`` (default: all pages) ``visits_per_page`` times.

        Every visit round shuffles the page order, like the paper's crawler
        instances, so consecutive captures of the same page are separated in
        time and interleaved with other pages.
        """
        if visits_per_page <= 0:
            raise ValueError("visits_per_page must be positive")
        ids = list(page_ids) if page_ids is not None else website.page_ids
        unknown = [p for p in ids if p not in website]
        if unknown:
            raise KeyError(f"unknown page ids: {unknown[:5]}")
        rng = np.random.default_rng(self.seed)
        captures: List[LabeledCapture] = []
        for visit in range(visits_per_page):
            order = [ids[i] for i in rng.permutation(len(ids))]
            for page_id in order:
                result = self.browser.load(website, page_id, rng)
                captures.append(
                    LabeledCapture(
                        page_id=page_id,
                        capture=result.capture,
                        visit=visit,
                        website=website.name,
                    )
                )
        return captures

    def crawl_single(self, website: Website, page_id: str, visit: int = 0) -> LabeledCapture:
        """One labelled load of one page (used by the adaptation process)."""
        # crc32, not hash(): str hashes are salted per process, and the same
        # seed must give the same capture in every run.
        page_offset = zlib.crc32(page_id.encode()) % 1_000_000
        rng = np.random.default_rng(self.seed + visit * 1_000_003 + page_offset)
        result = self.browser.load(website, page_id, rng)
        return LabeledCapture(page_id=page_id, capture=result.capture, visit=visit, website=website.name)
