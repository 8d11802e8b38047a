"""End-to-end dataset collection: crawl a website, preprocess, label.

This is the glue the paper's Section V pipeline corresponds to — crawler
instances produce pcaps, pcaps are processed into sequences, sequences are
stored as a labelled dataset — condensed into one function call against the
synthetic substrate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.traces.dataset import TraceDataset
from repro.traces.sequences import SequenceExtractor

if TYPE_CHECKING:
    from repro.web.browser import Browser
    from repro.web.website import Website


def collect_dataset(
    website: Website,
    extractor: Optional[SequenceExtractor] = None,
    *,
    page_ids: Optional[Sequence[str]] = None,
    visits_per_page: int = 10,
    seed: int = 0,
    browser: Optional[Browser] = None,
) -> TraceDataset:
    """Crawl ``website`` and return a preprocessed, labelled dataset.

    Parameters mirror the paper's collection knobs: which pages to monitor,
    how many visits (instances) per page, and how traces are preprocessed
    (the ``extractor``).  The crawl is deterministic in ``seed``.
    """
    # The simulator (and networkx under it) loads with the first crawl, not
    # with ``import repro.traces``: a server extracting sequences never crawls.
    from repro.web.crawler import Crawler

    extractor = extractor if extractor is not None else SequenceExtractor()
    crawler = Crawler(browser=browser, seed=seed)
    captures = crawler.crawl(website, page_ids=page_ids, visits_per_page=visits_per_page)
    traces = [
        extractor.extract(
            labeled.capture,
            label=labeled.page_id,
            website=labeled.website,
            tls_version=str(website.tls_version),
        )
        for labeled in captures
    ]
    return TraceDataset.from_traces(traces, website=website.name, tls_version=str(website.tls_version))
