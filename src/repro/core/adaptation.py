"""The adaptation process (Section IV-C).

The adversary periodically probes the monitored pages: each page is loaded
once, fingerprinted, and if the deployment no longer recognises it with the
expected confidence the page's reference samples are refreshed with freshly
crawled traces.  The policy never retrains the embedding model — that is
the operational-cost advantage quantified in Table III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.fingerprinter import AdaptiveFingerprinter
from repro.traces.sequences import SequenceExtractor
from repro.web.crawler import Crawler
from repro.web.website import Website


@dataclass
class AdaptationReport:
    """Outcome of one adaptation round."""

    probed_pages: List[str] = field(default_factory=list)
    refreshed_pages: List[str] = field(default_factory=list)
    added_pages: List[str] = field(default_factory=list)
    probe_hits: Dict[str, bool] = field(default_factory=dict)

    @property
    def refresh_fraction(self) -> float:
        if not self.probed_pages:
            return 0.0
        return len(self.refreshed_pages) / len(self.probed_pages)


@dataclass
class AdaptationPolicy:
    """Probe-and-refresh policy for keeping the reference corpus current.

    Parameters
    ----------
    probe_top_n:
        The probe counts as a success if the page's true label appears in
        the top ``probe_top_n`` predictions for the probe trace.
    refresh_samples:
        How many fresh traces to collect for a page whose probe failed.
    """

    probe_top_n: int = 3
    refresh_samples: int = 10

    def __post_init__(self) -> None:
        if self.probe_top_n <= 0:
            raise ValueError("probe_top_n must be positive")
        if self.refresh_samples <= 0:
            raise ValueError("refresh_samples must be positive")

    def run(
        self,
        fingerprinter: AdaptiveFingerprinter,
        website: Website,
        crawler: Crawler,
        *,
        pages: Optional[Sequence[str]] = None,
        extractor: Optional[SequenceExtractor] = None,
        visit_offset: int = 0,
    ) -> AdaptationReport:
        """Probe the monitored pages and refresh those that drifted.

        Pages present on the website but absent from the reference store are
        treated as newly published pages and added outright.
        """
        extractor = extractor if extractor is not None else fingerprinter.extractor
        page_ids = list(pages) if pages is not None else website.page_ids
        report = AdaptationReport()

        for index, page_id in enumerate(page_ids):
            # Membership check against the current store (every adapt
            # swaps in a new one); pages added earlier in this same round
            # count as monitored.
            if not fingerprinter.reference_store.has_class(page_id):
                traces = self._collect(website, crawler, extractor, page_id, visit_offset + index)
                fingerprinter.adapt(traces, replace=False)
                report.added_pages.append(page_id)
                continue

            probe = crawler.crawl_single(website, page_id, visit=visit_offset + index)
            probe_trace = extractor.extract(probe.capture, label=page_id, website=website.name)
            prediction = fingerprinter.fingerprint(probe_trace)
            hit = prediction.contains(page_id, self.probe_top_n)
            report.probed_pages.append(page_id)
            report.probe_hits[page_id] = hit
            if not hit:
                traces = self._collect(website, crawler, extractor, page_id, visit_offset + index + 1)
                fingerprinter.adapt(traces, replace=True)
                report.refreshed_pages.append(page_id)
        return report

    def _collect(
        self,
        website: Website,
        crawler: Crawler,
        extractor: SequenceExtractor,
        page_id: str,
        visit_offset: int,
    ):
        traces = []
        for visit in range(self.refresh_samples):
            labeled = crawler.crawl_single(website, page_id, visit=visit_offset * 100 + visit)
            traces.append(extractor.extract(labeled.capture, label=page_id, website=website.name))
        return traces
