"""Benchmark inputs: a fixed deployment and seeded traffic — the same seed
gives the same query pool and update stream.

Two fixtures back the four workloads.  ``wiki`` is the paper's pipeline
from the packet capture up: a ``WikipediaLikeGenerator`` site crawled for
reference visits and, separately, for the query captures the capture
workloads cycle through, embedded by a Table-I-shaped ``EmbeddingModel``
with seeded weights (serving speed does not depend on the weights being
trained).  ``clustered`` is the ``clustered_corpus`` embedding cloud
``repro serve`` itself serves, with an ``open_world_mix`` query pool.
"""

from __future__ import annotations

import io
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.embedding import EmbeddingModel
from repro.core.index_bench import clustered_corpus
from repro.core.kernels import ivfpq_kernels
from repro.serving.loadgen import open_world_mix
from repro.traces import SequenceExtractor
from repro.web import WikipediaLikeGenerator
from repro.web.crawler import Crawler

# The deployment — the monitored site, the embedding model and the reference
# corpus — is the same for every seed; the seed draws the traffic sent at it
# (query visits, query mix, update stream).  Page sizes are heavy-tailed, so
# a per-seed site made extraction cost, and with it bulk throughput, swing
# by a third between seeds, which would drown any change being measured.
DEPLOYMENT_SEED = 0

# The scheduler's cache key rounds embeddings to this many decimals
# (BatchScheduler(cache_decimals=6), the program default).
CACHE_DECIMALS = 6

# How many rows each replace_class update carries (one class's references).
UPDATE_ROWS = 50

SIZES: Dict[str, Dict[str, int]] = {
    # wiki: 200 pages x 10 reference visits = 2 000 refs, 600 query captures.
    # clustered: 10 000 refs in 200 classes of 50; the query pool is larger
    # than the server's 4 096-entry result cache, so cycling it can never
    # turn into LRU hits — only the mix's own revisits can.
    "full": dict(wiki_pages=200, wiki_visits=10, wiki_query_visits=3,
                 clustered_n=10_000, clustered_classes=200, clustered_pool=6144),
    "smoke": dict(wiki_pages=24, wiki_visits=4, wiki_query_visits=2,
                  clustered_n=2_000, clustered_classes=40, clustered_pool=512),
}


@dataclass
class Fixture:
    """One deployment's references plus the traffic to send at it."""

    name: str
    references: np.ndarray  # (N, dim) float64
    labels: List[str]
    # Pre-embedded queries, already float32-rounded as the wire rounds them.
    queries: np.ndarray
    build_s: float
    duplicate_embedding_share: float
    # Capture workloads only: the query pool as PacketCaptures and the
    # client pipeline that turns them into embeddings.
    captures: Optional[list] = None
    extractor: Optional[SequenceExtractor] = None
    model: Optional[EmbeddingModel] = None


    def deployment_npz(self) -> bytes:
        """References and labels as the ``.npz`` the server subprocess loads."""
        buffer = io.BytesIO()
        np.savez(buffer, references=self.references, labels=np.array(self.labels))
        return buffer.getvalue()


def embed_captures(
    extractor: SequenceExtractor, model: EmbeddingModel, captures: list
) -> np.ndarray:
    """The public client pipeline, capture -> embedding:
    ``SequenceExtractor.extract_array`` -> ``EmbeddingModel.embed``."""
    arrays = np.stack([extractor.extract_array(capture) for capture in captures])
    return model.embed(arrays.transpose(0, 2, 1))


def wire_rounded(embeddings: np.ndarray) -> np.ndarray:
    """What the server classifies after the float32 QUERY frame."""
    return np.ascontiguousarray(embeddings, dtype="<f4").astype(np.float64)


def duplicate_share(queries: np.ndarray) -> float:
    """Share of queries whose scheduler cache key repeats an earlier one."""
    keys = {(np.round(row, CACHE_DECIMALS) + 0.0).tobytes() for row in queries}
    return 1.0 - len(keys) / len(queries)


def build_wiki(seed: int, size: Dict[str, int]) -> Fixture:
    """Crawl a Wikipedia-like site: reference visits and query captures."""
    start = time.perf_counter()
    site = WikipediaLikeGenerator(n_pages=size["wiki_pages"], seed=DEPLOYMENT_SEED).generate()
    extractor, model = SequenceExtractor(3, 40), EmbeddingModel(3, seed=DEPLOYMENT_SEED)
    crawled = Crawler(seed=DEPLOYMENT_SEED + 1).crawl(site, visits_per_page=size["wiki_visits"])
    visits = Crawler(seed=seed + 2).crawl(site, visits_per_page=size["wiki_query_visits"])
    captures = [visit.capture for visit in visits]
    queries = wire_rounded(embed_captures(extractor, model, captures))
    return Fixture(
        name="wiki",
        references=embed_captures(extractor, model, [visit.capture for visit in crawled]),
        labels=[visit.page_id for visit in crawled],
        queries=queries,
        build_s=time.perf_counter() - start,
        duplicate_embedding_share=duplicate_share(queries),
        captures=captures, extractor=extractor, model=model,
    )


def build_clustered(seed: int, size: Dict[str, int]) -> Fixture:
    """The corpus ``repro serve`` serves plus an open-world query mix."""
    start = time.perf_counter()
    n, classes = size["clustered_n"], size["clustered_classes"]
    references = clustered_corpus(n, 32, n_clusters=classes, seed=DEPLOYMENT_SEED)
    labels = [f"page-{row % classes:04d}" for row in range(n)]
    queries, _ = open_world_mix(
        references, size["clustered_pool"], unmonitored_fraction=0.2, revisit_fraction=0.1,
        class_mix="zipf", reference_labels=labels, seed=seed + 1,
    )
    queries = wire_rounded(queries)
    # Compile-on-first-use: build the scan kernels here so that no
    # server start-up (setup_s) ever contains a cc run.
    ivfpq_kernels()
    return Fixture(
        name="clustered", references=references, labels=labels, queries=queries,
        build_s=time.perf_counter() - start,
        duplicate_embedding_share=duplicate_share(queries),
    )


BUILDERS = {"wiki": build_wiki, "clustered": build_clustered}


def update_stream(fixture: Fixture, seed: int) -> Iterator[Tuple[str, np.ndarray]]:
    """Endless page updates: a class and its fresh reference rows.

    Classes are visited in a seeded order; the new rows are the class's
    original references moved by a little noise, as a re-crawled page is.
    """
    rng = np.random.default_rng(seed + 3)
    classes = sorted(set(fixture.labels))
    labels = np.asarray(fixture.labels)
    while True:
        for position in rng.permutation(len(classes)):
            rows = fixture.references[labels == classes[position]][:UPDATE_ROWS]
            yield classes[position], rows + 0.05 * rng.standard_normal(rows.shape)
