"""Micro-benchmarks for the pipeline's per-component throughput.

These are the classic pytest-benchmark timings (many rounds, statistics)
for the operations whose cost the paper quotes: embedding + classifying a
single captured trace ("≤ 2 seconds per sample inference", Section VI-B),
preprocessing a capture into sequences, simulating a page load and the
adaptation step (swap one class's references).
"""

import numpy as np
import pytest

from repro.traces import Trace


@pytest.fixture(scope="module")
def initialized(context):
    """The shared fingerprinter initialised on the smallest known slice."""
    n_classes = min(context.scale.exp1_class_counts)
    reference, test = context.slice_known(n_classes)
    context.fingerprinter.initialize(reference)
    return context, reference, test


def test_micro_single_trace_inference(benchmark, initialized):
    """Embedding + k-NN classification of one captured trace."""
    context, _, test = initialized
    trace = Trace(label=test.label_name(test.labels[0]), website="w", sequences=test.data[0])
    prediction = benchmark(lambda: context.fingerprinter.fingerprint(trace))
    assert prediction.ranked_labels
    # The paper reports <= 2 s per sample on their hardware; the reproduction
    # must comfortably meet the same budget.
    assert benchmark.stats.stats.mean < 2.0


def test_micro_batch_embedding_throughput(benchmark, initialized):
    """Embedding a full batch of traces through the LSTM + dense network."""
    context, reference, _ = initialized
    inputs = reference.model_inputs()
    embeddings = benchmark(lambda: context.fingerprinter.model.embed(inputs))
    assert embeddings.shape[0] == len(reference)


def test_micro_preprocessing_capture(benchmark, context):
    """Converting one packet capture into fixed-shape per-IP sequences."""
    from repro.web import Crawler

    website_pages = context.wiki_split.set_a.class_names
    crawler = Crawler(seed=5)
    from repro.web.generators import WikipediaLikeGenerator
    from repro.experiments.setup import WIKI_SEED

    site = WikipediaLikeGenerator(
        n_pages=context.scale.train_classes + max(context.scale.exp2_class_counts), seed=WIKI_SEED
    ).generate()
    labeled = crawler.crawl_single(site, website_pages[0], visit=0)
    array = benchmark(lambda: context.extractor.extract_array(labeled.capture))
    assert array.shape == (3, context.wiki_dataset.sequence_length)


def test_micro_page_load_simulation(benchmark, context):
    """One simulated browser page load over the TLS substrate."""
    from repro.web import Browser
    from repro.web.generators import WikipediaLikeGenerator
    from repro.experiments.setup import WIKI_SEED

    site = WikipediaLikeGenerator(n_pages=5, seed=WIKI_SEED).generate()
    browser = Browser()
    rng = np.random.default_rng(0)
    result = benchmark(lambda: browser.load(site, site.page_ids[0], rng))
    assert result.capture.total_bytes > 0


def test_micro_adaptation_step(benchmark, initialized):
    """Swapping one class's reference samples (the paper's cheap update)."""
    context, reference, _ = initialized
    label = reference.class_names[0]
    indices = np.flatnonzero(reference.labels == 0)
    traces = [Trace(label=label, website="w", sequences=reference.data[i]) for i in indices]
    benchmark(lambda: context.fingerprinter.adapt(traces, replace=True))
    assert label in context.fingerprinter.reference_store.class_names
