"""Tests for the synthetic web substrate."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net import AddressAllocator, IPAddress
from repro.tls import TLSVersion
from repro.web import (
    Browser,
    Crawler,
    GithubLikeGenerator,
    GradualDrift,
    MajorUpdate,
    MinorUpdate,
    Resource,
    ResourceKind,
    Server,
    WebPage,
    Website,
    WikipediaLikeGenerator,
)


def make_simple_website():
    allocator = AddressAllocator()
    servers = [
        Server("text", allocator.allocate()),
        Server("media", allocator.allocate()),
    ]
    template = [Resource("theme.css", ResourceKind.STYLESHEET, 10_000, "text", shared=True)]
    pages = [
        WebPage(
            page_id=f"p{i}",
            url=f"https://example.org/p{i}",
            template_resources=template,
            content_resources=[
                Resource(f"p{i}.html", ResourceKind.HTML, 20_000 + i * 5_000, "text"),
                Resource(f"p{i}.jpg", ResourceKind.IMAGE, 30_000 + i * 7_000, "media"),
            ],
        )
        for i in range(4)
    ]
    return Website("example", TLSVersion.TLS_1_2, servers, pages)


class TestResource:
    def test_valid_resource(self):
        r = Resource("a.css", ResourceKind.STYLESHEET, 100, "text")
        assert r.size == 100 and not r.shared

    def test_invalid_resources(self):
        with pytest.raises(ValueError):
            Resource("a", ResourceKind.HTML, -1, "text")
        with pytest.raises(ValueError):
            Resource("", ResourceKind.HTML, 1, "text")
        with pytest.raises(ValueError):
            Resource("a", ResourceKind.HTML, 1, "")
        with pytest.raises(ValueError):
            Resource("a", ResourceKind.HTML, 1, "text", request_size=0)

    def test_resized_preserves_other_fields(self):
        r = Resource("a.jpg", ResourceKind.IMAGE, 100, "media", shared=True)
        r2 = r.resized(250)
        assert r2.size == 250 and r2.shared and r2.name == "a.jpg"


class TestWebPage:
    def test_totals_and_shared_fraction(self):
        page = make_simple_website().get_page("p0")
        assert page.total_bytes == 10_000 + 20_000 + 30_000
        assert page.unique_bytes == 50_000
        assert page.shared_fraction == pytest.approx(10_000 / 60_000)

    def test_bytes_by_server_and_kind(self):
        page = make_simple_website().get_page("p1")
        by_server = page.bytes_by_server()
        assert set(by_server) == {"text", "media"}
        by_kind = page.bytes_by_kind()
        assert ResourceKind.HTML in by_kind

    def test_with_content_bumps_version(self):
        page = make_simple_website().get_page("p0")
        updated = page.with_content([Resource("new.html", ResourceKind.HTML, 123, "text")])
        assert updated.version == page.version + 1
        assert updated.unique_bytes == 123
        assert updated.signature() != page.signature()

    def test_invalid_page(self):
        with pytest.raises(ValueError):
            WebPage(page_id="", url="https://x")
        with pytest.raises(ValueError):
            WebPage(page_id="p", url="")

    def test_empty_page_shared_fraction(self):
        page = WebPage(page_id="p", url="u")
        assert page.shared_fraction == 0.0


class TestWebsite:
    def test_page_management(self):
        site = make_simple_website()
        assert len(site) == 4
        assert "p0" in site
        site.remove_page("p0")
        assert "p0" not in site
        with pytest.raises(KeyError):
            site.get_page("p0")

    def test_duplicate_page_rejected(self):
        site = make_simple_website()
        with pytest.raises(ValueError):
            site.add_page(site.get_page("p1"))

    def test_unknown_server_role_rejected(self):
        site = make_simple_website()
        bad = WebPage(
            page_id="bad",
            url="https://example.org/bad",
            content_resources=[Resource("x.html", ResourceKind.HTML, 1, "nonexistent")],
        )
        with pytest.raises(ValueError):
            site.add_page(bad)

    def test_duplicate_server_role_rejected(self):
        allocator = AddressAllocator()
        with pytest.raises(ValueError):
            Website(
                "dup",
                TLSVersion.TLS_1_2,
                [Server("text", allocator.allocate()), Server("text", allocator.allocate())],
            )

    def test_requires_servers_and_name(self):
        with pytest.raises(ValueError):
            Website("x", TLSVersion.TLS_1_2, [])
        with pytest.raises(ValueError):
            Website("", TLSVersion.TLS_1_2, [Server("a", IPAddress("10.0.0.1"))])

    def test_link_graph(self):
        site = make_simple_website()
        site.add_link("p0", "p1")
        site.add_link("p0", "p2")
        assert set(site.outgoing_links("p0")) == {"p1", "p2"}
        with pytest.raises(KeyError):
            site.add_link("p0", "unknown")

    def test_update_page(self):
        site = make_simple_website()
        page = site.get_page("p2")
        site.update_page(page.with_content([Resource("new.html", ResourceKind.HTML, 1, "text")]))
        assert site.get_page("p2").version == 1
        with pytest.raises(KeyError):
            site.update_page(WebPage(page_id="ghost", url="u"))

    def test_statistics(self):
        site = make_simple_website()
        assert site.max_page_bytes() >= site.mean_page_bytes() > 0


class TestGenerators:
    def test_wikipedia_like_structure(self):
        site = WikipediaLikeGenerator(n_pages=20, seed=1).generate()
        assert len(site) == 20
        assert site.tls_version is TLSVersion.TLS_1_2
        assert {s.role for s in site.servers} == {"text", "media"}
        # All pages share the same template resources.
        signatures = {tuple(r.name for r in p.template_resources) for p in site.pages}
        assert len(signatures) == 1
        # Pages have different content.
        assert len({p.signature() for p in site.pages}) == 20

    def test_wikipedia_like_deterministic(self):
        a = WikipediaLikeGenerator(n_pages=10, seed=7).generate()
        b = WikipediaLikeGenerator(n_pages=10, seed=7).generate()
        assert [p.signature() for p in a.pages] == [p.signature() for p in b.pages]

    def test_wikipedia_like_seed_changes_content(self):
        a = WikipediaLikeGenerator(n_pages=10, seed=1).generate()
        b = WikipediaLikeGenerator(n_pages=10, seed=2).generate()
        assert [p.signature() for p in a.pages] != [p.signature() for p in b.pages]

    def test_github_like_structure(self):
        site = GithubLikeGenerator(n_pages=15, seed=3, cdn_pool_size=3, external_hosts=2).generate()
        assert site.tls_version is TLSVersion.TLS_1_3
        roles = {s.role for s in site.servers}
        assert "web" in roles and "cdn-0" in roles and "external-0" in roles
        pools = {s.pool for s in site.servers if s.pool}
        assert pools == {"cdn"}

    def test_generators_reject_bad_parameters(self):
        with pytest.raises(ValueError):
            WikipediaLikeGenerator(n_pages=0).generate()
        with pytest.raises(ValueError):
            GithubLikeGenerator(n_pages=0).generate()
        with pytest.raises(ValueError):
            GithubLikeGenerator(n_pages=5, cdn_pool_size=0).generate()

    def test_link_graph_present(self):
        site = WikipediaLikeGenerator(n_pages=12, seed=5).generate()
        assert any(site.outgoing_links(p) for p in site.page_ids)


class TestUpdates:
    def test_minor_update_changes_sizes_slightly(self):
        site = make_simple_website()
        page = site.get_page("p0")
        rng = np.random.default_rng(0)
        updated = MinorUpdate(relative_change=0.05).apply(page, rng)
        assert updated.version == page.version + 1
        assert updated.total_bytes != page.total_bytes
        assert abs(updated.unique_bytes - page.unique_bytes) < 0.5 * page.unique_bytes

    def test_major_update_replaces_content(self):
        site = make_simple_website()
        page = site.get_page("p1")
        rng = np.random.default_rng(1)
        updated = MajorUpdate().apply(page, rng)
        old_names = {r.name for r in page.content_resources}
        new_names = {r.name for r in updated.content_resources}
        assert old_names.isdisjoint(new_names)
        assert updated.template_resources == page.template_resources

    def test_gradual_drift_accumulates(self):
        site = make_simple_website()
        page = site.get_page("p2")
        rng = np.random.default_rng(2)
        drifted = GradualDrift(steps=15, per_step_change=0.1).apply(page, rng)
        assert drifted.version >= page.version + 15

    def test_apply_to_website_fraction(self):
        site = WikipediaLikeGenerator(n_pages=20, seed=1).generate()
        rng = np.random.default_rng(3)
        updated = MinorUpdate().apply_to_website(site, rng, fraction=0.5)
        assert len(updated) == 10
        assert all(site.get_page(p).version == 1 for p in updated)

    def test_apply_to_website_invalid_fraction(self):
        site = make_simple_website()
        with pytest.raises(ValueError):
            MinorUpdate().apply_to_website(site, np.random.default_rng(0), fraction=1.5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MinorUpdate(relative_change=0.0)
        with pytest.raises(ValueError):
            GradualDrift(steps=0)


class TestBrowserAndCrawler:
    def test_page_load_produces_capture(self):
        site = WikipediaLikeGenerator(n_pages=5, seed=1).generate()
        browser = Browser()
        result = browser.load(site, site.page_ids[0], np.random.default_rng(0))
        assert result.capture.total_bytes > site.get_page(site.page_ids[0]).total_bytes
        assert len(result.servers_contacted) >= 1
        assert result.duration > 0

    def test_wikipedia_load_contacts_two_servers(self):
        site = WikipediaLikeGenerator(n_pages=5, seed=2).generate()
        # Pick a page with at least one image so both servers are used.
        page = next(p for p in site.pages if any(r.server_role == "media" for r in p.content_resources))
        result = Browser().load(site, page.page_id, np.random.default_rng(1))
        assert len(result.servers_contacted) == 2

    def test_github_load_server_count_varies(self):
        site = GithubLikeGenerator(n_pages=10, seed=4).generate()
        browser = Browser()
        counts = set()
        for i, page_id in enumerate(site.page_ids):
            result = browser.load(site, page_id, np.random.default_rng(i))
            counts.add(len(result.servers_contacted))
        assert len(counts) > 1

    def test_incognito_vs_warm_cache(self):
        site = WikipediaLikeGenerator(n_pages=3, seed=5).generate()
        page_id = site.page_ids[0]
        cold = Browser(incognito=True).load(site, page_id, np.random.default_rng(7))
        warm = Browser(incognito=False).load(site, page_id, np.random.default_rng(7))
        assert warm.capture.total_bytes < cold.capture.total_bytes

    def test_unknown_page_raises(self):
        site = make_simple_website()
        with pytest.raises(KeyError):
            Browser().load(site, "nope", np.random.default_rng(0))

    def test_crawler_produces_labeled_captures(self):
        site = WikipediaLikeGenerator(n_pages=4, seed=6).generate()
        crawler = Crawler(seed=1)
        captures = crawler.crawl(site, visits_per_page=3)
        assert len(captures) == 12
        labels = {c.page_id for c in captures}
        assert labels == set(site.page_ids)
        assert all(c.website == site.name for c in captures)

    def test_crawler_unknown_page_rejected(self):
        site = make_simple_website()
        with pytest.raises(KeyError):
            Crawler().crawl(site, page_ids=["ghost"], visits_per_page=1)

    def test_crawler_invalid_visits(self):
        site = make_simple_website()
        with pytest.raises(ValueError):
            Crawler().crawl(site, visits_per_page=0)

    def test_crawl_single(self):
        site = make_simple_website()
        labeled = Crawler(seed=2).crawl_single(site, "p0", visit=5)
        assert labeled.page_id == "p0" and labeled.visit == 5

    def test_crawl_single_is_the_same_in_every_process(self):
        """Same seed => same rows: str hashes are salted per process, so
        the per-page RNG offset must not come from ``hash(page_id)``."""
        probe = (
            "from repro.web import Crawler, WikipediaLikeGenerator\n"
            "site = WikipediaLikeGenerator(n_pages=5, seed=1).generate()\n"
            "visit = Crawler(seed=2).crawl_single(site, 'article-00000', visit=5)\n"
            "print([packet.size for packet in visit.capture.packets])\n"
        )
        sizes = [
            subprocess.run(
                [sys.executable, "-c", probe],
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, timeout=60, check=True,
            ).stdout
            for hash_seed in ("1", "2")
        ]
        assert len(sizes[0]) > 100  # a real capture, not an empty list
        assert sizes[0] == sizes[1]

    def test_repeated_loads_differ_but_same_magnitude(self):
        site = WikipediaLikeGenerator(n_pages=3, seed=8).generate()
        page_id = site.page_ids[0]
        browser = Browser()
        a = browser.load(site, page_id, np.random.default_rng(100)).capture
        b = browser.load(site, page_id, np.random.default_rng(200)).capture
        assert a.total_bytes != b.total_bytes
        assert abs(a.total_bytes - b.total_bytes) < 0.2 * max(a.total_bytes, b.total_bytes)
