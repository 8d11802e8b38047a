"""Websites: collections of themed pages served from named servers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import networkx as nx

from repro.net.address import IPAddress
from repro.tls.version import TLSVersion
from repro.web.page import WebPage


@dataclass(frozen=True)
class Server:
    """A content server of a website.

    ``role`` is the logical name resources refer to ("text", "media",
    "cdn-0", ...); ``pool`` groups interchangeable servers behind a load
    balancer — each page load picks one member of the pool, which is how
    the Github-like site gets its varying set of involved IPs.
    """

    role: str
    ip: IPAddress
    pool: str = ""
    certificate_chain_size: int = 3200

    def __post_init__(self) -> None:
        if not self.role:
            raise ValueError("server role must be non-empty")
        if self.certificate_chain_size <= 0:
            raise ValueError("certificate_chain_size must be positive")


class Website:
    """A website: pages sharing a theme, plus the servers that host them."""

    def __init__(
        self,
        name: str,
        tls_version: TLSVersion,
        servers: Sequence[Server],
        pages: Optional[Iterable[WebPage]] = None,
    ) -> None:
        if not name:
            raise ValueError("website name must be non-empty")
        if not servers:
            raise ValueError("a website needs at least one server")
        self.name = name
        self.tls_version = tls_version
        self._servers: Dict[str, Server] = {}
        for server in servers:
            if server.role in self._servers:
                raise ValueError(f"duplicate server role {server.role!r}")
            self._servers[server.role] = server
        self._pages: Dict[str, WebPage] = {}
        self.link_graph = nx.DiGraph()
        for page in pages or []:
            self.add_page(page)

    # ------------------------------------------------------------------ pages
    def add_page(self, page: WebPage) -> None:
        if page.page_id in self._pages:
            raise ValueError(f"duplicate page id {page.page_id!r}")
        missing = {r.server_role for r in page.resources} - set(self._servers)
        if missing:
            raise ValueError(
                f"page {page.page_id!r} references unknown server roles: {sorted(missing)}"
            )
        self._pages[page.page_id] = page
        self.link_graph.add_node(page.page_id)

    def update_page(self, page: WebPage) -> None:
        """Replace an existing page with a newer version (content update)."""
        if page.page_id not in self._pages:
            raise KeyError(f"unknown page id {page.page_id!r}")
        self._pages[page.page_id] = page

    def get_page(self, page_id: str) -> WebPage:
        try:
            return self._pages[page_id]
        except KeyError:
            raise KeyError(f"unknown page id {page_id!r}") from None

    @property
    def page_ids(self) -> List[str]:
        return list(self._pages)

    @property
    def pages(self) -> List[WebPage]:
        return list(self._pages.values())

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page_id: str) -> bool:
        return page_id in self._pages

    # ---------------------------------------------------------------- servers
    @property
    def servers(self) -> List[Server]:
        return list(self._servers.values())

    def server_for_role(self, role: str) -> Server:
        try:
            return self._servers[role]
        except KeyError:
            raise KeyError(f"unknown server role {role!r}") from None

    # ------------------------------------------------------------- link graph
    def add_link(self, src_page: str, dst_page: str) -> None:
        """Add a hyperlink between two pages (used by the HMM baseline)."""
        for page_id in (src_page, dst_page):
            if page_id not in self._pages:
                raise KeyError(f"unknown page id {page_id!r}")
        self.link_graph.add_edge(src_page, dst_page)

    def outgoing_links(self, page_id: str) -> List[str]:
        if page_id not in self._pages:
            raise KeyError(f"unknown page id {page_id!r}")
        return list(self.link_graph.successors(page_id))
