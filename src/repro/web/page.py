"""Web pages: a shared template plus page-specific content resources."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.web.resource import Resource


@dataclass
class WebPage:
    """A single webpage of a website.

    ``template_resources`` are shared with every other page of the site
    (stylesheets, scripts, logo images); ``content_resources`` are unique to
    this page (the article text, the page's own images).  This split
    directly models the "shared resources" property the paper highlights as
    what makes *webpage* fingerprinting harder than *website*
    fingerprinting.
    """

    page_id: str
    url: str
    template_resources: List[Resource] = field(default_factory=list)
    content_resources: List[Resource] = field(default_factory=list)
    version: int = 0

    def __post_init__(self) -> None:
        if not self.page_id:
            raise ValueError("page_id must be non-empty")
        if not self.url:
            raise ValueError("url must be non-empty")

    @property
    def resources(self) -> List[Resource]:
        """All resources fetched when loading the page (template first)."""
        return list(self.template_resources) + list(self.content_resources)

    @property
    def total_bytes(self) -> int:
        return sum(r.size for r in self.resources)

    @property
    def unique_bytes(self) -> int:
        """Bytes unique to this page (excludes the shared template)."""
        return sum(r.size for r in self.content_resources)

    def with_content(self, content_resources: List[Resource]) -> "WebPage":
        """A new version of the page with replaced content resources."""
        return WebPage(
            page_id=self.page_id,
            url=self.url,
            template_resources=list(self.template_resources),
            content_resources=list(content_resources),
            version=self.version + 1,
        )
