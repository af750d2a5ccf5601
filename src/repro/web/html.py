"""Minimal HTML model: generation and image extraction.

§2: "the HTML language allows the information to be presented in a
platform-independent but still well-formatted manner."  The workload
model needs just enough HTML to be honest about it: pages are generated
as real markup, and the browser model *parses* that markup to discover
the inline images it must fetch — the paper's "number of simultaneous
connections … one for each graphics image on the page".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

__all__ = ["HTMLPage", "render_page", "extract_images"]

_IMG_RE = re.compile(r"<img\b[^>]*\bsrc=\"([^\"]+)\"", re.IGNORECASE)


@dataclass
class HTMLPage:
    """A generated HTML document."""

    path: str
    title: str
    images: list[str] = field(default_factory=list)
    links: list[str] = field(default_factory=list)
    text_bytes: int = 2048   # body prose, as padding

    def render(self) -> str:
        return render_page(self.title, self.images, self.links,
                           self.text_bytes)


def render_page(title: str, images: Iterable[str] = (),
                links: Iterable[str] = (), text_bytes: int = 2048) -> str:
    """Produce real 1996-vintage markup for a page."""
    if text_bytes < 0:
        raise ValueError(f"negative text_bytes: {text_bytes}")
    parts = [
        "<!DOCTYPE HTML PUBLIC \"-//IETF//DTD HTML 2.0//EN\">",
        "<html><head>",
        f"<title>{title}</title>",
        "</head><body>",
        f"<h1>{title}</h1>",
    ]
    for src in images:
        parts.append(f"<p><img src=\"{src}\" alt=\"map\"></p>")
    for href in links:
        parts.append(f"<p><a href=\"{href}\">{href}</a></p>")
    filler = "The Alexandria Digital Library provides spatially-indexed " \
             "access to maps and imagery. "
    body = (filler * (text_bytes // len(filler) + 1))[:text_bytes]
    parts.append(f"<p>{body}</p>")
    parts.append("</body></html>")
    return "\n".join(parts)


def extract_images(html: str) -> list[str]:
    """The image URLs a browser would fetch after loading this page."""
    return _IMG_RE.findall(html)
