"""Document corpora: what the server serves.

The paper's experiments use three shapes of content, all provided here:

* **uniform** — every file the same size (Table 1, 2 and 4 use 1 KB and
  1.5 MB corpora);
* **bimodal (non-uniform)** — "sizes varying from short, approximately 100
  bytes, to relatively long, approximately 1.5 MB" (Table 3);
* **single hot file** — "each client accessed the same file located on a
  single server" (the §4.2 skewed test).

Plus an Alexandria-Digital-Library-flavoured corpus for the examples:
map thumbnails, full-resolution aerial photographs, metadata pages and
spatial-query CGIs — the workload §1 motivates SWEB with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from ..sim import RandomStreams

if TYPE_CHECKING:  # pragma: no cover
    from ..core.sweb import SWEBCluster

__all__ = [
    "Document",
    "CGISpec",
    "Corpus",
    "uniform_corpus",
    "single_hot_file",
    "adl_corpus",
    "KB",
    "MB",
]

KB = 1e3
MB = 1e6


@dataclass(frozen=True)
class Document:
    """One static file and its placement."""

    path: str
    size: float
    home: int


@dataclass(frozen=True)
class CGISpec:
    """One CGI program in a corpus."""

    path: str
    cpu_ops: float
    output_bytes: float
    reads_path: Optional[str] = None


@dataclass
class Corpus:
    """A set of documents (and optional CGIs) ready to install."""

    name: str
    documents: list[Document] = field(default_factory=list)
    cgis: list[CGISpec] = field(default_factory=list)
    #: real HTML markup by path, for pages browsers will parse
    markup: dict[str, str] = field(default_factory=dict)

    def install(self, cluster: "SWEBCluster") -> None:
        """Place every file and register every CGI on the cluster."""
        for doc in self.documents:
            cluster.add_file(doc.path, doc.size, home=doc.home)
        for cgi in self.cgis:
            cluster.add_cgi(cgi.path, cgi.cpu_ops, cgi.output_bytes,
                            reads_path=cgi.reads_path)
        if self.markup:
            cluster.page_markup.update(self.markup)

    @property
    def paths(self) -> list[str]:
        return [d.path for d in self.documents]

    @property
    def total_bytes(self) -> float:
        return sum(d.size for d in self.documents)

    def __len__(self) -> int:
        return len(self.documents)


def _place(i: int, n_nodes: int, placement, rng: Optional[RandomStreams]) -> int:
    """Resolve a placement strategy to a home node for document ``i``."""
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    if isinstance(placement, int):
        return placement % n_nodes
    if placement == "round-robin":
        return i % n_nodes
    if placement == "random":
        if rng is None:
            raise ValueError("random placement needs an rng")
        return rng.integers("placement", 0, n_nodes)
    if callable(placement):
        return placement(i) % n_nodes
    raise ValueError(f"unknown placement {placement!r}")


def uniform_corpus(n_files: int, size: float, n_nodes: int,
                   placement="round-robin", prefix: str = "/docs",
                   ext: str = ".html",
                   rng: Optional[RandomStreams] = None) -> Corpus:
    """``n_files`` identical-size documents spread over ``n_nodes``."""
    if n_files < 1:
        raise ValueError(f"n_files must be >= 1, got {n_files}")
    if size < 0:
        raise ValueError(f"negative size: {size}")
    docs = [Document(path=f"{prefix}/file{i:05d}{ext}", size=float(size),
                     home=_place(i, n_nodes, placement, rng))
            for i in range(n_files)]
    return Corpus(name=f"uniform-{int(size)}B", documents=docs)


def bimodal_corpus(n_files: int, n_nodes: int, large_frac: float = 0.5,
                   small_range: tuple[float, float] = (100.0, 30 * KB),
                   large_range: tuple[float, float] = (0.8 * MB, 1.5 * MB),
                   placement="round-robin", prefix: str = "/m",
                   seed: int = 0) -> Corpus:
    """The Table 3 workload: small HTML pages mixed with large images.

    "Sizes varying from short, approximately 100 bytes, to relatively
    long, approximately 1.5MB" — a digital-library mix where a burst of
    large image fetches landing on one node creates the heterogeneous
    load that round-robin DNS cannot adapt to.
    """
    if not 0.0 <= large_frac <= 1.0:
        raise ValueError(f"large_frac must be in [0,1], got {large_frac}")
    import math
    rng = RandomStreams(seed=seed)
    docs = []
    for i in range(n_files):
        if rng.uniform("kind") < large_frac:
            size = rng.uniform("large", *large_range)
            ext = ".gif"
        else:
            lo, hi = small_range
            size = math.exp(rng.uniform("small", math.log(lo), math.log(hi)))
            ext = ".html"
        docs.append(Document(path=f"{prefix}/doc{i:05d}{ext}", size=size,
                             home=_place(i, n_nodes, placement, rng)))
    return Corpus(name="bimodal", documents=docs)


def single_hot_file(size: float = 1.5 * MB, home: int = 0,
                    path: str = "/hot/popular.gif") -> Corpus:
    """The §4.2 skewed test: one file, one home, everyone wants it."""
    return Corpus(name="hot-file",
                  documents=[Document(path=path, size=float(size), home=home)])


def html_site_corpus(n_pages: int, n_nodes: int, images_per_page: int = 4,
                     image_size: float = 150 * KB, text_bytes: int = 3000,
                     placement="round-robin", prefix: str = "/site",
                     seed: int = 0) -> Corpus:
    """A web site of *real HTML pages* with inline images.

    Each page is generated as genuine markup (``repro.web.html``) whose
    ``<img>`` tags reference image files placed across the cluster's
    disks; the :class:`~repro.web.browser.BrowserSession` model parses
    the served markup to discover what to fetch next — the paper's
    "burst of requests … one for each graphics image on the page",
    produced the way a browser actually produces it.
    """
    from ..web.html import HTMLPage

    if n_pages < 1:
        raise ValueError(f"n_pages must be >= 1, got {n_pages}")
    if images_per_page < 0:
        raise ValueError(f"negative images_per_page: {images_per_page}")
    rng = RandomStreams(seed=seed)
    docs: list[Document] = []
    markup: dict[str, str] = {}
    img_index = 0
    for i in range(n_pages):
        page_path = f"{prefix}/page{i:04d}.html"
        images = []
        for _ in range(images_per_page):
            img_path = f"{prefix}/img{img_index:05d}.gif"
            img_index += 1
            size = image_size * rng.uniform("imgsize", 0.5, 1.5)
            docs.append(Document(path=img_path, size=size,
                                 home=_place(img_index, n_nodes, placement,
                                             rng)))
            images.append(img_path)
        links = [f"{prefix}/page{(i + 1) % n_pages:04d}.html"]
        page = HTMLPage(path=page_path, title=f"Sheet {i}", images=images,
                        links=links, text_bytes=text_bytes)
        text = page.render()
        markup[page_path] = text
        docs.append(Document(path=page_path,
                             size=float(len(text.encode("utf-8"))),
                             home=_place(i, n_nodes, placement, rng)))
    return Corpus(name="html-site", documents=docs, markup=markup)


def adl_corpus(n_nodes: int, n_maps: int = 40, seed: int = 0) -> Corpus:
    """An Alexandria-Digital-Library-style collection.

    Per map sheet: a browse thumbnail (~20 KB GIF), a full-resolution
    scan (~1.5 MB TIFF), and a metadata page (~4 KB HTML).  Plus the
    spatial-query and metadata-search CGIs the prototype exposed.
    """
    rng = RandomStreams(seed=seed)
    docs = [Document(path="/index.html", size=8 * KB, home=0)]
    for i in range(n_maps):
        home = i % n_nodes
        base = f"/maps/sheet{i:04d}"
        thumb = 15 * KB + rng.uniform("thumb", 0, 10 * KB)
        full = 1.2 * MB + rng.uniform("full", 0, 0.6 * MB)
        meta = 3 * KB + rng.uniform("meta", 0, 2 * KB)
        docs.append(Document(path=f"{base}.thumb.gif", size=thumb, home=home))
        docs.append(Document(path=f"{base}.full.tif", size=full, home=home))
        docs.append(Document(path=f"{base}.meta.html", size=meta, home=home))
    cgis = [
        CGISpec(path="/cgi-bin/spatial-query", cpu_ops=8e6,
                output_bytes=12 * KB),
        CGISpec(path="/cgi-bin/metadata-search", cpu_ops=3e6,
                output_bytes=6 * KB),
        CGISpec(path="/cgi-bin/gazetteer", cpu_ops=1.5e6,
                output_bytes=2 * KB),
    ]
    return Corpus(name="adl", documents=docs, cgis=cgis)
