"""A graphical-browser session model.

§4: the load generator "simulat[es] the action of a graphical browser
such as Netscape where a number of simultaneous connections are made,
one for each graphics image on the page."  :class:`BrowserSession`
does that honestly: it fetches a page, *parses the returned HTML* to
find its inline images (the cluster stores real markup for pages built
with :func:`repro.workload.corpus.html_site_corpus`), opens one
concurrent connection per image, and reports when the page is fully
rendered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from ..sim import join
from .client import Client, ClientProfile, UCSB_CLIENT
from .html import extract_images

if TYPE_CHECKING:  # pragma: no cover
    from ..core.sweb import SWEBCluster

__all__ = ["PageLoad", "BrowserSession"]


@dataclass
class PageLoad:
    """The outcome of rendering one page (page + all inline images)."""

    path: str
    started: float
    finished: Optional[float] = None
    page_ok: bool = False
    images_requested: int = 0
    images_ok: int = 0
    records: list = field(default_factory=list)

    @property
    def load_time(self) -> Optional[float]:
        """Time until the page and every image arrived (None if pending)."""
        if self.finished is None:
            return None
        return self.finished - self.started

    @property
    def complete(self) -> bool:
        return self.page_ok and self.images_ok == self.images_requested


class BrowserSession:
    """A browser pointed at a SWEB cluster.

    The cluster must have been populated with real markup for the pages
    (see ``html_site_corpus``), which is kept in ``cluster.page_markup``;
    pages without stored markup are treated as imageless documents.
    """

    def __init__(self, cluster: "SWEBCluster",
                 profile: ClientProfile = UCSB_CLIENT,
                 timeout: float = 120.0,
                 max_parallel_images: int = 4) -> None:
        if max_parallel_images < 1:
            raise ValueError(
                f"max_parallel_images must be >= 1, got {max_parallel_images}")
        self.cluster = cluster
        self.client = Client(cluster, profile=profile, timeout=timeout)
        #: Netscape-style cap on simultaneous image connections
        self.max_parallel_images = max_parallel_images
        self.loads: list[PageLoad] = []

    def open(self, path: str):
        """Load ``path`` and everything on it; returns a Process whose
        value is the :class:`PageLoad`."""
        return self.cluster.sim.spawn(self._open(path),
                                      name=f"browser:{path}")

    def _open(self, path: str):
        sim = self.cluster.sim
        load = PageLoad(path=path, started=sim.now)
        self.loads.append(load)

        page_rec = yield self.client.fetch(path)
        load.records.append(page_rec)
        load.page_ok = bool(page_rec.ok)
        if not load.page_ok:
            load.finished = sim.now
            return load

        markup = getattr(self.cluster, "page_markup", {}).get(path)
        images = extract_images(markup) if markup else []
        load.images_requested = len(images)
        # Fetch images through a bounded pool of simultaneous connections,
        # like a mid-90s browser.
        pending = list(images)
        while pending:
            batch = pending[:self.max_parallel_images]
            pending = pending[self.max_parallel_images:]
            procs = [self.client.fetch(src) for src in batch]
            yield join(sim, procs)
            for proc in procs:
                rec = proc.value
                load.records.append(rec)
                if rec.ok:
                    load.images_ok += 1
        load.finished = sim.now
        return load
