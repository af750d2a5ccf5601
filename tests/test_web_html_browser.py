"""Tests for the HTML model and the browser-session workload."""

import pytest

from repro import SWEBCluster, meiko_cs2
from repro.web import BrowserSession, HTMLPage, extract_images, render_page
from repro.workload import html_site_corpus


# --------------------------------------------------------------------- HTML
def test_render_page_contains_images_and_links():
    html = render_page("Sheet 1", images=["/a.gif", "/b.gif"],
                       links=["/next.html"], text_bytes=100)
    assert "<title>Sheet 1</title>" in html
    assert '<img src="/a.gif"' in html
    assert '<a href="/next.html">' in html


def test_extract_images_roundtrip():
    html = render_page("t", images=["/x.gif", "/y.gif", "/z.gif"])
    assert extract_images(html) == ["/x.gif", "/y.gif", "/z.gif"]


def test_extract_handles_arbitrary_attribute_order():
    html = '<IMG alt="m" SRC="/weird.gif">'
    assert extract_images(html) == ["/weird.gif"]


def test_page_size_scales_with_text():
    small = HTMLPage(path="/p", title="t", text_bytes=100)
    big = HTMLPage(path="/p", title="t", text_bytes=10_000)
    assert len(big.render().encode()) > len(small.render().encode()) + 9000


def test_render_page_rejects_negative_text():
    with pytest.raises(ValueError):
        render_page("t", text_bytes=-1)


# -------------------------------------------------------------- site corpus
def test_html_site_corpus_structure():
    corpus = html_site_corpus(5, n_nodes=3, images_per_page=2)
    pages = [d for d in corpus.documents if d.path.endswith(".html")]
    images = [d for d in corpus.documents if d.path.endswith(".gif")]
    assert len(pages) == 5 and len(images) == 10
    assert set(corpus.markup) == {p.path for p in pages}
    # Page sizes are the real markup sizes.
    for page in pages:
        assert page.size == len(corpus.markup[page.path].encode())


def test_html_site_corpus_markup_references_real_images():
    corpus = html_site_corpus(3, n_nodes=2, images_per_page=3)
    paths = set(corpus.paths)
    for markup in corpus.markup.values():
        for src in extract_images(markup):
            assert src in paths


def test_html_site_corpus_validation():
    with pytest.raises(ValueError):
        html_site_corpus(0, 1)
    with pytest.raises(ValueError):
        html_site_corpus(1, 1, images_per_page=-1)


# ---------------------------------------------------------- browser session
def make_site_cluster(**kw):
    cluster = SWEBCluster(meiko_cs2(3), policy="sweb", seed=5, **kw)
    corpus = html_site_corpus(4, n_nodes=3, images_per_page=3,
                              image_size=50e3, seed=2)
    corpus.install(cluster)
    return cluster, corpus


def test_browser_loads_page_and_all_images():
    cluster, corpus = make_site_cluster()
    browser = BrowserSession(cluster)
    proc = browser.open("/site/page0000.html")
    load = cluster.run(until=proc)
    assert load.page_ok
    assert load.images_requested == 3
    assert load.images_ok == 3
    assert load.complete
    assert load.load_time > 0
    # 1 page + 3 images = 4 requests in the metrics.
    assert cluster.metrics.total == 4


def test_browser_respects_parallel_connection_cap():
    cluster, _ = make_site_cluster()
    browser = BrowserSession(cluster, max_parallel_images=2)
    proc = browser.open("/site/page0001.html")
    load = cluster.run(until=proc)
    assert load.complete
    # Image fetches happened in two waves: first batch finished strictly
    # before the second started.
    image_recs = [r for r in cluster.metrics.records
                  if r.path.endswith(".gif")]
    starts = sorted(r.start for r in image_recs)
    assert starts[2] > starts[0]


def test_browser_missing_page_reports_failure():
    cluster, _ = make_site_cluster()
    browser = BrowserSession(cluster)
    proc = browser.open("/site/no-such-page.html")
    load = cluster.run(until=proc)
    assert not load.page_ok and not load.complete
    assert load.images_requested == 0


def test_browser_statistics():
    cluster, _ = make_site_cluster()
    browser = BrowserSession(cluster)
    procs = [browser.open("/site/page0000.html"),
             browser.open("/site/page0002.html")]
    for p in procs:
        cluster.run(until=p)
    assert len(browser.loads) == 2
    assert all(load.complete for load in browser.loads)
    assert all(load.load_time > 0 for load in browser.loads)


def test_browser_validation():
    cluster, _ = make_site_cluster()
    with pytest.raises(ValueError):
        BrowserSession(cluster, max_parallel_images=0)
