"""Unit tests for HTTP messages (repro.web.http)."""

import pytest

from repro.web import (
    HTTPError,
    HTTPRequest,
    HTTPResponse,
    parse_url,
    redirect_response,
)


# ---------------------------------------------------------------- parse_url
def test_parse_url_full():
    assert parse_url("http://sweb0.cs.ucsb.edu/maps/x.gif") == \
        ("sweb0.cs.ucsb.edu", 80, "/maps/x.gif")


def test_parse_url_with_port():
    assert parse_url("http://host:8080/a") == ("host", 8080, "/a")


def test_parse_url_bare_path():
    assert parse_url("/index.html") == ("", 80, "/index.html")


def test_parse_url_no_path():
    assert parse_url("http://host") == ("host", 80, "/")


def test_parse_url_errors():
    with pytest.raises(HTTPError):
        parse_url("ftp://host/x")
    with pytest.raises(HTTPError):
        parse_url("http://host:bad/x")
    with pytest.raises(HTTPError):
        parse_url("http:///x")


# ------------------------------------------------------------------ request
def test_request_format_and_parse_roundtrip():
    req = HTTPRequest(method="GET", path="/docs/a.html",
                      host="sweb0.cs.ucsb.edu",
                      headers={"User-Agent": "Mosaic/2.6"})
    parsed = HTTPRequest.parse(req.format())
    assert parsed.method == "GET"
    assert parsed.path == "/docs/a.html"
    assert parsed.host == "sweb0.cs.ucsb.edu"
    assert parsed.headers["User-Agent"] == "Mosaic/2.6"


def test_request_parse_absolute_url_target():
    text = "GET http://h.example/a/b HTTP/1.0\r\n\r\n"
    parsed = HTTPRequest.parse(text)
    assert parsed.path == "/a/b"
    assert parsed.host == "h.example"


def test_request_parse_rejects_malformed():
    for bad in ("", "GET\r\n\r\n", "GET /x\r\n\r\n", "FROB /x HTTP/1.0\r\n\r\n",
                "GET /x FTP/1.0\r\n\r\n", "GET x HTTP/1.0\r\n\r\n",
                "GET /x HTTP/1.0\r\nNoColonHere\r\n\r\n"):
        with pytest.raises(HTTPError):
            HTTPRequest.parse(bad)


def test_post_is_parsed_but_unsupported():
    parsed = HTTPRequest.parse("POST /form HTTP/1.0\r\n\r\n")
    assert parsed.method == "POST"
    assert not parsed.is_supported


def test_head_is_supported():
    assert HTTPRequest.parse("HEAD /x HTTP/1.0\r\n\r\n").is_supported


# ------------------------------------------------------------------ response
def test_response_reason_lookup():
    assert HTTPResponse(status=200).reason == "OK"
    assert HTTPResponse(status=404).reason == "Not Found"
    assert HTTPResponse(status=999).reason == "Unknown"


def test_response_wire_bytes_includes_headers_and_body():
    resp = HTTPResponse(status=200, body_bytes=1000.0)
    assert resp.wire_bytes > 1000.0


def test_redirect_response_shape():
    resp = redirect_response("sweb3.cs.ucsb.edu", "/maps/x.gif")
    assert resp.is_redirect
    assert resp.headers["Location"] == "http://sweb3.cs.ucsb.edu/maps/x.gif"
    assert resp.body_bytes == 0.0


# ------------------------------------------- per-server and per-client memos
def _cluster(**kw):
    from repro import SWEBCluster, meiko_cs2
    cluster = SWEBCluster(meiko_cs2(3), seed=1, **kw)
    cluster.add_file("/a.html", 4e4, home=0)
    cluster.add_file("/far.gif", 1.5e6, home=2)
    return cluster


def test_client_request_text_is_the_formatted_request():
    cluster = _cluster()
    client = cluster.client()
    for method, path, node in (("GET", "/a.html", 0), ("HEAD", "/a.html", 2),
                               ("POST", "/cgi-bin/x", 1),
                               ("FOO", "/a.html", 0)):
        text = client._request_text(method, path, node)
        assert text == HTTPRequest(
            method=method, path=path, host=f"sweb{node}.cs.ucsb.edu",
            headers={"User-Agent": "Mosaic/2.6 (X11; SunOS)"}).format()
        assert client._request_text(method, path, node) is text
    assert (client._request_text("GET", "/a.html", 0)
            != client._request_text("GET", "/a.html", 1))


def test_server_parse_is_memoised_but_malformed_text_raises_every_time():
    server = _cluster().servers[0]
    good = "GET /a.html HTTP/1.0\r\nHost: sweb0.cs.ucsb.edu\r\n\r\n"
    first = server._parse(good)
    assert server._parse(good) is first
    assert first == HTTPRequest.parse(good)
    bad = "FOO /a.html HTTP/1.0\r\n\r\n"
    for _ in range(3):
        with pytest.raises(HTTPError):
            server._parse(bad)
    assert bad not in server._parsed


def test_server_header_bytes_match_wire_bytes():
    server = _cluster().servers[0]
    redirect = redirect_response("sweb2.cs.ucsb.edu", "/far.gif")
    redirect.headers["X-SWEB-Node"] = "2"
    # 1234.0 and 1234 share one header; each sum keeps its body's type.
    responses = [HTTPResponse(status=200, body_bytes=1234.0),
                 HTTPResponse(status=200, body_bytes=1234),
                 HTTPResponse(status=200), redirect,
                 HTTPResponse(status=400), HTTPResponse(status=404),
                 HTTPResponse(status=501), HTTPResponse(status=503),
                 HTTPResponse(status=200, body_bytes=7.5,
                              version="HTTP/1.1")]
    for _ in range(2):  # computed, then read back from the memo
        for response in responses:
            assert (repr(server._wire_bytes(response))
                    == repr(response.wire_bytes))


def test_served_and_relayed_responses_carry_their_wire_bytes():
    # Every response the httpds put on a wire -- 200s, 302s, 4xx/5xx and
    # the responses a forwarding node relays -- is sized as wire_bytes.
    from repro.core import CostParameters
    seen = []
    for params in (CostParameters(), CostParameters(reassignment="forward")):
        cluster = _cluster(policy="file-locality", params=params)
        for server in cluster.servers.values():
            def sized(response, server=server, memo=server._wire_bytes):
                got = memo(response)
                assert repr(got) == repr(response.wire_bytes)
                seen.append((params.reassignment, response.status))
                return got
            server._wire_bytes = sized
        client = cluster.client()
        for path, method in (("/a.html", "GET"), ("/far.gif", "GET"),
                             ("/far.gif", "HEAD"), ("/nope", "GET"),
                             ("/a.html", "PUT"), ("/a.html", "FOO"),
                             ("/far.gif", "GET")):
            cluster.run(until=client.fetch(path, method=method))
    statuses = {status for _, status in seen}
    assert {200, 302, 400, 404, 501} <= statuses
    # Forwarded requests are answered twice: by the target over the
    # fabric, then relayed by the origin to the client.
    relayed = [s for mode, s in seen if mode == "forward" and s == 200]
    direct = [s for mode, s in seen if mode == "redirect" and s == 200]
    assert len(relayed) > len(direct)
