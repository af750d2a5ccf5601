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
