"""HTTP message model: the protocol layer of §2.

Requests and responses are real text (formatted and parsed character by
character, as NCSA httpd would), because the paper charges measurable CPU
time to "parsing the HTML commands" — 70 ms of preprocessing per request
and 4.4 % of the CPU at 16 rps.  That simulated CPU cost is charged on
every request; the host work is not repeated needlessly: a client formats
each distinct request text once, and each server parses each distinct
text, and formats each distinct response header for its byte count, once.
Bodies are carried as byte *counts*, not payloads: the simulator moves
sizes, not content.

SWEB handles GET (and HEAD); POST and friends return 501, exactly as the
paper's footnote 1 scopes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "HTTPError",
    "HTTPRequest",
    "HTTPResponse",
    "STATUS_REASONS",
    "parse_url",
    "redirect_response",
]

#: Response codes used by SWEB (the paper's §2 examples plus redirection).
STATUS_REASONS: dict[int, str] = {
    200: "OK",
    302: "Moved Temporarily",       # URL redirection, the SWEB mechanism
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    501: "Not Implemented",         # POST etc. (paper footnote 1)
    503: "Service Unavailable",
}

#: Methods SWEB fulfils; everything else is rejected with 501.
SUPPORTED_METHODS = ("GET", "HEAD")
KNOWN_METHODS = ("GET", "HEAD", "POST", "PUT", "DELETE")


class HTTPError(ValueError):
    """Malformed request or response text."""


def parse_url(url: str) -> tuple[str, int, str]:
    """Split ``http://host[:port]/path`` into (host, port, path).

    A bare path (``/index.html``) resolves to host ``""`` port 80.
    """
    if url.startswith("http://"):
        rest = url[len("http://"):]
        slash = rest.find("/")
        if slash < 0:
            authority, path = rest, "/"
        else:
            authority, path = rest[:slash], rest[slash:]
        if ":" in authority:
            host, _, port_text = authority.partition(":")
            if not port_text.isdigit():
                raise HTTPError(f"bad port in URL: {url!r}")
            port = int(port_text)
        else:
            host, port = authority, 80
        if not host:
            raise HTTPError(f"empty host in URL: {url!r}")
        return host, port, path
    if url.startswith("/"):
        return "", 80, url
    raise HTTPError(f"unsupported URL: {url!r}")


@dataclass
class HTTPRequest:
    """One parsed HTTP/1.0 request."""

    method: str
    path: str
    host: str = ""
    headers: dict[str, str] = field(default_factory=dict)
    version: str = "HTTP/1.0"

    def format(self) -> str:
        """Serialise to wire text (what travels to the server)."""
        lines = [f"{self.method} {self.path} {self.version}"]
        if self.host and "Host" not in self.headers:
            lines.append(f"Host: {self.host}")
        for key, value in self.headers.items():
            lines.append(f"{key}: {value}")
        return "\r\n".join(lines) + "\r\n\r\n"

    @staticmethod
    def parse(text: str) -> "HTTPRequest":
        """Parse wire text; raises :class:`HTTPError` on malformed input."""
        head, _, _body = text.partition("\r\n\r\n")
        lines = head.split("\r\n")
        if not lines or not lines[0].strip():
            raise HTTPError("empty request")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise HTTPError(f"malformed request line: {lines[0]!r}")
        method, target, version = parts
        if method not in KNOWN_METHODS:
            raise HTTPError(f"unknown method: {method!r}")
        if not version.startswith("HTTP/"):
            raise HTTPError(f"bad version: {version!r}")
        host, _port, path = parse_url(target) if target.startswith("http://") \
            else ("", 80, target)
        if not path.startswith("/"):
            raise HTTPError(f"bad request target: {target!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            if ":" not in line:
                raise HTTPError(f"malformed header: {line!r}")
            key, _, value = line.partition(":")
            headers[key.strip()] = value.strip()
        host = headers.get("Host", host)
        return HTTPRequest(method=method, path=path, host=host,
                           headers=headers)

    @property
    def is_supported(self) -> bool:
        return self.method in SUPPORTED_METHODS


@dataclass
class HTTPResponse:
    """One HTTP/1.0 response.  ``body_bytes`` is a size, not a payload."""

    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body_bytes: float = 0.0
    version: str = "HTTP/1.0"

    @property
    def reason(self) -> str:
        return STATUS_REASONS.get(self.status, "Unknown")

    @property
    def is_redirect(self) -> bool:
        return self.status == 302

    def format_headers(self) -> str:
        lines = [f"{self.version} {self.status} {self.reason}"]
        headers = dict(self.headers)
        headers.setdefault("Server", "SWEB/1.0 (NCSA/1.3 derivative)")
        if self.body_bytes:
            headers.setdefault("Content-Length", str(int(self.body_bytes)))
        for key, value in headers.items():
            lines.append(f"{key}: {value}")
        return "\r\n".join(lines) + "\r\n\r\n"

    @property
    def header_bytes(self) -> int:
        """Size of the encoded status line and header text."""
        return len(self.format_headers().encode("utf-8"))

    @property
    def wire_bytes(self) -> float:
        """Total bytes on the wire: header text plus the body size."""
        return self.header_bytes + self.body_bytes


def redirect_response(target_host: str, path: str) -> HTTPResponse:
    """The 302 reply SWEB uses to move a request to another node.

    "URL redirection gives us excellent compatibility with current
    browsers and near-invisibility to users" (§3.1).
    """
    return HTTPResponse(status=302,
                        headers={"Location": f"http://{target_host}{path}"})
