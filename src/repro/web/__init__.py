"""WWW substrate: HTTP messages, DNS, CGI, clients, and the httpd."""

from .cgi import CGIProgram, CGIRegistry
from .browser import BrowserSession, PageLoad
from .client import Client, ClientProfile, RUTGERS_CLIENT, UCSB_CLIENT
from .dns import RoundRobinDNS
from .html import (
    HTMLPage,
    extract_images,
    render_page,
)
from .http import (
    HTTPError,
    HTTPRequest,
    HTTPResponse,
    STATUS_REASONS,
    parse_url,
    redirect_response,
)
from .metrics import DROP_REASONS, Metrics, PHASE_NAMES, RequestRecord
from .resolver import AuthoritativeDNS, LocalResolver
from .server import Connection, HTTPServer

__all__ = [
    "AuthoritativeDNS",
    "BrowserSession",
    "CGIProgram",
    "CGIRegistry",
    "Client",
    "ClientProfile",
    "Connection",
    "DROP_REASONS",
    "HTMLPage",
    "HTTPError",
    "HTTPRequest",
    "HTTPResponse",
    "HTTPServer",
    "LocalResolver",
    "Metrics",
    "PHASE_NAMES",
    "PageLoad",
    "RUTGERS_CLIENT",
    "RequestRecord",
    "RoundRobinDNS",
    "STATUS_REASONS",
    "UCSB_CLIENT",
    "extract_images",
    "parse_url",
    "redirect_response",
    "render_page",
]
