"""A minimal HTTP/1.1 layer over asyncio streams (stdlib only).

The serving tier needs exactly enough HTTP to speak JSON with curl,
the bundled client, and a Prometheus scraper: request-line + headers +
``Content-Length`` bodies in, status + headers + body out, optional
keep-alive.  Everything else (chunked transfer, continuations,
multipart) is rejected with a clean status code rather than guessed at
— malformed framing from one client must never take down the
connection loop for the others.

Parsing is deliberately strict and bounded: header blocks and bodies
have size limits so a hostile peer cannot balloon server memory, and
every parse failure raises :class:`HttpError` carrying the status the
connection handler should answer with before closing.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
from email.utils import formatdate

__all__ = [
    "HttpError",
    "Request",
    "STATUS_PHRASES",
    "json_body",
    "json_response",
    "read_request",
    "render_response",
]

STATUS_PHRASES = {
    200: "OK",
    206: "Partial Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

#: Bound on the request line plus header block.
MAX_HEADER_BYTES = 16 * 1024


class HttpError(Exception):
    """A protocol-level failure with the status code to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclasses.dataclass
class Request:
    """One parsed request."""

    method: str
    path: str
    query: str
    headers: dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 defaults to persistent connections."""
        return self.headers.get("connection", "").lower() != "close"


def json_body(request: Request) -> dict:
    """The request body decoded as a JSON object (else ``HttpError 400``)."""
    if not request.body:
        raise HttpError(400, "a JSON request body is required")
    try:
        payload = json.loads(request.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise HttpError(400, f"invalid JSON body: {error}") from error
    if not isinstance(payload, dict):
        raise HttpError(400, "the JSON body must be an object")
    return payload


async def read_request(
    reader: asyncio.StreamReader,
    max_body_bytes: int = 1 << 20,
) -> Request | None:
    """Parse one request off the stream.

    Returns ``None`` on a clean EOF before any bytes (the peer closed a
    keep-alive connection between requests).  Raises :class:`HttpError`
    on malformed or oversized input, and lets ``asyncio`` timeouts
    propagate to the caller (which maps them to ``408``).
    """
    try:
        header_block = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise HttpError(400, "truncated request") from error
    except asyncio.LimitOverrunError as error:
        raise HttpError(413, "header block too large") from error
    if len(header_block) > MAX_HEADER_BYTES:
        raise HttpError(413, "header block too large")
    try:
        text = header_block.decode("latin-1")
    except UnicodeDecodeError as error:  # pragma: no cover - latin-1 total
        raise HttpError(400, "undecodable header block") from error
    request_line, _, header_text = text.partition("\r\n")
    parts = request_line.split(" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {request_line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol version: {version!r}")
    headers: dict[str, str] = {}
    for line in header_text.split("\r\n"):
        if not line:
            continue
        name, separator, value = line.partition(":")
        if not separator or not name.strip():
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise HttpError(501, "chunked transfer encoding is not supported")
    path, _, query = target.partition("?")
    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        try:
            length = int(raw_length)
        except ValueError as error:
            raise HttpError(
                400, f"invalid Content-Length: {raw_length!r}"
            ) from error
        if length < 0:
            raise HttpError(400, f"invalid Content-Length: {raw_length!r}")
        if length > max_body_bytes:
            raise HttpError(413, f"request body over {max_body_bytes} bytes")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as error:
                raise HttpError(400, "truncated request body") from error
    return Request(
        method=method.upper(),
        path=path,
        query=query,
        headers=headers,
        body=body,
    )


#: ``(second, Date header value)`` of the last rendered response.
_date: tuple[int, str] = (0, "")


def _http_date() -> str:
    """The current ``Date`` header value, rendered once per second."""
    global _date
    now = int(time.time())
    second, text = _date
    if second != now:
        text = formatdate(now, usegmt=True)
        _date = (now, text)
    return text


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    """One full response as bytes (status line, headers, body)."""
    phrase = STATUS_PHRASES.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {phrase}",
        f"Date: {_http_date()}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = "\r\n".join(lines).encode("latin-1")
    return head + b"\r\n\r\n" + body


def json_response(
    status: int,
    payload: dict,
    extra_headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    """A JSON response (sorted keys, trailing newline for curl)."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return render_response(
        status,
        body,
        extra_headers=extra_headers,
        keep_alive=keep_alive,
    )
