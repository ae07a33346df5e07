"""A plain keep-alive HTTP/1.1 client with strict response parsing.

The benchmark measures the server's own write pattern, so the client
is deliberately unremarkable: one blocking socket per connection, no
``TCP_NODELAY``/``TCP_QUICKACK`` or other tuning, one request in flight.
Response heads are parsed strictly — a bare LF, a folded or nameless
header line, or a missing ``Content-Length`` raises :class:`Malformed`
instead of letting the framing drift (``http.client`` silently loses
``Content-Length`` on such a head and then hangs on the keep-alive
socket).  Any error closes the socket; the next request reconnects.
"""

from __future__ import annotations

import re
import socket
import time
from dataclasses import dataclass, field

#: Largest response head accepted (the server's heads are < 1 KiB).
MAX_HEAD = 64 * 1024
#: Request-id header the traced mode matches client and server spans by.
REQUEST_ID = "X-Bench-Request"

_STATUS_LINE = re.compile(rb"HTTP/1\.[01] ([0-9]{3})(?: [^\r\n]*)?")
_TOKEN = re.compile(rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+")


class Malformed(ValueError):
    """The response head cannot be framed safely."""


@dataclass
class Reply:
    status: int
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""


def parse_head(head: bytes) -> tuple[int, dict[str, str]]:
    """Status and lower-cased headers of a head (without the blank line).

    Raises :class:`Malformed` on anything a strict HTTP/1.1 parser must
    reject: bare LF line endings, obsolete line folding, header lines
    without a token name, or conflicting ``Content-Length`` values."""
    if b"\n" in head.replace(b"\r\n", b""):
        raise Malformed("bare LF in response head")
    if b"\r" in head.replace(b"\r\n", b""):
        raise Malformed("bare CR in response head")
    lines = head.split(b"\r\n")
    match = _STATUS_LINE.fullmatch(lines[0])
    if match is None:
        raise Malformed(f"bad status line {lines[0][:60]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        name, sep, value = line.partition(b":")
        if not sep or _TOKEN.fullmatch(name) is None:
            raise Malformed(f"bad header line {line[:60]!r}")
        key = name.decode("ascii").lower()
        text = value.strip(b" \t").decode("latin-1")
        if key == "content-length" and headers.get(key, text) != text:
            raise Malformed("conflicting Content-Length")
        headers[key] = text
    return int(match.group(1)), headers


class Connection:
    """One keep-alive connection with a per-operation socket timeout."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self._sock: socket.socket | None = None
        self._buf = b""

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
        self._sock, self._buf = None, b""

    def _recv(self) -> bytes:
        chunk = self._sock.recv(262144)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def get(self, target: str, headers: dict[str, str] | None = None
            ) -> tuple[Reply, float]:
        """``GET target``; returns the reply and the seconds from writing
        the request to reading the last body byte.  Any exception leaves
        the connection closed."""
        try:
            return self._get(target, headers or {})
        except BaseException:
            self.close()
            raise

    def _get(self, target: str, headers: dict[str, str]
             ) -> tuple[Reply, float]:
        if self._sock is None:
            self._sock = socket.create_connection((self.host, self.port),
                                                  timeout=self.timeout)
        lines = [f"GET {target} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        lines += [f"{k}: {v}" for k, v in headers.items()]
        request = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        started = time.perf_counter()
        self._sock.sendall(request)
        while b"\r\n\r\n" not in self._buf:
            if len(self._buf) > MAX_HEAD:
                raise Malformed("response head too large")
            self._buf += self._recv()
        head, _, rest = self._buf.partition(b"\r\n\r\n")
        status, fields = parse_head(head)
        if status == 304 or 100 <= status < 200 or status == 204:
            length = 0
        else:
            raw = fields.get("content-length")
            if raw is None or not raw.isdigit():
                raise Malformed("missing or invalid Content-Length")
            length = int(raw)
        chunks, have = [rest], len(rest)
        while have < length:
            chunk = self._recv()
            chunks.append(chunk)
            have += len(chunk)
        data = b"".join(chunks)
        elapsed = time.perf_counter() - started
        self._buf = data[length:]
        if fields.get("connection", "").lower() == "close":
            self.close()
        return Reply(status, fields, data[:length]), elapsed
