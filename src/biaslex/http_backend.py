"""The HTTP backend: a client for a text-completion endpoint.

It POSTs the request bodies set out in :mod:`biaslex.generation` and
expects ``{"text": ...}`` back. The HTTP client's policy (connections,
proxies, redirects, retries) is set out in the README's HTTP-backend
paragraph. Only a run whose backend is ``http`` imports this module, so
a stub run never loads the HTTP client.

``http.client`` opens each connection: straight to the origin, to a
forward proxy, or through a CONNECT tunnel, over TLS where the URL or the
proxy asks for it. Each exchange on an open connection is framed here
(RFC 9112 sections 6 and 7): the request goes out in one ``sendall``, and
the response is read from one buffered reader kept with the connection.

- The status line is ``HTTP/1.x`` and three digits; every 1xx interim
  response before the final one is skipped.
- A head may have at most 100 field lines, and a line at most 65,536
  bytes; so may a chunked body's trailer.
- The body is framed by ``Transfer-Encoding: chunked`` (chunk extensions
  and trailers read and ignored), else by ``Content-Length``, else it
  ends with the connection. A 204 or a 304 has none.
- The connection is dropped after ``Connection: close``, after an
  HTTP/1.0 response without ``Connection: keep-alive``, and after a body
  that ended with the connection.

A malformed response raises ``http.client``'s own exceptions
(``BadStatusLine``, ``LineTooLong``, ``HTTPException`` for too many
field lines, ``IncompleteRead``, and ``RemoteDisconnected`` for a
connection closed before a status line), so the retry policy treats it
as it did when ``http.client`` framed it.
"""
from __future__ import annotations

import json
import os
import random
import re
import socket
import threading
import time
from base64 import b64encode
from dataclasses import dataclass
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from http.client import (
    BadStatusLine,
    HTTPConnection,
    HTTPException,
    HTTPSConnection,
    IncompleteRead,
    LineTooLong,
    RemoteDisconnected,
)
from typing import BinaryIO
from urllib.parse import SplitResult, unquote, urlsplit
from urllib.request import getproxies, proxy_bypass

from .generation import (
    BackendError,
    BackendUnavailableError,
    ConfigError,
    GenerationConfig,
    MalformedResponseError,
    TranslationConfig,
    check_number,
)


def _retry_after(value: str | None, default: float, cap: float) -> float:
    """Seconds to wait after a 429, at most ``cap``: its ``Retry-After``
    as delta-seconds or as an HTTP date, 0 once that date has passed
    (RFC 9110 section 10.2.3); ``default`` when it is absent or neither."""
    value = (value or "").strip()
    if value.isascii() and value.isdigit():
        return min(int(value), cap)
    try:
        when = parsedate_to_datetime(value)
    except (ValueError, OverflowError):  # a field out of range, e.g. a 20-digit year
        return default
    if when.tzinfo is None:  # "-0000" or asctime form: UTC, unmarked
        when = when.replace(tzinfo=timezone.utc)
    return min(max((when - datetime.now(timezone.utc)).total_seconds(), 0.0), cap)


# where the platform has it; see HttpBackend._exchange
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)
# how a server's close of an idle kept-alive connection shows on the next
# request; RemoteDisconnected is a ConnectionResetError
_STALE = (ConnectionResetError, BrokenPipeError)
# bounds on a response: bytes per line (http.client's), field lines per head
_MAX_LINE = 65536
_MAX_FIELDS = 100
_STATUS = re.compile(rb"HTTP/1\.([0-9]) ([1-9][0-9][0-9])(?:[ \r\n]|$)")
_CHUNK_SIZE = re.compile(rb"([0-9A-Fa-f]+)[ \t]*(?:;[^\r\n]*)?\r?\n")
# what a request target may not hold: whitespace, controls and non-ASCII,
# which the request line cannot carry
_UNSAFE_TARGET = re.compile(r"[^\x21-\x7e]")
# what would end a header line early
_BREAKS = re.compile(r"[\r\n\0]")


def _route(name: str, url: str) -> tuple[SplitResult, bytes, bytes]:
    """The parts of ``url`` and the head of a POST to it up to its
    ``Content-Length``: in origin form, and in the absolute form a forward
    proxy takes. ``Host`` is what ``http.client`` sends: no userinfo, no
    default port, an IPv6 literal in brackets without its zone, a non-ASCII
    name IDNA-encoded. A URL the head cannot carry is a :class:`ConfigError`.
    """
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigError(f"{name} must be an http(s) URL with a host: {url!r}")
    target = parts.path or "/"
    if parts.query:
        target += "?" + parts.query
    if _UNSAFE_TARGET.search(target):
        raise ConfigError(
            f"{name}'s path or query holds whitespace, a control or a non-ASCII "
            f"character: {url!r}"
        )
    host, bracket, _ = parts.netloc.rpartition("@")[2].partition("]")
    try:
        port = parts.port
        if bracket:
            host = host.partition("%")[0] + "]"
        else:
            host = host.partition(":")[0]
            if not host.isascii():
                host = host.encode("idna").decode("ascii")
    except (ValueError, UnicodeError) as exc:
        raise ConfigError(f"{name} has no valid host and port: {url!r}") from exc
    if port not in (None, 443 if parts.scheme == "https" else 80):
        host += f":{port}"
    fields = f"Host: {host}\r\nAccept-Encoding: identity\r\nContent-Type: application/json\r\n"
    return (
        parts,
        f"POST {target} HTTP/1.1\r\n{fields}".encode("ascii"),
        f"POST {parts.scheme}://{host}{target} HTTP/1.1\r\n{fields}".encode("ascii"),
    )


def _open(parts: SplitResult, timeout: float) -> tuple[HTTPConnection, bytes | None, BinaryIO]:
    """A connection to the origin of ``parts``, connected; the header lines
    a forward proxy needs on each request (``None`` when requests go
    straight to the origin); and the reader of the connection's responses.

    The proxy is chosen as ``urllib.request`` chooses it: the one the
    environment names for the URL's scheme, unless ``no_proxy`` lists the
    host. An http URL is sent to that proxy in absolute form, over TLS
    when the proxy URL is https; an https URL tunnels through it with
    CONNECT. Credentials in the proxy URL become a
    ``Proxy-Authorization: Basic`` header.
    """
    origin = parts.netloc.rpartition("@")[2]
    https = parts.scheme == "https"
    proxy = getproxies().get(parts.scheme)
    forward = None
    if not proxy or proxy_bypass(origin):
        connection = (HTTPSConnection if https else HTTPConnection)(origin, timeout=timeout)
    else:
        proxy_parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        auth = {}
        if proxy_parts.username and proxy_parts.password:
            user_pass = f"{unquote(proxy_parts.username)}:{unquote(proxy_parts.password)}"
            auth["Proxy-Authorization"] = "Basic " + b64encode(user_pass.encode()).decode()
        # TLS to the origin inside a tunnel, else to an https proxy
        kind = HTTPSConnection if https or proxy_parts.scheme == "https" else HTTPConnection
        connection = kind(proxy_parts.netloc.rpartition("@")[2], timeout=timeout)
        if https:
            connection.set_tunnel(origin, headers=auth)
        else:  # base64, so the value holds no line break
            forward = "".join(f"{k}: {v}\r\n" for k, v in auth.items()).encode("ascii")
    try:
        connection.connect()
        return connection, forward, connection.sock.makefile("rb")
    except BaseException:
        connection.close()
        raise


def _line(reader: BinaryIO) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise LineTooLong("a response line")
    return line


def _fields(reader: BinaryIO) -> dict[bytes, bytes]:
    """The field lines of a head or a trailer, up to the empty line that
    ends them: each value by its lower-case name, the first of a name kept."""
    fields: dict[bytes, bytes] = {}
    for _ in range(_MAX_FIELDS + 1):
        line = _line(reader)
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, _, value = line.partition(b":")
        fields.setdefault(name.lower(), value.strip())
    raise HTTPException(f"got more than {_MAX_FIELDS} headers")


def _head(reader: BinaryIO) -> tuple[bool, int, dict[bytes, bytes]]:
    """Whether the final response is HTTP/1.0, its status and its fields;
    every 1xx response before it is skipped."""
    while True:
        line = _line(reader)
        if not line:
            raise RemoteDisconnected("Remote end closed connection without response")
        status = _STATUS.match(line)
        if status is None:
            raise BadStatusLine(str(line, "latin-1"))
        fields = _fields(reader)
        code = int(status[2])
        if code >= 200:
            return status[1] == b"0", code, fields


def _chunked(reader: BinaryIO) -> bytes:
    """A chunked body's data; its chunk extensions and trailer are read
    and dropped. A chunk cut short ends with the connection, so the next
    size line is missing."""
    chunks = []
    while True:
        size = _CHUNK_SIZE.fullmatch(_line(reader))
        if size is None:
            raise IncompleteRead(b"".join(chunks))
        length = int(size[1], 16)
        if not length:
            _fields(reader)  # the trailer
            return b"".join(chunks)
        chunks.append(reader.read(length + 2)[:length])  # and the CRLF after it


def _body(
    reader: BinaryIO, http10: bool, status: int, fields: dict[bytes, bytes]
) -> tuple[bytes, bool]:
    """The body of the response whose head was just read, and whether its
    connection stays open for the next request."""
    options = fields.get(b"connection", b"").lower()
    keep = b"keep-alive" in options if http10 else b"close" not in options
    if status in (204, 304):
        return b"", keep
    coding = fields.get(b"transfer-encoding")
    if coding is not None:
        # any other coding last: the body ends with the connection
        if coding.lower().rpartition(b",")[2].strip() == b"chunked":
            return _chunked(reader), keep
    elif fields.get(b"content-length", b"").isdigit():
        size = int(fields[b"content-length"])
        data = reader.read(size)
        if len(data) < size:
            raise IncompleteRead(data, size - len(data))
        return data, keep
    return reader.read(), False


def _response_text(body: bytes) -> str:
    """The body's ``text``, which must encode as UTF-8: a JSON escape such
    as ``"\\ud800"`` decodes to a lone surrogate, which no record can hold."""
    try:
        data = json.loads(body)
    except ValueError as exc:
        raise MalformedResponseError("response body is not JSON") from exc
    if not isinstance(data, dict) or not isinstance(data.get("text"), str):
        raise MalformedResponseError("response JSON lacks a string 'text' field")
    try:
        data["text"].encode("utf-8")
    except UnicodeEncodeError as exc:
        raise MalformedResponseError("response text holds a lone surrogate") from exc
    return data["text"]


@dataclass(frozen=True)
class HttpBackend:
    """Text-completion endpoint client with bounded retries; translation
    requests go to ``translate_url``, which defaults to ``url``.

    Each thread that calls it keeps one connection per host open between
    calls; :meth:`close` closes them all.
    """

    url: str
    translate_url: str | None = None
    auth_env: str | None = None
    timeout: float = 30.0
    max_retries: int = 3
    backoff: float = 0.5

    def __post_init__(self) -> None:
        for name in ("url", "translate_url", "auth_env"):
            value = getattr(self, name)
            if not isinstance(value, str) and (name == "url" or value is not None):
                raise ConfigError(f"{name} must be a string, got {value!r}")
        check_number("timeout", self.timeout, 0, above=True)
        check_number("max_retries", self.max_retries, 0, integer=True)
        check_number("backoff", self.backoff, 0)
        if not self.translate_url:
            object.__setattr__(self, "translate_url", self.url)
        # state, not fields, so neither config keys nor compared: each URL's
        # route; (thread id, scheme, host) -> what _open returned for it; and
        # a generator for backoff delays apart from the random module's
        routes = {self.url: _route("url", self.url)}
        routes[self.translate_url] = _route("translate_url", self.translate_url)
        object.__setattr__(self, "_routes", routes)
        object.__setattr__(self, "_connections", {})
        object.__setattr__(self, "_lock", threading.Lock())
        object.__setattr__(self, "_jitter", random.Random())

    def _authorization(self) -> bytes:
        """The ``Authorization`` line for the token ``auth_env`` names, if
        it is set. A token that would break the head is refused before
        anything is sent, by a message that names ``auth_env``, not the
        token."""
        token = os.environ.get(self.auth_env) if self.auth_env else None
        if not token:
            return b""
        if _BREAKS.search(token):
            raise ConfigError(f"the token in {self.auth_env} holds CR, LF or NUL")
        return b"Authorization: Bearer " + token.encode("latin-1") + b"\r\n"

    def _drop(self, key: tuple) -> None:
        with self._lock:
            held = self._connections.pop(key, None)
        if held is not None:
            connection, _, reader = held
            reader.close()
            connection.close()

    def close(self) -> None:
        """Close every connection this backend opened, whatever its thread;
        a later call opens a new one."""
        with self._lock:
            keys = list(self._connections)
        for key in keys:
            self._drop(key)

    def _exchange(
        self, route: tuple[SplitResult, bytes, bytes], fields: bytes, body: bytes
    ) -> tuple[int, str | None, bytes]:
        """Status, ``Retry-After`` and body of one POST of ``body`` along
        ``route``, with the header lines ``fields`` after the route's own,
        on the calling thread's connection to its host, opened if there is
        none and dropped after any error or a response that ends it.

        A server may close an idle kept-alive connection at any time (RFC
        9112 section 9.3.1). So when a connection that has answered before
        is found closed before any response arrives, the request is sent
        once more at once on a new connection.
        """
        parts, direct, proxied = route
        key = (threading.get_ident(), parts.scheme, parts.netloc)
        reused = key in self._connections
        while True:
            held = self._connections.get(key)
            if held is None:
                held = _open(parts, self.timeout)
                with self._lock:
                    self._connections[key] = held
            connection, forward, reader = held
            head = direct if forward is None else proxied + forward
            request = b"".join((head, fields, b"\r\n", body))
            try:
                try:
                    connection.sock.sendall(request)
                    if _QUICKACK is not None:
                        # ACK the response headers as soon as they arrive: an
                        # http.server-style endpoint (the benchmark's) writes
                        # the headers and the body apart with Nagle on, so it
                        # sends the body only once they are ACKed, and a
                        # delayed ACK would stall each response ~40 ms
                        connection.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
                    http10, status, response = _head(reader)
                except _STALE:
                    if not reused:
                        raise
                    self._drop(key)
                    reused = False
                    continue
                data, keep = _body(reader, http10, status, response)
            except BaseException:
                self._drop(key)
                raise
            if not keep:
                self._drop(key)
            retry_after = response.get(b"retry-after")
            if retry_after is not None:
                retry_after = retry_after.decode("latin-1")
            return status, retry_after, data

    def _post(self, url: str, payload: dict) -> str:
        body = json.dumps(payload).encode("utf-8")
        fields = b"Content-Length: %d\r\n%s" % (len(body), self._authorization())
        route = self._routes[url]
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            # full jitter: "Exponential Backoff and Jitter", AWS Architecture
            # Blog, 2015
            delay = self._jitter.uniform(0, self.backoff * 2**attempt)
            try:
                status, retry_after, data = self._exchange(route, fields, body)
            except (OSError, HTTPException) as exc:
                last_error = exc
            else:
                if 200 <= status < 300:
                    return _response_text(data)
                if status == 429:
                    last_error = BackendError("rate limited (429)")
                    delay = _retry_after(retry_after, delay, self.timeout)
                elif status >= 500:
                    last_error = BackendError(f"server error {status}")
                else:  # a 3xx too: following one could carry the token elsewhere
                    raise MalformedResponseError(f"request rejected with status {status}")
            if attempt < self.max_retries:
                time.sleep(delay)
        raise BackendUnavailableError(
            f"backend unreachable after {self.max_retries + 1} attempts: {last_error}"
        )

    # vars, not dataclasses.asdict: the configs are frozen and flat, and
    # asdict deep-copies every field on every call
    def generate(self, prompt: str, config: GenerationConfig) -> str:
        return self._post(self.url, {"prompt": prompt, **vars(config)})

    def translate(self, text: str, config: TranslationConfig) -> str:
        return self._post(self.translate_url, {"prompt": text, **vars(config)})
