"""The HTTP backend: a client for a text-completion endpoint.

It POSTs the request bodies set out in :mod:`biaslex.generation` and
expects ``{"text": ...}`` back. The HTTP client's policy (connections,
proxies, redirects, retries) is set out in the README's HTTP-backend
paragraph. Only a run whose backend is ``http`` imports this module, so
a stub run never loads the HTTP client.
"""
from __future__ import annotations

import json
import os
import random
import socket
import threading
import time
from base64 import b64encode
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from http.client import HTTPConnection, HTTPException, HTTPSConnection
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
# request; http.client's RemoteDisconnected is a ConnectionResetError
_STALE = (ConnectionResetError, BrokenPipeError)


def _open(parts: SplitResult, timeout: float) -> tuple[HTTPConnection, dict | None]:
    """A connection, not yet connected, to the origin of ``parts``, and
    the headers a forward proxy needs on each request (``None`` when
    requests go straight to the origin).

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
    if not proxy or proxy_bypass(origin):
        kind = HTTPSConnection if https else HTTPConnection
        return kind(origin, timeout=timeout), None
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
        return connection, None
    return connection, auth


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
        for name in ("url", "translate_url"):
            parts = urlsplit(getattr(self, name))
            if parts.scheme not in ("http", "https") or not parts.hostname:
                raise ConfigError(
                    f"{name} must be an http(s) URL with a host: {getattr(self, name)!r}"
                )
        # state, not fields, so neither config keys nor compared:
        # (thread id, scheme, host) -> what _open returned for it, and a
        # generator for backoff delays apart from the random module's
        object.__setattr__(self, "_connections", {})
        object.__setattr__(self, "_lock", threading.Lock())
        object.__setattr__(self, "_jitter", random.Random())

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.auth_env:
            token = os.environ.get(self.auth_env)
            if token:
                headers["Authorization"] = f"Bearer {token}"
        return headers

    def _drop(self, key: tuple) -> None:
        with self._lock:
            held = self._connections.pop(key, None)
        if held is not None:
            held[0].close()

    def close(self) -> None:
        """Close every connection this backend opened, whatever its thread;
        a later call opens a new one."""
        with self._lock:
            held = list(self._connections.values())
            self._connections.clear()
        for connection, _ in held:
            connection.close()

    def _exchange(
        self, url: str, body: bytes, headers: dict
    ) -> tuple[int, str | None, bytes]:
        """Status, ``Retry-After`` and body of one POST of ``body`` to ``url``,
        on the calling thread's connection to its host, opened if there is
        none and dropped after any error or a response that ends it.

        A server may close an idle kept-alive connection at any time (RFC
        9112 section 9.3.1). So when a connection that has answered before
        is found closed before any response arrives, the request is sent
        once more at once on a new connection.
        """
        parts = urlsplit(url)
        key = (threading.get_ident(), parts.scheme, parts.netloc)
        reused = key in self._connections
        while True:
            held = self._connections.get(key)
            if held is None:
                held = _open(parts, self.timeout)
                with self._lock:
                    self._connections[key] = held
            connection, forward = held
            try:
                try:
                    if forward is None:
                        target = parts.path or "/"
                        if parts.query:
                            target += "?" + parts.query
                        connection.request("POST", target, body, headers)
                    else:  # absolute form, to a proxy
                        target = parts._replace(fragment="").geturl()
                        connection.request("POST", target, body, {**headers, **forward})
                    if _QUICKACK is not None:
                        # ACK the response headers as soon as they arrive: an
                        # http.server-style endpoint (the benchmark's) writes
                        # the headers and the body apart with Nagle on, so it
                        # sends the body only once they are ACKed, and a
                        # delayed ACK would stall each response ~40 ms
                        connection.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
                    response = connection.getresponse()
                except _STALE:
                    if not reused:
                        raise
                    self._drop(key)
                    reused = False
                    continue
                with response:
                    data = response.read()
            except BaseException:
                self._drop(key)
                raise
            if response.will_close:
                self._drop(key)
            return response.status, response.getheader("Retry-After"), data

    def _post(self, url: str, payload: dict) -> str:
        body = json.dumps(payload).encode("utf-8")
        headers = self._headers()
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            # full jitter: "Exponential Backoff and Jitter", AWS Architecture
            # Blog, 2015
            delay = self._jitter.uniform(0, self.backoff * 2**attempt)
            try:
                status, retry_after, data = self._exchange(url, body, headers)
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

    def generate(self, prompt: str, config: GenerationConfig) -> str:
        return self._post(self.url, {"prompt": prompt, **asdict(config)})

    def translate(self, text: str, config: TranslationConfig) -> str:
        return self._post(self.translate_url, {"prompt": text, **asdict(config)})
