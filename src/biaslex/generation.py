"""Generation, self-debias, and translation orchestration.

Backends implement a minimal text-completion contract. The HTTP backend
POSTs JSON and expects ``{"text": ...}`` back; the stub backend is a pure
function of (prompt, seed) so whole runs are reproducible offline.

Request bodies:

* generation:  ``{prompt, temperature, top_k, top_p, max_new_tokens,
  repetition_penalty}``
* translation: ``{prompt, num_beams, max_new_tokens}``

The HTTP client's policy (connections, proxies, redirects, retries) is
set out in the README's HTTP-backend paragraph.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import socket
import threading
import time
from base64 import b64encode
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from pathlib import Path
from typing import Sequence
from urllib.parse import SplitResult, unquote, urlsplit
from urllib.request import getproxies, proxy_bypass

from .artifacts import RowError, jsonl_line, parse_row
from .corpus import GenerationRecord
from .identities import (
    Application,
    Identity,
    Language,
    PromptMethod,
    enumerate_identities,
    iter_applications,
)
from .prompts import render_application_prompt, render_debias_prompt


class BackendError(Exception):
    pass


class BackendUnavailableError(BackendError):
    """The endpoint stayed unreachable after all retries."""


class MalformedResponseError(BackendError):
    """The endpoint answered with something other than the wire contract."""


class PrerequisiteMissingError(Exception):
    """Debias generation was requested before its originals exist."""


class ConfigError(ValueError):
    """The run configuration is malformed or inconsistent."""


def check_number(
    name: str,
    value: object,
    low: float = -math.inf,
    high: float = math.inf,
    *,
    integer: bool = False,
    above: bool = False,
) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a finite number, not a
    bool, an ``int`` when ``integer``, from ``low`` (excluded when ``above``)
    to ``high``: an endpoint would receive a bad value as posted."""
    kinds = int if integer else (int, float)
    if (
        isinstance(value, kinds)
        and not isinstance(value, bool)  # bool is an int subclass
        and -math.inf < value < math.inf  # false for NaN
        and (low < value if above else low <= value)
        and value <= high
    ):
        return
    what = "an integer" if integer else "a number"
    if high < math.inf:
        what += f" in {'(' if above else '['}{low}, {high}]"
    elif low > -math.inf:
        what += f" {'>' if above else '>='} {low}"
    raise ConfigError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class GenerationConfig:
    temperature: float = 0.7
    top_k: int = 50
    top_p: float = 0.9
    max_new_tokens: int = 500
    repetition_penalty: float = 1.5

    def __post_init__(self) -> None:
        check_number("temperature", self.temperature, 0)
        check_number("top_k", self.top_k, 0, integer=True)
        check_number("top_p", self.top_p, 0, 1, above=True)
        check_number("max_new_tokens", self.max_new_tokens, 1, integer=True)
        check_number("repetition_penalty", self.repetition_penalty, 1)


@dataclass(frozen=True)
class TranslationConfig:
    num_beams: int = 3
    max_new_tokens: int = 500

    def __post_init__(self) -> None:
        check_number("num_beams", self.num_beams, 1, integer=True)
        check_number("max_new_tokens", self.max_new_tokens, 1, integer=True)


# Mix of everyday vocabulary and identity-linked terms so stub corpora
# produce non-trivial lexicon matches.
_STUB_VOCAB = (
    "morning evening market garden temple mosque neighbour friend teacher "
    "doctor visit walk read write cook clean care help family house home "
    "happy lonely independent strong love work pray sing dance travel "
    "responsible kind honest quiet busy tired proud worried calm chore "
    "laundry shopping children school lesson story meal tea rice field "
    "music prayer festival wedding village city river road bus train"
).split()


_STUB_BITS = len(_STUB_VOCAB).bit_length()


def _stub_text(prompt: str, seed: int) -> str:
    digest = hashlib.sha256(f"{seed}\x1f{prompt}".encode("utf-8")).digest()
    rng = random.Random(digest)
    length = rng.randint(35, 60)
    # Random.choice's own rule (_randbelow_with_getrandbits, CPython 3.10-3.13)
    # without a method call per word: draw bit_length(n) bits, again while
    # the draw is >= n. test_stub_text_matches_the_choice_reference pins it
    # to the Random.choice reference in tests/oracle.py.
    getrandbits, n = rng.getrandbits, len(_STUB_VOCAB)
    words = []
    for _ in range(length):
        r = getrandbits(_STUB_BITS)
        while r >= n:
            r = getrandbits(_STUB_BITS)
        words.append(_STUB_VOCAB[r])
    sentences = []
    start = 0
    while start < length:
        stop = min(length, start + rng.randint(6, 12))
        chunk = words[start:stop]
        sentences.append(chunk[0].capitalize() + " " + " ".join(chunk[1:]) + ".")
        start = stop
    return " ".join(sentences)


class StubBackend:
    """Offline deterministic backend; translation is the identity map."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def generate(self, prompt: str, config: GenerationConfig) -> str:
        return _stub_text(prompt, self.seed)

    def translate(self, text: str, config: TranslationConfig) -> str:
        return text

    def close(self) -> None:
        """Nothing to release."""


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
    try:
        data = json.loads(body)
    except ValueError as exc:
        raise MalformedResponseError("response body is not JSON") from exc
    if not isinstance(data, dict) or not isinstance(data.get("text"), str):
        raise MalformedResponseError("response JSON lacks a string 'text' field")
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


Backend = StubBackend | HttpBackend


def record_id_for(
    language: Language,
    method: PromptMethod,
    identity: Identity,
    app: Application,
) -> str:
    parts = [
        language.value,
        method.value,
        identity.religion.value,
        identity.gender.value,
        identity.marital_status.value,
        identity.children.value,
        app.kind.value,
    ]
    if app.story_location is not None:
        parts.append(app.story_location.value)
    return "-".join(parts)


class RecordSink:
    """Append-only JSONL store; one complete record per line.

    Opening an existing file indexes its records. A last line with no
    newline that does not parse was cut short by a crash mid-write: it is
    truncated away (``dropped_tail`` notes where), so its cell is generated
    again. Any other line that does not parse raises
    :class:`~biaslex.artifacts.RowError`. The file stays open for appending
    until :meth:`close`; every line is flushed as it is written.

    ``records`` holds every record of the file, in file order: those read
    when it was opened, then those appended. So the file is parsed once per
    run.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.records: list[GenerationRecord] = []
        self._ids: set[str] = set()
        self._originals: dict[str, str] = {}  # original record id -> raw output
        self._original_languages: set[Language] = set()
        self._handle = None
        self.dropped_tail: dict[str, int] | None = None
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        parse, path = GenerationRecord.from_json_dict, self.path
        complete = 0  # bytes up to the end of the last complete line
        tail = None
        with open(path, "rb") as handle:
            for number, line in enumerate(handle, 1):
                if not line.endswith(b"\n"):
                    tail = (number, line)
                    break
                complete += len(line)
                if line.strip():
                    self._index(parse_row(line, parse, path, number))
        if tail is None or not tail[1].strip():
            return
        number, line = tail
        try:
            record = parse_row(line, parse, path, number)
        except RowError:
            with open(path, "r+b") as handle:
                handle.truncate(complete)
            self.dropped_tail = {"line": number, "bytes": len(line)}
        else:
            # complete but unterminated: end it so the next append starts afresh
            with open(path, "ab") as handle:
                handle.write(b"\n")
            self._index(record)

    def _index(self, record: GenerationRecord) -> None:
        self.records.append(record)
        self._ids.add(record.record_id)
        if record.method is PromptMethod.ORIGINAL:
            self._originals[record.record_id] = record.raw_output
            self._original_languages.add(record.language)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._ids

    def original(self, record_id: str) -> str | None:
        """The raw output of the stored original ``record_id``, if any."""
        return self._originals.get(record_id)

    def has_originals(self, language: Language) -> bool:
        return language in self._original_languages

    def append(self, record: GenerationRecord) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(jsonl_line(record.to_json_dict()))
        self._handle.flush()
        self._index(record)

    def close(self) -> None:
        """Release the file handle; a later :meth:`append` reopens it."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


@dataclass
class RunSummary:
    """Per (language, method) cell counts plus failure details."""

    counts: dict[str, dict[str, int]] = field(default_factory=dict)
    failures: list[dict[str, str]] = field(default_factory=list)
    dropped_tail: dict[str, int] | None = None
    # cells whose backend call raised; "failed" also counts debias cells
    # that had no original to send
    failed_calls: int = 0

    def _cell(self, language: Language, method: PromptMethod) -> dict[str, int]:
        key = f"{language.value}/{method.value}"
        return self.counts.setdefault(
            key, {"requested": 0, "generated": 0, "skipped": 0, "failed": 0}
        )

    def to_json_dict(self) -> dict:
        data = {
            "counts": {k: dict(v) for k, v in sorted(self.counts.items())},
            "failures": list(self.failures),
        }
        if self.dropped_tail is not None:
            data["dropped_tail"] = dict(self.dropped_tail)
        return data


def run_matrix(
    languages: Sequence[Language],
    methods: Sequence[PromptMethod],
    backend: Backend,
    sink: RecordSink,
    gen_config: GenerationConfig | None = None,
    trans_config: TranslationConfig | None = None,
    concurrency: int = 1,
    summary: RunSummary | None = None,
) -> RunSummary:
    """Generate the full prompt matrix, originals before debias phases.

    Already-persisted records are skipped, so an interrupted run resumes
    from where it stopped. Per-cell failures are recorded and the run
    continues. A debias method for a language with no stored originals
    raises :class:`BackendUnavailableError` when every original call for
    that language in this run raised a backend error, and
    :class:`PrerequisiteMissingError` otherwise.

    At ``concurrency`` 1 every call runs on the calling thread, one cell
    after the other, so an interrupt or an error stops the run at once.
    Above 1 the calls run on a pool of ``concurrency`` threads; when the
    run ends, calls not yet started are cancelled, so an interrupt or an
    error waits only for the calls already running. Either way results
    are persisted in cell order and the sink is closed when the run ends.
    A ``concurrency`` below 1 raises :class:`ConfigError`.

    A ``summary`` passed in is filled in place, so the caller keeps the
    counts and failures of a run that raised.
    """
    gen_config = gen_config or GenerationConfig()
    trans_config = trans_config or TranslationConfig()
    if summary is None:
        summary = RunSummary()
    summary.dropped_tail = sink.dropped_tail
    ordered_methods = [m for m in PromptMethod if m in set(methods)]

    def attempt(
        cell: GenerationRecord,
    ) -> tuple[GenerationRecord, GenerationRecord | Exception]:
        """The cell and its record, or the exception its calls raised;
        Exception only, so a KeyboardInterrupt raised in a call propagates."""
        try:
            raw = backend.generate(cell.prompt_text, gen_config)
            english = backend.translate(raw, trans_config)
        except Exception as exc:
            return cell, exc
        return cell, GenerationRecord(
            cell.record_id,
            cell.language,
            cell.method,
            cell.identity,
            cell.application,
            cell.prompt_text,
            raw,
            english,
        )

    check_number("concurrency", concurrency, 1, integer=True)
    pool = ThreadPoolExecutor(max_workers=concurrency) if concurrency > 1 else None
    try:
        for language in languages:
            # the last backend error, when every original call for the
            # language in this run raised one
            original_error = None
            for method in ordered_methods:
                if method.is_debias and not sink.has_originals(language):
                    if original_error is not None:
                        raise BackendUnavailableError(
                            f"every original call for {language.value} failed, "
                            f"so {method.value} debiasing cannot run; last "
                            f"error: {original_error}"
                        )
                    raise PrerequisiteMissingError(
                        f"no original generations for {language.value}; "
                        f"cannot run {method.value} debiasing"
                    )
                counts = summary._cell(language, method)
                cells = _phase_cells(language, method, sink, summary)
                # requests may run concurrently; results are persisted in cell
                # order so re-runs produce byte-identical files
                results = (map if pool is None else pool.map)(attempt, cells)
                backend_errors = []
                for cell, result in results:
                    if isinstance(result, Exception):
                        counts["failed"] += 1
                        summary.failed_calls += 1
                        summary.failures.append(
                            {"record_id": cell.record_id, "error": str(result)}
                        )
                        if isinstance(result, BackendError):
                            backend_errors.append(result)
                        continue
                    sink.append(result)
                    counts["generated"] += 1
                if method is PromptMethod.ORIGINAL and cells:
                    if len(backend_errors) == len(cells):
                        original_error = backend_errors[-1]
    finally:
        sink.close()
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return summary


def _phase_cells(
    language: Language,
    method: PromptMethod,
    sink: RecordSink,
    summary: RunSummary,
) -> list[GenerationRecord]:
    """The cells of one (language, method) phase still to generate: records
    with their prompt and no output yet."""
    cells = []
    counts = summary._cell(language, method)
    for identity in enumerate_identities():
        for app in iter_applications():
            counts["requested"] += 1
            rid = record_id_for(language, method, identity, app)
            if rid in sink:
                counts["skipped"] += 1
                continue
            if method is PromptMethod.ORIGINAL:
                prompt = render_application_prompt(identity, app, language)
            else:
                original = sink.original(
                    record_id_for(language, PromptMethod.ORIGINAL, identity, app)
                )
                if not original:
                    # nothing to debias; render_debias_prompt would refuse it
                    counts["failed"] += 1
                    problem = "missing" if original is None else "empty"
                    summary.failures.append(
                        {"record_id": rid, "error": f"original output {problem}"}
                    )
                    continue
                prompt = render_debias_prompt(method, original)
            cells.append(
                GenerationRecord(rid, language, method, identity, app, prompt, "", "")
            )
    return cells
