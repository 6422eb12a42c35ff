import base64
import gc
import json
import os
import random
import shutil
import signal
import socket
import ssl
import subprocess
import sys
import threading
import time
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from biaslex import http_backend
from biaslex.artifacts import RowError, jsonl_line, parse_row, write_jsonl
from biaslex.corpus import GenerationRecord, read_records
from biaslex.generation import (
    BackendError,
    BackendUnavailableError,
    GenerationConfig,
    MalformedResponseError,
    PrerequisiteMissingError,
    RecordSink,
    RunSummary,
    StubBackend,
    TranslationConfig,
    _STUB_VOCAB,
    _stub_text,
    record_id_for,
    run_matrix,
)
from biaslex.http_backend import HttpBackend, _retry_after
from biaslex.identities import (
    Application,
    ApplicationKind,
    Children,
    Gender,
    Identity,
    Language,
    MaritalStatus,
    PromptMethod,
    Religion,
    StoryLocation,
    enumerate_identities,
    iter_applications,
)
from biaslex.pipeline import RunConfig, generate_stage
from biaslex.prompts import render_application_prompt


def test_generation_config_defaults():
    config = GenerationConfig()
    assert config.temperature == 0.7
    assert config.top_k == 50
    assert config.top_p == 0.9
    assert config.max_new_tokens == 500
    assert config.repetition_penalty == 1.5


def test_translation_config_defaults():
    config = TranslationConfig()
    assert config.num_beams == 3
    assert config.max_new_tokens == 500


@pytest.mark.parametrize(
    "kwargs",
    [
        {"temperature": -0.1},
        {"top_p": 0.0},
        {"top_p": 1.5},
        {"top_k": -1},
        {"max_new_tokens": 0},
        {"repetition_penalty": 0.5},
    ],
)
def test_generation_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        GenerationConfig(**kwargs)


def test_translation_config_rejects_invalid():
    with pytest.raises(ValueError):
        TranslationConfig(num_beams=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"url": "http://x", "timeout": 0},
        {"url": "http://x", "backoff": -1},
        {"url": "http://x", "max_retries": 1.5},
        {"url": None},
        {"url": "localhost:9/generate"},
        {"url": "http://x", "translate_url": "x"},
        {"url": "http://x/gen erate"},
        {"url": "http://x", "translate_url": "http://x/t?q=\x01"},
        {"url": "http://x/\u00e9"},
        {"url": "http://x:99999/generate"},
        {"url": "ftp://x/generate"},
    ],
)
def test_http_backend_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        HttpBackend(**kwargs)


def test_stub_is_deterministic():
    backend = StubBackend(seed=5)
    config = GenerationConfig()
    first = backend.generate("a prompt", config)
    second = backend.generate("a prompt", config)
    assert first == second
    assert first != backend.generate("another prompt", config)
    assert first != StubBackend(seed=6).generate("a prompt", config)


def test_stub_translation_is_identity():
    backend = StubBackend()
    config = TranslationConfig()
    assert backend.translate("hello", config) == "hello"
    assert backend.translate("", config) == ""


def test_run_matrix_original_count(tmp_path):
    sink = RecordSink(tmp_path / "records.jsonl")
    summary = run_matrix(
        [Language.HINDI], [PromptMethod.ORIGINAL], StubBackend(seed=1), sink
    )
    records = read_records(sink.path)
    assert len(records) == 288
    counts = summary.to_json_dict()["counts"]["hindi/original"]
    assert counts == {"requested": 288, "generated": 288, "skipped": 0, "failed": 0}


def test_run_matrix_all_methods_count(tmp_path):
    sink = RecordSink(tmp_path / "records.jsonl")
    run_matrix([Language.HINDI], list(PromptMethod), StubBackend(seed=1), sink)
    records = read_records(sink.path)
    assert len(records) == 864
    by_method = {}
    for record in records:
        by_method[record.method] = by_method.get(record.method, 0) + 1
    assert by_method == {method: 288 for method in PromptMethod}


def test_debias_prompts_embed_original_output(tmp_path):
    sink = RecordSink(tmp_path / "records.jsonl")
    run_matrix(
        [Language.HINDI],
        [PromptMethod.ORIGINAL, PromptMethod.SIMPLE_DEBIAS],
        StubBackend(seed=1),
        sink,
    )
    records = {r.record_id: r for r in read_records(sink.path)}
    identity = enumerate_identities()[0]
    app = Application(ApplicationKind.TODO_LIST)
    original = records[record_id_for(Language.HINDI, PromptMethod.ORIGINAL, identity, app)]
    debiased = records[
        record_id_for(Language.HINDI, PromptMethod.SIMPLE_DEBIAS, identity, app)
    ]
    assert original.raw_output in debiased.prompt_text


def test_debias_without_originals_raises(tmp_path):
    sink = RecordSink(tmp_path / "records.jsonl")
    with pytest.raises(PrerequisiteMissingError):
        run_matrix(
            [Language.HINDI], [PromptMethod.COMPLEX_DEBIAS], StubBackend(seed=1), sink
        )


def test_rerun_is_idempotent(tmp_path):
    path = tmp_path / "records.jsonl"
    run_matrix([Language.HINDI], [PromptMethod.ORIGINAL], StubBackend(seed=1), RecordSink(path))
    first_bytes = path.read_bytes()
    summary = run_matrix(
        [Language.HINDI], [PromptMethod.ORIGINAL], StubBackend(seed=1), RecordSink(path)
    )
    assert path.read_bytes() == first_bytes
    counts = summary.to_json_dict()["counts"]["hindi/original"]
    assert counts["skipped"] == 288
    assert counts["generated"] == 0


def test_same_seed_reproduces_bytes(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_matrix([Language.HINDI], [PromptMethod.ORIGINAL], StubBackend(seed=9), RecordSink(a))
    run_matrix([Language.HINDI], [PromptMethod.ORIGINAL], StubBackend(seed=9), RecordSink(b))
    assert a.read_bytes() == b.read_bytes()


def test_every_sink_line_is_complete(tmp_path):
    path = tmp_path / "records.jsonl"
    run_matrix([Language.HINDI], [PromptMethod.ORIGINAL], StubBackend(seed=1), RecordSink(path))
    required = {
        "record_id", "language", "method", "identity", "application",
        "prompt_text", "raw_output", "english_text",
    }
    for line in path.read_text().splitlines():
        record = json.loads(line)
        assert set(record) == required


@given(prompt=st.text(), seed=st.integers(min_value=-(2**100), max_value=2**100))
@example(prompt="", seed=0)
@example(prompt="नमस्ते दुनिया", seed=-1)
@example(prompt="\x00\u2028🙂", seed=2**64 + 7)
@example(prompt="", seed=-(10**40))
@settings(max_examples=500, deadline=None)
def test_stub_text_matches_the_choice_reference(prompt, seed):
    assert _stub_text(prompt, seed) == oracle.stub_text(prompt, seed, _STUB_VOCAB)


# JSON's hard cases weighted up: quotes, backslashes, control characters, the
# line and paragraph separators json.dumps leaves raw, and astral characters;
# no lone surrogates, which a UTF-8 file cannot hold
_json_text = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\x1f\x7f\x85\u2028\u2029🙂𝔸'),
        st.characters(codec="utf-8"),
    )
)


@given(
    record_id=_json_text,
    prompt_text=_json_text,
    raw_output=_json_text,
    english_text=_json_text,
    language=st.sampled_from(Language),
    method=st.sampled_from(PromptMethod),
    # built fresh, so equal to the canonical instances but not them
    identity=st.builds(
        Identity,
        st.sampled_from(Religion),
        st.sampled_from(Gender),
        st.sampled_from(MaritalStatus),
        st.sampled_from(Children),
    ),
    app=st.one_of(
        st.builds(Application, st.sampled_from(ApplicationKind)),
        st.builds(Application, st.just(ApplicationKind.STORY), st.sampled_from(StoryLocation)),
    ),
)
@example(
    record_id="hindi-original",
    prompt_text='say "\\n"\n',
    raw_output="\x00\u2028\u2029",
    english_text="\U0001f642",
    language=Language.TAMIL,
    method=PromptMethod.COMPLEX_DEBIAS,
    identity=Identity(Religion.MUSLIM, Gender.FEMALE, MaritalStatus.SINGLE, Children.ONE_CHILD),
    app=Application(ApplicationKind.STORY),  # a story with no location: on no grid cell
)
@example(  # the stub's case: the translation is the output itself
    record_id="tamil-original-x",
    prompt_text="\\",
    raw_output='" \x1f🙂',
    english_text='" \x1f🙂',
    language=Language.TAMIL,
    method=PromptMethod.ORIGINAL,
    identity=Identity(Religion.HINDU, Gender.MALE, MaritalStatus.MARRIED, Children.NO_CHILDREN),
    app=Application(ApplicationKind.STORY, StoryLocation.HOSPITAL),
)
@settings(max_examples=100, deadline=None)
def test_the_sink_writes_each_record_as_its_json_line(
    tmp_path_factory, record_id, prompt_text, raw_output, english_text,
    language, method, identity, app,
):
    record = GenerationRecord(
        record_id, language, method, identity, app, prompt_text, raw_output, english_text
    )
    path = tmp_path_factory.getbasetemp() / "one-record.jsonl"
    path.unlink(missing_ok=True)
    sink = RecordSink(path)
    sink.append(record)
    sink.close()
    line = path.read_bytes()
    assert line == jsonl_line(record.to_json_dict()).encode("utf-8")
    assert parse_row(line, GenerationRecord.from_json_dict, path, 1) == record


def test_concurrency_preserves_order(tmp_path):
    # concurrency 1 runs on the calling thread, above 1 on a pool
    files = []
    for concurrency in (1, 2, 8):
        path = tmp_path / f"records-{concurrency}.jsonl"
        summary = run_matrix(
            [Language.HINDI], list(PromptMethod), StubBackend(seed=3),
            RecordSink(path), concurrency=concurrency,
        )
        assert summary.failures == []
        files.append(path.read_bytes())
    assert len(files[0].splitlines()) == 288 * len(PromptMethod)
    assert files[1] == files[0] and files[2] == files[0]


class _Handler(BaseHTTPRequestHandler):
    behaviour = "ok"
    script = []  # behaviours for the next requests, ahead of ``behaviour``
    seen = []
    location = "/elsewhere"  # where a "redirect-<code>" points
    release = threading.Event()  # ends a "stall"
    timeout = 5  # a connection a test leaves open still ends its thread

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).seen.append(
            {
                "body": body,
                "auth": self.headers.get("Authorization"),
                "host": self.headers.get("Host"),
            }
        )
        behaviour = type(self).script.pop(0) if type(self).script else type(self).behaviour
        payload = json.dumps({"text": f"echo: {body['prompt'][:20]}"}).encode()
        if behaviour in ("ok", "ok-then-close"):
            self._answer(200, payload, {"Content-Type": "application/json"})
            # a silent close: the response did not say "Connection: close"
            self.close_connection = behaviour == "ok-then-close"
        elif behaviour == "ok-to-eof":  # no length: the body ends with the connection
            self.send_response(200)
            self.end_headers()
            self.wfile.write(payload)
            self.close_connection = True
        elif behaviour == "ok-chunked":
            self.send_response(200)
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            half = len(payload) // 2
            chunks = (payload[:half], payload[half:], b"")
            self.wfile.write(b"".join(b"%x\r\n%s\r\n" % (len(c), c) for c in chunks))
        elif behaviour == "ok-chunked-extended":  # chunk extensions and a trailer
            self.send_response(200)
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            half = len(payload) // 2
            self.wfile.write(
                b"%x;name=value\r\n%s\r\n%x ; quoted=\"a;b\"\r\n%s\r\n"
                b"0;last\r\nX-Trailer: t\r\nX-Other: u\r\n\r\n"
                % (half, payload[:half], len(payload) - half, payload[half:])
            )
        elif behaviour in ("ok-after-100", "ok-after-103"):  # interim responses first
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            if behaviour == "ok-after-103":
                self.wfile.write(
                    b"HTTP/1.1 103 Early Hints\r\nLink: </a.css>; rel=preload\r\n\r\n"
                )
            self._answer(200, payload)
        elif behaviour.startswith("fields-"):  # this many field lines in all
            count = int(behaviour.removeprefix("fields-"))
            # send_response adds Server and Date, _answer Content-Length
            self._answer(200, payload, {f"X-Field-{n}": "1" for n in range(count - 3)})
        elif behaviour.startswith("line-"):  # a field line of this many bytes
            size = int(behaviour.removeprefix("line-"))
            self._answer(200, payload, {"X-Long": "a" * (size - len("X-Long: \r\n"))})
        elif behaviour == "long-status":
            self.wfile.write(b"HTTP/1.1 200 " + b"O" * 65536 + b"\r\n\r\n")
            self.close_connection = True
        elif behaviour == "bad-status":
            self.wfile.write(b"HTTP/2.0 200 OK\r\nContent-Length: 0\r\n\r\n")
        elif behaviour in ("bad-chunk-size", "chunk-cut-short"):
            self.send_response(200)
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            size = b"zz" if behaviour == "bad-chunk-size" else b"%x" % (len(payload) + 1)
            self.wfile.write(size + b"\r\n" + payload)
            self.close_connection = True
        elif behaviour in ("no-content", "not-modified"):  # no body, no length
            self.send_response(204 if behaviour == "no-content" else 304)
            self.end_headers()
        elif behaviour == "short-body":  # the connection ends before the body does
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload) + 10))
            self.end_headers()
            self.wfile.write(payload)
            self.close_connection = True
        elif behaviour == "not-json":
            self._answer(200, b"plain text, not json")
        elif behaviour == "missing-field":
            self._answer(200, json.dumps({"output": "x"}).encode())
        elif behaviour == "not-an-object":
            self._answer(200, json.dumps(["text"]).encode())
        elif behaviour == "lone-surrogate":  # the escape decodes to U+D800 alone
            self._answer(200, b'{"text": "a \\ud800"}')
        elif behaviour == "rejected":
            self._answer(404)
        elif behaviour.startswith("redirect-"):
            code = int(behaviour.removeprefix("redirect-"))
            self._answer(code, headers={"Location": type(self).location})
        elif behaviour == "rate-limited":
            self._answer(429, headers={"Retry-After": "7"})
        elif behaviour == "rate-limited-for-ages":
            self._answer(429, headers={"Retry-After": "9" * 20})
        elif behaviour == "rate-limited-until":
            self._answer(429, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"})
        elif behaviour == "hang-up":
            self.close_connection = True  # closes the socket without answering
        elif behaviour == "stall":
            type(self).release.wait(5)
            self.close_connection = True
        else:
            self._answer(500)

    def _answer(self, status, payload=b"", headers=None):
        """The status line and headers in one write, the body in another."""
        self.send_response(status)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class _KeepAliveHandler(_Handler):
    protocol_version = "HTTP/1.1"


class _Server(ThreadingHTTPServer):
    """Counts the connections it accepted and those still open."""

    daemon_threads = False  # server_close joins every handler thread

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self.lock = threading.Lock()
        self.connections = 0
        self.open = 0

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
            self.open += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self.lock:
            self.open -= 1

    def wait_until_closed(self, seconds=2.0):
        """True once every connection the server accepted has ended."""
        deadline = time.monotonic() + seconds
        while self.open and time.monotonic() < deadline:
            time.sleep(0.01)
        return self.open == 0


def _serve(handler, context=None):
    """A server on a free port, over TLS with ``context`` if one is given."""
    server = _Server(("127.0.0.1", 0), handler)
    if context is not None:
        server.socket = context.wrap_socket(server.socket, server_side=True)
    threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    ).start()
    _Handler.behaviour = "ok"
    _Handler.script = []
    _Handler.seen = []
    _Handler.location = "/elsewhere"
    _Handler.release.clear()
    return server


def _stop(server):
    _Handler.release.set()
    server.shutdown()
    server.server_close()


@pytest.fixture
def http_server():
    """An HTTP/1.0 endpoint: one connection per request."""
    server = _serve(_Handler)
    yield f"http://127.0.0.1:{server.server_port}"
    _stop(server)


@pytest.fixture
def keep_alive_server():
    """An HTTP/1.1 endpoint that keeps each connection open for the next
    request; the test reads its counts."""
    server = _serve(_KeepAliveHandler)
    server.url = f"http://127.0.0.1:{server.server_port}"
    yield server
    _stop(server)


@pytest.fixture
def sleeps(monkeypatch):
    """Backoff delays the HTTP backend asks for, recorded instead of slept."""
    delays = []
    monkeypatch.setattr(http_backend, "time", SimpleNamespace(sleep=delays.append))
    return delays


def test_http_backend_round_trip(http_server):
    backend = HttpBackend(url=http_server, max_retries=0)
    text = backend.generate("tell me something", GenerationConfig())
    assert text == "echo: tell me something"
    body = _Handler.seen[0]["body"]
    assert body["prompt"] == "tell me something"
    assert body["temperature"] == 0.7
    assert body["top_k"] == 50
    assert body["top_p"] == 0.9
    assert body["max_new_tokens"] == 500
    assert body["repetition_penalty"] == 1.5


def test_http_translation_request_fields(http_server):
    backend = HttpBackend(url=http_server, max_retries=0)
    backend.translate("some text", TranslationConfig())
    body = _Handler.seen[-1]["body"]
    assert body == {"prompt": "some text", "num_beams": 3, "max_new_tokens": 500}


def test_http_backend_sends_bearer_token(http_server, monkeypatch):
    monkeypatch.setenv("TEST_API_TOKEN", "sekret")
    backend = HttpBackend(url=http_server, auth_env="TEST_API_TOKEN", max_retries=0)
    backend.generate("x", GenerationConfig())
    assert _Handler.seen[-1]["auth"] == "Bearer sekret"


def test_http_backend_non_json_response(http_server):
    _Handler.behaviour = "not-json"
    backend = HttpBackend(url=http_server, max_retries=0)
    with pytest.raises(MalformedResponseError):
        backend.generate("x", GenerationConfig())


@pytest.mark.parametrize("behaviour", ["missing-field", "not-an-object"])
def test_http_backend_missing_text_field(http_server, behaviour):
    _Handler.behaviour = behaviour
    backend = HttpBackend(url=http_server, max_retries=0)
    with pytest.raises(MalformedResponseError):
        backend.generate("x", GenerationConfig())


def test_a_lone_surrogate_in_a_response_fails_its_cell_alone(http_server, tmp_path):
    """A text that does not encode as UTF-8 is a malformed response: its
    cell fails, every other cell is stored, and the record file stays
    UTF-8, so a resume asks for that cell again."""
    _Handler.script = ["ok"] * 9 + ["lone-surrogate"]  # the tenth call
    sink = RecordSink(tmp_path / "records.jsonl")
    summary = run_matrix(
        [Language.HINDI], [PromptMethod.ORIGINAL],
        HttpBackend(url=http_server, max_retries=0), sink,
    )
    [failure] = summary.failures
    assert failure["error"] == "response text holds a lone surrogate"
    sink.path.read_bytes().decode("utf-8")
    stored = {record.record_id for record in read_records(sink.path)}
    assert len(stored) == 287
    assert failure["record_id"] not in stored


def test_http_backend_retries_then_gives_up(http_server):
    _Handler.behaviour = "error"
    backend = HttpBackend(url=http_server, max_retries=2, backoff=0.0)
    with pytest.raises(BackendUnavailableError):
        backend.generate("x", GenerationConfig())
    assert len(_Handler.seen) == 3  # initial try plus two retries


@pytest.mark.parametrize(
    "behaviour",
    ["rejected", "redirect-301", "redirect-302", "redirect-303", "redirect-307"],
)
def test_http_backend_does_not_retry_a_rejection(http_server, behaviour):
    _Handler.behaviour = behaviour
    backend = HttpBackend(url=http_server, max_retries=3, backoff=0.0)
    with pytest.raises(MalformedResponseError):
        backend.generate("x", GenerationConfig())
    assert len(_Handler.seen) == 1


@pytest.mark.parametrize(
    "behaviour", ["error", "rate-limited", "rejected", "redirect-302"]
)
def test_http_backend_closes_error_responses(keep_alive_server, behaviour):
    # an error response is read to its end, so its connection serves the next call
    _Handler.script = [behaviour]
    backend = HttpBackend(url=keep_alive_server.url, max_retries=0)
    try:
        with pytest.raises(BackendError):
            backend.generate("x", GenerationConfig())
        assert backend.generate("y", GenerationConfig()) == "echo: y"
    finally:
        backend.close()
    assert keep_alive_server.connections == 1
    assert keep_alive_server.wait_until_closed()


@pytest.mark.parametrize("handler", [_Handler, _KeepAliveHandler], ids=["1.0", "1.1"])
def test_http_backend_reads_a_body_that_ends_with_the_connection(handler):
    server = _serve(handler)
    _Handler.behaviour = "ok-to-eof"
    backend = HttpBackend(url=f"http://127.0.0.1:{server.server_port}", max_retries=0)
    try:
        for n in range(2):
            assert backend.generate(f"p{n}", GenerationConfig()) == f"echo: p{n}"
        assert server.connections == 2  # the second call opened a new one
        assert server.wait_until_closed()
    finally:
        backend.close()
        _stop(server)


def test_http_backend_keeps_the_connection_after_a_chunked_body(keep_alive_server):
    _Handler.behaviour = "ok-chunked"
    backend = HttpBackend(url=keep_alive_server.url, max_retries=0)
    try:
        for n in range(2):
            assert backend.generate(f"p{n}", GenerationConfig()) == f"echo: p{n}"
    finally:
        backend.close()
    assert keep_alive_server.connections == 1
    assert keep_alive_server.wait_until_closed()


def test_http_backend_keeps_one_connection_for_both_urls(keep_alive_server):
    url = keep_alive_server.url
    backend = HttpBackend(url=f"{url}/generate", translate_url=f"{url}/translate")
    try:
        for n in range(10):
            assert backend.generate(f"g{n}", GenerationConfig()) == f"echo: g{n}"
            assert backend.translate(f"t{n}", TranslationConfig()) == f"echo: t{n}"
    finally:
        backend.close()
    assert len(_Handler.seen) == 20
    assert keep_alive_server.connections == 1
    assert keep_alive_server.wait_until_closed()


def test_run_matrix_keeps_one_connection_per_worker(keep_alive_server, tmp_path):
    backend = HttpBackend(url=keep_alive_server.url, max_retries=0)
    try:
        summary = run_matrix(
            [Language.HINDI], [PromptMethod.ORIGINAL], backend,
            RecordSink(tmp_path / "records.jsonl"), concurrency=2,
        )
    finally:
        backend.close()
    assert summary.failures == []
    assert len(_Handler.seen) == 2 * 288  # a generation and a translation per cell
    assert keep_alive_server.connections <= 2
    assert keep_alive_server.wait_until_closed()


@pytest.mark.parametrize("behaviour", ["ok", "error"])
def test_generate_stage_leaves_no_connection_open(keep_alive_server, tmp_path, behaviour):
    _Handler.behaviour = behaviour
    config = RunConfig(
        out_dir=tmp_path,
        methods=[PromptMethod.ORIGINAL, PromptMethod.SIMPLE_DEBIAS],
        backend=HttpBackend(url=keep_alive_server.url, max_retries=0),
        concurrency=2,
    )
    if behaviour == "ok":
        counts, _ = generate_stage(config)
        assert counts["hindi/simple"]["generated"] == 288
    else:  # every original fails, so the debias phase raises
        with pytest.raises(BackendUnavailableError):
            generate_stage(config)
    assert keep_alive_server.connections <= 2
    assert keep_alive_server.wait_until_closed()


def test_http_backend_resends_on_a_connection_closed_while_idle(keep_alive_server, sleeps):
    _Handler.behaviour = "ok-then-close"
    backend = HttpBackend(url=keep_alive_server.url, max_retries=1)
    try:
        for n in range(3):
            assert backend.generate(f"p{n}", GenerationConfig()) == f"echo: p{n}"
    finally:
        backend.close()
    assert len(_Handler.seen) == 3
    assert sleeps == []  # the re-sends were not retries


def test_http_backend_resends_once_then_retries(keep_alive_server, sleeps):
    # a re-send that meets a closed connection again is an error, not a loop
    _Handler.script = ["ok"]
    _Handler.behaviour = "hang-up"
    backend = HttpBackend(url=keep_alive_server.url, max_retries=1)
    try:
        assert backend.generate("x", GenerationConfig()) == "echo: x"
        with pytest.raises(BackendUnavailableError):
            backend.generate("y", GenerationConfig())
    finally:
        backend.close()
    assert len(_Handler.seen) == 4  # the answer, then a re-send and a retry
    assert len(sleeps) == 1


@pytest.mark.skipif(
    not hasattr(socket, "TCP_QUICKACK"), reason="the platform has no TCP_QUICKACK"
)
def test_kept_alive_calls_do_not_wait_for_a_delayed_ack(keep_alive_server):
    # the handler writes the headers and the body apart with Nagle on, so a
    # client that delays its ACK of the headers waits ~40 ms per response
    backend = HttpBackend(url=keep_alive_server.url, max_retries=0)
    start = time.perf_counter()
    try:
        for _ in range(50):
            backend.generate("x", GenerationConfig())
    finally:
        backend.close()
    assert keep_alive_server.connections == 1
    assert time.perf_counter() - start < 1.0


def test_http_backend_retries_a_hang_up(http_server):
    _Handler.behaviour = "hang-up"
    backend = HttpBackend(url=http_server, max_retries=2, backoff=0.0)
    with pytest.raises(BackendUnavailableError):
        backend.generate("x", GenerationConfig())
    assert len(_Handler.seen) == 3


def test_http_backend_retries_a_timeout(http_server):
    _Handler.script = ["stall"]
    backend = HttpBackend(url=http_server, timeout=0.2, max_retries=1, backoff=0.0)
    assert backend.generate("x", GenerationConfig()) == "echo: x"
    assert len(_Handler.seen) == 2


def test_http_backend_retries_429_after_retry_after(http_server, sleeps):
    _Handler.script = ["rate-limited", "rate-limited"]
    backend = HttpBackend(url=http_server, max_retries=3, backoff=0.5)
    assert backend.generate("x", GenerationConfig()) == "echo: x"
    assert len(_Handler.seen) == 3
    assert sleeps == [7, 7]


def test_http_backend_gives_up_on_persistent_429(http_server, sleeps):
    _Handler.behaviour = "rate-limited"
    backend = HttpBackend(url=http_server, max_retries=2, backoff=0.5)
    with pytest.raises(BackendUnavailableError, match="429"):
        backend.generate("x", GenerationConfig())
    assert len(_Handler.seen) == 3
    assert sleeps == [7, 7]


def test_http_backend_caps_retry_after_at_the_timeout(http_server, sleeps):
    _Handler.script = ["rate-limited-for-ages", "rate-limited"]
    backend = HttpBackend(url=http_server, timeout=3.0, max_retries=2, backoff=0.5)
    assert backend.generate("x", GenerationConfig()) == "echo: x"
    assert sleeps == [3.0, 3.0]


def test_http_backend_does_not_follow_a_redirect_elsewhere(http_server, monkeypatch):
    class _Elsewhere(BaseHTTPRequestHandler):
        seen = []

        def do_GET(self):
            type(self).seen.append(self.headers.get("Authorization"))
            self.send_response(200)
            self.end_headers()
            self.wfile.write(json.dumps({"text": "from elsewhere"}).encode())

        do_POST = do_GET

        def log_message(self, *args):
            pass

    elsewhere = _Server(("127.0.0.1", 0), _Elsewhere)
    thread = threading.Thread(target=elsewhere.serve_forever, daemon=True)
    thread.start()
    try:
        _Handler.behaviour = "redirect-302"
        _Handler.location = f"http://127.0.0.1:{elsewhere.server_port}/steal"
        monkeypatch.setenv("TEST_API_TOKEN", "sekret")
        backend = HttpBackend(
            url=http_server, auth_env="TEST_API_TOKEN", max_retries=2, backoff=0.0
        )
        with pytest.raises(MalformedResponseError, match="302"):
            backend.generate("x", GenerationConfig())
    finally:
        elsewhere.shutdown()
        elsewhere.server_close()
    assert [seen["auth"] for seen in _Handler.seen] == ["Bearer sekret"]
    assert _Elsewhere.seen == []


def test_http_backend_backs_off_with_full_jitter(http_server, sleeps):
    _Handler.behaviour = "error"
    state = random.getstate()
    backend = HttpBackend(url=http_server, max_retries=2, backoff=1.0)
    for _ in range(5):
        with pytest.raises(BackendUnavailableError):
            backend.generate("x", GenerationConfig())
    assert len(sleeps) == 10
    for n, delay in enumerate(sleeps):
        assert 0 <= delay <= 2 ** (n % 2)
    assert len(set(sleeps)) == 10  # drawn, not the bounds
    assert random.getstate() == state  # from the backend's own generator


@pytest.mark.parametrize("behaviour", ["ok-after-100", "ok-after-103"])
def test_http_backend_skips_interim_responses(keep_alive_server, behaviour):
    _Handler.behaviour = behaviour
    backend = HttpBackend(url=keep_alive_server.url, max_retries=0)
    try:
        for n in range(2):
            assert backend.generate(f"p{n}", GenerationConfig()) == f"echo: p{n}"
    finally:
        backend.close()
    assert keep_alive_server.connections == 1


@pytest.mark.parametrize(
    "behaviour",
    [
        "long-status",
        "bad-status",
        "line-65537",
        "fields-101",
        "bad-chunk-size",
        "chunk-cut-short",
    ],
)
def test_http_backend_retries_a_malformed_response(keep_alive_server, behaviour, sleeps):
    _Handler.behaviour = behaviour
    backend = HttpBackend(url=keep_alive_server.url, max_retries=1)
    try:
        with pytest.raises(BackendUnavailableError):
            backend.generate("x", GenerationConfig())
    finally:
        backend.close()
    assert len(_Handler.seen) == 2
    assert len(sleeps) == 1
    assert keep_alive_server.wait_until_closed()


@pytest.mark.parametrize("behaviour", ["line-65536", "fields-100"])
def test_http_backend_takes_a_head_at_the_limits(keep_alive_server, behaviour):
    _Handler.behaviour = behaviour
    backend = HttpBackend(url=keep_alive_server.url, max_retries=0)
    try:
        for n in range(2):
            assert backend.generate(f"p{n}", GenerationConfig()) == f"echo: p{n}"
    finally:
        backend.close()
    assert keep_alive_server.connections == 1


@pytest.mark.parametrize(
    "behaviour, error", [("no-content", "not JSON"), ("not-modified", "status 304")]
)
def test_http_backend_reads_no_body_after_a_204_or_304(keep_alive_server, behaviour, error):
    _Handler.script = [behaviour]
    backend = HttpBackend(url=keep_alive_server.url, timeout=2.0, max_retries=0)
    try:
        with pytest.raises(MalformedResponseError, match=error):
            backend.generate("x", GenerationConfig())
        assert backend.generate("y", GenerationConfig()) == "echo: y"
    finally:
        backend.close()
    assert keep_alive_server.connections == 1


def test_http_backend_retries_a_body_cut_short(keep_alive_server, sleeps):
    _Handler.script = ["short-body"]
    backend = HttpBackend(url=keep_alive_server.url, max_retries=1)
    try:
        assert backend.generate("x", GenerationConfig()) == "echo: x"
    finally:
        backend.close()
    assert len(_Handler.seen) == 2
    assert len(sleeps) == 1  # a retry, not a re-send
    assert keep_alive_server.connections == 2


def test_http_backend_reads_chunk_extensions_and_trailers(keep_alive_server):
    _Handler.behaviour = "ok-chunked-extended"
    backend = HttpBackend(url=keep_alive_server.url, max_retries=0)
    try:
        for n in range(3):  # chunks of 15 and 16 bytes: sizes "f" and "10"
            text = backend.generate(f"prompt number {n}", GenerationConfig())
            assert text == f"echo: prompt number {n}"
    finally:
        backend.close()
    assert keep_alive_server.connections == 1
    assert keep_alive_server.wait_until_closed()


def test_http_backend_sends_the_host_and_port_without_userinfo(keep_alive_server):
    host = keep_alive_server.url.removeprefix("http://")
    backend = HttpBackend(url=f"http://user:pw@{host}/generate", max_retries=0)
    try:
        backend.generate("x", GenerationConfig())
    finally:
        backend.close()
    assert [seen["host"] for seen in _Handler.seen] == [host]


@pytest.mark.parametrize(
    "url, host",
    [
        # each as http.client sends it
        ("http://u:p@Example.com/x", "Example.com"),
        ("http://example.com:80/x", "example.com"),
        ("https://example.com:443/x", "example.com"),
        ("https://example.com:80/x", "example.com:80"),
        ("http://host:/x", "host"),
        ("http://[::1]:8080/x", "[::1]:8080"),
        ("http://[fe80::1%25eth0]/x", "[fe80::1]"),
        ("http://bücher.example:8080/x", "xn--bcher-kva.example:8080"),
    ],
)
def test_the_host_field_is_the_one_http_client_sends(url, host):
    _, direct, proxied = http_backend._route("url", url)
    assert f"\r\nHost: {host}\r\n".encode() in direct
    assert proxied.startswith(f"POST {url[: url.index(':')]}://{host}/x HTTP/1.1".encode())


def test_a_token_that_would_break_the_head_is_never_sent(keep_alive_server, tmp_path, monkeypatch):
    monkeypatch.setenv("TEST_API_TOKEN", "sekret\r\nX-Injected: 1")
    config = RunConfig(
        out_dir=tmp_path,
        methods=[PromptMethod.ORIGINAL],
        backend=HttpBackend(
            url=keep_alive_server.url, auth_env="TEST_API_TOKEN", max_retries=0
        ),
    )
    with pytest.raises(BackendUnavailableError):
        generate_stage(config)
    assert _Handler.seen == []
    summary = (tmp_path / "run_summary.json").read_text()
    assert "sekret" not in summary and "Injected" not in summary
    assert "the token in TEST_API_TOKEN holds CR, LF or NUL" in summary


class _Proxy(_Handler):
    """Records each request; answers a POST itself and refuses a tunnel."""

    seen = []
    garbled = False  # refuse a tunnel with no status line

    def do_POST(self):
        self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self._record()
        self._answer(200, json.dumps({"text": "via proxy"}).encode())

    def do_CONNECT(self):
        self._record()
        if type(self).garbled:
            self.wfile.write(b"garbage\r\n\r\n")
        else:
            self._answer(502)

    def _record(self):
        type(self).seen.append(
            (self.command, self.path, self.headers.get("Proxy-Authorization"))
        )


def _recording_proxy(monkeypatch, context=None):
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    _Proxy.seen = []
    _Proxy.garbled = False
    server = _serve(_Proxy, context)
    yield f"127.0.0.1:{server.server_port}"
    _stop(server)


@pytest.fixture
def proxy(monkeypatch):
    """A recording proxy, with no proxy variable set yet."""
    yield from _recording_proxy(monkeypatch)


@pytest.fixture
def tls_proxy(monkeypatch, tmp_path):
    """A recording proxy reached over TLS, with a certificate for 127.0.0.1
    that the client's default context trusts."""
    if shutil.which("openssl") is None:
        pytest.skip("no openssl command to make a certificate")
    subprocess.run(
        ["openssl", "req", "-x509", "-nodes", "-days", "1", "-newkey", "ec",
         "-pkeyopt", "ec_paramgen_curve:prime256v1", "-subj", "/CN=127.0.0.1",
         "-addext", "subjectAltName=IP:127.0.0.1",
         "-keyout", "key.pem", "-out", "cert.pem"],
        cwd=tmp_path, check=True, capture_output=True,
    )
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(tmp_path / "cert.pem", tmp_path / "key.pem")
    monkeypatch.setenv("SSL_CERT_FILE", str(tmp_path / "cert.pem"))
    yield from _recording_proxy(monkeypatch, context)


_BASIC = "Basic " + base64.b64encode(b"user:p@ss").decode()


def test_http_backend_sends_an_http_url_to_the_proxy(proxy, monkeypatch):
    monkeypatch.setenv("http_proxy", f"http://user:p%40ss@{proxy}")
    url = "http://127.0.0.2:9/generate?v=1"  # refused unless proxied
    backend = HttpBackend(url=url, max_retries=0)
    try:
        assert backend.generate("x", GenerationConfig()) == "via proxy"
    finally:
        backend.close()
    assert _Proxy.seen == [("POST", url, _BASIC)]  # the absolute form


def test_http_backend_speaks_tls_to_an_https_proxy(tls_proxy, monkeypatch):
    monkeypatch.setenv("http_proxy", f"https://user:p%40ss@{tls_proxy}")
    url = "http://127.0.0.2:9/generate"  # refused unless proxied
    backend = HttpBackend(url=url, max_retries=0)
    try:
        assert backend.generate("x", GenerationConfig()) == "via proxy"
    finally:
        backend.close()
    assert _Proxy.seen == [("POST", url, _BASIC)]


def test_http_backend_tunnels_an_https_url_through_the_proxy(proxy, monkeypatch):
    monkeypatch.setenv("https_proxy", f"http://user:p%40ss@{proxy}")
    backend = HttpBackend(url="https://127.0.0.2:9/generate", max_retries=0)
    try:
        with pytest.raises(BackendUnavailableError, match="502"):
            backend.generate("x", GenerationConfig())
    finally:
        backend.close()
    assert _Proxy.seen == [("CONNECT", "127.0.0.2:9", _BASIC)]


def test_a_garbled_tunnel_answer_leaves_no_socket_open(proxy, monkeypatch):
    _Proxy.garbled = True
    monkeypatch.setenv("https_proxy", f"http://{proxy}")
    backend = HttpBackend(url="https://127.0.0.2:9/generate", max_retries=0)
    with pytest.raises(BackendUnavailableError, match="garbage"):
        backend.generate("x", GenerationConfig())
    # the error's traceback holds the connection; a socket left open would
    # now raise a ResourceWarning, which fails the test
    gc.collect()
    assert _Proxy.seen == [("CONNECT", "127.0.0.2:9", None)]


def test_http_backend_goes_direct_to_a_host_no_proxy_lists(proxy, http_server, monkeypatch):
    monkeypatch.setenv("http_proxy", f"http://{proxy}")
    monkeypatch.setenv("no_proxy", "localhost,127.0.0.1")
    backend = HttpBackend(url=http_server, max_retries=0)
    try:
        assert backend.generate("x", GenerationConfig()) == "echo: x"
    finally:
        backend.close()
    assert _Proxy.seen == []
    assert len(_Handler.seen) == 1


def test_http_backend_does_not_wait_for_a_retry_after_date_gone_by(
    http_server, sleeps
):
    _Handler.script = ["rate-limited-until"]  # a date in 2015
    backend = HttpBackend(url=http_server, max_retries=1, backoff=0.5)
    assert backend.generate("x", GenerationConfig()) == "echo: x"
    assert sleeps == [0.0]


def test_retry_after_reads_seconds_and_http_dates():
    now = datetime.now(timezone.utc)

    def http_date(seconds: float) -> str:
        return format_datetime(now + timedelta(seconds=seconds), usegmt=True)

    assert _retry_after("7", 0.5, 30) == 7
    assert _retry_after(" 7 ", 0.5, 30) == 7
    assert _retry_after("9" * 20, 0.5, 30) == 30
    assert 18 < _retry_after(http_date(20), 0.5, 30) <= 20
    assert _retry_after(http_date(120), 0.5, 30) == 30  # capped as seconds are
    assert _retry_after(http_date(-120), 0.5, 30) == 0  # already passed
    # the obsolete forms RFC 9110 still asks recipients to accept
    later = now + timedelta(seconds=20)
    asctime = later.strftime("%a %b %d %H:%M:%S %Y")
    assert 18 < _retry_after(asctime, 0.5, 30) <= 20
    assert 18 < _retry_after(format_datetime(later), 0.5, 30) <= 20  # "-0000"
    invalid = (
        None,
        "",
        "soon",
        "-3",
        "1.5",
        "Wed, 99 Oct 2015 07:28:00 GMT",
        "Wed, 21 Oct 99999999999999999999 07:28:00 GMT",  # year overflows a C long
        "Wed, 21 Oct 2015 07:28:00 +99999999999999999999",  # zone overflows a C int
        "Wed, 21 Oct 2015 07:28:00 +9999",  # zone of 24 hours or more
    )
    for value in invalid:
        assert _retry_after(value, 0.5, 30) == 0.5


def test_http_backend_unreachable_host():
    backend = HttpBackend(url="http://127.0.0.1:9", max_retries=1, backoff=0.0)
    with pytest.raises(BackendUnavailableError):
        backend.generate("x", GenerationConfig())


def test_runtime_does_not_import_requests():
    code = "import sys, biaslex.pipeline, biaslex.cli; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert (result.returncode, result.stdout.strip()) == (0, "False"), result.stderr


@pytest.mark.parametrize("concurrency", [1, 2])
def test_record_failures_do_not_stop_the_run(tmp_path, concurrency):
    # every 10th cell in canonical order fails, whichever thread calls for it
    cells = [(i, a) for i in enumerate_identities() for a in iter_applications()]
    failing = cells[9::10]
    outage = {render_application_prompt(i, a, Language.HINDI) for i, a in failing}

    class FlakyBackend(StubBackend):
        def generate(self, prompt, config):
            if prompt in outage:
                raise BackendUnavailableError("transient outage")
            return super().generate(prompt, config)

    sink = RecordSink(tmp_path / "records.jsonl")
    summary = run_matrix(
        [Language.HINDI], [PromptMethod.ORIGINAL], FlakyBackend(seed=1), sink,
        concurrency=concurrency,
    )
    counts = summary.to_json_dict()["counts"]["hindi/original"]
    assert counts["failed"] == 28
    assert counts["generated"] == 260
    assert summary.failures == [
        {
            "record_id": record_id_for(Language.HINDI, PromptMethod.ORIGINAL, i, a),
            "error": "transient outage",
        }
        for i, a in failing
    ]
    assert len(read_records(sink.path)) == 260


def _original_run(path, seed=1):
    run_matrix([Language.HINDI], [PromptMethod.ORIGINAL], StubBackend(seed=seed), RecordSink(path))
    return path.read_bytes()


def test_truncated_last_line_is_dropped_and_regenerated(tmp_path):
    path = tmp_path / "records.jsonl"
    full = _original_run(path)
    last_line = full[full.rstrip(b"\n").rfind(b"\n") + 1 :]
    path.write_bytes(full[:-40])  # a crash in the middle of the last write

    sink = RecordSink(path)
    assert path.read_bytes() == full[:-40]  # opening mends nothing
    assert sink.dropped_tail == {"line": 288, "bytes": len(last_line) - 40}
    summary = run_matrix(
        [Language.HINDI], [PromptMethod.ORIGINAL], StubBackend(seed=1), sink
    ).to_json_dict()
    assert path.read_bytes() == full
    assert summary["counts"]["hindi/original"]["generated"] == 1
    assert summary["dropped_tail"] == sink.dropped_tail


def test_truncation_inside_a_multibyte_character_is_a_partial_write(tmp_path):
    path = tmp_path / "records.jsonl"
    _original_run(path)
    first, second = read_records(path)[:2]
    records = [first, replace(second, raw_output="आज बाज़ार")]
    write_jsonl(path, (r.to_json_dict() for r in records))
    data = path.read_bytes()
    path.write_bytes(data[: data.index("बाज़ार".encode()) + 1])

    sink = RecordSink(path)
    assert first.record_id in sink and second.record_id not in sink
    assert sink.dropped_tail["line"] == 2
    sink.close()  # cuts the torn line
    assert read_records(path) == [first]


def test_line_separator_inside_a_record_is_not_a_line_break(tmp_path):
    # json.dumps(ensure_ascii=False) leaves U+2028 raw; only "\n" ends a record
    path = tmp_path / "records.jsonl"
    _original_run(path)
    first = read_records(path)[0]
    row = replace(first, raw_output="one\u2028two\x85three").to_json_dict()
    write_jsonl(path, [row])
    sink = RecordSink(path)
    assert first.record_id in sink and sink.dropped_tail is None


def test_clean_run_summary_reports_no_dropped_tail(tmp_path):
    path = tmp_path / "records.jsonl"
    _original_run(path)
    summary = run_matrix(
        [Language.HINDI], [PromptMethod.ORIGINAL], StubBackend(seed=1), RecordSink(path)
    ).to_json_dict()
    assert set(summary) == {"counts", "failures"}


def test_complete_unterminated_last_line_is_kept(tmp_path):
    path = tmp_path / "records.jsonl"
    full = _original_run(path)
    path.write_bytes(full[:-1])
    sink = RecordSink(path)
    assert sink.dropped_tail is None
    assert path.read_bytes() == full[:-1]
    assert len(sink._ids) == 288
    sink.close()  # ends the last line
    assert path.read_bytes() == full


def test_corrupt_line_before_the_last_is_refused(tmp_path):
    path = tmp_path / "records.jsonl"
    lines = _original_run(path).splitlines(keepends=True)
    lines[4] = lines[4][:30] + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(RowError, match="line 5 ") as info:
        RecordSink(path)
    assert isinstance(info.value, ValueError)
    assert path.read_bytes() == b"".join(lines)


def test_a_record_off_the_grid_is_refused(tmp_path):
    path = tmp_path / "records.jsonl"
    lines = _original_run(path).splitlines(keepends=True)
    lines[2] = lines[2].replace(b'"religion": "hindu"', b'"religion": "jain"', 1)
    path.write_bytes(b"".join(lines))
    with pytest.raises(RowError, match="line 3 .*'jain' is not a valid"):
        RecordSink(path)


def test_sink_records_are_the_files_records_in_file_order(tmp_path):
    path = tmp_path / "records.jsonl"
    full = _original_run(path)
    path.write_bytes(full[: full.index(b"\n", len(full) // 2) + 1])
    sink = RecordSink(path)
    loaded = len(sink.records)
    run_matrix([Language.HINDI], [PromptMethod.ORIGINAL], StubBackend(seed=1), sink)
    assert path.read_bytes() == full
    assert 0 < loaded < len(sink.records) == 288
    assert sink.records == read_records(path)


def test_sink_keeps_one_handle_and_reopens_after_close(tmp_path):
    path = tmp_path / "records.jsonl"
    _original_run(path)
    records = read_records(path)
    target = tmp_path / "copy.jsonl"
    sink = RecordSink(target)
    sink.append(records[0])
    handle = sink._handle
    sink.append(records[1])
    assert sink._handle is handle
    assert target.read_bytes().count(b"\n") == 2  # flushed line by line
    sink.close()
    assert handle.closed
    sink.append(records[2])
    sink.close()
    assert read_records(target) == records[:3]


class _DeadBackend(StubBackend):
    def __init__(self, error: Exception):
        super().__init__()
        self.error = error

    def generate(self, prompt, config):
        raise self.error


def test_debias_after_every_original_call_failed_is_a_backend_failure(tmp_path):
    sink = RecordSink(tmp_path / "records.jsonl")
    summary = RunSummary()
    backend = _DeadBackend(BackendUnavailableError("connection refused"))
    methods = [PromptMethod.ORIGINAL, PromptMethod.SIMPLE_DEBIAS]
    with pytest.raises(BackendUnavailableError, match="connection refused"):
        run_matrix([Language.HINDI], methods, backend, sink, summary=summary)
    # the summary passed in holds what the run did before it stopped
    assert summary.counts["hindi/original"]["failed"] == 288
    assert len(summary.failures) == 288


def test_debias_after_failures_that_are_not_the_backends_needs_originals(tmp_path):
    sink = RecordSink(tmp_path / "records.jsonl")
    methods = [PromptMethod.ORIGINAL, PromptMethod.SIMPLE_DEBIAS]
    with pytest.raises(PrerequisiteMissingError):
        run_matrix(
            [Language.HINDI], methods, _DeadBackend(RuntimeError("bug")), sink
        )


def test_run_matrix_closes_the_sink(tmp_path):
    sink = RecordSink(tmp_path / "records.jsonl")
    run_matrix([Language.HINDI], [PromptMethod.ORIGINAL], StubBackend(seed=1), sink)
    assert sink._handle is None
    with pytest.raises(PrerequisiteMissingError):
        run_matrix([Language.TAMIL], [PromptMethod.SIMPLE_DEBIAS], StubBackend(seed=1), sink)
    assert sink._handle is None


def test_empty_original_is_a_cell_failure(tmp_path):
    path = tmp_path / "records.jsonl"
    lines = _original_run(path).splitlines(keepends=True)
    blanked = json.loads(lines[0])
    blanked["raw_output"] = ""
    lines[0] = (json.dumps(blanked, ensure_ascii=False) + "\n").encode()
    path.write_bytes(b"".join(lines))

    for _ in range(2):  # the first run and a resume
        summary = run_matrix(
            [Language.HINDI], [PromptMethod.SIMPLE_DEBIAS], StubBackend(seed=1),
            RecordSink(path),
        )
    counts = summary.to_json_dict()["counts"]["hindi/simple"]
    assert counts["failed"] == 1
    assert counts["skipped"] == 287
    assert summary.failures == [
        {
            "record_id": blanked["record_id"].replace("-original-", "-simple-"),
            "error": "original output empty",
        }
    ]


@pytest.mark.parametrize("concurrency", [0, -3])
def test_run_matrix_refuses_a_concurrency_below_one(tmp_path, concurrency):
    with pytest.raises(ValueError):
        run_matrix(
            [Language.HINDI], [PromptMethod.ORIGINAL], StubBackend(seed=1),
            RecordSink(tmp_path / "records.jsonl"), concurrency=concurrency,
        )
    assert not (tmp_path / "records.jsonl").exists()


class _SlowStub(StubBackend):
    """A stub that takes a few ms per generation and calls ``on_call(n)`` at
    the start of its n-th one."""

    def __init__(self, seed, on_call=lambda n: None):
        super().__init__(seed)
        self.calls = 0
        self._lock = threading.Lock()
        self._on_call = on_call

    def generate(self, prompt, config):
        with self._lock:
            self.calls += 1
            n = self.calls
        self._on_call(n)
        time.sleep(0.003)
        return super().generate(prompt, config)


@pytest.mark.parametrize("concurrency", [1, 2])
def test_interrupt_cancels_the_queued_calls(tmp_path, concurrency):
    full = _original_run(tmp_path / "full.jsonl", seed=4)
    path = tmp_path / "records.jsonl"
    sink = RecordSink(path)

    def interrupt(n):
        if n == 20:
            os.kill(os.getpid(), signal.SIGINT)

    backend = _SlowStub(4, interrupt)
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            run_matrix(
                [Language.HINDI], [PromptMethod.ORIGINAL], backend, sink,
                concurrency=concurrency,
            )
    finally:
        signal.signal(signal.SIGINT, previous)
    kept = path.read_bytes()
    if concurrency == 1:
        # the call runs on the calling thread, so the interrupt lands in it
        assert backend.calls == 20 and len(kept.splitlines()) == 19
    else:
        # only the calls already running finish; waiting out the queue made 288
        assert backend.calls <= 20 + 2 * concurrency
    assert kept.endswith(b"\n") and full.startswith(kept)
    assert sink._handle is None
    assert _original_run(path, seed=4) == full  # a resume completes the file


@pytest.mark.parametrize("concurrency", [1, 2])
def test_a_failing_sink_cancels_the_queued_calls(tmp_path, concurrency):
    class FullDisk(RecordSink):
        def append(self, record):
            if len(self._ids) == 10:
                raise OSError(28, "No space left on device")
            super().append(record)

    full = _original_run(tmp_path / "full.jsonl")
    path = tmp_path / "records.jsonl"
    backend = _SlowStub(1)
    sink = FullDisk(path)
    with pytest.raises(OSError):
        run_matrix(
            [Language.HINDI], [PromptMethod.ORIGINAL], backend, sink,
            concurrency=concurrency,
        )
    if concurrency == 1:
        assert backend.calls == 11  # no call starts after the failed write
    else:
        assert backend.calls <= 11 + 2 * concurrency
    assert sink._handle is None
    kept = path.read_bytes()
    assert len(kept.splitlines()) == 10 and full.startswith(kept)
    assert _original_run(path) == full  # a resume completes the file
