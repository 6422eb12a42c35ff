import json
import threading
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from biaslex.corpus import read_records, write_records
from biaslex.generation import (
    BackendUnavailableError,
    CorruptRecordsError,
    GenerationConfig,
    HttpBackend,
    MalformedResponseError,
    PrerequisiteMissingError,
    RecordSink,
    StubBackend,
    TranslationConfig,
    generate,
    record_id_for,
    run_matrix,
    translate,
)
from biaslex.identities import (
    Application,
    ApplicationKind,
    Language,
    PromptMethod,
    enumerate_identities,
)


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


def test_stub_is_deterministic():
    backend = StubBackend(seed=5)
    config = GenerationConfig()
    first = generate("a prompt", config, backend)
    second = generate("a prompt", config, backend)
    assert first == second
    assert first != generate("another prompt", config, backend)
    assert first != generate("a prompt", config, StubBackend(seed=6))


def test_stub_translation_is_identity():
    backend = StubBackend()
    config = TranslationConfig()
    assert translate("hello", config, backend) == "hello"
    assert translate("", config, backend) == ""


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


def test_concurrency_preserves_order(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_matrix(
        [Language.HINDI], [PromptMethod.ORIGINAL], StubBackend(seed=3),
        RecordSink(a), concurrency=1,
    )
    run_matrix(
        [Language.HINDI], [PromptMethod.ORIGINAL], StubBackend(seed=3),
        RecordSink(b), concurrency=8,
    )
    assert a.read_bytes() == b.read_bytes()


class _Handler(BaseHTTPRequestHandler):
    behaviour = "ok"
    seen = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).seen.append({"body": body, "auth": self.headers.get("Authorization")})
        if type(self).behaviour == "ok":
            payload = json.dumps({"text": f"echo: {body['prompt'][:20]}"})
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(payload.encode())
        elif type(self).behaviour == "not-json":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"plain text, not json")
        elif type(self).behaviour == "missing-field":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(json.dumps({"output": "x"}).encode())
        else:
            self.send_response(500)
            self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.behaviour = "ok"
    _Handler.seen = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


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


def test_http_backend_missing_text_field(http_server):
    _Handler.behaviour = "missing-field"
    backend = HttpBackend(url=http_server, max_retries=0)
    with pytest.raises(MalformedResponseError):
        backend.generate("x", GenerationConfig())


def test_http_backend_retries_then_gives_up(http_server):
    _Handler.behaviour = "error"
    backend = HttpBackend(url=http_server, max_retries=2, backoff=0.0)
    with pytest.raises(BackendUnavailableError):
        backend.generate("x", GenerationConfig())
    assert len(_Handler.seen) == 3  # initial try plus two retries


def test_http_backend_unreachable_host():
    backend = HttpBackend(url="http://127.0.0.1:9", max_retries=1, backoff=0.0)
    with pytest.raises(BackendUnavailableError):
        backend.generate("x", GenerationConfig())


def test_record_failures_do_not_stop_the_run(tmp_path):
    class FlakyBackend(StubBackend):
        calls = 0

        def generate(self, prompt, config):
            type(self).calls += 1
            if type(self).calls % 10 == 0:
                raise BackendUnavailableError("transient outage")
            return super().generate(prompt, config)

    sink = RecordSink(tmp_path / "records.jsonl")
    summary = run_matrix(
        [Language.HINDI], [PromptMethod.ORIGINAL], FlakyBackend(seed=1), sink
    )
    counts = summary.to_json_dict()["counts"]["hindi/original"]
    assert counts["failed"] == 28
    assert counts["generated"] == 260
    assert len(summary.failures) == 28
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
    assert path.read_bytes() == full[: -len(last_line)]
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
    write_records([first, replace(second, raw_output="आज बाज़ार")], path)
    data = path.read_bytes()
    path.write_bytes(data[: data.index("बाज़ार".encode()) + 1])

    sink = RecordSink(path)
    assert first.record_id in sink and second.record_id not in sink
    assert sink.dropped_tail["line"] == 2
    assert read_records(path) == [first]


def test_line_separator_inside_a_record_is_not_a_line_break(tmp_path):
    # json.dumps(ensure_ascii=False) leaves U+2028 raw; only "\n" ends a record
    path = tmp_path / "records.jsonl"
    _original_run(path)
    first = read_records(path)[0]
    write_records([replace(first, raw_output="one\u2028two\x85three")], path)
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
    assert path.read_bytes() == full
    assert len(sink._ids) == 288


def test_corrupt_line_before_the_last_is_refused(tmp_path):
    path = tmp_path / "records.jsonl"
    lines = _original_run(path).splitlines(keepends=True)
    lines[4] = lines[4][:30] + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(CorruptRecordsError, match="line 5 ") as info:
        RecordSink(path)
    assert isinstance(info.value, ValueError)
    assert path.read_bytes() == b"".join(lines)


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
