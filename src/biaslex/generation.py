"""Generation, self-debias, and translation orchestration.

Backends implement a minimal text-completion contract. The HTTP backend
POSTs JSON and expects ``{"text": ...}`` back; the stub backend is a pure
function of (prompt, seed) so whole runs are reproducible offline.

Request bodies:

* generation:  ``{prompt, temperature, top_k, top_p, max_new_tokens,
  repetition_penalty}``
* translation: ``{prompt, num_beams, max_new_tokens}``
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import requests

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


class CorruptRecordsError(ValueError):
    """A record file holds a line, other than an unfinished last one, that
    is not a record."""


@dataclass(frozen=True)
class GenerationConfig:
    temperature: float = 0.7
    top_k: int = 50
    top_p: float = 0.9
    max_new_tokens: int = 500
    repetition_penalty: float = 1.5

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.repetition_penalty < 1:
            raise ValueError("repetition_penalty must be >= 1")

    def to_request_fields(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TranslationConfig:
    num_beams: int = 3
    max_new_tokens: int = 500

    def __post_init__(self) -> None:
        if self.num_beams < 1:
            raise ValueError("num_beams must be >= 1")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")

    def to_request_fields(self) -> dict:
        return asdict(self)


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


def _stub_text(prompt: str, seed: int) -> str:
    digest = hashlib.sha256(f"{seed}\x1f{prompt}".encode("utf-8")).digest()
    rng = random.Random(digest)
    length = rng.randint(35, 60)
    words = [rng.choice(_STUB_VOCAB) for _ in range(length)]
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

    kind = "stub"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def generate(self, prompt: str, config: GenerationConfig) -> str:
        return _stub_text(prompt, self.seed)

    def translate(self, text: str, config: TranslationConfig) -> str:
        return text


class HttpBackend:
    """Text-completion endpoint client with bounded retries."""

    kind = "http"

    def __init__(
        self,
        url: str,
        translate_url: str | None = None,
        auth_env: str | None = None,
        timeout: float = 30.0,
        max_retries: int = 3,
        backoff: float = 0.5,
    ):
        self.url = url
        self.translate_url = translate_url or url
        self.auth_env = auth_env
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.auth_env:
            token = os.environ.get(self.auth_env)
            if token:
                headers["Authorization"] = f"Bearer {token}"
        return headers

    def _post(self, url: str, payload: dict) -> str:
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            try:
                response = requests.post(
                    url, json=payload, headers=self._headers(), timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_error = exc
            else:
                if response.status_code >= 500:
                    last_error = BackendError(f"server error {response.status_code}")
                elif response.status_code >= 400:
                    raise MalformedResponseError(
                        f"request rejected with status {response.status_code}"
                    )
                else:
                    try:
                        body = response.json()
                    except ValueError as exc:
                        raise MalformedResponseError(
                            "response body is not JSON"
                        ) from exc
                    if not isinstance(body, dict) or not isinstance(
                        body.get("text"), str
                    ):
                        raise MalformedResponseError(
                            "response JSON lacks a string 'text' field"
                        )
                    return body["text"]
            if attempt < self.max_retries:
                time.sleep(self.backoff * (2**attempt))
        raise BackendUnavailableError(
            f"backend unreachable after {self.max_retries + 1} attempts: {last_error}"
        )

    def generate(self, prompt: str, config: GenerationConfig) -> str:
        return self._post(self.url, {"prompt": prompt, **config.to_request_fields()})

    def translate(self, text: str, config: TranslationConfig) -> str:
        return self._post(
            self.translate_url, {"prompt": text, **config.to_request_fields()}
        )


Backend = StubBackend | HttpBackend


def generate(prompt: str, config: GenerationConfig, backend: Backend) -> str:
    return backend.generate(prompt, config)


def translate(text: str, config: TranslationConfig, backend: Backend) -> str:
    return backend.translate(text, config)


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


# what a line that is not a record raises on its way to a GenerationRecord
_UNPARSEABLE = (ValueError, KeyError, TypeError, AttributeError)


def _parse_record(line: bytes) -> GenerationRecord:
    return GenerationRecord.from_json_dict(json.loads(line))


class RecordSink:
    """Append-only JSONL store; one complete record per line.

    Opening an existing file indexes its records. A last line with no
    newline that does not parse was cut short by a crash mid-write: it is
    truncated away (``dropped_tail`` notes where), so its cell is generated
    again. Any other line that does not parse raises
    :class:`CorruptRecordsError`. The file stays open for appending until
    :meth:`close`; every line is flushed as it is written.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._ids: set[str] = set()
        self._originals: dict[str, GenerationRecord] = {}
        self._handle = None
        self.dropped_tail: dict[str, int] | None = None
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        complete = 0  # bytes up to the end of the last complete line
        tail = None
        with open(self.path, "rb") as handle:
            for number, line in enumerate(handle, 1):
                if not line.endswith(b"\n"):
                    tail = (number, line)
                    break
                complete += len(line)
                if line.strip():
                    try:
                        self._index(_parse_record(line))
                    except _UNPARSEABLE as exc:
                        raise CorruptRecordsError(
                            f"{self.path}: line {number} is not a record: {exc}"
                        ) from exc
        if tail is None or not tail[1].strip():
            return
        number, line = tail
        try:
            record = _parse_record(line)
        except _UNPARSEABLE:
            with open(self.path, "r+b") as handle:
                handle.truncate(complete)
            self.dropped_tail = {"line": number, "bytes": len(line)}
        else:
            # complete but unterminated: end it so the next append starts afresh
            with open(self.path, "ab") as handle:
                handle.write(b"\n")
            self._index(record)

    def _index(self, record: GenerationRecord) -> None:
        self._ids.add(record.record_id)
        if record.method is PromptMethod.ORIGINAL:
            self._originals[record.record_id] = record

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._ids

    def original(self, record_id: str) -> GenerationRecord | None:
        return self._originals.get(record_id)

    def has_originals(self, language: Language) -> bool:
        return any(
            r.language is language for r in self._originals.values()
        )

    def append(self, record: GenerationRecord) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        line = json.dumps(record.to_json_dict(), ensure_ascii=False) + "\n"
        self._handle.write(line)
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


def _generate_cell(
    backend: Backend,
    prompt: str,
    gen_config: GenerationConfig,
    trans_config: TranslationConfig,
) -> tuple[str, str]:
    raw = backend.generate(prompt, gen_config)
    english = backend.translate(raw, trans_config)
    return raw, english


def run_matrix(
    languages: Sequence[Language],
    methods: Sequence[PromptMethod],
    backend: Backend,
    sink: RecordSink,
    gen_config: GenerationConfig | None = None,
    trans_config: TranslationConfig | None = None,
    concurrency: int = 1,
) -> RunSummary:
    """Generate the full prompt matrix, originals before debias phases.

    Already-persisted records are skipped, so an interrupted run resumes
    from where it stopped. Per-cell failures are recorded and the run
    continues; requesting a debias method with no originals available for
    a language raises :class:`PrerequisiteMissingError`. The sink is closed
    when the run ends.
    """
    gen_config = gen_config or GenerationConfig()
    trans_config = trans_config or TranslationConfig()
    summary = RunSummary(dropped_tail=sink.dropped_tail)
    ordered_methods = [m for m in PromptMethod if m in set(methods)]

    try:
        for language in languages:
            for method in ordered_methods:
                if method.is_debias and not sink.has_originals(language):
                    raise PrerequisiteMissingError(
                        f"no original generations for {language.value}; "
                        f"cannot run {method.value} debiasing"
                    )
                cells = _phase_cells(language, method, sink, summary)
                _run_phase(
                    cells, backend, sink, summary, gen_config, trans_config,
                    concurrency,
                )
    finally:
        sink.close()
    return summary


def _phase_cells(
    language: Language,
    method: PromptMethod,
    sink: RecordSink,
    summary: RunSummary,
) -> list[tuple[str, Language, PromptMethod, Identity, Application, str]]:
    """Resolve the prompt for every cell of one (language, method) phase."""
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
                original_id = record_id_for(
                    language, PromptMethod.ORIGINAL, identity, app
                )
                original = sink.original(original_id)
                if original is None or not original.raw_output:
                    # nothing to debias; render_debias_prompt would refuse it
                    counts["failed"] += 1
                    problem = "missing" if original is None else "empty"
                    summary.failures.append(
                        {"record_id": rid, "error": f"original output {problem}"}
                    )
                    continue
                prompt = render_debias_prompt(method, original.raw_output)
            cells.append((rid, language, method, identity, app, prompt))
    return cells


def _run_phase(
    cells: list[tuple[str, Language, PromptMethod, Identity, Application, str]],
    backend: Backend,
    sink: RecordSink,
    summary: RunSummary,
    gen_config: GenerationConfig,
    trans_config: TranslationConfig,
    concurrency: int,
) -> None:
    if not cells:
        return
    # requests may run concurrently; results are persisted in cell order so
    # re-runs produce byte-identical files
    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
        futures = [
            pool.submit(_generate_cell, backend, prompt, gen_config, trans_config)
            for (_, _, _, _, _, prompt) in cells
        ]
        for (rid, language, method, identity, app, prompt), future in zip(
            cells, futures
        ):
            counts = summary._cell(language, method)
            try:
                raw, english = future.result()
            except Exception as exc:
                counts["failed"] += 1
                summary.failures.append({"record_id": rid, "error": str(exc)})
                continue
            sink.append(
                GenerationRecord(
                    record_id=rid,
                    language=language,
                    method=method,
                    identity=identity,
                    application=app,
                    prompt_text=prompt,
                    raw_output=raw,
                    english_text=english,
                )
            )
            counts["generated"] += 1
