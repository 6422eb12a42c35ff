"""Generation, self-debias, and translation orchestration.

Backends implement a minimal text-completion contract. The HTTP backend,
:class:`biaslex.http_backend.HttpBackend`, POSTs JSON and expects
``{"text": ...}`` back; the stub backend is a pure function of
(prompt, seed) so whole runs are reproducible offline.

Request bodies:

* generation:  ``{prompt, temperature, top_k, top_p, max_new_tokens,
  repetition_penalty}``
* translation: ``{prompt, num_beams, max_new_tokens}``
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from itertools import product, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .artifacts import RowError, parse_row
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
    getrandbits = random.Random(digest).getrandbits
    # Random.randint and Random.choice share one rule
    # (_randbelow_with_getrandbits, CPython 3.10-3.13), inlined here without a
    # method call per draw: draw bit_length(n) bits, again while the draw is
    # >= n. randint(35, 60) is 35 plus a draw below 26 (5 bits), randint(6, 12)
    # is 6 plus a draw below 7 (3 bits). test_stub_text_matches_the_choice_reference
    # pins this to the randint and choice reference in tests/oracle.py.
    length = getrandbits(5)
    while length >= 26:
        length = getrandbits(5)
    length += 35
    n = len(_STUB_VOCAB)
    words = []
    append = words.append
    for _ in range(length):
        r = getrandbits(_STUB_BITS)
        while r >= n:
            r = getrandbits(_STUB_BITS)
        append(_STUB_VOCAB[r])
    # sentences of 6 to 12 words, the last cut at the end of the text; each
    # starts capitalized and ends with "." (" ." after a lone word), marked
    # on the words themselves so the text is one join
    start = 0
    while start < length:
        size = getrandbits(3)
        while size >= 7:
            size = getrandbits(3)
        words[start] = words[start].capitalize()
        last = start
        start += 6 + size
        if start < length:
            words[start - 1] += "."
    words[-1] += " ." if last == length - 1 else "."
    return " ".join(words)


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


if TYPE_CHECKING:  # the HTTP client is loaded only by runs that use it
    from .http_backend import HttpBackend

    Backend = StubBackend | HttpBackend


def record_id_for(
    language: Language,
    method: PromptMethod,
    identity: Identity,
    app: Application,
) -> str:
    return _id_head(language, method) + _cell_id(identity, app)


def _id_head(language: Language, method: PromptMethod) -> str:
    """The part of a record id before its cell id."""
    return f"{language.value}-{method.value}-"


def _cell_id(identity: Identity, app: Application) -> str:
    """The part of a record id after its language and method."""
    parts = [
        identity.religion.value,
        identity.gender.value,
        identity.marital_status.value,
        identity.children.value,
        app.kind.value,
    ]
    if app.story_location is not None:
        parts.append(app.story_location.value)
    return "-".join(parts)


# the 288 (identity, application) pairs of one phase, in canonical order,
# each with its cell id
_GRID_CELLS = tuple(
    (identity, app, _cell_id(identity, app))
    for identity, app in product(enumerate_identities(), iter_applications())
)
# a cell still to generate: its record id, identity, application and prompt
_Cell = tuple[str, Identity, Application, str]

# the JSON of each grid identity and application, keyed by value
_GRID_JSON = {
    value: json.dumps(value.to_json_dict(), ensure_ascii=False)
    for value in (*enumerate_identities(), *iter_applications())
}
_string = json.encoder.encode_basestring  # what json.dumps(ensure_ascii=False) uses


def _value_json(value: Identity | Application) -> str:
    try:
        return _GRID_JSON[value]
    except KeyError:  # an application no grid cell has, such as a story with no location
        return json.dumps(value.to_json_dict(), ensure_ascii=False)


def _record_line(record: GenerationRecord) -> str:
    """``jsonl_line(record.to_json_dict())``, byte for byte, put together
    from the cached JSON of the record's identity and application."""
    raw = _string(record.raw_output)
    # the stub's translation is its output: encode that text once
    english = record.english_text
    english = raw if english == record.raw_output else _string(english)
    return (
        f'{{"record_id": {_string(record.record_id)}, '
        f'"language": "{record.language.value}", '
        f'"method": "{record.method.value}", '
        f'"identity": {_value_json(record.identity)}, '
        f'"application": {_value_json(record.application)}, '
        f'"prompt_text": {_string(record.prompt_text)}, '
        f'"raw_output": {raw}, '
        f'"english_text": {english}}}\n'
    )


class RecordSink:
    """Append-only JSONL store; one complete record per line.

    Opening an existing file indexes its records. A last line with no
    newline that does not parse was cut short by a crash mid-write: it is
    not indexed (``dropped_tail`` notes where), so its cell is generated
    again. Any other line that does not parse raises
    :class:`~biaslex.artifacts.RowError`. The file stays open for appending
    until :meth:`close`; every line is flushed as it is written.

    Opening changes no byte of the file, so a run refused after it leaves
    the file as it was. The first :meth:`append` or :meth:`close` mends a
    last line with no newline first: one cut short is truncated away, and
    a complete one is ended.

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
        # (bytes kept, bytes then written) that mend an unended last line
        self._mend: tuple[int, bytes] | None = None
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
            self._mend = (complete, b"")
            self.dropped_tail = {"line": number, "bytes": len(line)}
        else:
            # complete but unterminated: end it so the next append starts afresh
            self._mend = (complete + len(line), b"\n")
            self._index(record)

    def _mend_tail(self) -> None:
        if self._mend is not None:
            keep, end = self._mend
            self._mend = None
            with open(self.path, "r+b") as handle:
                handle.truncate(keep)
                handle.seek(keep)
                handle.write(end)

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
            self._mend_tail()
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(_record_line(record))
        self._handle.flush()
        self._index(record)

    def close(self) -> None:
        """Release the file handle; a later :meth:`append` reopens it."""
        self._mend_tail()
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
        language: Language, method: PromptMethod, cell: _Cell
    ) -> tuple[str, GenerationRecord | Exception]:
        """The cell's record id and its record, or the exception its calls
        raised; Exception only, so a KeyboardInterrupt raised in a call
        propagates."""
        record_id, identity, app, prompt = cell
        try:
            raw = backend.generate(prompt, gen_config)
            english = backend.translate(raw, trans_config)
        except Exception as exc:
            return record_id, exc
        return record_id, GenerationRecord(
            record_id, language, method, identity, app, prompt, raw, english
        )

    check_number("concurrency", concurrency, 1, integer=True)
    pool = None
    if concurrency > 1:
        # here, as pipeline._receive imports pickle: a serial run never pays for it
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(max_workers=concurrency)
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
                results = (map if pool is None else pool.map)(
                    attempt, repeat(language), repeat(method), cells
                )
                backend_errors = []
                for record_id, result in results:
                    if isinstance(result, Exception):
                        counts["failed"] += 1
                        summary.failed_calls += 1
                        summary.failures.append(
                            {"record_id": record_id, "error": str(result)}
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
) -> list[_Cell]:
    """The cells of one (language, method) phase still to generate."""
    cells = []
    counts = summary._cell(language, method)
    counts["requested"] += len(_GRID_CELLS)
    head = _id_head(language, method)
    original_head = _id_head(language, PromptMethod.ORIGINAL)
    for identity, app, cell_id in _GRID_CELLS:
        rid = head + cell_id
        if rid in sink:
            counts["skipped"] += 1
            continue
        if method is PromptMethod.ORIGINAL:
            prompt = render_application_prompt(identity, app, language)
        else:
            original = sink.original(original_head + cell_id)
            if not original:
                # nothing to debias; render_debias_prompt would refuse it
                counts["failed"] += 1
                problem = "missing" if original is None else "empty"
                summary.failures.append(
                    {"record_id": rid, "error": f"original output {problem}"}
                )
                continue
            prompt = render_debias_prompt(method, original)
        cells.append((rid, identity, app, prompt))
    return cells
