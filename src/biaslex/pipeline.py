"""End-to-end run: generate, ingest, score, aggregate, report.

Each stage is one function here that computes its artifacts and writes
them; ``pipeline_run`` and the ``biaslex`` subcommands only pick the paths,
so chaining the subcommands writes ``pipeline_run``'s bytes.
``pipeline_run`` hands the records it generated or loaded straight to
ingest, so ``records.jsonl`` is parsed once per run.

Ingest, score and report are each a per-language piece and a merge across
languages; :func:`_map_languages` runs the pieces in forked processes, one
per usable CPU, and the stage functions and ``pipeline_run`` share them.
"""
from __future__ import annotations

import json
import os
import select
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from itertools import cycle
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn, TypeVar

from . import aggregate as agg
from . import corpus as corpus_mod
from . import generation as gen
from . import report as report_mod
from . import scoring
from .artifacts import atomic_open, jsonl_line, write_json
from .generation import ConfigError
from .identities import ApplicationKind, Language, PromptMethod
from .lexicon import BiasLexicon, load_lexicon, load_seed_lexicon
from .preprocess import load_stopwords

T = TypeVar("T")
X = TypeVar("X")


class StageError(Exception):
    """A pipeline stage failed; ``stage`` names it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause

    def __reduce__(self):
        # rebuilt from its arguments, so a worker process can raise it
        return type(self), (self.stage, self.cause)


def _reject_unknown(data: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {', '.join(unknown)}")


def _block(block: object, key: str, cls: type):
    """``cls`` built from the config block under ``key``, refusing a
    non-object, keys that are not fields of ``cls`` and the values
    ``cls`` refuses, each in the block's name."""
    if not isinstance(block, dict):
        raise ConfigError(f"{key!r} must be an object")
    _reject_unknown(block, {f.name for f in fields(cls)}, key)
    try:
        return cls(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _backend(block: object) -> gen.HttpBackend | None:
    """The backend a ``backend`` block names by its ``kind``: an
    :class:`~biaslex.generation.HttpBackend`, or ``None`` for the stub."""
    if not isinstance(block, dict):
        raise ConfigError("'backend' must be an object")
    options = dict(block)
    kind = options.pop("kind", "stub")
    if kind == "http":
        return _block(options, "backend", gen.HttpBackend)
    if kind != "stub":
        raise ConfigError(f"unknown backend kind {kind!r}")
    if options:
        raise ConfigError(
            f"the stub backend takes no {', '.join(sorted(options))}; "
            "set \"kind\": \"http\" to use them"
        )
    return None


# ingest's language check by name: "none" keeps every record
DETECTORS = {"stub": corpus_mod.stub_english_detector, "none": None}


@dataclass
class RunConfig:
    """Validated settings for a pipeline run."""

    out_dir: Path
    languages: list[Language] = field(default_factory=lambda: [Language.HINDI])
    methods: list[PromptMethod] = field(default_factory=lambda: list(PromptMethod))
    seed: int = 0
    backend: gen.HttpBackend | None = None  # None: the stub, seeded by ``seed``
    generation: gen.GenerationConfig = field(default_factory=gen.GenerationConfig)
    translation: gen.TranslationConfig = field(default_factory=gen.TranslationConfig)
    concurrency: int = 1
    scope: scoring.Scope = scoring.Scope.IDENTITY_SCOPED
    lexicon_path: Path | None = None
    stopwords_path: Path | None = None
    detector: str = "stub"

    def __post_init__(self) -> None:
        for key in ("languages", "methods"):
            values = getattr(self, key)
            if not values:
                raise ConfigError(f"{key!r} must not be empty")
            repeated = {v.value for i, v in enumerate(values) if v in values[:i]}
            if repeated:
                raise ConfigError(f"{key!r} repeats {', '.join(sorted(repeated))}")
        gen.check_number("seed", self.seed, integer=True)
        gen.check_number("concurrency", self.concurrency, 1, integer=True)
        if self.detector not in DETECTORS:
            raise ConfigError(f"detector must be one of {list(DETECTORS)}: {self.detector!r}")
        if not isinstance(self.backend, gen.HttpBackend | None):
            raise ConfigError(f"backend is not an HttpBackend: {self.backend!r}")

    def make_backend(self) -> gen.Backend:
        return self.backend or gen.StubBackend(seed=self.seed)

    def load_lexicon(self) -> BiasLexicon:
        if self.lexicon_path is None:
            return load_seed_lexicon()
        return load_lexicon(self.lexicon_path)


# the config's keys: RunConfig's fields, "lexicon" and "stopwords" without "_path"
_KEYS = {f.name.removesuffix("_path") for f in fields(RunConfig)}
# how each top-level key that names grid values becomes a RunConfig value
_PARSERS = {
    "languages": lambda values: [Language(value) for value in values],
    "methods": lambda values: [PromptMethod(value) for value in values],
    "scope": scoring.Scope,
}


def parse_config(data: dict, base_dir: Path | None = None) -> RunConfig:
    """Build a :class:`RunConfig` from parsed JSON, rejecting unknown keys.

    A key the JSON leaves out is not passed on, so it takes
    :class:`RunConfig`'s default: each default is stated once.
    """
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    if "expansion" in data:
        raise ConfigError(
            "unknown config key 'expansion': run `biaslex lexicon expand` "
            "and point 'lexicon' at its output"
        )
    _reject_unknown(data, _KEYS, "config")
    if data.get("out_dir") is None:
        raise ConfigError("config requires 'out_dir'")
    base = base_dir or Path.cwd()

    def _path(key: str) -> Path | None:
        value = data.get(key)
        if value is None:
            return None
        if not isinstance(value, str):
            raise ConfigError(f"{key!r} must be a path string")
        return base / value  # an absolute value replaces base

    for key in ("languages", "methods"):
        if not isinstance(data.get(key, []), list):
            raise ConfigError(f"{key!r} must be a list, got {data[key]!r}")
    values = {
        key: data[key] for key in ("seed", "concurrency", "detector") if key in data
    }
    try:
        for key, parse in _PARSERS.items():
            if key in data:
                values[key] = parse(data[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        out_dir=_path("out_dir"),
        backend=_backend(data.get("backend", {})),
        generation=_block(
            data.get("generation", {}), "generation", gen.GenerationConfig
        ),
        translation=_block(
            data.get("translation", {}), "translation", gen.TranslationConfig
        ),
        lexicon_path=_path("lexicon"),
        stopwords_path=_path("stopwords"),
        **values,
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data, base_dir=path.parent)


def generate_stage(config: RunConfig) -> tuple[dict, list[corpus_mod.GenerationRecord]]:
    """Generate the grid into ``records.jsonl`` and ``run_summary.json`` in ``out_dir``.

    Returns the per-phase counts and every record the file now holds, in
    file order. Partial failures are tolerated and resumable; a run whose
    every backend call failed raises
    :class:`~biaslex.generation.BackendUnavailableError`, because the
    backend never worked. ``run_summary.json`` is written however the run
    ends, so one stopped by an error or an interrupt keeps its per-cell
    reasons, and the backend's connections are closed however it ends.

    A file with records of a (language, method) the config does not list
    raises :class:`ConfigError` before any cell is generated.
    """
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    sink = gen.RecordSink(out / "records.jsonl")
    off_grid = {
        f"{record.language.value}/{record.method.value}"
        for record in sink.records
        if record.language not in config.languages
        or record.method not in config.methods
    }
    if off_grid:
        raise ConfigError(
            f"{sink.path} holds records of {', '.join(sorted(off_grid))}, which "
            "the config does not list; list them or use another out_dir"
        )
    run = gen.RunSummary()
    backend = config.make_backend()
    try:
        gen.run_matrix(
            languages=config.languages,
            methods=config.methods,
            backend=backend,
            sink=sink,
            gen_config=config.generation,
            trans_config=config.translation,
            concurrency=config.concurrency,
            summary=run,
        )
    finally:
        backend.close()
        run_summary = run.to_json_dict()
        write_json(out / "run_summary.json", run_summary)
    counts = run_summary["counts"]
    if run.failed_calls and not any(c["generated"] for c in counts.values()):
        raise gen.BackendUnavailableError(
            f"all {run.failed_calls} attempted generations failed"
        )
    return counts, sink.records


# --------------------------------------------------------------------------
# Idf, scores and report tables never mix languages, so ingest, score and
# report are each a per-language piece and a merge; only the record-id
# check, the cleaning counts' totals, the two row files and the averages
# span languages.


def _usable_cpus() -> int:
    """How many CPUs this process may run on (a cgroup quota is not read);
    1 where ``os`` cannot tell."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else 1


def _serve(
    work: Callable, inputs: dict, languages: list, read: int, write: int, readers: dict
) -> NoReturn:
    """A forked worker: pickle each language's ``(ok, result or exception)``
    after its length on its pipe until an exception or no reader; exit."""
    try:
        # Ctrl-C reaches the whole process group; the caller alone acts on it
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        import pickle  # here, as in _receive
        os.close(read)
        for pipe in readers.values():  # earlier workers' pipes: the caller's
            pipe.close()
        reader_gone = select.poll()
        reader_gone.register(write, 0)  # reports POLLERR alone
        ok = True
        for language in languages:
            if not ok or reader_gone.poll(0):
                break
            try:
                data = pickle.dumps((True, work(language, inputs.pop(language))))
            except BaseException as exc:  # the caller raises it, or a pickling error
                ok, data = False, pickle.dumps((False, exc))
            data = memoryview(len(data).to_bytes(8, "little") + data)
            while data:  # a write that meets no reader raises BrokenPipeError
                data = data[os.write(write, data) :]
        os._exit(0)
    finally:
        os._exit(1)


def _receive(workers: dict[int, BinaryIO], languages: list[Language]) -> Iterator:
    """Each language's result from its worker, or its exception raised; a
    worker that ended without it is reaped and raises ChildProcessError."""
    import pickle  # here: a run that forks no worker never pays for it
    for pid, language in zip(cycle(list(workers)), languages):
        size = workers[pid].read(8)
        data = workers[pid].read(int.from_bytes(size, "little"))
        if len(size) < 8 or len(data) < int.from_bytes(size, "little"):
            workers.pop(pid).close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise ChildProcessError(
                f"the worker for {language.value} ended without its result ({how})"
            )
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        yield value


@contextmanager
def _map_languages(
    work: Callable[[Language, X], T], inputs: dict[Language, X]
) -> Iterator[Iterator[T]]:
    """Yield ``work(language, value)`` for each item of ``inputs``, in order.

    The languages run in ``n`` forked processes, one per usable CPU up to
    one per language; worker ``k`` takes languages ``k``, ``k + n``, ...,
    which reach it by the fork, and sends each result or exception back on
    its own pipe. The caller reads the pipes in language order, raising an
    exception with its type and ``ChildProcessError`` for a dead worker.
    The work stays on the calling thread, through ``map``, when ``n`` is 1
    and while another thread is alive: a fork copies the locks other
    threads hold. ``inputs`` is emptied as it is handed over. Leaving the
    block, by any exception too, closes the pipes, so each worker stops
    before its next language, and waits for every worker.
    """
    languages = list(inputs)
    count = min(_usable_cpus(), len(languages))
    if count < 2 or threading.active_count() > 1:
        yield map(lambda language: work(language, inputs.pop(language)), languages)
        return
    workers: dict[int, BinaryIO] = {}  # pid: the read end of its pipe
    # a Ctrl-C while forking waits until every worker ignores it
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for k in range(count):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:
                _serve(work, inputs, languages[k::count], read, write, workers)
            os.close(write)
            workers[pid] = open(read, "rb")
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        inputs.clear()
        yield _receive(workers, languages)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for pipe in workers.values():
            pipe.close()
        for pid in workers:
            os.waitpid(pid, 0)


def _by_language(
    items: Iterable[T], language: Callable[[T], Language]
) -> dict[Language, list[T]]:
    """``items`` grouped by ``language(item)``, in canonical language order."""
    grouped: dict[Language, list[T]] = {}
    for item in items:
        grouped.setdefault(language(item), []).append(item)
    return {
        key: grouped[key]
        for key in sorted(grouped, key=corpus_mod.LANGUAGE_ORDER.__getitem__)
    }


def _records_by_language(
    records: Iterable[corpus_mod.GenerationRecord],
) -> dict[Language, list[corpus_mod.GenerationRecord]]:
    """``records`` grouped by language, in canonical language order.

    Each language is cleaned on its own, so a record id that appears under
    two languages raises ``ValueError``. An id that starts with its
    record's language and ``-``, as every id ``generate`` writes does,
    cannot be another language's, so only the other ids are held.
    """
    grouped = _by_language(records, lambda record: record.language)
    others: dict[str, Language] = {}
    for language, group in grouped.items():
        prefix = f"{language.value}-"
        for record in group:
            if not record.record_id.startswith(prefix):
                others.setdefault(record.record_id, language)
    if not others:
        return grouped
    for language, group in grouped.items():
        for record in group:
            other = others.get(record.record_id, language)
            if other is not language:
                both = sorted((other, language), key=corpus_mod.LANGUAGE_ORDER.get)
                raise ValueError(
                    f"record id {record.record_id!r} appears under both "
                    f"{both[0].value} and {both[1].value}; a record id may "
                    "appear under one language only"
                )
    return grouped


def _ingest(
    records: list[corpus_mod.GenerationRecord],
    corpus_dir: str | Path,
    detector: str,
    stopwords: frozenset[str],
) -> tuple[
    dict[tuple[Language, PromptMethod], corpus_mod.Corpus], corpus_mod.CleaningSummary
]:
    """One language's records cleaned, and its corpora built from those
    kept and written; returns the corpora and the cleaning counts. Empties
    ``records``, so the calling process frees them before scoring."""
    kept, cleaning = corpus_mod.clean_records(records, DETECTORS[detector])
    records.clear()
    corpora = corpus_mod.build_corpus(kept, stopwords=stopwords)
    corpus_mod.write_corpus_dir(corpora, corpus_dir)
    return corpora, cleaning


def _documents(
    corpora: dict[tuple[Language, PromptMethod], corpus_mod.Corpus],
) -> dict[str, int]:
    """Each corpus's document count, by ``language/method``."""
    return {
        f"{language.value}/{method.value}": corpus.N
        for (language, method), corpus in corpora.items()
    }


def ingest_stage(
    records: list[corpus_mod.GenerationRecord],
    corpus_dir: str | Path,
    detector: str,
    stopwords: frozenset[str],
) -> tuple[dict[str, int], corpus_mod.CleaningSummary]:
    """Clean the records, build one corpus per (language, method) and write
    them; ``detector`` names one of :data:`DETECTORS`. Returns each
    corpus's document count, by ``language/method``, and the cleaning
    counts, which it writes to ``cleaning_summary.json``."""

    def work(language: Language, records: list) -> tuple:
        corpora, cleaning = _ingest(records, corpus_dir, detector, stopwords)
        return _documents(corpora), cleaning

    with _map_languages(work, _records_by_language(records)) as results:
        parts = list(results)
    cleaning = corpus_mod.CleaningSummary.total(cleaning for _, cleaning in parts)
    corpus_mod.write_corpus_dir({}, corpus_dir, cleaning)
    return {name: n for part, _ in parts for name, n in part.items()}, cleaning


def _score(
    corpora: dict[tuple[Language, PromptMethod], corpus_mod.Corpus],
    lexicon: BiasLexicon,
    scope: scoring.Scope,
) -> tuple[list[scoring.ScoreCell], list[scoring.OverallRow], list[str], list[str]]:
    """The score cells and overall top-term rows of one language's corpora,
    in canonical method order, and their lines of ``scores.jsonl`` and
    ``overall.jsonl``."""
    cells: list[scoring.ScoreCell] = []
    overall_rows: list[scoring.OverallRow] = []
    for key in sorted(corpora, key=corpus_mod.corpus_order):
        cells.extend(scoring.score_corpus(corpora[key], lexicon, scope))
        overall_rows.extend(scoring.overall_top_terms(corpora[key]))
    return (
        cells,
        overall_rows,
        [jsonl_line(cell.to_json_dict()) for cell in cells],
        [jsonl_line(scoring.overall_json_dict(row)) for row in overall_rows],
    )


def _write_rows(
    results: Iterable[tuple], scores_path: str | Path, overall_path: str | Path
) -> tuple[list[scoring.ScoreCell], list[list]]:
    """Write each language's lines of ``scores.jsonl`` and ``overall.jsonl``
    as its result, ``(cells, score lines, overall lines, *rest)``, arrives.
    Returns every cell, and the rest of each result."""
    cells: list[scoring.ScoreCell] = []
    rests = []
    with atomic_open(scores_path) as scores, atomic_open(overall_path) as overall:
        for language_cells, score_lines, overall_lines, *rest in results:
            cells.extend(language_cells)
            scores.writelines(score_lines)
            overall.writelines(overall_lines)
            rests.append(rest)
    return cells, rests


def score_stage(
    corpora: dict[tuple[Language, PromptMethod], corpus_mod.Corpus],
    lexicon: BiasLexicon,
    scope: scoring.Scope,
    scores_path: str | Path,
    overall_path: str | Path,
) -> list[scoring.ScoreCell]:
    """Score every corpus, in canonical language then method order; write the
    bias-score cells to ``scores_path`` and the overall top-term rows to
    ``overall_path``, and return the cells.
    """
    def work(language: Language, items: list) -> tuple[list, list, list]:
        cells, _, score_lines, overall_lines = _score(dict(items), lexicon, scope)
        return cells, score_lines, overall_lines

    inputs = _by_language(corpora.items(), lambda item: item[0][0])
    with _map_languages(work, inputs) as results:
        return _write_rows(results, scores_path, overall_path)[0]


def aggregate_stage(cells: list[scoring.ScoreCell], out_dir: Path) -> list[Path]:
    """Write ``averages_<axis>.csv`` under ``out_dir`` for every axis.

    Each file holds the axis's series for every application in turn; pooled
    series are :func:`biaslex.aggregate.series` without an application.
    Returns the paths written.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for axis in agg.SeriesAxis:
        results = []
        for app in ApplicationKind:
            results.extend(agg.series(cells, axis, app))
        path = out_dir / f"averages_{axis.value}.csv"
        agg.write_averages_csv(results, path)
        paths.append(path)
    return paths


def _write_reports(
    cells: list[scoring.ScoreCell],
    overall_rows: list[scoring.OverallRow],
    language: Language,
    methods: list[PromptMethod],
    out_dir: Path,
) -> list[Path]:
    """Write every format of the report table of each method and
    application of one language under ``out_dir``, in that loop order;
    ``build_report`` picks each table's rows. Returns the paths written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for method in methods:
        for app in ApplicationKind:
            table = report_mod.build_report(cells, overall_rows, language, app, method)
            for fmt in report_mod.ReportFormat:
                name = (
                    f"report_{language.value}_{app.value}_{method.value}.{fmt.value}"
                )
                path = out_dir / name
                with atomic_open(path) as handle:
                    handle.write(report_mod.render_table(table, fmt))
                paths.append(path)
    return paths


def report_stage(
    cells: list[scoring.ScoreCell],
    overall_rows: list[scoring.OverallRow],
    languages: list[Language],
    methods: list[PromptMethod],
    out_dir: Path,
) -> list[Path]:
    """Write every format of the report table of each language, method and
    application under ``out_dir``, in that loop order; a table without
    rows has every cell absent. Returns the paths written.
    """
    cells_of = _by_language(cells, lambda cell: cell.key.language)
    rows_of = _by_language(overall_rows, lambda row: row[0].language)

    def work(language: Language, rows: tuple[list, list]) -> list[Path]:
        return _write_reports(*rows, language, methods, out_dir)

    inputs = {
        language: (cells_of.get(language, []), rows_of.get(language, []))
        for language in languages
    }
    with _map_languages(work, inputs) as results:
        return [path for paths in results for path in paths]


def pipeline_run(config: RunConfig) -> dict:
    """Run all stages, returning a summary of artifacts written.

    Reads the lexicon and the stopword list first, so a missing or malformed
    one raises before anything is generated or ``out_dir`` is made. Then
    stops at the first failing stage and reports which one failed. Each
    language's ingest (its cleaning too), score and report are one call in
    :func:`_map_languages`, so its records, corpora and tables stay in one
    process.
    """
    lexicon, stopwords = config.load_lexicon(), load_stopwords(config.stopwords_path)
    out = config.out_dir
    corpus_dir, reports_dir = out / "corpus", out / "reports"
    scores_path, overall_path = out / "scores.jsonl", out / "overall.jsonl"

    def rel(path: Path) -> str:
        return str(path.relative_to(out))

    def work(language: Language, records: list) -> tuple:
        """One language's ingest, score and report."""
        step = "ingest"
        try:
            corpora, cleaning = _ingest(records, corpus_dir, config.detector, stopwords)
            step = "score"
            cells, overall_rows, *lines = _score(corpora, lexicon, config.scope)
            step = "report"
            paths = _write_reports(
                cells, overall_rows, language, config.methods, reports_dir
            )
        except Exception as exc:
            raise StageError(step, exc) from exc
        # the calling process only averages bias scores: each cell's
        # per-term weights, already in its scores.jsonl line, stay here
        # (they are two fifths of the memory the cells take)
        averaged = [replace(cell, per_term={}, top_term=None) for cell in cells]
        return averaged, *lines, cleaning, _documents(corpora), paths

    summary: dict = {"out_dir": str(out), "stages": {}}
    stage = "generate"
    try:
        counts, records = generate_stage(config)
        summary["stages"][stage] = {
            "records": rel(out / "records.jsonl"),
            "counts": counts,
        }

        stage = "ingest"
        records_of = _records_by_language(records)
        # every language of the config gets its reports, records or none
        languages = sorted(config.languages, key=corpus_mod.LANGUAGE_ORDER.__getitem__)
        inputs = {language: records_of.get(language, []) for language in languages}
        del records, records_of  # the fan-out hands each language its records

        stage = "score"  # the calling process writes the two row files
        with _map_languages(work, inputs) as results:
            cells, rests = _write_rows(results, scores_path, overall_path)
        stage = "ingest"  # the languages' cleaning counts, added up
        cleaning = corpus_mod.CleaningSummary.total(rest[0] for rest in rests)
        corpus_mod.write_corpus_dir({}, corpus_dir, cleaning)
        report_paths = dict(zip(languages, (paths for *_, paths in rests)))
        summary["stages"]["ingest"] = {
            "corpus_dir": rel(corpus_dir),
            "documents": {name: n for _, part, _ in rests for name, n in part.items()},
        }
        summary["stages"]["score"] = {
            "scores": rel(scores_path),
            "overall": rel(overall_path),
            "cells": len(cells),
        }

        stage = "aggregate"
        paths = aggregate_stage(cells, out / "averages")
        summary["stages"][stage] = {"files": [rel(path) for path in paths]}
        summary["stages"]["report"] = {
            "files": [
                rel(path)
                for language in config.languages
                for path in report_paths[language]
            ]
        }
    except (StageError, ChildProcessError):
        raise  # a language's work names its own stage, a dead worker its language
    except Exception as exc:
        raise StageError(stage, exc) from exc

    write_json(out / "pipeline_summary.json", {**summary, "out_dir": "."})
    return summary
