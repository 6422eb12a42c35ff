"""End-to-end run: generate, ingest, score, aggregate, report.

Each stage is one function here that computes its artifacts and writes
them; ``pipeline_run`` and the ``biaslex`` subcommands only pick the paths,
so chaining the subcommands writes ``pipeline_run``'s bytes.
``pipeline_run`` hands the records it generated or loaded straight to
ingest, so ``records.jsonl`` is parsed once per run.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import aggregate as agg
from . import corpus as corpus_mod
from . import generation as gen
from . import report as report_mod
from . import scoring
from .artifacts import atomic_open, write_json
from .generation import ConfigError
from .identities import ApplicationKind, Language, PromptMethod
from .lexicon import BiasLexicon, load_lexicon, load_seed_lexicon
from .preprocess import load_stopwords


class StageError(Exception):
    """A pipeline stage failed; ``stage`` names it."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


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


def ingest_stage(
    records: list[corpus_mod.GenerationRecord],
    corpus_dir: str | Path,
    detector: str,
    stopwords: frozenset[str],
) -> tuple[
    dict[tuple[Language, PromptMethod], corpus_mod.Corpus], corpus_mod.CleaningSummary
]:
    """Clean the records, build one corpus per (language, method) and write
    them; ``detector`` names one of :data:`DETECTORS`."""
    cleaned, cleaning = corpus_mod.clean_records(records, DETECTORS[detector])
    corpora = corpus_mod.build_corpus(cleaned, stopwords=stopwords)
    corpus_mod.write_corpus_dir(corpora, corpus_dir, cleaning)
    return corpora, cleaning


def score_stage(
    corpora: dict[tuple[Language, PromptMethod], corpus_mod.Corpus],
    lexicon: BiasLexicon,
    scope: scoring.Scope,
    scores_path: str | Path,
    overall_path: str | Path,
) -> tuple[list[scoring.ScoreCell], list]:
    """Score every corpus, in canonical language then method order; write the
    bias-score cells to ``scores_path`` and the overall top-term rows to
    ``overall_path``, and return both.
    """
    cells: list[scoring.ScoreCell] = []
    overall_rows = []
    for key in sorted(corpora, key=corpus_mod.corpus_order):
        cells.extend(scoring.score_corpus(corpora[key], lexicon, scope))
        overall_rows.extend(scoring.overall_top_terms(corpora[key]))
    scoring.write_scores(cells, scores_path)
    scoring.write_overall_terms(overall_rows, overall_path)
    return cells, overall_rows


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


def _table_key(key: corpus_mod.DocumentKey) -> tuple:
    """The (language, application, method) of the report table a row is in."""
    return key.language, key.application, key.method


def report_stage(
    cells: list[scoring.ScoreCell],
    overall_rows: list,
    languages: list[Language],
    methods: list[PromptMethod],
    out_dir: Path,
) -> list[Path]:
    """Write every format of the report table of each language, method and
    application under ``out_dir``, in that loop order; a table without
    rows has every cell absent. Returns the paths written.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    # each table's rows, grouped once rather than scanned for every table
    table_cells: dict[tuple, list] = {}
    for cell in cells:
        table_cells.setdefault(_table_key(cell.key), []).append(cell)
    table_overall: dict[tuple, list] = {}
    for row in overall_rows:
        table_overall.setdefault(_table_key(row[0]), []).append(row)
    paths = []
    for language in languages:
        for method in methods:
            for app in ApplicationKind:
                key = (language, app, method)
                table = report_mod.build_report(
                    table_cells.get(key, []), table_overall.get(key, []), *key
                )
                for fmt in report_mod.ReportFormat:
                    name = (
                        f"report_{language.value}_{app.value}"
                        f"_{method.value}.{fmt.value}"
                    )
                    path = out_dir / name
                    with atomic_open(path) as handle:
                        handle.write(report_mod.render_table(table, fmt))
                    paths.append(path)
    return paths


def pipeline_run(config: RunConfig) -> dict:
    """Run all stages, returning a summary of artifacts written.

    Reads the lexicon and the stopword list first, so a missing or malformed
    one raises before anything is generated or ``out_dir`` is made. Then
    stops at the first failing stage and reports which one failed.
    """
    lexicon, stopwords = config.load_lexicon(), load_stopwords(config.stopwords_path)
    out = config.out_dir

    def rel(path: Path) -> str:
        return str(path.relative_to(out))

    summary: dict = {"out_dir": str(out), "stages": {}}
    stage = "generate"
    try:
        counts, records = generate_stage(config)
        summary["stages"][stage] = {
            "records": rel(out / "records.jsonl"),
            "counts": counts,
        }

        stage = "ingest"
        corpus_dir = out / "corpus"
        corpora, _ = ingest_stage(records, corpus_dir, config.detector, stopwords)
        del records  # the corpora hold what the later stages need
        summary["stages"][stage] = {
            "corpus_dir": rel(corpus_dir),
            "documents": {
                f"{lang.value}/{method.value}": corpus.N
                for (lang, method), corpus in corpora.items()
            },
        }

        stage = "score"
        scores_path, overall_path = out / "scores.jsonl", out / "overall.jsonl"
        cells, overall_rows = score_stage(
            corpora, lexicon, config.scope, scores_path, overall_path
        )
        summary["stages"][stage] = {
            "scores": rel(scores_path),
            "overall": rel(overall_path),
            "cells": len(cells),
        }

        stage = "aggregate"
        paths = aggregate_stage(cells, out / "averages")
        summary["stages"][stage] = {"files": [rel(path) for path in paths]}

        stage = "report"
        paths = report_stage(
            cells, overall_rows, config.languages, config.methods, out / "reports"
        )
        summary["stages"][stage] = {"files": [rel(path) for path in paths]}
    except Exception as exc:
        raise StageError(stage, exc) from exc

    write_json(out / "pipeline_summary.json", {**summary, "out_dir": "."})
    return summary
