"""Workloads, set-up, timed runs and the correctness gate of the benchmark.

End-to-end numbers come from ``pipeline.pipeline_run`` with tracing off.
Per-layer numbers come from :func:`traced_pipeline_run`, which calls the
same public stage functions in ``pipeline_run``'s order with a span around
each call. Its artifacts must equal the untraced run's byte for byte, so
drift between the two compositions fails the gate instead of skewing the
per-layer numbers.
"""
from __future__ import annotations

import gc
import hashlib
import json
import math
import random
import resource
import shutil
import statistics
import string
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import biaslex  # noqa: E402
from biaslex import aggregate as agg  # noqa: E402
from biaslex import corpus as corpus_mod  # noqa: E402
from biaslex import generation as gen  # noqa: E402
from biaslex import report as report_mod  # noqa: E402
from biaslex import scoring  # noqa: E402
from biaslex.identities import ApplicationKind, Language, PromptMethod  # noqa: E402
from biaslex.pipeline import RunConfig, parse_config, pipeline_run  # noqa: E402
from biaslex.preprocess import load_stopwords  # noqa: E402

from endpoint import LatencyEndpoint  # noqa: E402
from tracing import Tracer, layer_self_times  # noqa: E402

if not Path(biaslex.__file__).resolve().is_relative_to(SRC.resolve()):
    raise ImportError(f"biaslex was imported from {biaslex.__file__}, not {SRC}")

OUT_ROOT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

# The paper's counts: 48 identities x 6 prompt cells per (language, method),
# merged into 144 documents; 3 applications x 3 formats of report files.
RECORDS_PER_CELL_SET = 288
DOCUMENTS_PER_CORPUS = 144
REPORT_FILES_PER_METHOD = 9
AVERAGES_FILES = 5

ENDPOINT_LATENCY_MS = 5.0
# Set-ups and least repeats per run; medians over them damp slow samples.
SETUP_REPEATS = 3
MIN_REPEATS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    languages: tuple[Language, ...]
    methods: tuple[PromptMethod, ...] = tuple(PromptMethod)
    scope: str = "identity"
    http: bool = False
    resume: bool = False
    concurrency: int = 1
    #: Scale times to the reference speed (see :class:`SpeedProbe`).
    scaled: bool = True

    @property
    def records(self) -> int:
        return RECORDS_PER_CELL_SET * len(self.languages) * len(self.methods)


WORKLOADS = {
    w.name: w
    for w in (
        # Every CPU stage does real work; generation is the in-process stub.
        Workload("stub-grid-10", tuple(Language)),
        # Generation waits on an endpoint with injected latency, with as many
        # workers as this machine has cores; the CPU stages are small. Its
        # time follows thread wake-ups and connection set-up across two
        # processes, which the one-thread calibration does not track
        # (correlation 0.2 over 8 samples), so it is reported as measured.
        Workload(
            "http-latency-1",
            (Language.HINDI,),
            http=True,
            concurrency=2,
            scaled=False,
        ),
        # Every cell is already stored, so generation only reads and indexes
        # the record file; scoring matches the whole lexicon.
        Workload("resume-all-10", tuple(Language), scope="all", resume=True),
    )
}


# --------------------------------------------------------------------------
# machine speed
#
# This host's speed drifts by tens of percent over minutes, more than
# medians within one run can absorb. So the times of CPU-bound workloads
# are scaled to a reference speed. A fixed pure-Python workload, run
# between the timed samples, stands for the machine's speed during the
# run. It reads JSON, counts terms and weighs them by tf-idf, the
# pipeline's own kind of work, and tracks the pipeline's drift better than
# a small loop that stays in cache. Its median over the run is used: one
# calibration is too short to be steady on its own.

# Seconds the calibration takes at the reference speed; a constant, so
# numbers from different runs and commits stay comparable.
CALIBRATION_REFERENCE_S = 0.5


def _calibration_work() -> None:
    rng = random.Random(0)
    vocab = [
        "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 9)))
        for _ in range(20000)
    ]
    lines = [
        json.dumps({"id": f"doc-{d}", "tokens": [rng.choice(vocab) for _ in range(400)]})
        for d in range(300)
    ]
    docs = [json.loads(line) for line in lines]
    df: Counter = Counter()
    for doc in docs:
        df.update(set(doc["tokens"]))
    for doc in docs:
        tf = Counter(doc["tokens"])
        total = len(doc["tokens"])
        weights = {
            term: count / total * (math.log((1 + len(docs)) / (1 + df[term])) + 1)
            for term, count in tf.items()
        }
        json.dumps(dict(sorted(weights.items())))


class SpeedProbe:
    """The machine's speed over a run, relative to the reference."""

    def __init__(self):
        self._calibrations = [self._calibrate()]

    @staticmethod
    def _calibrate() -> float:
        start = time.perf_counter()
        _calibration_work()
        return time.perf_counter() - start

    def mark(self) -> None:
        """Calibrate once more; call between timed samples."""
        self._calibrations.append(self._calibrate())

    @property
    def speed(self) -> float:
        """Multiply a measured time by this to get reference seconds."""
        return CALIBRATION_REFERENCE_S / statistics.median(self._calibrations)


class Unscaled:
    """Leaves times as measured, for workloads the calibration does not track."""

    speed = 1.0

    def mark(self) -> None:
        pass


class GateFailure(Exception):
    """The program's outputs are wrong; the run reports no metrics."""

    #: What the run had done when the gate failed; set by :func:`measure`.
    result: "Result"


# --------------------------------------------------------------------------
# set-up


class Prepared:
    """What a workload needs before its timed runs: endpoint and records."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.seed = seed
        self.endpoint = (
            LatencyEndpoint(seed, ENDPOINT_LATENCY_MS) if workload.http else None
        )
        self.records: Path | None = None
        try:
            if workload.resume:
                self.records = Path(tempfile.mkdtemp(dir=work_dir)) / "records.jsonl"
                config = self.config(work_dir)
                gen.run_matrix(
                    languages=config.languages,
                    methods=config.methods,
                    backend=config.make_backend(),
                    sink=gen.RecordSink(self.records),
                    gen_config=config.generation,
                    trans_config=config.translation,
                )
        except BaseException:
            self.close()
            raise

    def config(self, out_dir: Path, stub: bool = False) -> RunConfig:
        """The run's configuration; ``stub`` swaps the endpoint for the stub."""
        w = self.workload
        data = {
            "out_dir": str(out_dir),
            "languages": [language.value for language in w.languages],
            "methods": [method.value for method in w.methods],
            "seed": self.seed,
            "scope": w.scope,
            "concurrency": w.concurrency,
        }
        if self.endpoint is not None and not stub:
            data["backend"] = {
                "kind": "http",
                "url": f"{self.endpoint.url}/generate",
                "translate_url": f"{self.endpoint.url}/translate",
            }
        return parse_config(data)

    def fresh_out_dir(self, work_dir: Path) -> Path:
        out = Path(tempfile.mkdtemp(dir=work_dir))
        if self.records is not None:
            shutil.copyfile(self.records, out / "records.jsonl")
        return out

    def close(self) -> None:
        if self.endpoint is not None:
            self.endpoint.close()


def _import_program() -> None:
    """Import the pipeline in a fresh interpreter, as a user's run would."""
    subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; sys.path.insert(0, {str(SRC)!r}); import biaslex.pipeline",
        ],
        check=True,
    )


def set_up(
    workload: Workload,
    seed: int,
    work_dir: Path,
    times: int,
    probe: SpeedProbe | Unscaled,
) -> tuple[list[float], Prepared]:
    """Set up ``times`` times; return each set-up's seconds and the last one."""
    seconds = []
    prepared = None
    for _ in range(times):
        if prepared is not None:
            prepared.close()
        start = time.perf_counter()
        _import_program()
        prepared = Prepared(workload, seed, work_dir)
        prepared.config(work_dir)
        seconds.append(time.perf_counter() - start)
        probe.mark()
    return seconds, prepared


# --------------------------------------------------------------------------
# the traced composition


class _TimedSink(gen.RecordSink):
    def __init__(self, path: Path, tracer: Tracer):
        self._tracer = tracer
        super().__init__(path)

    def append(self, record) -> None:
        with self._tracer.span("generation.persist"):
            super().append(record)


class _TimedBackend:
    """Records a span per backend call; calls arrive on worker threads."""

    def __init__(self, backend: gen.Backend, tracer: Tracer, parent: int):
        self._backend = backend
        self._tracer = tracer
        self._parent = parent

    def _timed(self, call, *args):
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            self._tracer.record(
                "generation.call", start, time.perf_counter(), self._parent
            )

    def generate(self, prompt, config):
        return self._timed(self._backend.generate, prompt, config)

    def translate(self, text, config):
        return self._timed(self._backend.translate, text, config)


def _write_json(path: Path, data: dict) -> None:
    path.write_text(
        json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def traced_pipeline_run(config: RunConfig, tracer: Tracer) -> dict:
    """``pipeline_run``'s stage calls, in its order, each inside a span."""
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    counts = tracer.counts

    def rel(path: Path) -> str:
        return str(path.relative_to(out))

    summary: dict = {"out_dir": str(out), "stages": {}}
    with tracer.span("pipeline"):
        backend = config.make_backend()
        with tracer.span("generation.load"):
            sink = _TimedSink(out / "records.jsonl", tracer)
        with tracer.span("generation.run_matrix") as parent:
            run_summary = gen.run_matrix(
                languages=config.languages,
                methods=config.methods,
                backend=_TimedBackend(backend, tracer, parent),
                sink=sink,
                gen_config=config.generation,
                trans_config=config.translation,
                concurrency=config.concurrency,
            )
        _write_json(out / "run_summary.json", run_summary.to_json_dict())
        cell_counts = run_summary.to_json_dict()["counts"]
        summary["stages"]["generate"] = {
            "records": rel(out / "records.jsonl"),
            "counts": cell_counts,
        }
        requested, failed = _requested_failed(summary)
        for kind in ("generated", "skipped", "failed"):
            counts[f"generation.cells_{kind}"] = sum(
                c[kind] for c in cell_counts.values()
            )
        counts["error_rate"] = failed / requested if requested else 0.0

        with tracer.span("corpus.read"):
            records = corpus_mod.read_records(out / "records.jsonl")
        detector = (
            corpus_mod.stub_english_detector if config.detector == "stub" else None
        )
        with tracer.span("corpus.clean"):
            cleaned, cleaning = corpus_mod.clean_records(records, detector)
        with tracer.span("corpus.build"):
            stopwords = load_stopwords(config.stopwords_path)
            corpora = corpus_mod.build_corpus(cleaned, stopwords=stopwords)
        corpus_dir = out / "corpus"
        with tracer.span("corpus.write"):
            corpus_mod.write_corpus_dir(corpora, corpus_dir, cleaning)
        summary["stages"]["ingest"] = {
            "corpus_dir": rel(corpus_dir),
            "documents": {
                f"{lang.value}/{method.value}": corpora[(lang, method)].N
                for (lang, method) in sorted(
                    corpora, key=lambda lm: (lm[0].value, lm[1].value)
                )
            },
        }
        counts["corpus.records_kept"] = len(cleaned)
        counts["corpus.documents"] = sum(c.N for c in corpora.values())
        counts["corpus.tokens"] = sum(
            len(doc.tokens) for c in corpora.values() for doc in c
        )

        with tracer.span("lexicon.load"):
            lexicon = config.load_lexicon()
        cells: list[scoring.ScoreCell] = []
        overall_rows = []
        for (language, method) in sorted(
            corpora,
            key=lambda lm: (
                corpus_mod.LANGUAGE_ORDER[lm[0]],
                corpus_mod.METHOD_ORDER[lm[1]],
            ),
        ):
            corpus = corpora[(language, method)]
            with tracer.span("scoring.bias"):
                cells.extend(scoring.score_corpus(corpus, lexicon, config.scope))
            with tracer.span("scoring.overall"):
                overall_rows.extend(scoring.overall_top_terms(corpus))
        with tracer.span("scoring.write"):
            scoring.write_scores(cells, out / "scores.jsonl")
            scoring.write_overall_terms(overall_rows, out / "overall.jsonl")
        summary["stages"]["score"] = {
            "scores": rel(out / "scores.jsonl"),
            "overall": rel(out / "overall.jsonl"),
            "cells": len(cells),
        }
        counts["scoring.cells"] = len(cells)
        counts["scoring.matched_terms"] = sum(len(c.per_term) for c in cells)

        averages_dir = out / "averages"
        averages_dir.mkdir(exist_ok=True)
        averages_files = []
        rows = 0
        for axis in agg.SeriesAxis:
            results = []
            for app in ApplicationKind:
                with tracer.span("aggregate.series"):
                    results.extend(agg.series(cells, axis, app))
            path = averages_dir / f"averages_{axis.value}.csv"
            with tracer.span("aggregate.write"):
                rows += agg.write_averages_csv(results, path)
            averages_files.append(rel(path))
        summary["stages"]["aggregate"] = {"files": averages_files}
        counts["aggregate.rows"] = rows

        reports_dir = out / "reports"
        reports_dir.mkdir(exist_ok=True)
        report_files = []
        written = 0
        for language in config.languages:
            for method in config.methods:
                for app in ApplicationKind:
                    with tracer.span("report.build"):
                        table = report_mod.build_report(
                            cells, overall_rows, language, app, method
                        )
                    for fmt in report_mod.ReportFormat:
                        name = (
                            f"report_{language.value}_{app.value}"
                            f"_{method.value}.{fmt.value}"
                        )
                        path = reports_dir / name
                        with tracer.span("report.render"):
                            text = report_mod.render_table(table, fmt)
                        with tracer.span("report.write"):
                            path.write_text(text, encoding="utf-8")
                        written += len(text.encode("utf-8"))
                        report_files.append(rel(path))
        summary["stages"]["report"] = {"files": report_files}
        counts["report.files"] = len(report_files)
        counts["report.bytes"] = written

        _write_json(out / "pipeline_summary.json", {**summary, "out_dir": "."})
    return summary


# --------------------------------------------------------------------------
# the correctness gate


def _requested_failed(summary: dict) -> tuple[int, int]:
    counts = summary["stages"]["generate"]["counts"].values()
    return sum(c["requested"] for c in counts), sum(c["failed"] for c in counts)


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, by relative path."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _line_count(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def check_tree(out: Path, workload: Workload) -> None:
    """The paper's artifact counts for the workload's languages and methods."""
    corpora = len(workload.languages) * len(workload.methods)
    expected = {
        "records": workload.records,
        "corpus files": corpora,
        "score rows": DOCUMENTS_PER_CORPUS * corpora,
        "overall rows": DOCUMENTS_PER_CORPUS * corpora,
        "averages files": AVERAGES_FILES,
        "report files": REPORT_FILES_PER_METHOD * corpora,
    }
    corpus_files = sorted((out / "corpus").glob("corpus_*.jsonl"))
    averages = sorted((out / "averages").glob("averages_*.csv"))
    found = {
        "records": _line_count(out / "records.jsonl"),
        "corpus files": len(corpus_files),
        "score rows": _line_count(out / "scores.jsonl"),
        "overall rows": _line_count(out / "overall.jsonl"),
        "averages files": len(averages),
        "report files": len(list((out / "reports").iterdir())),
    }
    if found != expected:
        raise GateFailure(f"artifact counts {found}, expected {expected}")
    short = [p.name for p in corpus_files if _line_count(p) != DOCUMENTS_PER_CORPUS]
    short += [p.name for p in averages if _line_count(p) < 2]
    if short:
        raise GateFailure(f"files with the wrong number of rows: {short}")


def same_tree(first: dict[str, str], second: dict[str, str], what: str) -> None:
    if first != second:
        differing = sorted(
            name
            for name in first.keys() | second.keys()
            if first.get(name) != second.get(name)
        )
        raise GateFailure(f"{what}: artifacts differ in {differing[:5]}")


# --------------------------------------------------------------------------
# timed runs


@dataclass
class Repeat:
    wall: float
    tree: dict[str, str]
    requested: int
    failed: int


def run_once(
    prepared: Prepared,
    work_dir: Path,
    tracer: Tracer | None = None,
    stub: bool = False,
) -> Repeat:
    """One pipeline run into a fresh directory, checked by the gate."""
    out = prepared.fresh_out_dir(work_dir)
    try:
        config = prepared.config(out, stub=stub)
        gc.collect()
        start = time.perf_counter()
        if tracer is None:
            summary = pipeline_run(config)
        else:
            summary = traced_pipeline_run(config, tracer)
        wall = time.perf_counter() - start
        check_tree(out, prepared.workload)
        return Repeat(wall, tree_digest(out), *_requested_failed(summary))
    finally:
        shutil.rmtree(out)


def _repeat_until(seconds: float, step) -> None:
    """Call ``step`` at least MIN_REPEATS times, then while the next fits."""
    deadline = time.perf_counter() + seconds
    costs: list[float] = []
    while True:
        start = time.perf_counter()
        step()
        costs.append(time.perf_counter() - start)
        if (
            len(costs) >= MIN_REPEATS
            and time.perf_counter() + statistics.median(costs) > deadline
        ):
            return


def _check_against_reference(prepared: Prepared, work_dir: Path, tree: dict) -> None:
    """An endpoint run equals a stub run; a resumed run leaves records as they were."""
    if prepared.endpoint is not None:
        reference = run_once(prepared, work_dir, stub=True)
        same_tree(reference.tree, tree, "endpoint run against stub run")
    if prepared.records is not None:
        stored = hashlib.sha256(prepared.records.read_bytes()).hexdigest()
        if tree["records.jsonl"] != stored:
            raise GateFailure("resumed run rewrote records.jsonl")


def _percentile(values: list[float], percent: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


# Spans whose summed duration is a metric of the same name plus ``_s``.
_SPAN_METRICS = (
    "generation.load",
    "generation.persist",
    "corpus.read",
    "corpus.clean",
    "corpus.build",
    "corpus.write",
    "lexicon.load",
    "scoring.bias",
    "scoring.overall",
    "scoring.write",
    "aggregate.series",
    "aggregate.write",
    "report.build",
    "report.render",
    "report.write",
)


def layer_metrics(
    tracer: Tracer, concurrency: int, endpoint_stats: dict | None
) -> dict[str, float]:
    """Per-layer metrics of one traced run."""
    busy = dict.fromkeys(
        _SPAN_METRICS + ("generation.run_matrix", "generation.call"), 0.0
    )
    calls_ms = []
    for span in tracer.spans:
        if span.name in busy:
            busy[span.name] += span.duration
        if span.name == "generation.call":
            calls_ms.append(span.duration * 1000.0)
    generation_wall = busy["generation.load"] + busy["generation.run_matrix"]
    backend = busy["generation.call"]
    stats = endpoint_stats or {"requests": 0, "connections": 0}
    metrics = {f"{name}_s": busy[name] for name in _SPAN_METRICS}
    metrics.update(tracer.counts)
    metrics.update(
        {
            "generation.wall_s": generation_wall,
            "generation.backend_s": backend,
            "generation.call_ms_p50": _percentile(calls_ms, 50),
            "generation.call_ms_p99": _percentile(calls_ms, 99),
            "generation.stall_s": generation_wall - backend / concurrency,
            "endpoint.requests": stats["requests"],
            "endpoint.connections": stats["connections"],
            "endpoint.connections_per_request": (
                stats["connections"] / stats["requests"] if stats["requests"] else 0.0
            ),
            "pipeline.self_s": layer_self_times(tracer.spans)["pipeline"],
        }
    )
    return metrics


@dataclass
class Result:
    metrics: dict[str, float] = field(default_factory=dict)
    #: Measured wall times of the untraced runs, before scaling.
    walls: list[float] = field(default_factory=list)
    #: Factor from measured to reference seconds (1.0 when unscaled).
    speed: float = 1.0
    repeats: list[Repeat] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(r.requested for r in self.repeats)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.repeats)


def _end_to_end(
    prepared: Prepared,
    work_dir: Path,
    seconds: float,
    probe: SpeedProbe | Unscaled,
    result: Result,
):
    repeats = result.repeats

    def step():
        repeats.append(run_once(prepared, work_dir))
        probe.mark()
        if repeats[-1].failed:
            raise GateFailure(f"{repeats[-1].failed} cells failed")
        same_tree(repeats[0].tree, repeats[-1].tree, "repeated run")

    _repeat_until(seconds, step)
    _check_against_reference(prepared, work_dir, repeats[0].tree)
    result.walls = [r.wall for r in repeats]
    result.speed = probe.speed
    wall = statistics.median(result.walls) * result.speed
    result.metrics = {
        "wall_s": wall,
        "records_per_s": prepared.workload.records / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def _per_layer(prepared: Prepared, work_dir: Path, seconds: float, result: Result):
    repeats = result.repeats
    traced_walls: list[float] = []
    per_run: list[dict[str, float]] = []
    tracers: list[Tracer] = []
    endpoint = prepared.endpoint

    def step():
        plain = run_once(prepared, work_dir)
        repeats.append(plain)
        if endpoint is not None:
            endpoint.reset()
        tracer = Tracer(run=len(tracers))
        traced = run_once(prepared, work_dir, tracer)
        stats = endpoint.stats() if endpoint is not None else None
        repeats.append(traced)
        if plain.failed or traced.failed:
            raise GateFailure(f"{plain.failed + traced.failed} cells failed")
        same_tree(repeats[0].tree, plain.tree, "repeated run")
        same_tree(plain.tree, traced.tree, "traced run against pipeline_run")
        tracers.append(tracer)
        result.walls.append(plain.wall)
        traced_walls.append(traced.wall)
        per_run.append(layer_metrics(tracer, prepared.workload.concurrency, stats))

    _repeat_until(seconds, step)
    _check_against_reference(prepared, work_dir, repeats[0].tree)
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(
        result.walls
    )
    result.metrics = metrics
    _write_spans(prepared, tracers, traced_walls)


def spans_path(workload: Workload, seed: int) -> Path:
    return OUT_ROOT / f"spans-{workload.name}-seed{seed}.json"


def _write_spans(prepared: Prepared, tracers: list[Tracer], walls: list[float]):
    runs = [
        {"run": t.run, "wall_s": wall, "layer_self_s": layer_self_times(t.spans)}
        for t, wall in zip(tracers, walls)
    ]
    spans = [asdict(span) for t in tracers for span in t.spans]
    spans_path(prepared.workload, prepared.seed).write_text(
        json.dumps(
            {
                "workload": prepared.workload.name,
                "seed": prepared.seed,
                "runs": runs,
                "spans": spans,
            }
        )
        + "\n",
        encoding="utf-8",
    )


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Result:
    """Set up, run the workload for about ``seconds``, and gate its outputs.

    Without ``trace`` the metrics are end to end; with it, per layer.
    Raises :class:`GateFailure` when an output is wrong.
    """
    OUT_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_ROOT))
    result = Result()
    probe = SpeedProbe() if workload.scaled else Unscaled()
    try:
        setup_times, prepared = set_up(
            workload, seed, work_dir, 1 if trace else SETUP_REPEATS, probe
        )
        try:
            if trace:
                _per_layer(prepared, work_dir, seconds, result)
            else:
                _end_to_end(prepared, work_dir, seconds, probe, result)
                result.metrics["setup_s"] = (
                    statistics.median(setup_times) * result.speed
                )
        finally:
            prepared.close()
    except GateFailure as exc:
        exc.result = result
        raise
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return result
