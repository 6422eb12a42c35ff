"""The per-language fan-out of ingest, score and report.

Each test pins the number of usable CPUs, so the fan-out runs (or not)
whatever the host; ``conftest.py`` fails any test that leaves a worker
process behind.
"""
from __future__ import annotations

import json
import os
import pickle
import shutil
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

import biaslex
from biaslex import pipeline, scoring
from biaslex.cli import EXIT_IO, main
from biaslex.identities import Language, PromptMethod
from biaslex.pipeline import RunConfig, StageError, generate_stage, pipeline_run
from biaslex.scoring import Scope

# config order differs from canonical order (hindi, bengali, tamil); one
# method keeps the runs short
LANGUAGES = [Language.TAMIL, Language.HINDI, Language.BENGALI]
METHODS = [PromptMethod.ORIGINAL]
SEED = 11
SRC = str(Path(biaslex.__file__).resolve().parent.parent)


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("records")
    generate_stage(
        RunConfig(out_dir=out, languages=LANGUAGES, methods=METHODS, seed=SEED)
    )
    return out / "records.jsonl"


@pytest.fixture
def cpus(monkeypatch):
    """Pin the CPUs the fan-out sees."""
    return lambda n: monkeypatch.setattr(pipeline, "_usable_cpus", lambda: n)


@pytest.fixture
def worker_pids(monkeypatch, tmp_path):
    """The pids that scored a corpus, each left as a file by the scorer."""
    marks = tmp_path / "pids"
    marks.mkdir()
    score_corpus = scoring.score_corpus

    def marking(*args, **kwargs):
        (marks / str(os.getpid())).touch()
        return score_corpus(*args, **kwargs)

    monkeypatch.setattr(scoring, "score_corpus", marking)
    return lambda: {int(path.name) for path in marks.iterdir()}


def run(records: Path, out: Path, languages=LANGUAGES, **settings) -> Path:
    """``pipeline_run`` resumed from ``records``, which hold every cell."""
    out.mkdir()
    shutil.copyfile(records, out / "records.jsonl")
    pipeline_run(
        RunConfig(
            out_dir=out, languages=languages, methods=METHODS, seed=SEED, **settings
        )
    )
    return out


def tree(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def temp_files(root: Path) -> list[Path]:
    return sorted(root.rglob("*.tmp"))


@pytest.mark.parametrize("scope", list(Scope))
def test_one_and_two_processes_write_the_same_bytes(
    records, tmp_path, cpus, worker_pids, scope
):
    cpus(1)
    serial = tree(run(records, tmp_path / "serial", scope=scope))
    assert worker_pids() == {os.getpid()}
    cpus(2)
    forked = tree(run(records, tmp_path / "forked", scope=scope))
    # the work ran in forked workers, not in this process
    assert worker_pids() - {os.getpid()}
    # records, 2 summaries, 3 corpora and their cleaning summary, scores,
    # overall, 5 averages and 27 reports
    assert len(serial) == 41
    assert forked == serial
    summary = json.loads(serial["pipeline_summary.json"])
    # report files in config order, score rows in canonical order
    reports = summary["stages"]["report"]["files"]
    assert [name.split("_")[1] for name in reports[::9]] == ["tamil", "hindi", "bengali"]
    rows = serial["scores.jsonl"].splitlines()
    assert [json.loads(row)["language"] for row in rows[::144]] == [
        "hindi", "bengali", "tamil"
    ]


def test_a_language_alone_gives_what_it_gives_among_others(records, tmp_path, cpus):
    """The metamorphic relation: corpora, score rows and reports of one
    language do not depend on which other languages ran beside it."""
    cpus(2)
    together = tree(run(records, tmp_path / "together"))
    hindi_records = tmp_path / "hindi.jsonl"
    with open(records, "rb") as lines, open(hindi_records, "wb") as hindi:
        hindi.writelines(line for line in lines if b'"language": "hindi"' in line)
    alone = tree(run(hindi_records, tmp_path / "alone", languages=[Language.HINDI]))

    def hindi_part(files: dict[str, bytes]) -> dict[str, bytes]:
        part = {name: data for name, data in files.items() if "_hindi_" in name}
        for rows in ("scores.jsonl", "overall.jsonl"):
            part[rows] = b"".join(
                line
                for line in files[rows].splitlines(keepends=True)
                if json.loads(line)["language"] == "hindi"
            )
        return part

    assert len(hindi_part(alone)) == 1 + 9 + 2
    assert hindi_part(together) == hindi_part(alone)


def test_a_live_thread_keeps_the_work_in_process(records, tmp_path, cpus, worker_pids):
    """A fork copies the locks other threads hold, so none is made."""
    cpus(2)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        in_process = tree(run(records, tmp_path / "threaded"))
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert worker_pids() == {os.getpid()}
    assert in_process == tree(run(records, tmp_path / "forked"))


@pytest.fixture
def failing_report_write(monkeypatch):
    """Make a worker's write of a hindi report fail as a full disk would."""
    atomic_open, parent = pipeline.atomic_open, os.getpid()

    @contextmanager
    def failing(path):
        with atomic_open(path) as handle:
            if os.getpid() != parent and Path(path).name.startswith("report_hindi"):
                raise OSError(28, "No space left on device")
            yield handle

    monkeypatch.setattr(pipeline, "atomic_open", failing)


def test_a_failed_report_write_in_a_worker_is_a_report_stage_error(
    records, tmp_path, cpus, failing_report_write, capsys
):
    cpus(2)
    with pytest.raises(StageError) as excinfo:
        run(records, tmp_path / "run")
    assert excinfo.value.stage == "report"
    assert type(excinfo.value.cause) is OSError
    assert excinfo.value.cause.errno == 28
    assert temp_files(tmp_path) == []
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "out_dir": str(tmp_path / "cli"),
                "languages": [language.value for language in LANGUAGES],
                "methods": [method.value for method in METHODS],
                "seed": SEED,
            }
        )
    )
    assert main(["pipeline", "--config", str(config)]) == EXIT_IO
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == "StageError"
    assert "'report'" in diagnostic["message"]
    assert temp_files(tmp_path) == []


def test_an_interrupt_in_a_worker_reaches_the_caller(
    records, tmp_path, cpus, monkeypatch
):
    overall_top_terms, parent = scoring.overall_top_terms, os.getpid()

    def interrupted(corpus):
        if os.getpid() != parent and corpus.language is Language.BENGALI:
            raise KeyboardInterrupt
        return overall_top_terms(corpus)

    monkeypatch.setattr(scoring, "overall_top_terms", interrupted)
    cpus(2)
    with pytest.raises(KeyboardInterrupt):
        run(records, tmp_path / "run")
    assert temp_files(tmp_path) == []
    assert not (tmp_path / "run" / "scores.jsonl").exists()


def test_importing_the_pipeline_does_not_import_multiprocessing():
    """Only a fan-out that starts workers imports it, so a one-language run
    and the import do not pay for it."""
    code = "import sys, biaslex.pipeline; print('multiprocessing' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert result.stdout.strip() == "False"


def test_a_stage_error_survives_pickling():
    error = pickle.loads(pickle.dumps(StageError("score", ValueError("bad row"))))
    assert error.stage == "score"
    assert type(error.cause) is ValueError
    assert str(error) == "stage 'score' failed: bad row"
