"""Ingest cleans each language's records on its own.

A record id may appear under one language only: ``generate`` starts every
id with its language, and any other file that repeats an id across
languages is refused. ``conftest.py`` fails any test that leaves a worker
process behind.
"""
from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from biaslex import corpus, pipeline
from biaslex.artifacts import write_jsonl
from biaslex.cli import EXIT_OK, EXIT_VALIDATION, main
from biaslex.corpus import CleaningSummary, clean_records, read_records
from biaslex.identities import Language, PromptMethod
from biaslex.pipeline import RunConfig, generate_stage, ingest_stage, pipeline_run
from biaslex.preprocess import load_stopwords

# hindi and bengali are Indo-Aryan, tamil Dravidian; config order differs
# from canonical order (hindi, bengali, tamil)
LANGUAGES = [Language.TAMIL, Language.HINDI, Language.BENGALI]
METHODS = [PromptMethod.ORIGINAL]
SEED = 11
STOPWORDS = load_stopwords()


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
def cleaning_pids(monkeypatch, tmp_path):
    """The pids that cleaned records, each left as a file by the cleaner."""
    marks = tmp_path / "pids"
    marks.mkdir()
    clean = corpus.clean_records

    def marking(*args, **kwargs):
        (marks / str(os.getpid())).touch()
        return clean(*args, **kwargs)

    monkeypatch.setattr(corpus, "clean_records", marking)
    return lambda: {int(path.name) for path in marks.iterdir()}


def test_cleaning_each_language_alone_equals_cleaning_the_file(records):
    """Every drop reason occurs in each language; kept records and summed
    counts are those of one pass over the whole file."""
    rows = read_records(records)
    perturbed = []
    for n, record in enumerate(rows):
        perturbed.append(record)
        if n % 7 == 0:  # the same text under a new id
            perturbed.append(replace(record, record_id=f"{record.record_id}-again"))
        if n % 11 == 0:  # the same id with a new text
            perturbed.append(replace(record, english_text=f"another {n}"))
        if n % 13 == 0:
            perturbed.append(replace(record, record_id=f"{n}-empty", english_text=" "))
        if n % 17 == 0:
            perturbed.append(replace(record, record_id=f"{n}-x", english_text="आज"))
    whole, whole_counts = clean_records(perturbed, corpus.stub_english_detector)
    by_language = pipeline._records_by_language(perturbed)
    assert list(by_language) == [Language.HINDI, Language.BENGALI, Language.TAMIL]
    parts = [
        clean_records(group, corpus.stub_english_detector)
        for group in by_language.values()
    ]
    assert [record for kept, _ in parts for record in kept] == sorted(
        whole, key=lambda record: corpus.LANGUAGE_ORDER[record.language]
    )
    summed = CleaningSummary.total(counts for _, counts in parts)
    assert summed == whole_counts
    for language in LANGUAGES:
        per = summed.by_language[language.value]
        assert min(per.values()) > 0, per  # every reason in every language


def test_cleaning_runs_in_the_workers(records, tmp_path, cpus, cleaning_pids):
    """Each worker cleans its language; the caller writes the summed counts."""
    rows = read_records(records)
    cpus(2)
    documents, cleaning = ingest_stage(rows, tmp_path / "ingest", "stub", STOPWORDS)
    in_ingest = cleaning_pids()
    assert list(documents) == ["hindi/original", "bengali/original", "tamil/original"]
    assert cleaning == clean_records(rows, corpus.stub_english_detector)[1]
    written = (tmp_path / "ingest" / "cleaning_summary.json").read_text()
    assert json.loads(written) == cleaning.to_json_dict()
    out = tmp_path / "run"
    out.mkdir()
    (out / "records.jsonl").write_bytes(records.read_bytes())
    config = RunConfig(out_dir=out, languages=LANGUAGES, methods=METHODS, seed=SEED)
    pipeline_run(config)
    in_both = cleaning_pids()
    assert os.getpid() not in in_both
    assert in_ingest and in_both - in_ingest


def _shared_id_file(records: Path, path: Path) -> str:
    """``records`` with a tamil record renamed to a hindi record's id;
    returns that id."""
    rows = read_records(records)
    shared = next(r for r in rows if r.language is Language.HINDI).record_id
    tamil = next(n for n, r in enumerate(rows) if r.language is Language.TAMIL)
    rows[tamil] = replace(rows[tamil], record_id=shared)
    write_jsonl(path, (record.to_json_dict() for record in rows))
    return shared


def _refusal(capsys) -> str:
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    return diagnostic["message"]


def test_ingest_refuses_a_record_id_under_two_languages(records, tmp_path, capsys):
    shared = _shared_id_file(records, tmp_path / "records.jsonl")
    args = ["ingest", "--in", str(tmp_path / "records.jsonl"), "--out"]
    assert main([*args, str(tmp_path / "corpus")]) == EXIT_VALIDATION
    message = _refusal(capsys)
    assert repr(shared) in message and "hindi and tamil" in message
    assert not (tmp_path / "corpus" / "cleaning_summary.json").exists()


def test_pipeline_refuses_a_record_id_under_two_languages(records, tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    shared = _shared_id_file(records, out / "records.jsonl")
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "out_dir": str(out),
                "languages": [language.value for language in LANGUAGES],
                "methods": [method.value for method in METHODS],
                "seed": SEED,
            }
        )
    )
    assert main(["pipeline", "--config", str(config)]) == EXIT_VALIDATION
    message = _refusal(capsys)
    assert "'ingest'" in message
    assert repr(shared) in message and "hindi and tamil" in message


def test_ids_without_their_language_are_checked_against_every_record(
    records, tmp_path, capsys
):
    """An id that does not start with its language may be unique or repeat
    within its language; only one under two languages is refused."""
    rows = [record.to_json_dict() for record in read_records(records)]
    hindi = [row for row in rows if row["language"] == "hindi"]
    tamil = [row for row in rows if row["language"] == "tamil"]
    hindi[0]["record_id"] = hindi[1]["record_id"] = "plain"
    path = tmp_path / "records.jsonl"
    write_jsonl(path, hindi + tamil)
    args = ["--quiet", "ingest", "--in", str(path), "--out"]
    assert main([*args, str(tmp_path / "kept")]) == EXIT_OK
    summary = json.loads((tmp_path / "kept" / "cleaning_summary.json").read_text())
    assert summary["by_language"]["hindi"]["dropped_duplicate_id"] == 1
    # a tamil record may not take a hindi record's id
    tamil[0]["record_id"] = hindi[2]["record_id"]
    write_jsonl(path, hindi + tamil)
    assert main([*args, str(tmp_path / "refused")]) == EXIT_VALIDATION
    assert repr(hindi[2]["record_id"]) in _refusal(capsys)
