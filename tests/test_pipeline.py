import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import biaslex
from biaslex import corpus, pipeline
from biaslex.cli import main
from biaslex.generation import StubBackend
from biaslex.http_backend import HttpBackend
from biaslex.identities import (
    Language,
    PromptMethod,
    enumerate_identities,
    iter_applications,
)
from biaslex.pipeline import (
    ConfigError,
    RunConfig,
    StageError,
    generate_stage,
    load_config,
    parse_config,
    pipeline_run,
)
from biaslex.prompts import render_application_prompt
from biaslex.scoring import Scope

SRC = str(Path(biaslex.__file__).resolve().parent.parent)


def test_parse_config_defaults(tmp_path):
    config = parse_config({"out_dir": "run"}, base_dir=tmp_path)
    # every key left out takes RunConfig's own default
    assert config == RunConfig(out_dir=tmp_path / "run")
    assert config.languages == [Language.HINDI]
    assert config.methods == list(PromptMethod)
    assert config.scope is Scope.IDENTITY_SCOPED
    assert isinstance(config.make_backend(), StubBackend)


def test_parse_config_http_backend(tmp_path):
    config = parse_config(
        {
            "out_dir": "run",
            "backend": {"kind": "http", "url": "http://example.test", "max_retries": 1},
        },
        base_dir=tmp_path,
    )
    backend = config.make_backend()
    assert isinstance(backend, HttpBackend)
    assert backend.url == "http://example.test"
    assert backend.translate_url == "http://example.test"
    assert backend.max_retries == 1


def test_run_config_refuses_a_backend_that_is_not_http(tmp_path):
    with pytest.raises(ConfigError, match="backend is not an HttpBackend"):
        RunConfig(out_dir=tmp_path, backend=StubBackend())


def test_parse_config_rejects_http_without_url(tmp_path):
    with pytest.raises(ConfigError):
        parse_config({"out_dir": "run", "backend": {"kind": "http"}}, base_dir=tmp_path)


@pytest.mark.parametrize(
    "data",
    [
        {"out_dir": "r", "surprise": 1},
        {"out_dir": "r", "backend": {"kind": "stub", "surprise": 1}},
        {"out_dir": "r", "generation": {"surprise": 1}},
        {"out_dir": "r", "expansion": {"threshold": 2.0}},
        {"out_dir": "r", "expansion": {"threshold": -0.1}},
        {"out_dir": "r", "languages": ["klingon"]},
        {"out_dir": "r", "methods": ["telepathy"]},
        {"out_dir": "r", "scope": "everything"},
        {"out_dir": "r", "detector": "magic"},
        {"out_dir": "r", "concurrency": 0},
        {"out_dir": "r", "generation": {"top_p": 2.0}},
        {
            "out_dir": "r",
            "backend": {"url": "http://x/generate", "auth_env": "TOKEN", "timeout": 5},
        },
        {},
    ],
)
def test_parse_config_rejects_bad_values(data, tmp_path):
    with pytest.raises(ConfigError):
        parse_config(data, base_dir=tmp_path)


def test_parse_config_rejects_a_well_formed_expansion_block(tmp_path):
    # the block was validated but never applied; `lexicon expand` does the job
    expansion = {"threshold": 0.5, "synonyms": "s.csv", "similarity": "x.csv"}
    with pytest.raises(ConfigError, match="biaslex lexicon expand"):
        parse_config({"out_dir": "r", "expansion": expansion}, base_dir=tmp_path)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_pipeline_stage_error_names_the_stage(tmp_path):
    config = RunConfig(
        out_dir=tmp_path / "run",
        backend=HttpBackend(url="http://127.0.0.1:9", max_retries=0, backoff=0.0),
    )
    with pytest.raises(StageError) as excinfo:
        pipeline_run(config)
    assert excinfo.value.stage == "generate"


def test_an_interrupted_generation_leaves_its_run_summary(tmp_path, monkeypatch):
    calls = []

    class InterruptedStub(StubBackend):
        def generate(self, prompt, config):
            calls.append(prompt)
            if len(calls) == 20:
                raise KeyboardInterrupt
            return super().generate(prompt, config)

    monkeypatch.setattr(RunConfig, "make_backend", lambda c: InterruptedStub(c.seed))
    config = RunConfig(out_dir=tmp_path / "run")
    with pytest.raises(KeyboardInterrupt):
        generate_stage(config)
    summary = json.loads((config.out_dir / "run_summary.json").read_text())
    assert summary["counts"]["hindi/original"]["generated"] == 19


def test_the_stub_backend_names_the_http_keys_it_refuses(tmp_path):
    backend = {"kind": "stub", "max_retries": 1, "backoff": 0.1}
    with pytest.raises(ConfigError, match="takes no backoff, max_retries;"):
        parse_config({"out_dir": "r", "backend": backend}, base_dir=tmp_path)


def test_a_run_whose_only_failures_are_empty_originals_resumes(tmp_path, monkeypatch):
    empty = render_application_prompt(
        enumerate_identities()[0], iter_applications()[0], Language.HINDI
    )
    calls = []

    class OneEmptyOriginal(StubBackend):
        def generate(self, prompt, config):
            calls.append(prompt)
            return "" if prompt == empty else super().generate(prompt, config)

    monkeypatch.setattr(RunConfig, "make_backend", lambda c: OneEmptyOriginal(c.seed))
    config = RunConfig(out_dir=tmp_path / "run", methods=list(PromptMethod))
    failures = []
    for _ in range(2):  # the first run and a resume
        calls.clear()
        summary = pipeline_run(config)
        assert list(summary["stages"]) == [
            "generate", "ingest", "score", "aggregate", "report"
        ]
        run_summary = json.loads((tmp_path / "run" / "run_summary.json").read_text())
        failures.append(run_summary["failures"])
    assert calls == []  # the resume had nothing to send
    assert failures[0] == failures[1]
    assert [f["error"] for f in failures[1]] == ["original output empty"] * 2


@pytest.mark.parametrize("start", ["empty", "resumable", "cut-short", "two-languages"])
def test_pipeline_is_the_composition_of_the_subcommands(tmp_path, monkeypatch, start):
    """Chaining the five stage subcommands reproduces every artifact of the
    pipeline byte for byte, from an empty record file, from a resumable
    prefix and from one whose last line a crash cut short; and, from an
    empty one, for two languages, which each side runs in two processes."""
    monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
    languages = ["tamil", "hindi"] if start == "two-languages" else ["hindi"]
    settings = {
        "languages": languages,
        "methods": ["original", "simple", "complex"],
        "seed": 17,
    }

    def config_for(out):
        path = tmp_path / f"{out.name}.json"
        path.write_text(json.dumps({**settings, "out_dir": str(out)}))
        return path

    pipe = tmp_path / "pipe"
    manual = tmp_path / "manual"
    for out in (pipe, manual):
        out.mkdir()
    if start in ("resumable", "cut-short"):
        source = tmp_path / "source"
        assert main(["generate", "run", "--config", str(config_for(source))]) == 0
        lines = (source / "records.jsonl").read_bytes().splitlines(keepends=True)
        # all 288 originals and part of the simple-debias phase
        prefix = b"".join(lines[:300])
        if start == "cut-short":
            prefix += lines[300][: len(lines[300]) // 2]
        for out in (pipe, manual):
            (out / "records.jsonl").write_bytes(prefix)

    pipeline_run(load_config(config_for(pipe)))

    summary = json.loads((pipe / "run_summary.json").read_text())
    assert ("dropped_tail" in summary) == (start == "cut-short")

    corpus_dir = manual / "corpus"
    scores, overall = manual / "scores.jsonl", manual / "overall.jsonl"
    for argv in [
        ["generate", "run", "--config", config_for(manual)],
        ["ingest", "--in", manual / "records.jsonl", "--out", corpus_dir],
        ["score", "--corpus", corpus_dir, "--out", scores, "--overall-out", overall],
        ["aggregate", "--scores", scores, "--out", manual / "averages"],
        ["report", "--scores", scores, "--overall", overall, "--out", manual / "reports"],
    ]:
        assert main([str(arg) for arg in argv]) == 0

    pipe_tree = _tree_digest(pipe)
    del pipe_tree["pipeline_summary.json"]
    # records, run summary, 3 corpora per language and their cleaning
    # summary, scores, overall, 5 averages and 27 reports per language
    assert len(pipe_tree) == 10 + 30 * len(languages)
    assert _tree_digest(manual) == pipe_tree


@pytest.mark.parametrize("resume", [False, True])
def test_pipeline_parses_the_record_file_once(tmp_path, monkeypatch, resume):
    config = RunConfig(
        out_dir=tmp_path / "run", methods=[PromptMethod.ORIGINAL], seed=5
    )
    if resume:
        pipeline_run(replace(config, out_dir=tmp_path / "first"))
        (tmp_path / "run").mkdir()
        shutil.copyfile(
            tmp_path / "first" / "records.jsonl", tmp_path / "run" / "records.jsonl"
        )
    parsed = []
    from_json_dict = corpus.GenerationRecord.from_json_dict

    def counting(data):
        parsed.append(data["record_id"])
        return from_json_dict(data)

    def refuse(path):
        raise AssertionError(f"{path} was read again")

    monkeypatch.setattr(corpus, "read_records", refuse)
    monkeypatch.setattr(corpus.GenerationRecord, "from_json_dict", counting)
    summary = pipeline_run(config)
    assert summary["stages"]["ingest"]["documents"] == {"hindi/original": 144}
    assert len(parsed) == (288 if resume else 0)


@pytest.mark.parametrize(
    "wider, named, cut",
    [
        ({"languages": ["hindi", "bengali"]}, "bengali/original", False),
        ({"methods": ["original", "simple"]}, "hindi/simple", False),
        ({"languages": ["hindi", "tamil"]}, "tamil/original", True),
    ],
    ids=["narrowed-languages", "narrowed-methods", "narrowed-languages-cut-short"],
)
def test_a_resume_refuses_records_off_the_configs_grid(
    tmp_path, capsys, wider, named, cut
):
    """A run into a tree made with a wider grid would score and average the
    records the config no longer lists; it stops before writing anything,
    and before mending a last record line a crash cut short."""
    out = tmp_path / "run"
    settings = {"out_dir": str(out), "methods": ["original"], "seed": 3}
    pipeline_run(parse_config({**settings, **wider}))
    if cut:  # 100 bytes into the last line
        records = out / "records.jsonl"
        data = records.read_bytes()
        records.write_bytes(data[: data.rstrip(b"\n").rfind(b"\n") + 101])
    before = _tree_digest(out)
    with pytest.raises(StageError, match=named) as info:
        pipeline_run(parse_config(settings))
    assert isinstance(info.value.cause, ConfigError)
    assert _tree_digest(out) == before
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings))
    assert main(["pipeline", "--config", str(config)]) == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert named in diagnostic["message"]
    assert _tree_digest(out) == before


def _tree_digest(root):
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_pipeline_trees_do_not_depend_on_the_hash_seed(tmp_path):
    """Enum members hash by identity and str hashes follow PYTHONHASHSEED,
    so set and dict orders differ between interpreters; no artifact may."""
    config = {
        "languages": ["hindi"],
        "methods": ["original", "simple", "complex"],
        "seed": 23,
    }
    pipeline_run(parse_config({**config, "out_dir": str(tmp_path / "here")}))
    digests = {"here": _tree_digest(tmp_path / "here")}
    for hash_seed in ("0", "1"):
        out = tmp_path / f"hashseed{hash_seed}"
        config_path = tmp_path / f"config{hash_seed}.json"
        config_path.write_text(json.dumps({**config, "out_dir": str(out)}))
        subprocess.run(
            [sys.executable, "-m", "biaslex.cli", "pipeline", "--config", str(config_path)],
            env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": SRC},
            check=True,
            capture_output=True,
            timeout=120,
        )
        digests[hash_seed] = _tree_digest(out)
    assert len(digests["here"]) == 41
    assert digests["0"] == digests["1"] == digests["here"]
