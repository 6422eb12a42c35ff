import json

import pytest

from biaslex.cli import main
from biaslex.generation import HttpBackend, StubBackend
from biaslex.identities import Language, PromptMethod
from biaslex.pipeline import (
    ConfigError,
    RunConfig,
    StageError,
    load_config,
    parse_config,
    pipeline_run,
)
from biaslex.scoring import Scope


def test_parse_config_defaults(tmp_path):
    config = parse_config({"out_dir": "run"}, base_dir=tmp_path)
    assert config.out_dir == tmp_path / "run"
    assert config.languages == [Language.HINDI]
    assert config.methods == [PromptMethod.ORIGINAL]
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
        backend={
            "kind": "http",
            "url": "http://127.0.0.1:9",
            "max_retries": 0,
            "backoff": 0.0,
        },
    )
    with pytest.raises(StageError) as excinfo:
        pipeline_run(config)
    assert excinfo.value.stage == "generate"


def test_pipeline_is_the_composition_of_the_subcommands(tmp_path):
    """Running the stages via individual CLI commands reproduces the
    pipeline's own artifacts byte for byte."""
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "out_dir": str(tmp_path / "pipe"),
                "languages": ["hindi"],
                "methods": ["original", "simple", "complex"],
                "seed": 17,
            }
        )
    )
    pipeline_run(load_config(config_path))
    pipe = tmp_path / "pipe"

    manual = tmp_path / "manual"
    manual.mkdir()
    assert main(
        ["generate", "run", "--config", str(config_path), "--out", str(manual)]
    ) == 0
    for name in ["records.jsonl", "run_summary.json"]:
        assert (manual / name).read_bytes() == (pipe / name).read_bytes()

    assert main(
        ["ingest", "--in", str(manual / "records.jsonl"), "--out", str(manual / "corpus")]
    ) == 0
    for name in ["corpus_hindi_original.jsonl", "cleaning_summary.json"]:
        assert (manual / "corpus" / name).read_bytes() == (
            pipe / "corpus" / name
        ).read_bytes()

    assert main(
        [
            "score", "--corpus", str(manual / "corpus"),
            "--out", str(manual / "scores.jsonl"),
            "--overall-out", str(manual / "overall.jsonl"),
        ]
    ) == 0
    assert (manual / "scores.jsonl").read_bytes() == (pipe / "scores.jsonl").read_bytes()
    assert (manual / "overall.jsonl").read_bytes() == (
        pipe / "overall.jsonl"
    ).read_bytes()

    assert main(
        [
            "report", "--scores", str(manual / "scores.jsonl"),
            "--overall", str(manual / "overall.jsonl"),
            "--language", "hindi", "--application", "story",
            "--method", "original", "--format", "html",
            "--out", str(manual / "report.html"),
        ]
    ) == 0
    assert (manual / "report.html").read_bytes() == (
        pipe / "reports" / "report_hindi_story_original.html"
    ).read_bytes()


def test_pipeline_seed_override_changes_outputs(tmp_path):
    a = RunConfig(out_dir=tmp_path / "a", methods=[PromptMethod.ORIGINAL])
    b = RunConfig(out_dir=tmp_path / "b", methods=[PromptMethod.ORIGINAL])
    pipeline_run(a)
    pipeline_run(b, seed_override=99)
    assert (tmp_path / "a" / "records.jsonl").read_bytes() != (
        tmp_path / "b" / "records.jsonl"
    ).read_bytes()


def test_pipeline_seed_override_leaves_the_callers_config_alone(tmp_path):
    config = RunConfig(
        out_dir=tmp_path / "run",
        methods=[PromptMethod.ORIGINAL],
        backend={"kind": "stub"},
    )
    pipeline_run(config, seed_override=99)
    assert config.seed == 0
    assert config.backend == {"kind": "stub"}


def test_seed_override_reaches_the_stub(tmp_path):
    def records(name, seed, seed_override=None):
        config = RunConfig(
            out_dir=tmp_path / name, methods=[PromptMethod.ORIGINAL], seed=seed
        )
        pipeline_run(config, seed_override=seed_override)
        return (tmp_path / name / "records.jsonl").read_bytes()

    assert records("a", 3, seed_override=8) == records("b", 8) != records("c", 3)
