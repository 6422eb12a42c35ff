import csv
import json
import re
import shlex
import shutil
from pathlib import Path

import pytest

from biaslex.cli import build_parser, main
from biaslex.lexicon import DEFAULT_SIMILARITY_THRESHOLD, seed_lexicon_path
from biaslex.pipeline import RunConfig, parse_config


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def stub_run(tmp_path_factory):
    """One stub generation run shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    out = root / "gen"
    config.write_text(
        json.dumps(
            {
                "out_dir": str(out),
                "languages": ["hindi"],
                "methods": ["original", "simple", "complex"],
                "seed": 11,
            }
        )
    )
    assert run_cli("generate", "run", "--config", str(config)) == 0
    return root, config, out


def test_lexicon_validate_ok(capsys):
    assert run_cli("lexicon", "validate", str(seed_lexicon_path())) == 0
    assert "342 entries" in capsys.readouterr().out


def test_lexicon_validate_missing_file():
    assert run_cli("lexicon", "validate", "/nonexistent/lexicon.csv") == 3


def test_lexicon_validate_bad_file(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("lemma,oops\nviolent,x\n")
    assert run_cli("lexicon", "validate", str(bad)) == 1


def test_lexicon_validate_names_the_first_refused_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "lemma,religions,genders,marital_statuses,children,provenance,source_note\n"
        "violent,muslim,,,,literature,\n"
        "aggressive,muslim,,,,auto_synonym,\n"
        "hostile,,,,,literature,\n"
    )
    assert run_cli("lexicon", "validate", str(bad)) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "ParseError",
        "message": "line 3: auto synonym 'aggressive' does not record its seed",
    }


def test_lexicon_expand_cli(tmp_path):
    lexicon = tmp_path / "lex.csv"
    lexicon.write_text(
        "lemma,religions,genders,marital_statuses,children,provenance,source_note\n"
        "violent,muslim,,,,literature,\n"
    )
    synonyms = tmp_path / "syn.csv"
    synonyms.write_text("lemma,synonyms\nviolent,fierce|calm\n")
    similarity = tmp_path / "sim.csv"
    similarity.write_text("a,b,score\nviolent,fierce,0.9\nviolent,calm,0.1\n")
    out = tmp_path / "expanded.csv"
    code = run_cli(
        "lexicon", "expand", str(lexicon),
        "--threshold", "0.5",
        "--synonyms", str(synonyms),
        "--similarity", str(similarity),
        "--out", str(out),
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 3  # header + violent + fierce
    assert any(line.startswith("fierce,") for line in rows)


def test_lexicon_expand_rejects_bad_threshold(tmp_path):
    synonyms = tmp_path / "syn.csv"
    synonyms.write_text("lemma,synonyms\n")
    similarity = tmp_path / "sim.csv"
    similarity.write_text("a,b,score\n")
    code = run_cli(
        "lexicon", "expand", str(seed_lexicon_path()),
        "--threshold", "1.5",
        "--synonyms", str(synonyms),
        "--similarity", str(similarity),
        "--out", str(tmp_path / "out.csv"),
    )
    assert code == 1


def test_lexicon_expand_threshold_defaults_to_the_library_default():
    args = build_parser().parse_args(
        "lexicon expand lex.csv --synonyms s.csv --similarity x.csv --out o.csv".split()
    )
    assert args.threshold == DEFAULT_SIMILARITY_THRESHOLD


def test_prompts_emit(tmp_path):
    out = tmp_path / "prompts.jsonl"
    assert run_cli("prompts", "emit", "--language", "hindi", "--out", str(out)) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 288
    assert lines[0]["language"] == "hindi"
    assert lines[0]["family"] == "indo_aryan"
    assert lines[0]["method"] == "original"
    assert lines[0]["prompt_text"].startswith("What are to-do list activities")
    stories = [l for l in lines if l["application"] == "story"]
    assert len(stories) == 192
    assert all("story_location" in l for l in stories)


def test_prompts_emit_unknown_language(tmp_path):
    code = run_cli(
        "prompts", "emit", "--language", "klingon", "--out", str(tmp_path / "x.jsonl")
    )
    assert code == 1


def test_prompts_emit_refuses_a_repeated_method(tmp_path, capsys):
    out = tmp_path / "x.jsonl"
    code = run_cli(
        "prompts", "emit", "--language", "hindi", "--methods", "original,original",
        "--out", str(out),
    )
    assert code == 1
    assert "--methods" in json.loads(capsys.readouterr().err)["message"]
    assert not out.exists()


def test_prompts_emit_debias_needs_source(tmp_path):
    code = run_cli(
        "prompts", "emit", "--language", "hindi", "--methods", "original,simple",
        "--out", str(tmp_path / "x.jsonl"),
    )
    assert code == 1


def test_prompts_emit_leaves_no_partial_file(tmp_path):
    # the originals are written before the first debias prompt finds none
    source = tmp_path / "empty.jsonl"
    source.write_text("")
    out = tmp_path / "x.jsonl"
    code = run_cli(
        "prompts", "emit", "--language", "hindi", "--methods", "original,simple",
        "--source-records", str(source), "--out", str(out),
    )
    assert code == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.jsonl"]


def test_prompts_emit_debias_with_source(stub_run, tmp_path):
    _, _, gen_out = stub_run
    out = tmp_path / "debias_prompts.jsonl"
    code = run_cli(
        "prompts", "emit", "--language", "hindi", "--methods", "simple,complex",
        "--source-records", str(gen_out / "records.jsonl"),
        "--out", str(out),
    )
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 576
    assert all(l["prompt_text"].startswith("Please edit") for l in lines)


def test_generate_run_writes_records(stub_run):
    _, _, out = stub_run
    lines = (out / "records.jsonl").read_text().splitlines()
    assert len(lines) == 864
    assert (out / "run_summary.json").exists()


def test_generate_run_unreachable_endpoint(tmp_path):
    config = tmp_path / "config.json"
    out = tmp_path / "gen"
    config.write_text(
        json.dumps(
            {
                "out_dir": str(out),
                "languages": ["hindi"],
                "methods": ["original"],
                "backend": {
                    "kind": "http",
                    "url": "http://127.0.0.1:9",
                    "max_retries": 0,
                    "backoff": 0.0,
                },
            }
        )
    )
    # partial failures are tolerated, but a backend that produces nothing
    # at all is a backend failure
    code = run_cli("generate", "run", "--config", str(config))
    assert code == 2
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["counts"]["hindi/original"]["failed"] == 288


@pytest.mark.parametrize("command", ["pipeline", "generate"])
def test_a_dead_backend_exits_2_with_every_reason_on_disk(tmp_path, capsys, command):
    config = tmp_path / "config.json"
    out = tmp_path / "o"
    config.write_text(
        json.dumps(
            {
                "out_dir": str(out),
                "languages": ["hindi"],
                "methods": ["original", "simple", "complex"],
                "backend": {
                    "kind": "http",
                    "url": "http://127.0.0.1:9",
                    "max_retries": 1,
                    "backoff": 0.01,
                },
                "concurrency": 4,
            }
        )
    )
    argv = ["pipeline", "--config", str(config)]
    if command == "generate":
        argv = ["generate", "run", "--config", str(config)]
    assert run_cli(*argv) == 2
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "every original call for hindi failed" in diagnostic["message"]
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["counts"]["hindi/original"]["failed"] == 288
    assert len(summary["failures"]) == 288
    assert all(
        f["error"].startswith("backend unreachable after 2 attempts")
        for f in summary["failures"]
    )


def test_debias_only_without_originals_is_still_a_usage_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    out = tmp_path / "gen"
    config.write_text(json.dumps({"out_dir": str(out), "methods": ["simple"]}))
    code = run_cli("generate", "run", "--config", str(config))
    assert code == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == "PrerequisiteMissingError"
    assert json.loads((out / "run_summary.json").read_text())["counts"] == {}


def test_generate_run_refuses_a_corrupt_record_file(stub_run, tmp_path, capsys):
    _, stub_config, out = stub_run
    lines = (out / "records.jsonl").read_bytes().splitlines(keepends=True)
    lines[2] = b"{not a record\n"
    target = tmp_path / "gen"
    target.mkdir()
    (target / "records.jsonl").write_bytes(b"".join(lines))
    config = tmp_path / "config.json"
    settings = json.loads(stub_config.read_text())
    config.write_text(json.dumps({**settings, "out_dir": str(target)}))
    code = run_cli("generate", "run", "--config", str(config))
    assert code == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "line 3 " in diagnostic["message"]


@pytest.fixture(scope="module")
def scored_run(stub_run, tmp_path_factory):
    """The stub run's records, corpus, scores and overall terms in one tree."""
    _, _, gen_out = stub_run
    root = tmp_path_factory.mktemp("scored")
    shutil.copyfile(gen_out / "records.jsonl", root / "records.jsonl")
    assert run_cli(
        "ingest", "--in", str(root / "records.jsonl"), "--out", str(root / "corpus")
    ) == 0
    assert run_cli(
        "score", "--corpus", str(root / "corpus"), "--out", str(root / "scores.jsonl"),
        "--overall-out", str(root / "overall.jsonl"),
    ) == 0
    return root


def _cut_short(line: bytes) -> bytes:
    return line[: len(line) // 2]


def _without(field: str):
    def edit(line: bytes) -> bytes:
        row = json.loads(line)
        del row[field]
        return json.dumps(row).encode() + b"\n"

    return edit


def _as_a_string(field: str):
    def edit(line: bytes) -> bytes:
        row = json.loads(line)
        row[field] = str(row[field])
        return json.dumps(row).encode() + b"\n"

    return edit


def _with(field: str, value):
    def edit(line: bytes) -> bytes:
        row = json.loads(line)
        row[field] = value
        return json.dumps(row).encode() + b"\n"

    return edit


# argv with {run} for the copied tree, the artifact it reads, the line to
# edit (-1 for the last) and the edit
_CORRUPT_READS = {
    "ingest-cut-last-record": (
        "ingest --in {run}/records.jsonl --out {run}/corpus2",
        "records.jsonl", -1, _cut_short,
    ),
    "prompts-emit-source-records": (
        "prompts emit --language hindi --methods simple"
        " --source-records {run}/records.jsonl --out {run}/prompts.jsonl",
        "records.jsonl", 10, lambda line: b'{"record_id": 5}\n',
    ),
    "score-corpus": (
        "score --corpus {run}/corpus --out {run}/s.jsonl --overall-out {run}/o.jsonl",
        "corpus/corpus_hindi_simple.jsonl", 41,
        lambda line: _cut_short(line) + b"\n",
    ),
    "score-corpus-tokens-as-a-string": (
        "score --corpus {run}/corpus --out {run}/s.jsonl --overall-out {run}/o.jsonl",
        "corpus/corpus_hindi_original.jsonl", 3, _as_a_string("tokens"),
    ),
    "aggregate-scores": (
        "aggregate --scores {run}/scores.jsonl --out {run}/averages",
        "scores.jsonl", 20, lambda line: _cut_short(line) + b"\n",
    ),
    "report-overall": (
        "report --scores {run}/scores.jsonl --overall {run}/overall.jsonl"
        " --out {run}/reports",
        "overall.jsonl", 7, _as_a_string("top_term"),
    ),
    "report-scores-without-per-term": (
        "report --scores {run}/scores.jsonl --overall {run}/overall.jsonl"
        " --out {run}/reports",
        "scores.jsonl", 6, _without("per_term"),
    ),
    "aggregate-scores-bias-score-as-a-string": (
        "aggregate --scores {run}/scores.jsonl --out {run}/averages",
        "scores.jsonl", 6, _as_a_string("bias_score"),
    ),
    "aggregate-scores-bias-score-as-a-bool": (
        "aggregate --scores {run}/scores.jsonl --out {run}/averages",
        "scores.jsonl", 6, _with("bias_score", True),
    ),
    "aggregate-scores-per-term-weight-as-a-string": (
        "aggregate --scores {run}/scores.jsonl --out {run}/averages",
        "scores.jsonl", 6, _with("per_term", {"term": "0.5"}),
    ),
}


@pytest.mark.parametrize("case", _CORRUPT_READS)
def test_a_command_refuses_an_artifact_line_that_is_not_a_row(
    scored_run, tmp_path, capsys, case
):
    argv, artifact, number, edit = _CORRUPT_READS[case]
    run = tmp_path / "run"
    shutil.copytree(scored_run, run)
    path = run / artifact
    lines = path.read_bytes().splitlines(keepends=True)
    if number == -1:
        number = len(lines)
    lines[number - 1] = edit(lines[number - 1])
    path.write_bytes(b"".join(lines))
    assert run_cli(*shlex.split(argv.format(run=run))) == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostic["error"] == "RowError"
    prefix = f"{path}: line {number} is not a row: "
    assert diagnostic["message"].startswith(prefix)
    assert "line " not in diagnostic["message"][len(prefix):]


def test_ingest_score_aggregate_report_chain(stub_run, tmp_path):
    _, _, gen_out = stub_run
    corpus_dir = tmp_path / "corpus"
    assert run_cli(
        "ingest", "--in", str(gen_out / "records.jsonl"), "--out", str(corpus_dir)
    ) == 0
    assert (corpus_dir / "cleaning_summary.json").exists()
    assert (corpus_dir / "corpus_hindi_original.jsonl").exists()

    scores = tmp_path / "scores.jsonl"
    overall = tmp_path / "overall.jsonl"
    assert run_cli(
        "score", "--corpus", str(corpus_dir), "--out", str(scores),
        "--overall-out", str(overall),
    ) == 0
    assert len(scores.read_text().splitlines()) == 432

    averages = tmp_path / "averages"
    assert run_cli("aggregate", "--scores", str(scores), "--out", str(averages)) == 0
    assert len(list(averages.iterdir())) == 5
    with open(averages / "averages_method_by_family.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["application"] for r in rows] == [
        app for app in ("todo_list", "hobbies_values", "story") for _ in range(3)
    ]
    assert [r["axis_value"] for r in rows[:3]] == ["original", "simple", "complex"]
    assert all(r["family"] == "indo_aryan" for r in rows)

    reports = tmp_path / "reports"
    assert run_cli(
        "report", "--scores", str(scores), "--overall", str(overall),
        "--out", str(reports),
    ) == 0
    assert len(list(reports.iterdir())) == 27  # 3 methods x 3 applications x 3
    text = (reports / "report_hindi_story_original.html").read_text()
    assert "<table>" in text
    assert "bin-" in text


def test_score_missing_corpus_dir(tmp_path):
    code = run_cli(
        "score", "--corpus", str(tmp_path / "missing"),
        "--out", str(tmp_path / "s.jsonl"), "--overall-out", str(tmp_path / "o.jsonl"),
    )
    assert code == 3


def test_report_requires_some_input(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "reports"
    assert run_cli("report", "--overall", str(empty), "--out", str(out)) == 1
    assert run_cli(
        "report", "--scores", str(empty), "--overall", str(empty), "--out", str(out)
    ) == 1
    assert not out.exists()


def test_pipeline_cli(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "out_dir": str(tmp_path / "run"),
                "languages": ["hindi"],
                "methods": ["original"],
                "seed": 3,
            }
        )
    )
    assert run_cli("pipeline", "--config", str(config)) == 0
    out = tmp_path / "run"
    assert (out / "records.jsonl").exists()
    assert (out / "scores.jsonl").exists()
    assert (out / "pipeline_summary.json").exists()
    assert (out / "reports" / "report_hindi_story_original.html").exists()


def test_pipeline_rejects_bad_threshold(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "out_dir": str(tmp_path / "run"),
                "expansion": {"threshold": 1.5},
            }
        )
    )
    assert run_cli("pipeline", "--config", str(config)) == 1


def test_pipeline_rejects_the_expansion_block(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "out_dir": str(tmp_path / "run"),
                "expansion": {
                    "threshold": 0.5, "synonyms": "s.csv", "similarity": "x.csv"
                },
            }
        )
    )
    assert run_cli("pipeline", "--config", str(config)) == 1
    assert "lexicon expand" in json.loads(capsys.readouterr().err)["message"]
    assert not (tmp_path / "run").exists()


def test_pipeline_rejects_unknown_key(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out_dir": str(tmp_path / "r"), "typo_key": 1}))
    assert run_cli("pipeline", "--config", str(config)) == 1


_LOCAL_HTTP = {"kind": "http", "url": "http://127.0.0.1:9"}


@pytest.mark.parametrize(
    "extra, named",
    [
        ({"backend": {"kind": "http"}}, None),
        ({"backend": {"kind": "foo"}}, None),
        ({"backend": {**_LOCAL_HTTP, "timeout": "abc"}}, None),
        ({"backend": {**_LOCAL_HTTP, "timeout": -1}}, None),
        ({"backend": {**_LOCAL_HTTP, "max_retries": -1}}, None),
        ({"backend": {**_LOCAL_HTTP, "backoff": -0.5}}, None),
        ({"backend": {"kind": "stub", "seed": 3}}, None),
        ({"generation": {"temperature": "hot"}}, None),
        ({"generation": [1]}, None),
        ({"translation": "beams"}, None),
        ({"concurrency": True}, None),
        ({"seed": [1]}, None),
        ({"lexicon": 5}, None),
        ({"seed": 1.7}, "seed"),
        ({"seed": True}, "seed"),
        ({"generation": {"top_k": 2.5}}, "top_k"),
        ({"translation": {"num_beams": 2.0}}, "num_beams"),
        ({"languages": "hindi"}, "languages"),
        ({"methods": "original"}, "methods"),
        ({"languages": []}, "languages"),
        ({"methods": []}, "methods"),
        ({"languages": ["hindi", "hindi"]}, "languages"),
        ({"methods": ["original", "simple", "original"]}, "methods"),
        ({"generation": {"temperature": True}}, "generation: temperature"),
        ({"generation": {"temperature": float("nan")}}, "generation: temperature"),
        ({"generation": {"temperature": "0.7"}}, "generation: temperature"),
        ({"generation": {"top_p": True}}, "generation: top_p"),
        (
            {"generation": {"repetition_penalty": float("inf")}},
            "generation: repetition_penalty",
        ),
        ({"generation": {"temperatur": 0.7}}, "unknown generation keys: temperatur"),
        ({"translation": {"beams": 3}}, "unknown translation keys: beams"),
        ({"backend": {**_LOCAL_HTTP, "retries": 1}}, "unknown backend keys: retries"),
        (
            {"backend": {**_LOCAL_HTTP, "url": "http://127.0.0.1:9/gen erate"}},
            "url's path or query holds whitespace",
        ),
    ],
    ids=[
        "http-without-url",
        "unknown-kind",
        "timeout-not-a-number",
        "negative-timeout",
        "negative-max-retries",
        "negative-backoff",
        "backend-seed",
        "temperature-not-a-number",
        "generation-not-an-object",
        "translation-not-an-object",
        "bool-concurrency",
        "seed-not-a-number",
        "lexicon-not-a-path",
        "float-seed",
        "bool-seed",
        "float-top-k",
        "float-num-beams",
        "languages-a-string",
        "methods-a-string",
        "no-languages",
        "no-methods",
        "repeated-language",
        "repeated-method",
        "bool-temperature",
        "nan-temperature",
        "string-temperature",
        "bool-top-p",
        "infinite-repetition-penalty",
        "unknown-generation-key",
        "unknown-translation-key",
        "unknown-backend-key",
        "url-with-a-space",
    ],
)
def test_pipeline_refuses_a_malformed_config_before_running(
    tmp_path, capsys, extra, named
):
    out = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out_dir": str(out), **extra}))
    assert run_cli("pipeline", "--config", str(config)) == 1
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "ConfigError"
    if named is not None:
        assert named in error["message"]
    assert not out.exists()


UNRECORDED_AUTO_SYNONYM = (
    "lemma,religions,genders,marital_statuses,children,provenance,source_note\n"
    "aggressive,muslim,,,,auto_synonym,\n"
)


@pytest.mark.parametrize(
    "key, content, code",
    [
        ("lexicon", None, 3),
        ("lexicon", "lemma,oops\nviolent,x\n", 1),
        ("lexicon", UNRECORDED_AUTO_SYNONYM, 1),
        ("stopwords", None, 3),
        ("stopwords", b"the\n\xff\n", 1),
    ],
    ids=[
        "missing-lexicon",
        "malformed-lexicon",
        "unrecorded-auto-synonym",
        "missing-stopwords",
        "undecodable-stopwords",
    ],
)
def test_pipeline_reads_its_lexicon_and_stopwords_before_generating(
    tmp_path, key, content, code
):
    inputs = tmp_path / key
    if isinstance(content, str):
        inputs.write_text(content)
    elif content is not None:
        inputs.write_bytes(content)
    out = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out_dir": str(out), key: str(inputs)}))
    assert run_cli("pipeline", "--config", str(config)) == code
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate run", "pipeline"])
def test_seed_flag_reaches_the_stub(tmp_path, command):
    def records(config_seed, *flags):
        out = tmp_path / f"run-{config_seed}-{len(flags)}"
        config = tmp_path / "config.json"
        settings = {"out_dir": str(out), "methods": ["original"], "seed": config_seed}
        config.write_text(json.dumps(settings))
        assert run_cli(*command.split(), "--config", str(config), *flags) == 0
        return (out / "records.jsonl").read_bytes()

    assert records(3, "--seed", "8") == records(8) != records(3)


@pytest.mark.parametrize(
    "argv",
    [
        ["--seed", "3", "lexicon", "validate", str(seed_lexicon_path())],
        ["lexicon", "validate", str(seed_lexicon_path()), "--seed", "3"],
        ["--seed", "3", "pipeline", "--config", "run.json"],
    ],
)
def test_only_generation_commands_take_a_seed(argv):
    assert run_cli(*argv) == 1


def test_pipeline_without_config():
    assert run_cli("pipeline") == 1


def test_pipeline_stops_at_failing_stage(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "out_dir": str(tmp_path / "run"),
                "languages": ["hindi"],
                "methods": ["original"],
                "backend": {
                    "kind": "http",
                    "url": "http://127.0.0.1:9",
                    "max_retries": 0,
                    "backoff": 0.0,
                },
            }
        )
    )
    assert run_cli("pipeline", "--config", str(config)) == 2
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "generate" in diagnostic["message"]
    # later stages never ran
    assert not (tmp_path / "run" / "scores.jsonl").exists()


def test_bad_usage_maps_to_validation_exit():
    assert run_cli("score") == 1  # missing required options


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_run_config_example_is_the_default_config(tmp_path):
    """The README's run-config example shows RunConfig's keys and defaults."""
    readme = README.read_text(encoding="utf-8")
    (example,) = re.findall(r"^```json\n(.*?)^```", readme, re.M | re.S)
    data = json.loads(example)
    config = parse_config(data, base_dir=tmp_path)
    assert config == RunConfig(out_dir=tmp_path / data["out_dir"])


def _readme_commands() -> list[str]:
    """The ``biaslex ...`` lines of README's fenced blocks, with ``\\``
    continuations joined and ``[...]`` optional groups and ``# ...`` comments
    dropped."""
    blocks = re.findall(
        r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S
    )
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [
        re.sub(r"\[[^\]]*\]", "", line.split("#")[0]).strip() for line in lines
    ]
    return [command for command in commands if command.startswith("biaslex ")]


def test_readme_command_lines_parse():
    commands = _readme_commands()
    assert len(commands) >= 10  # the extraction found the command block
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
