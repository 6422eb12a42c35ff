import csv
import json

import pytest

from biaslex.cli import main
from biaslex.lexicon import seed_lexicon_path


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def stub_run(tmp_path_factory):
    """One stub generation run shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(
        json.dumps(
            {
                "out_dir": str(root / "unused"),
                "languages": ["hindi"],
                "methods": ["original", "simple", "complex"],
                "backend": {"kind": "stub", "seed": 11},
            }
        )
    )
    out = root / "gen"
    assert run_cli("generate", "run", "--config", str(config), "--out", str(out)) == 0
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


def test_prompts_emit_debias_needs_source(tmp_path):
    code = run_cli(
        "prompts", "emit", "--language", "hindi", "--methods", "original,simple",
        "--out", str(tmp_path / "x.jsonl"),
    )
    assert code == 1


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
    config.write_text(
        json.dumps(
            {
                "out_dir": str(tmp_path / "o"),
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
    out = tmp_path / "gen"
    code = run_cli("generate", "run", "--config", str(config), "--out", str(out))
    assert code == 2
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["counts"]["hindi/original"]["failed"] == 288


def test_generate_run_refuses_a_corrupt_record_file(stub_run, tmp_path, capsys):
    _, config, out = stub_run
    lines = (out / "records.jsonl").read_bytes().splitlines(keepends=True)
    lines[2] = b"{not a record\n"
    target = tmp_path / "gen"
    target.mkdir()
    (target / "records.jsonl").write_bytes(b"".join(lines))
    code = run_cli("generate", "run", "--config", str(config), "--out", str(target))
    assert code == 1
    diagnostic = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "line 3 " in diagnostic["message"]


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

    averages = tmp_path / "averages.csv"
    assert run_cli(
        "aggregate", "--scores", str(scores), "--axis", "method_by_family",
        "--application", "todo_list", "--out", str(averages),
    ) == 0
    with open(averages, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["axis_value"] for r in rows] == ["original", "simple", "complex"]
    assert all(r["family"] == "indo_aryan" for r in rows)

    report = tmp_path / "report.html"
    assert run_cli(
        "report", "--scores", str(scores), "--overall", str(overall),
        "--language", "hindi", "--application", "story", "--method", "original",
        "--format", "html", "--out", str(report),
    ) == 0
    text = report.read_text()
    assert "<table>" in text
    assert "bin-" in text


def test_score_missing_corpus_dir(tmp_path):
    code = run_cli(
        "score", "--corpus", str(tmp_path / "missing"), "--out", str(tmp_path / "s.jsonl")
    )
    assert code == 3


def test_report_requires_some_input(tmp_path):
    code = run_cli(
        "report", "--language", "hindi", "--application", "story",
        "--method", "original", "--format", "csv", "--out", str(tmp_path / "r.csv"),
    )
    assert code == 1


def test_pipeline_cli(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "out_dir": str(tmp_path / "run"),
                "languages": ["hindi"],
                "methods": ["original"],
                "backend": {"kind": "stub", "seed": 3},
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


def test_pipeline_rejects_unknown_key(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out_dir": str(tmp_path / "r"), "typo_key": 1}))
    assert run_cli("pipeline", "--config", str(config)) == 1


def test_global_config_flag(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "out_dir": str(tmp_path / "run"),
                "languages": ["hindi"],
                "methods": ["original"],
                "backend": {"kind": "stub", "seed": 3},
            }
        )
    )
    assert run_cli("--config", str(config), "pipeline") == 0
    assert (tmp_path / "run" / "scores.jsonl").exists()


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
