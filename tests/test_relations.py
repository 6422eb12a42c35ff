"""Metamorphic relations of a stub run: changes to a run's inputs that must
leave its tree, or a stated part of it, as it is.

Each relation compares two runs of one language (hindi, every method) that
share one set of records, so it holds whatever those records' bytes are;
the golden digests pin the bytes themselves.
"""
from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from biaslex.corpus import DocumentKey
from biaslex.lexicon import seed_lexicon_path
from biaslex.pipeline import RunConfig, pipeline_run
from biaslex.scoring import Scope, ScoreCell

SEED = 3
# a lemma the stub never writes, on every identity under either scope
ABSENT_LEMMA = "quixotic"


def tree(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def fresh(tmp_path_factory) -> Path:
    """The default stub tree, generated at concurrency 1."""
    out = tmp_path_factory.mktemp("fresh")
    pipeline_run(RunConfig(out_dir=out, seed=SEED))
    return out


@pytest.fixture
def resume(fresh, tmp_path):
    """``pipeline_run`` into a new ``out_dir`` that holds ``fresh``'s records."""

    def run(name: str, **settings) -> dict[str, bytes]:
        out = tmp_path / name
        out.mkdir()
        shutil.copyfile(fresh / "records.jsonl", out / "records.jsonl")
        pipeline_run(RunConfig(out_dir=out, seed=SEED, **settings))
        return tree(out)

    return run


@pytest.mark.parametrize("concurrency", [2, 8])
def test_concurrency_does_not_change_the_tree(fresh, tmp_path, concurrency):
    pipeline_run(RunConfig(out_dir=tmp_path, seed=SEED, concurrency=concurrency))
    assert tree(tmp_path) == tree(fresh)


@pytest.mark.parametrize("scope", list(Scope))
def test_a_lexicon_entry_no_document_holds_changes_no_byte(
    fresh, resume, tmp_path, scope
):
    tokens = {
        token
        for path in (fresh / "corpus").glob("corpus_*.jsonl")
        for line in path.read_text(encoding="utf-8").splitlines()
        for token in json.loads(line)["tokens"]
    }
    assert ABSENT_LEMMA not in tokens
    lexicon = tmp_path / "lexicon.csv"
    seed = seed_lexicon_path().read_text(encoding="utf-8").rstrip("\n")
    lexicon.write_text(
        f"{seed}\n{ABSENT_LEMMA},hindu|muslim,,,,literature,\n", encoding="utf-8"
    )
    assert resume("extra", scope=scope, lexicon_path=lexicon) == resume(
        "seed", scope=scope
    )


def test_scope_all_keeps_every_identity_scoped_weight(resume):
    def per_term(files: dict[str, bytes]) -> dict[DocumentKey, dict[str, float]]:
        rows = map(json.loads, files["scores.jsonl"].splitlines())
        return {cell.key: cell.per_term for cell in map(ScoreCell.from_json_dict, rows)}

    scoped = per_term(resume("identity", scope=Scope.IDENTITY_SCOPED))
    everything = per_term(resume("all", scope=Scope.ALL_TERMS))
    assert scoped.keys() == everything.keys()
    assert len(scoped) == 3 * 144
    for key, terms in scoped.items():
        assert terms.items() <= everything[key].items(), key.to_json_dict()
    # neither side is trivial: scoping keeps some terms and drops others
    assert sum(map(len, scoped.values())) > 0
    assert any(len(everything[key]) > len(terms) for key, terms in scoped.items())
