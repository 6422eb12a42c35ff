"""Every artifact writer replaces its file whole or leaves it alone."""
from __future__ import annotations

import ast
import os
import re
import sys
import threading
from pathlib import Path

import pytest

import biaslex
from biaslex.aggregate import write_averages_csv
from biaslex.artifacts import (
    RowError,
    atomic_open,
    read_jsonl,
    write_json,
    write_jsonl,
)
from biaslex.corpus import write_corpus_dir
from biaslex.identities import Language, LanguageFamily, PromptMethod
from biaslex.lexicon import load_seed_lexicon, save_lexicon
from biaslex.scoring import score_corpus, write_overall_terms, write_scores

from conftest import make_corpus, make_documents


class _Boom(Exception):
    pass


def _halfway(rows):
    """The first half of ``rows``, then an exception."""
    yield from rows[: len(rows) // 2]
    raise _Boom


def _write_lines(path, rows):
    with atomic_open(path) as handle:
        for row in rows:
            handle.write(row)


_CORPUS = make_corpus([["violent", "pious", "home"]] * 6)
_PAIR = (Language.HINDI, PromptMethod.ORIGINAL)

# name -> (file name, write(path, rows), rows); a failing call gets
# _halfway(rows) and must raise the case's exception
WRITERS = {
    "atomic_open": ("a.txt", _write_lines, [f"line {n}\n" for n in range(6)]),
    "write_jsonl": ("a.jsonl", write_jsonl, [{"n": n} for n in range(6)]),
    # json cannot encode a generator, so the failing call stops partway
    # through the document rather than in the iterator
    "write_json": (
        "a.json", lambda path, rows: write_json(path, {"rows": rows}), [1, 2, 3]
    ),
    "write_corpus_dir": (
        "corpus_hindi_original.jsonl",
        lambda path, rows: write_corpus_dir({_PAIR: rows}, path.parent),
        make_documents([["violent", "home"]] * 6),
    ),
    "write_scores": (
        "scores.jsonl",
        lambda path, rows: write_scores(rows, path),
        score_corpus(_CORPUS, load_seed_lexicon()),
    ),
    "write_overall_terms": (
        "overall.jsonl",
        lambda path, rows: write_overall_terms(rows, path),
        [(doc.key, ("home", 0.5)) for doc in _CORPUS],
    ),
    "write_averages_csv": (
        "averages.csv",
        lambda path, rows: write_averages_csv(rows, path),
        [
            (method, LanguageFamily.INDO_ARYAN, method, None, 0.25 * n, n)
            for n, method in enumerate(PromptMethod, 1)
        ],
    ),
    "save_lexicon": (
        "lexicon.csv",
        lambda path, rows: save_lexicon(rows, path),
        list(load_seed_lexicon())[:6],
    ),
}


@pytest.mark.parametrize("name", WRITERS)
def test_writer_replaces_the_file_whole_or_not_at_all(tmp_path, name):
    filename, write, rows = WRITERS[name]
    path = tmp_path / filename
    previous = b"previous artifact\n"
    path.write_bytes(previous)
    umask = os.umask(0o027)
    try:
        with pytest.raises(TypeError if name == "write_json" else _Boom):
            write(path, _halfway(rows))
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == [filename]

        path.unlink()
        write(path, rows)
        plain = tmp_path / "plain"
        open(plain, "w").close()
    finally:
        os.umask(umask)
    assert path.read_bytes() != previous
    assert path.stat().st_mode == plain.stat().st_mode
    assert path.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([filename, "plain"])


def test_concurrent_writers_leave_one_whole_file(tmp_path):
    path = tmp_path / "out.jsonl"
    errors = []

    def write(w):
        # rows of a different length per writer, so interleaved bytes show
        try:
            write_jsonl(path, ({"writer": "w" * w, "line": n} for n in range(2000)))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(w,)) for w in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    rows = read_jsonl(path, dict)
    assert [row["line"] for row in rows] == list(range(2000))
    assert len({row["writer"] for row in rows}) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


def test_jsonl_round_trip_skips_blank_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    rows = [{"text": "नमस्ते "}, {"n": 1}]
    assert write_jsonl(path, iter(rows)) == 2
    assert path.read_text(encoding="utf-8").count("\n") == 2
    path.write_text(path.read_text(encoding="utf-8") + "\n  \n", encoding="utf-8")
    assert read_jsonl(path, dict) == rows


def test_read_jsonl_names_the_physical_line_it_refuses(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"n": 1}\n\n{"n": \n')
    with pytest.raises(RowError, match=f"^{re.escape(str(path))}: line 3 is not a row: "):
        read_jsonl(path, dict)


def test_write_json_format(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"b": "é", "a": [1]})
    expected = '{\n  "a": [\n    1\n  ],\n  "b": "é"\n}\n'
    assert path.read_text(encoding="utf-8") == expected


def _may_write(mode: ast.expr | None) -> bool:
    """Whether an ``open`` mode argument may open for writing."""
    if mode is None:
        return False  # the default mode reads
    if not isinstance(mode, ast.Constant):
        return True
    return bool(set(str(mode.value)) & set("wax+"))


def _write_opens(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, call) of every call in ``tree`` that may open a file to write."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            found.append((node.lineno, name))
        elif name == "open":
            # the mode is open(file, mode)'s second argument, Path.open(mode)'s first
            index = 1 if isinstance(func, ast.Name) else 0
            mode = next((k.value for k in node.keywords if k.arg == "mode"), None)
            if mode is None and len(node.args) > index:
                mode = node.args[index]
            if _may_write(mode):
                found.append((node.lineno, "open"))
    return found


def test_guard_sees_every_way_of_writing():
    source = (
        "open(p, 'w')\nopen(p, mode='a')\nopen(p, m)\np.open('x')\n"
        "p.write_text(t)\np.write_bytes(b)\nopen(p)\nopen(p, 'rb')\np.open()\n"
    )
    assert [line for line, _ in _write_opens(ast.parse(source))] == [1, 2, 3, 4, 5, 6]


def test_only_the_artifacts_module_and_record_sink_write_files():
    package = Path(biaslex.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "artifacts.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.name == "generation.py":
            # records.jsonl stays append-only, with its crash-tail repair
            tree.body = [
                node for node in tree.body
                if not (isinstance(node, ast.ClassDef) and node.name == "RecordSink")
            ]
        offenders += [f"{path.name}:{line} {call}" for line, call in _write_opens(tree)]
    assert offenders == []
