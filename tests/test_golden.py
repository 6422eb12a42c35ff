"""Golden digests: the bytes of two stub trees, pinned.

Every other test that compares trees compares two outputs of one checkout,
so a change that alters an artifact the same way on every path passes
them. These tests compare against ``golden_digests.json`` instead: the
sha256 of every file of each tree, and a 4-hex-digit digest of each line
of each file, so a mismatch names the first line that differs.

The stub's text follows CPython's ``random`` and the scores follow the
platform's ``math.log``, so the digests are facts of the platform recorded
in the file; on another one the tests fail and name both. To regenerate
the file after a change that means to alter artifacts (and say which and
why in CHANGES.md), run from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""
from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

import pytest

from biaslex.identities import Language
from biaslex.pipeline import RunConfig, pipeline_run
from biaslex.scoring import Scope

GOLDEN = Path(__file__).with_name("golden_digests.json")

# two languages of different families, every lexicon lemma scored, no
# language check, generation on two threads
TWO_LANGUAGES = dict(
    languages=[Language.HINDI, Language.TAMIL],
    scope=Scope.ALL_TERMS,
    detector="none",
    concurrency=2,
    seed=7,
)
# the resumed tree starts from this many whole records and half of the next:
# every hindi cell and part of tamil's originals
RESUME_FROM = 1000


def _platform() -> dict[str, str]:
    return {
        "implementation": sys.implementation.name,
        "python": ".".join(platform.python_version_tuple()[:2]),
        "machine": platform.machine(),
    }


def build_trees(root: Path) -> dict[str, Path]:
    """The default ``RunConfig`` stub tree, and the two-language tree built
    fresh and resumed from a ``records.jsonl`` cut mid-line."""
    trees = {name: root / name for name in ("default", "fresh", "resumed")}
    pipeline_run(RunConfig(out_dir=trees["default"]))
    pipeline_run(RunConfig(out_dir=trees["fresh"], **TWO_LANGUAGES))
    lines = (trees["fresh"] / "records.jsonl").read_bytes().splitlines(keepends=True)
    cut = b"".join(lines[:RESUME_FROM]) + lines[RESUME_FROM][:100]
    trees["resumed"].mkdir()
    (trees["resumed"] / "records.jsonl").write_bytes(cut)
    pipeline_run(RunConfig(out_dir=trees["resumed"], **TWO_LANGUAGES))
    return trees


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _line_digests(data: bytes) -> str:
    return "".join(_sha256(line)[:4] for line in data.splitlines(keepends=True))


def tree_files(root: Path) -> dict[str, bytes]:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def differences(
    expected: dict[str, str], lines: dict[str, str], root: Path
) -> list[str]:
    """One line per file of the tree at ``root`` whose bytes are not
    ``expected``'s, naming the first line that differs where it can."""
    found = tree_files(root)
    problems = [f"{name}: missing" for name in sorted(expected.keys() - found.keys())]
    problems += [f"{name}: not expected" for name in sorted(found.keys() - expected)]
    for name in sorted(expected.keys() & found.keys()):
        data = found[name]
        if _sha256(data) == expected[name]:
            continue
        want = lines[expected[name]]
        got = data.splitlines(keepends=True)
        for number, line in enumerate(got, 1):
            if _sha256(line)[:4] != want[4 * number - 4 : 4 * number]:
                problems.append(f"{name}: line {number} differs, now {line!r}")
                break
        else:
            problems.append(f"{name}: {len(got)} lines, expected {len(want) // 4}")
    return problems


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    return build_trees(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", ["default", "fresh", "resumed"])
def test_the_tree_has_the_golden_bytes(trees, name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["platform"] == _platform(), (
        f"the golden digests were made on {golden['platform']}, "
        f"this is {_platform()}; regenerate them here to compare"
    )
    problems = differences(golden["trees"][name], golden["lines"], trees[name])
    assert not problems, f"{name} tree differs:\n" + "\n".join(problems)


def test_a_mismatch_names_each_file_and_its_first_differing_line(tmp_path):
    texts = {"a.txt": b"one\ntwo\nthree\n", "b.txt": b"x\n", "c.txt": b"y\n"}
    expected = {name: _sha256(data) for name, data in texts.items()}
    lines = {_sha256(data): _line_digests(data) for data in texts.values()}
    (tmp_path / "a.txt").write_bytes(b"one\n2\nthree\n")
    (tmp_path / "b.txt").write_bytes(b"x\n")
    (tmp_path / "d.txt").write_bytes(b"z\n")
    assert differences(expected, lines, tmp_path) == [
        "c.txt: missing",
        "d.txt: not expected",
        "a.txt: line 2 differs, now b'2\\n'",
    ]
    (tmp_path / "a.txt").write_bytes(b"one\ntwo\n")
    assert "a.txt: 2 lines, expected 3" in differences(expected, lines, tmp_path)


def write_golden(root: Path) -> None:
    trees = build_trees(root)
    golden: dict = {"platform": _platform(), "trees": {}, "lines": {}}
    for name, tree in trees.items():
        files = tree_files(tree)
        golden["trees"][name] = {path: _sha256(data) for path, data in files.items()}
        for data in files.values():
            golden["lines"][_sha256(data)] = _line_digests(data)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        write_golden(Path(scratch))
