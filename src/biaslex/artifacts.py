"""How an artifact reaches disk, and its JSONL and JSON formats.

Every artifact is written to a temp file beside it and renamed into place,
so a killed run leaves the old file or the new one, never part of one (no
fsync: a power cut is not covered). Only ``records.jsonl`` is appended to.
"""
from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO


# json.dumps(row, ensure_ascii=False) builds this same encoder for every call
_encode = json.JSONEncoder(ensure_ascii=False).encode


def jsonl_line(row: Any) -> str:
    return _encode(row) + "\n"


@contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text handle whose contents replace ``path`` on a clean exit.

    A plain ``open`` makes the temp file, so its mode follows the umask;
    any exception, ``KeyboardInterrupt`` included, unlinks it.
    """
    target = Path(path)
    temp = target.with_name(
        f".{target.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    try:
        with open(temp, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, rows: Iterable[Any]) -> int:
    """Write one JSON line per row, streamed; returns the row count."""
    count = 0
    with atomic_open(path) as handle:
        for row in rows:
            handle.write(jsonl_line(row))
            count += 1
    return count


def write_json(path: str | Path, data: Any) -> None:
    text = json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False)
    with atomic_open(path) as handle:
        handle.write(text + "\n")


def read_jsonl(path: str | Path) -> Iterator[Any]:
    """The parsed non-blank lines of a JSONL file."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                yield json.loads(line)
