"""How an artifact reaches disk and is read back, in JSONL or JSON.

Every artifact is written to a temp file beside it and renamed into place,
so a killed run leaves the old file or the new one, never part of one (no
fsync: a power cut is not covered). Only ``records.jsonl`` is appended to.
Every JSONL line is read through :func:`parse_row`, which refuses a line
that is not a row with a :class:`RowError` naming the file and the line.
"""
from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, TextIO


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


class RowError(ValueError):
    """A line of a JSONL artifact that is not a row of it."""


def parse_row(line: bytes, parse: Callable, path: str | Path, number: int) -> Any:
    """``parse`` of the JSON value on ``line``, line ``number`` of ``path``."""
    try:
        return parse(json.loads(line))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        reason = exc
        if isinstance(exc, json.JSONDecodeError):  # its "line" is within this one
            reason = f"{exc.msg}: column {exc.colno}"
        raise RowError(f"{path}: line {number} is not a row: {reason}") from exc


def read_jsonl(path: str | Path, parse: Callable) -> list:
    """``parse`` of each non-blank line of a JSONL file, in file order."""
    with open(path, "rb") as handle:
        lines = enumerate(handle, 1)
        return [parse_row(line, parse, path, n) for n, line in lines if line.strip()]
