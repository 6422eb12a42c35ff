"""Identity-scoped bias lexicon: file format, matching, expansion.

A lexicon entry pairs a single-token lowercase lemma with an identity
selector. A selector constrains any subset of the four identity dimensions;
an unconstrained dimension is a wildcard, but at least one dimension must be
constrained. An auto synonym records its seed lemma, and a source note is one
line without padding. :class:`BiasTerm` refuses any other value when it is
built, so a CSV row, a term built in Python and an expansion candidate all
meet the one rule. The file format is UTF-8 CSV with header::

    lemma,religions,genders,marital_statuses,children,provenance,source_note

Multi-value selector fields are ``|``-separated; an empty field is a
wildcard. The loader lowercases and NFC-normalizes each lemma first.
"""
from __future__ import annotations

import csv
import enum
import io
import math
import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO

from .artifacts import atomic_open
from .identities import Children, Gender, Identity, MaritalStatus, Religion

SynonymProvider = Callable[[str], Iterable[str]]
SimilarityOracle = Callable[[str, str], float]

DEFAULT_SIMILARITY_THRESHOLD = 0.5

# each selector dimension: its CSV column (the IdentitySelector field) and enum
_DIMENSIONS = (
    ("religions", Religion),
    ("genders", Gender),
    ("marital_statuses", MaritalStatus),
    ("children", Children),
)
LEXICON_HEADER = [
    "lemma", *(column for column, _ in _DIMENSIONS), "provenance", "source_note"
]


class LexiconError(Exception):
    """Base class for lexicon failures."""


class ParseError(LexiconError):
    """A lexicon row or term is malformed."""


class DuplicateEntryError(LexiconError):
    """Two entries share the same (lemma, selector)."""


class EmptySelectorError(LexiconError):
    """A selector constrains no identity dimension, or one to no value."""


class ProviderFailureError(LexiconError):
    """A synonym provider or similarity oracle failed for a seed term."""

    def __init__(self, seed: str, message: str):
        super().__init__(f"provider failure for seed {seed!r}: {message}")
        self.seed = seed


class Provenance(enum.Enum):
    LITERATURE = "literature"
    MANUAL_SYNONYM = "manual_synonym"
    AUTO_SYNONYM = "auto_synonym"


@dataclass(frozen=True)
class IdentitySelector:
    """Constraints over identity dimensions; ``None`` means wildcard."""

    religions: frozenset[Religion] | None = None
    genders: frozenset[Gender] | None = None
    marital_statuses: frozenset[MaritalStatus] | None = None
    children: frozenset[Children] | None = None

    def is_valid(self) -> bool:
        fields = (self.religions, self.genders, self.marital_statuses, self.children)
        constrained = [f for f in fields if f is not None]
        return bool(constrained) and all(len(f) > 0 for f in constrained)

    def matches(self, identity: Identity) -> bool:
        """True iff every constrained dimension contains the identity's value."""
        if self.religions is not None and identity.religion not in self.religions:
            return False
        if self.genders is not None and identity.gender not in self.genders:
            return False
        if (
            self.marital_statuses is not None
            and identity.marital_status not in self.marital_statuses
        ):
            return False
        if self.children is not None and identity.children not in self.children:
            return False
        return True


@dataclass(frozen=True)
class BiasTerm:
    """One lexicon entry; building one that breaks the entry rule raises."""

    lemma: str
    selector: IdentitySelector
    provenance: Provenance
    source_note: str = ""

    def __post_init__(self) -> None:
        lemma = self.lemma
        if lemma.split() != [lemma] or _normalize_lemma(lemma) != lemma:
            raise ParseError(f"lemma {lemma!r} is not one lowercase NFC token")
        if not self.selector.is_valid():
            raise EmptySelectorError(
                f"selector for {lemma!r} constrains no dimension, or one to no value"
            )
        if self.provenance is Provenance.AUTO_SYNONYM and not self.source_note:
            raise ParseError(f"auto synonym {lemma!r} does not record its seed")
        note = self.source_note
        if note != note.strip() or len(note.splitlines()) > 1:  # else CSV alters it
            raise ParseError(f"source note of {lemma!r} is not one unpadded line")

    @property
    def key(self) -> tuple[str, IdentitySelector]:
        return (self.lemma, self.selector)


class BiasLexicon:
    """Immutable collection of bias terms, unique per (lemma, selector)."""

    def __init__(self, entries: Iterable[BiasTerm]):
        self._entries = tuple(entries)
        seen: set[tuple[str, IdentitySelector]] = set()
        for entry in self._entries:
            if entry.key in seen:
                raise DuplicateEntryError(f"duplicate entry for lemma {entry.lemma!r}")
            seen.add(entry.key)
        self._lemmas = frozenset(e.lemma for e in self._entries)
        # entries never change, so each identity's scope is scanned once
        self._scopes: dict[Identity, frozenset[str]] = {}

    @property
    def entries(self) -> tuple[BiasTerm, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def lemmas(self) -> frozenset[str]:
        return self._lemmas

    def applicable_terms(self, identity: Identity) -> frozenset[str]:
        """Lemmas of all entries whose selector matches ``identity``."""
        scope = self._scopes.get(identity)
        if scope is None:
            scope = self._scopes[identity] = frozenset(
                e.lemma for e in self._entries if e.selector.matches(identity)
            )
        return scope


def _normalize_lemma(raw: str) -> str:
    return unicodedata.normalize("NFC", raw).strip().lower()


def _parse_selector_field(raw: str, parse, column: str):
    raw = raw.strip()
    if not raw:
        return None
    values = []
    for token in raw.split("|"):
        token = token.strip()
        if not token:
            raise ParseError(f"empty value in {column!r}")
        try:
            values.append(parse(token))
        except ValueError:
            raise ParseError(f"unknown {column} value {token!r}") from None
    return frozenset(values)


def _parse_row(row: list[str]) -> BiasTerm:
    if len(row) != len(LEXICON_HEADER):
        raise ParseError(f"expected {len(LEXICON_HEADER)} fields")
    lemma, *selector_fields, provenance, note = row
    selector = IdentitySelector(
        **{
            column: _parse_selector_field(raw, parse, column)
            for (column, parse), raw in zip(_DIMENSIONS, selector_fields)
        }
    )
    try:
        prov = Provenance(provenance.strip())
    except ValueError:
        raise ParseError(f"unknown provenance {provenance!r}") from None
    return BiasTerm(_normalize_lemma(lemma), selector, prov, note.strip())


def load_lexicon(source: str | Path | TextIO | io.IOBase) -> BiasLexicon:
    """Load a lexicon from a path or readable stream.

    A row that is not a valid :class:`BiasTerm` raises the error the term
    raises, naming the row's line.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8", newline="") as handle:
            return load_lexicon(handle)
    text = source.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8")

    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows or all(not any(cell.strip() for cell in row) for row in rows):
        return BiasLexicon([])
    if rows[0] != LEXICON_HEADER:
        raise ParseError(
            f"unexpected header {rows[0]!r}; expected {LEXICON_HEADER!r}"
        )

    entries: list[BiasTerm] = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not any(cell.strip() for cell in row):
            continue
        try:
            entries.append(_parse_row(row))
        except LexiconError as exc:
            raise type(exc)(f"line {line_no}: {exc}") from None
    return BiasLexicon(entries)


def _selector_field_to_csv(values: frozenset | None, order: type[enum.Enum]) -> str:
    if values is None:
        return ""
    return "|".join(member.value for member in order if member in values)


def save_lexicon(lexicon: BiasLexicon, path: str | Path) -> None:
    with atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(LEXICON_HEADER)
        for entry in lexicon:
            writer.writerow(
                [
                    entry.lemma,
                    *(
                        _selector_field_to_csv(getattr(entry.selector, column), order)
                        for column, order in _DIMENSIONS
                    ),
                    entry.provenance.value,
                    entry.source_note,
                ]
            )


def expand_lexicon(
    lexicon: BiasLexicon,
    synonyms: SynonymProvider,
    similarity: SimilarityOracle,
    threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
) -> BiasLexicon:
    """Add synonym candidates that clear the similarity threshold.

    Every input entry is kept. For each entry, each candidate from
    ``synonyms(lemma)`` whose ``similarity(lemma, candidate)`` is at least
    ``threshold`` becomes a new auto-synonym entry under the same selector,
    recording the seed lemma. Candidates that :class:`BiasTerm` refuses
    after normalizing, or that collide with an existing (lemma, selector),
    are skipped.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    entries = list(lexicon.entries)
    seen = {entry.key for entry in entries}
    for entry in lexicon:
        try:
            candidates = list(synonyms(entry.lemma))
        except Exception as exc:
            raise ProviderFailureError(entry.lemma, str(exc)) from exc
        for raw in candidates:
            try:
                term = BiasTerm(
                    _normalize_lemma(raw),
                    entry.selector,
                    Provenance.AUTO_SYNONYM,
                    source_note=entry.lemma,
                )
            except LexiconError:
                continue
            if term.key in seen:
                continue
            try:
                score = similarity(entry.lemma, term.lemma)
            except Exception as exc:
                raise ProviderFailureError(entry.lemma, str(exc)) from exc
            if score >= threshold:
                entries.append(term)
                seen.add(term.key)
    return BiasLexicon(entries)


def _table_rows(
    path: str | Path, header: list[str], what: str
) -> Iterator[tuple[str, list[str]]]:
    """Each row of a CSV table after its header that has a non-blank cell,
    with the place to name in an error about it."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        found = next(reader, None)
        if found != header:
            raise ParseError(f"unexpected {what} table header {found!r}")
        for row in reader:
            if any(cell.strip() for cell in row):
                yield f"{what} table line {reader.line_num}", row


@dataclass
class TableSynonymProvider:
    """Synonym candidates read from a CSV table (``lemma,synonyms`` header,
    candidates ``|``-separated, each lemma on one row)."""

    table: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def from_csv(cls, path: str | Path) -> "TableSynonymProvider":
        table: dict[str, tuple[str, ...]] = {}
        for where, row in _table_rows(path, ["lemma", "synonyms"], "synonym"):
            lemma = _normalize_lemma(row[0])
            if not lemma or len(row) > 2:
                raise ParseError(f"{where}: bad synonym row {row!r}")
            if lemma in table:
                raise ParseError(f"{where}: lemma {lemma!r} is given twice")
            raw = row[1] if len(row) > 1 else ""
            table[lemma] = tuple(t.strip() for t in raw.split("|") if t.strip())
        return cls(table)

    def __call__(self, lemma: str) -> tuple[str, ...]:
        return self.table.get(lemma, ())


@dataclass
class TableSimilarityOracle:
    """Pair similarities read from a CSV table (``a,b,score`` header, each
    pair on one row in either order, each score a number in [0, 1]).

    Lookups are symmetric; unknown pairs score 0.
    """

    table: dict[frozenset[str], float] = field(default_factory=dict)

    @classmethod
    def from_csv(cls, path: str | Path) -> "TableSimilarityOracle":
        table: dict[frozenset[str], float] = {}
        for where, row in _table_rows(path, ["a", "b", "score"], "similarity"):
            pair = frozenset(map(_normalize_lemma, row[:2]))
            if len(row) != 3 or "" in pair:  # an empty lemma
                raise ParseError(f"{where}: bad similarity row {row!r}")
            if pair in table:
                raise ParseError(f"{where}: pair {row[0]!r}, {row[1]!r} is given twice")
            try:
                score = float(row[2])
            except ValueError:
                score = math.nan
            if not 0.0 <= score <= 1.0:  # NaN fails too
                raise ParseError(f"{where}: score {row[2]!r} is not a number in [0, 1]")
            table[pair] = score
        return cls(table)

    def __call__(self, a: str, b: str) -> float:
        return self.table.get(frozenset((a, b)), 0.0)


def load_seed_lexicon() -> BiasLexicon:
    """The 342-entry seed lexicon shipped with the package."""
    ref = resources.files("biaslex.data").joinpath("seed_lexicon.csv")
    with ref.open("r", encoding="utf-8", newline="") as handle:
        return load_lexicon(handle)


def seed_lexicon_path() -> Path:
    """Filesystem path of the shipped seed lexicon."""
    return Path(str(resources.files("biaslex.data").joinpath("seed_lexicon.csv")))
