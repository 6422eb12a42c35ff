"""Identity-scoped bias lexicon: file format, matching, validation, expansion.

A lexicon entry pairs a single-token lowercase lemma with an identity
selector. A selector constrains any subset of the four identity dimensions;
an unconstrained dimension is a wildcard, but at least one dimension must be
constrained. The file format is UTF-8 CSV with header::

    lemma,religions,genders,marital_statuses,children,provenance,source_note

Multi-value selector fields are ``|``-separated; an empty field is a
wildcard.
"""
from __future__ import annotations

import csv
import enum
import io
import unicodedata
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, TextIO

from .identities import Children, Gender, Identity, MaritalStatus, Religion

SynonymProvider = Callable[[str], Iterable[str]]
SimilarityOracle = Callable[[str, str], float]

DEFAULT_SIMILARITY_THRESHOLD = 0.5

LEXICON_HEADER = [
    "lemma",
    "religions",
    "genders",
    "marital_statuses",
    "children",
    "provenance",
    "source_note",
]


class LexiconError(Exception):
    """Base class for lexicon failures."""


class ParseError(LexiconError):
    """A lexicon file row could not be parsed."""


class DuplicateEntryError(LexiconError):
    """Two entries share the same (lemma, selector)."""


class EmptySelectorError(LexiconError):
    """A row constrained no identity dimension at all."""


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


def matches(selector: IdentitySelector, identity: Identity) -> bool:
    return selector.matches(identity)


@dataclass(frozen=True)
class BiasTerm:
    lemma: str
    selector: IdentitySelector
    provenance: Provenance
    source_note: str = ""

    @property
    def key(self) -> tuple[str, IdentitySelector]:
        return (self.lemma, self.selector)


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by :func:`validate_lexicon`."""

    lemma: str
    message: str


class BiasLexicon:
    """Immutable collection of bias terms, unique per (lemma, selector)."""

    def __init__(self, entries: Iterable[BiasTerm]):
        self._entries = tuple(entries)
        seen: set[tuple[str, IdentitySelector]] = set()
        for entry in self._entries:
            if entry.key in seen:
                raise DuplicateEntryError(
                    f"duplicate entry for lemma {entry.lemma!r}"
                )
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


def applicable_terms(lexicon: BiasLexicon, identity: Identity) -> frozenset[str]:
    return lexicon.applicable_terms(identity)


def _normalize_lemma(raw: str) -> str:
    return unicodedata.normalize("NFC", raw).strip().lower()


def _parse_selector_field(raw: str, parse, line_no: int, column: str):
    raw = raw.strip()
    if not raw:
        return None
    values = []
    for token in raw.split("|"):
        token = token.strip()
        if not token:
            raise ParseError(f"line {line_no}: empty value in {column!r}")
        try:
            values.append(parse(token))
        except ValueError:
            raise ParseError(
                f"line {line_no}: unknown {column} value {token!r}"
            ) from None
    return frozenset(values)


def load_lexicon(source: str | Path | TextIO | io.IOBase) -> BiasLexicon:
    """Load and validate a lexicon from a path or readable stream."""
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
    seen: set[tuple[str, IdentitySelector]] = set()
    for line_no, row in enumerate(rows[1:], start=2):
        if not any(cell.strip() for cell in row):
            continue
        if len(row) != len(LEXICON_HEADER):
            raise ParseError(f"line {line_no}: expected {len(LEXICON_HEADER)} fields")
        raw_lemma, religions, genders, maritals, children, provenance, note = row
        lemma = _normalize_lemma(raw_lemma)
        if not lemma:
            raise ParseError(f"line {line_no}: empty lemma")
        if any(ch.isspace() for ch in lemma):
            raise ParseError(
                f"line {line_no}: lemma {lemma!r} is not a single token"
            )
        selector = IdentitySelector(
            religions=_parse_selector_field(religions, Religion, line_no, "religions"),
            genders=_parse_selector_field(genders, Gender, line_no, "genders"),
            marital_statuses=_parse_selector_field(
                maritals, MaritalStatus, line_no, "marital_statuses"
            ),
            children=_parse_selector_field(children, Children, line_no, "children"),
        )
        if not selector.is_valid():
            raise EmptySelectorError(
                f"line {line_no}: selector for {lemma!r} constrains nothing"
            )
        try:
            prov = Provenance(provenance.strip())
        except ValueError:
            raise ParseError(
                f"line {line_no}: unknown provenance {provenance!r}"
            ) from None
        entry = BiasTerm(lemma, selector, prov, note.strip())
        if entry.key in seen:
            raise DuplicateEntryError(
                f"line {line_no}: duplicate entry for lemma {lemma!r}"
            )
        seen.add(entry.key)
        entries.append(entry)
    return BiasLexicon(entries)


def _selector_field_to_csv(values: frozenset | None, order: type[enum.Enum]) -> str:
    if values is None:
        return ""
    return "|".join(member.value for member in order if member in values)


def save_lexicon(lexicon: BiasLexicon, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(LEXICON_HEADER)
        for entry in lexicon:
            sel = entry.selector
            writer.writerow(
                [
                    entry.lemma,
                    _selector_field_to_csv(sel.religions, Religion),
                    _selector_field_to_csv(sel.genders, Gender),
                    _selector_field_to_csv(sel.marital_statuses, MaritalStatus),
                    _selector_field_to_csv(sel.children, Children),
                    entry.provenance.value,
                    entry.source_note,
                ]
            )


def validate_lexicon(lexicon: BiasLexicon) -> list[Violation]:
    """All invariant breaches; empty list means the lexicon is valid."""
    violations: list[Violation] = []
    for entry in lexicon:
        if not entry.lemma:
            violations.append(Violation(entry.lemma, "empty lemma"))
        elif entry.lemma != entry.lemma.lower():
            violations.append(Violation(entry.lemma, "lemma is not lowercase"))
        elif any(ch.isspace() for ch in entry.lemma):
            violations.append(Violation(entry.lemma, "lemma is not a single token"))
        if not entry.selector.is_valid():
            violations.append(
                Violation(entry.lemma, "selector constrains no identity dimension")
            )
        if entry.provenance is Provenance.AUTO_SYNONYM and not entry.source_note:
            violations.append(
                Violation(entry.lemma, "auto synonym does not record its seed term")
            )
    return violations


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
    recording the seed lemma. Candidates that are not single tokens, or that
    collide with an existing (lemma, selector), are skipped.
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
            candidate = _normalize_lemma(raw)
            if not candidate or any(ch.isspace() for ch in candidate):
                continue
            key = (candidate, entry.selector)
            if key in seen:
                continue
            try:
                score = similarity(entry.lemma, candidate)
            except Exception as exc:
                raise ProviderFailureError(entry.lemma, str(exc)) from exc
            if score >= threshold:
                entries.append(
                    BiasTerm(
                        candidate,
                        entry.selector,
                        Provenance.AUTO_SYNONYM,
                        source_note=entry.lemma,
                    )
                )
                seen.add(key)
    return BiasLexicon(entries)


@dataclass
class TableSynonymProvider:
    """Synonym candidates read from a CSV table (``lemma,synonyms`` header,
    candidates ``|``-separated)."""

    table: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @classmethod
    def from_csv(cls, path: str | Path) -> "TableSynonymProvider":
        table: dict[str, tuple[str, ...]] = {}
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != ["lemma", "synonyms"]:
                raise ParseError(f"unexpected synonym table header {header!r}")
            for row in reader:
                if not row or not row[0].strip():
                    continue
                lemma = _normalize_lemma(row[0])
                raw = row[1] if len(row) > 1 else ""
                table[lemma] = tuple(
                    t.strip() for t in raw.split("|") if t.strip()
                )
        return cls(table)

    def __call__(self, lemma: str) -> tuple[str, ...]:
        return self.table.get(lemma, ())


@dataclass
class TableSimilarityOracle:
    """Pair similarities read from a CSV table (``a,b,score`` header).

    Lookups are symmetric; unknown pairs score 0.
    """

    table: dict[tuple[str, str], float] = field(default_factory=dict)

    @classmethod
    def from_csv(cls, path: str | Path) -> "TableSimilarityOracle":
        table: dict[tuple[str, str], float] = {}
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header != ["a", "b", "score"]:
                raise ParseError(f"unexpected similarity table header {header!r}")
            for row in reader:
                if not row or not row[0].strip():
                    continue
                if len(row) != 3:
                    raise ParseError(f"bad similarity row {row!r}")
                a, b = _normalize_lemma(row[0]), _normalize_lemma(row[1])
                try:
                    score = float(row[2])
                except ValueError:
                    raise ParseError(f"bad similarity score {row[2]!r}") from None
                table[(a, b)] = score
        return cls(table)

    def __call__(self, a: str, b: str) -> float:
        if (a, b) in self.table:
            return self.table[(a, b)]
        return self.table.get((b, a), 0.0)


def load_seed_lexicon() -> BiasLexicon:
    """The 342-entry seed lexicon shipped with the package."""
    ref = resources.files("biaslex.data").joinpath("seed_lexicon.csv")
    with ref.open("r", encoding="utf-8", newline="") as handle:
        return load_lexicon(handle)


def seed_lexicon_path() -> Path:
    """Filesystem path of the shipped seed lexicon."""
    return Path(str(resources.files("biaslex.data").joinpath("seed_lexicon.csv")))
