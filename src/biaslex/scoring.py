"""TF-IDF statistics and per-document bias scores.

Definitions, per (language, method) corpus:

* ``tf(t, d)``   = occurrences of ``t`` in ``d`` / total terms in ``d``
  (0 for an empty document);
* ``df(t)``      = number of documents whose distinct terms contain ``t``;
* ``idf(t)``     = ln((N + 1) / (df(t) + 1)) + 1, natural log, with +1
  smoothing on both sides;
* ``tfidf(t, d)`` = tf * idf.

A document's bias score sums tfidf over the lexicon lemmas present in it;
the same arithmetic over the full vocabulary gives the overall statistic
used to surface frequent terms outside the lexicon.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .artifacts import read_jsonl, write_jsonl
from .corpus import Corpus, Document, DocumentKey
from .lexicon import BiasLexicon


class EmptyCorpusError(Exception):
    """IDF is undefined over a corpus with no documents."""


# a document and its top overall term, as a row of overall.jsonl
OverallRow = tuple[DocumentKey, tuple[str, float] | None]


class Scope(enum.Enum):
    IDENTITY_SCOPED = "identity"
    ALL_TERMS = "all"


def bias_idf(term: str, corpus: Corpus) -> float:
    if corpus.N == 0:
        raise EmptyCorpusError("IDF requires at least one document")
    return math.log((corpus.N + 1) / (corpus.document_frequency(term) + 1)) + 1.0


def _idf_table(corpus: Corpus) -> dict[str, float]:
    """:func:`bias_idf` of each term of the corpus vocabulary, computed once
    per term."""
    return {term: bias_idf(term, corpus) for term in corpus.vocabulary()}


def _weights(
    doc: Document, terms: Iterable[str], idf: dict[str, float]
) -> dict[str, float]:
    """tfidf of each of ``terms`` (all present in ``doc``), in the given order.

    Each value equals, bit for bit, ``oracle.tfidf`` (``tests/oracle.py``)
    over the document's tokens.
    """
    counts, total = doc.term_counts, doc.total_terms
    return {term: counts[term] / total * idf[term] for term in terms}


def _argmax_term(values: dict[str, float]) -> tuple[str, float] | None:
    if not values:
        return None
    # highest value wins; ties break toward the lexicographically smaller lemma
    return min(values.items(), key=lambda kv: (-kv[1], kv[0]))


def _top_term(value: object) -> tuple[str, float] | None:
    """A row's ``top_term``: ``null`` or a ``[term, weight]`` pair."""
    match value:
        case None:
            return None
        case [str() as term, weight]:
            return term, _weight("top_term weight", weight)
    raise ValueError(f"top_term {value!r} is not null or a [term, weight] pair")


def _weight(name: str, value: object) -> float:
    """A row's ``name``: a JSON number, not a bool (an int subclass)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise ValueError(f"{name} {value!r} is not a number")


def _per_term(value: object) -> dict[str, float]:
    """A row's ``per_term``: an object mapping each term to its weight."""
    if not isinstance(value, dict):
        raise ValueError(f"per_term {value!r} is not an object")
    return {term: _weight(f"per_term[{term!r}]", w) for term, w in value.items()}


@dataclass(frozen=True)
class ScoreCell:
    """Bias score and matched-term weights for one document."""

    key: DocumentKey
    bias_score: float
    per_term: dict[str, float]
    top_term: tuple[str, float] | None

    @classmethod
    def from_terms(cls, key: DocumentKey, per_term: dict[str, float]) -> "ScoreCell":
        return cls(
            key=key,
            bias_score=sum(per_term.values()),
            per_term=dict(per_term),
            top_term=_argmax_term(per_term),
        )

    def to_json_dict(self) -> dict:
        row = self.key.to_json_dict()
        row["family"] = self.key.language.family.value
        row["bias_score"] = self.bias_score
        row["per_term"] = dict(sorted(self.per_term.items()))
        row["top_term"] = list(self.top_term) if self.top_term else None
        return row

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScoreCell":
        return cls(
            key=DocumentKey.from_json_dict(data),
            bias_score=_weight("bias_score", data["bias_score"]),
            per_term=_per_term(data["per_term"]),
            top_term=_top_term(data["top_term"]),
        )


def _scoped_terms(doc: Document, lexicon: BiasLexicon, scope: Scope) -> list[str]:
    """The document's lexicon lemmas under ``scope``, sorted so a score
    always sums its terms in the same order."""
    if scope is Scope.IDENTITY_SCOPED:
        eligible = lexicon.applicable_terms(doc.key.identity)
    else:
        eligible = lexicon.lemmas()
    return sorted(doc.distinct_terms & eligible)


def score_corpus(
    corpus: Corpus,
    lexicon: BiasLexicon,
    scope: Scope = Scope.IDENTITY_SCOPED,
) -> list[ScoreCell]:
    """Each document's bias score, from one idf table; under identity
    scoping only the lemmas whose selector matches its identity count."""
    idf = _idf_table(corpus)
    return [
        ScoreCell.from_terms(
            doc.key, _weights(doc, _scoped_terms(doc, lexicon, scope), idf)
        )
        for doc in corpus
    ]


def overall_top_terms(corpus: Corpus) -> list[OverallRow]:
    """Highest tfidf term of every document over its whole vocabulary,
    from one idf table; ``None`` for an empty document."""
    idf = _idf_table(corpus)
    return [
        (doc.key, _argmax_term(_weights(doc, doc.distinct_terms, idf)))
        for doc in corpus
    ]


def write_scores(cells: Iterable[ScoreCell], path: str | Path) -> int:
    return write_jsonl(path, (cell.to_json_dict() for cell in cells))


def read_scores(path: str | Path) -> list[ScoreCell]:
    return read_jsonl(path, ScoreCell.from_json_dict)


def overall_json_dict(row: OverallRow) -> dict:
    """``row`` as a line of ``overall.jsonl``."""
    key, top = row
    return {
        **key.to_json_dict(),
        "family": key.language.family.value,
        "top_term": list(top) if top else None,
    }


def write_overall_terms(rows: Iterable[OverallRow], path: str | Path) -> int:
    return write_jsonl(path, map(overall_json_dict, rows))


def _overall_row(data: dict) -> OverallRow:
    return DocumentKey.from_json_dict(data), _top_term(data["top_term"])


def read_overall_terms(path: str | Path) -> list[OverallRow]:
    return read_jsonl(path, _overall_row)
