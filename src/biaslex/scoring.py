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
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .corpus import Corpus, Document, DocumentKey
from .identities import Identity
from .lexicon import BiasLexicon


class ScoringError(Exception):
    pass


class EmptyCorpusError(ScoringError):
    """IDF is undefined over a corpus with no documents."""


class Scope(enum.Enum):
    IDENTITY_SCOPED = "identity"
    ALL_TERMS = "all"


def bias_tf(term: str, doc: Document) -> float:
    if doc.total_terms == 0:
        return 0.0
    return doc.term_counts[term] / doc.total_terms


def bias_df(term: str, corpus: Corpus) -> int:
    return corpus.document_frequency(term)


def bias_idf(term: str, corpus: Corpus) -> float:
    if corpus.N == 0:
        raise EmptyCorpusError("IDF requires at least one document")
    return math.log((corpus.N + 1) / (bias_df(term, corpus) + 1)) + 1.0


def bias_tfidf(term: str, doc: Document, corpus: Corpus) -> float:
    tf = bias_tf(term, doc)
    if tf == 0.0:
        return 0.0
    return tf * bias_idf(term, corpus)


def overall_tfidf(term: str, doc: Document, corpus: Corpus) -> float:
    """Same arithmetic as :func:`bias_tfidf`, over the full vocabulary."""
    return bias_tfidf(term, doc, corpus)


def _idf_table(corpus: Corpus, terms: Iterable[str]) -> dict[str, float]:
    """:func:`bias_idf` of each of ``terms``, computed once per term."""
    return {term: bias_idf(term, corpus) for term in terms}


def _weights(
    doc: Document, terms: Iterable[str], idf: dict[str, float]
) -> dict[str, float]:
    """tfidf of each of ``terms`` (all present in ``doc``), in the given order.

    Each value is the float :func:`bias_tfidf` computes.
    """
    counts, total = doc.term_counts, doc.total_terms
    return {term: counts[term] / total * idf[term] for term in terms}


def _argmax_term(values: dict[str, float]) -> tuple[str, float] | None:
    if not values:
        return None
    # highest value wins; ties break toward the lexicographically smaller lemma
    return min(values.items(), key=lambda kv: (-kv[1], kv[0]))


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

    @property
    def identity(self) -> Identity:
        return self.key.identity

    def to_json_dict(self) -> dict:
        row = self.key.to_json_dict()
        row["family"] = self.key.language.family.value
        row["bias_score"] = self.bias_score
        row["per_term"] = dict(sorted(self.per_term.items()))
        row["top_term"] = list(self.top_term) if self.top_term else None
        return row

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScoreCell":
        top = data.get("top_term")
        return cls(
            key=DocumentKey.from_json_dict(data),
            bias_score=data["bias_score"],
            per_term=dict(data.get("per_term", {})),
            top_term=(top[0], top[1]) if top else None,
        )


def _scoped_terms(doc: Document, lexicon: BiasLexicon, scope: Scope) -> list[str]:
    """The document's lexicon lemmas under ``scope``, sorted so a score
    always sums its terms in the same order."""
    if scope is Scope.IDENTITY_SCOPED:
        eligible = lexicon.applicable_terms(doc.key.identity)
    else:
        eligible = lexicon.lemmas()
    return sorted(doc.distinct_terms & eligible)


def bias_score(
    doc: Document,
    corpus: Corpus,
    lexicon: BiasLexicon,
    scope: Scope = Scope.IDENTITY_SCOPED,
) -> ScoreCell:
    """Sum tfidf over the lexicon lemmas present in the document.

    With identity scoping, only lemmas whose selector matches the
    document's identity are counted; otherwise every lexicon lemma counts.
    """
    terms = _scoped_terms(doc, lexicon, scope)
    idf = _idf_table(corpus, terms)
    return ScoreCell.from_terms(doc.key, _weights(doc, terms, idf))


def top_overall_term(doc: Document, corpus: Corpus) -> tuple[str, float] | None:
    """Highest-weighted term of the document; ``None`` when it is empty."""
    terms = doc.distinct_terms
    return _argmax_term(_weights(doc, terms, _idf_table(corpus, terms)))


def score_corpus(
    corpus: Corpus,
    lexicon: BiasLexicon,
    scope: Scope = Scope.IDENTITY_SCOPED,
) -> list[ScoreCell]:
    """:func:`bias_score` of every document, from one idf table."""
    idf = _idf_table(corpus, corpus.vocabulary())
    return [
        ScoreCell.from_terms(
            doc.key, _weights(doc, _scoped_terms(doc, lexicon, scope), idf)
        )
        for doc in corpus
    ]


def overall_top_terms(
    corpus: Corpus,
) -> list[tuple[DocumentKey, tuple[str, float] | None]]:
    """:func:`top_overall_term` of every document, from one idf table."""
    idf = _idf_table(corpus, corpus.vocabulary())
    return [
        (doc.key, _argmax_term(_weights(doc, doc.distinct_terms, idf)))
        for doc in corpus
    ]


def write_scores(cells: Iterable[ScoreCell], path: str | Path) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for cell in cells:
            handle.write(json.dumps(cell.to_json_dict(), ensure_ascii=False))
            handle.write("\n")
            count += 1
    return count


def read_scores(path: str | Path) -> list[ScoreCell]:
    cells = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                cells.append(ScoreCell.from_json_dict(json.loads(line)))
    return cells


def write_overall_terms(
    rows: Iterable[tuple[DocumentKey, tuple[str, float] | None]],
    path: str | Path,
) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for key, top in rows:
            row = key.to_json_dict()
            row["family"] = key.language.family.value
            row["top_term"] = list(top) if top else None
            handle.write(json.dumps(row, ensure_ascii=False))
            handle.write("\n")
            count += 1
    return count


def read_overall_terms(
    path: str | Path,
) -> list[tuple[DocumentKey, tuple[str, float] | None]]:
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            data = json.loads(line)
            top = data.get("top_term")
            rows.append(
                (DocumentKey.from_json_dict(data), (top[0], top[1]) if top else None)
            )
    return rows
