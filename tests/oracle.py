"""Brute-force references, the only ones the tests hold:

* tf, df, idf and tfidf recomputed straight from raw token lists, which
  ``biaslex.scoring``'s per-document weights and ``bias_idf`` equal bit
  for bit;
* the mean bias score of the cells one slice selects, which each row of
  ``biaslex.aggregate.series`` equals;
* the stub backend's text drawn with one ``Random.choice`` per word.

Kept deliberately independent of the package's code (it imports nothing
from ``biaslex``) so the two implementations can be checked against each
other.
"""
from __future__ import annotations

import hashlib
import math
import random


def tf(term: str, tokens: list[str]) -> float:
    if not tokens:
        return 0.0
    return sum(1 for t in tokens if t == term) / len(tokens)


def df(term: str, docs: list[list[str]]) -> int:
    return sum(1 for d in docs if term in set(d))


def idf(term: str, docs: list[list[str]]) -> float:
    return math.log((len(docs) + 1) / (df(term, docs) + 1)) + 1.0


def tfidf(term: str, tokens: list[str], docs: list[list[str]]) -> float:
    return tf(term, tokens) * idf(term, docs)


def mean(
    cells, method, application=None, family=None, **identity
) -> tuple[float, int]:
    """Mean bias score and count of the cells of ``method`` whose
    application, language family and each named identity field (say
    ``gender=Gender.MALE``) match; ``None`` matches any application or
    family. The mean is NaN when no cell matches."""
    scores = [
        cell.bias_score
        for cell in cells
        if cell.key.method == method
        and application in (None, cell.key.application)
        and family in (None, cell.key.language.family)
        and all(getattr(cell.key.identity, f) == v for f, v in identity.items())
    ]
    if not scores:
        return math.nan, 0
    return math.fsum(scores) / len(scores), len(scores)


def stub_text(prompt: str, seed: int, vocab: list[str]) -> str:
    """The stub backend's text, drawing each word with ``Random.choice``."""
    digest = hashlib.sha256(f"{seed}\x1f{prompt}".encode("utf-8")).digest()
    rng = random.Random(digest)
    length = rng.randint(35, 60)
    words = [rng.choice(vocab) for _ in range(length)]
    sentences = []
    start = 0
    while start < length:
        stop = min(length, start + rng.randint(6, 12))
        chunk = words[start:stop]
        sentences.append(chunk[0].capitalize() + " " + " ".join(chunk[1:]) + ".")
        start = stop
    return " ".join(sentences)
