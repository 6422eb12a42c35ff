"""Brute-force references: TF-IDF recomputed straight from raw token lists,
and the stub backend's text drawn with one ``Random.choice`` per word.

Kept deliberately independent of the package's code so the two
implementations can be checked against each other.
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
