"""Deterministic text preprocessing: normalize, tokenize, lemmatize, filter.

The default lemmatizer is intentionally small and rule-based so that the
whole pipeline is reproducible without model downloads. Its behaviour:

* irregular forms are mapped through a fixed table (``children`` -> ``child``);
* plural/verb ``-ies`` becomes ``-y`` (``activities`` -> ``activity``);
* ``-es`` is dropped after a sibilant stem (``dishes`` -> ``dish``);
* a final ``-s`` is dropped for words of four or more letters unless they
  end in ``-ss``, ``-us`` or ``-is`` (``values`` -> ``value``);
* no ``-ed``/``-ing`` stripping: participial and gerund forms are kept
  as-is so adjectival vocabulary (``isolated``, ``cooking``) survives
  unchanged.

Callers may inject any pure ``Callable[[str], str]`` in its place (see
``Lemmatizer``).
"""
from __future__ import annotations

import re
import unicodedata
from importlib import resources
from pathlib import Path
from typing import Callable

from .identities import Application, ApplicationKind

# Must be a pure function of its token: ``build_corpus`` memoizes it for the
# length of one call, so it sees each distinct token once.
Lemmatizer = Callable[[str], str]

_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)
_WHITESPACE_RE = re.compile(r"\s+")

HOBBIES_FRAME_LEMMAS = frozenset({"personal", "value", "interest"})
STORY_LOCATION_LEMMAS = frozenset({"home", "school", "workplace", "hospital"})

_IRREGULAR = {
    "children": "child",
    "men": "man",
    "women": "woman",
    "people": "person",
    "feet": "foot",
    "teeth": "tooth",
    "mice": "mouse",
    "wives": "wife",
    "lives": "life",
    "leaves": "leaf",
    "clothes": "clothes",  # plurale tantum; kept as its own lemma
    "is": "be",
    "are": "be",
    "was": "be",
    "were": "be",
    "been": "be",
    "being": "be",
    "am": "be",
    "has": "have",
    "had": "have",
    "does": "do",
    "did": "do",
    "done": "do",
    "goes": "go",
    "went": "go",
    "gone": "go",
}

_SIBILANT_ENDINGS = ("s", "x", "z", "ch", "sh")


def normalize_text(text: str) -> str:
    """NFC-normalize and collapse whitespace runs to single spaces."""
    return _WHITESPACE_RE.sub(" ", unicodedata.normalize("NFC", text)).strip()


def tokenize(text: str) -> list[str]:
    """Lowercase and split into Unicode letter runs (digits dropped)."""
    return _WORD_RE.findall(text.lower())


def _lemmatize_step(token: str) -> str:
    if token in _IRREGULAR:
        return _IRREGULAR[token]
    if len(token) >= 5 and token.endswith("ies"):
        return token[:-3] + "y"
    if token.endswith("es") and token[:-2].endswith(_SIBILANT_ENDINGS):
        return token[:-2]
    if (
        len(token) >= 4
        and token.endswith("s")
        and not token.endswith(("ss", "us", "is"))
    ):
        return token[:-1]
    return token


def rule_lemmatize(token: str) -> str:
    """Default lemmatizer; see the module docstring for the rule set.

    Rules apply repeatedly until a fixed point, so the lemma space is
    closed under the lemmatizer.
    """
    while True:
        reduced = _lemmatize_step(token)
        if reduced == token:
            return token
        token = reduced


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Stopword set from ``path``, or the packaged English list."""
    if path is None:
        ref = resources.files("biaslex.data").joinpath("stopwords_en.txt")
        text = ref.read_text(encoding="utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    return frozenset(
        line.strip().lower() for line in text.splitlines() if line.strip()
    )


def application_exclusions(kind: ApplicationKind) -> frozenset[str]:
    """Frame lemmas stripped from documents of the given application."""
    if kind is ApplicationKind.HOBBIES_VALUES:
        return HOBBIES_FRAME_LEMMAS
    if kind is ApplicationKind.STORY:
        return STORY_LOCATION_LEMMAS
    return frozenset()


def prompt_lemmas(prompt_text: str, lemmatizer: Lemmatizer | None = None) -> frozenset[str]:
    """Lemmas of every token in a rendered prompt."""
    lemmatize = lemmatizer or rule_lemmatize
    return frozenset(lemmatize(tok) for tok in tokenize(prompt_text))


def preprocess(
    text: str,
    app: Application | ApplicationKind,
    lemmatizer: Lemmatizer | None = None,
    stopwords: frozenset[str] | None = None,
    prompt_text: str | None = None,
) -> list[str]:
    """Lowercase, tokenize, lemmatize, then drop stopwords and exclusions.

    Exclusions are the application's frame lemmas plus, when ``prompt_text``
    is given, every lemma that occurs in the rendered prompt.
    """
    kind = app.kind if isinstance(app, Application) else app
    lemmatize = lemmatizer or rule_lemmatize
    if stopwords is None:
        stopwords = load_stopwords()
    excluded = set(application_exclusions(kind))
    if prompt_text:
        excluded |= prompt_lemmas(prompt_text, lemmatize)
    return [
        lemma
        for lemma in (lemmatize(tok) for tok in tokenize(text))
        if lemma not in stopwords and lemma not in excluded
    ]
