from __future__ import annotations

import os

import pytest

from biaslex.corpus import Corpus, Document, DocumentKey
from biaslex.identities import (
    ApplicationKind,
    Language,
    PromptMethod,
    enumerate_identities,
)
from biaslex.lexicon import load_seed_lexicon

_CELLS = [
    (identity, kind)
    for identity in enumerate_identities()
    for kind in ApplicationKind
]


def make_documents(
    token_lists,
    language: Language = Language.HINDI,
    method: PromptMethod = PromptMethod.ORIGINAL,
) -> list[Document]:
    """Documents over distinct (identity, application) cells, in order."""
    docs = []
    for n, tokens in enumerate(token_lists):
        identity, kind = _CELLS[n]
        key = DocumentKey(
            language=language, method=method, identity=identity, application=kind
        )
        docs.append(Document(key=key, tokens=tuple(tokens)))
    return docs


def make_corpus(
    token_lists,
    language: Language = Language.HINDI,
    method: PromptMethod = PromptMethod.ORIGINAL,
) -> Corpus:
    return Corpus(language, method, make_documents(token_lists, language, method))


@pytest.fixture(scope="session")
def seed_lexicon():
    return load_seed_lexicon()


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process behind, running or ended but
    not waited for, as a leaked file handle fails it through the
    ResourceWarning filter in pyproject.toml."""
    yield
    left = []
    try:
        while True:
            pid, status = os.waitpid(-1, os.WNOHANG)  # reaps an ended child
            if pid == 0:
                left.append("one running")
                break
            left.append(f"{pid} ended with wait status {status}")
    except ChildProcessError:
        pass  # no child is left
    assert not left, f"child processes left behind, not waited for: {left}"
