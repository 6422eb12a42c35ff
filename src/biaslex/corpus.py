"""Generation-record ingestion and per-cell document assembly.

A document collects every preprocessed token generated for one
(language, method, identity, application) cell; the four story locations
merge into a single story document. Each (language, method) pair gets its
own corpus so document frequencies never mix prompting methods.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from pathlib import Path
from typing import Callable, Iterable

from .identities import (
    Application,
    ApplicationKind,
    Identity,
    Language,
    PromptMethod,
    identity_order,
)
from .preprocess import (
    Lemmatizer,
    load_stopwords,
    normalize_text,
    preprocess,
    rule_lemmatize,
)

LanguageDetector = Callable[[str], str]

APPLICATION_KIND_ORDER = {kind: i for i, kind in enumerate(ApplicationKind)}
METHOD_ORDER = {method: i for i, method in enumerate(PromptMethod)}
LANGUAGE_ORDER = {language: i for i, language in enumerate(Language)}


def stub_english_detector(text: str) -> str:
    """Deterministic language guess: ``en`` iff letters are mostly ASCII."""
    if text.isascii():
        # every letter is ASCII, so the ratio below is 1 whenever one exists
        return "en" if any(ch.isalpha() for ch in text) else "und"
    letters = [ch for ch in text if ch.isalpha()]
    if not letters:
        return "und"
    ascii_letters = sum(1 for ch in letters if ch.isascii())
    return "en" if ascii_letters / len(letters) >= 0.9 else "und"


@dataclass(frozen=True)
class GenerationRecord:
    """One generation plus its English translation."""

    record_id: str
    language: Language
    method: PromptMethod
    identity: Identity
    application: Application
    prompt_text: str
    raw_output: str
    english_text: str

    def to_json_dict(self) -> dict:
        return {
            "record_id": self.record_id,
            "language": self.language.value,
            "method": self.method.value,
            "identity": self.identity.to_json_dict(),
            "application": self.application.to_json_dict(),
            "prompt_text": self.prompt_text,
            "raw_output": self.raw_output,
            "english_text": self.english_text,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GenerationRecord":
        return cls(
            record_id=data["record_id"],
            language=Language(data["language"]),
            method=PromptMethod(data["method"]),
            identity=Identity.from_json_dict(data["identity"]),
            application=Application.from_json_dict(data["application"]),
            prompt_text=data["prompt_text"],
            raw_output=data["raw_output"],
            english_text=data["english_text"],
        )


def write_records(records: Iterable[GenerationRecord], path: str | Path) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_json_dict(), ensure_ascii=False))
            handle.write("\n")
            count += 1
    return count


def read_records(path: str | Path) -> list[GenerationRecord]:
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(GenerationRecord.from_json_dict(json.loads(line)))
    return records


@dataclass(frozen=True)
class DocumentKey:
    """Identifies one document; story locations are already merged."""

    language: Language
    method: PromptMethod
    identity: Identity
    application: ApplicationKind

    def sort_key(self) -> tuple[int, int, int, int]:
        return (
            LANGUAGE_ORDER[self.language],
            METHOD_ORDER[self.method],
            identity_order(self.identity),
            APPLICATION_KIND_ORDER[self.application],
        )

    def to_json_dict(self) -> dict:
        return {
            "language": self.language.value,
            "method": self.method.value,
            "identity": self.identity.to_json_dict(),
            "application": self.application.value,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DocumentKey":
        return cls(
            language=Language(data["language"]),
            method=PromptMethod(data["method"]),
            identity=Identity.from_json_dict(data["identity"]),
            application=ApplicationKind(data["application"]),
        )


@dataclass(frozen=True)
class Document:
    key: DocumentKey
    tokens: tuple[str, ...]

    @property
    def total_terms(self) -> int:
        return len(self.tokens)

    @cached_property
    def distinct_terms(self) -> frozenset[str]:
        return frozenset(self.tokens)

    @cached_property
    def term_counts(self) -> Counter:
        return Counter(self.tokens)


class Corpus:
    """Immutable set of documents for one (language, method) pair."""

    def __init__(
        self,
        language: Language,
        method: PromptMethod,
        documents: Iterable[Document],
    ):
        self.language = language
        self.method = method
        docs = sorted(documents, key=lambda d: d.key.sort_key())
        self.documents: dict[DocumentKey, Document] = {d.key: d for d in docs}
        if len(self.documents) != len(docs):
            raise ValueError("duplicate document keys in corpus")

    @property
    def N(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents.values())

    def __len__(self) -> int:
        return len(self.documents)

    @cached_property
    def _document_frequencies(self) -> Counter:
        counts: Counter = Counter()
        for doc in self.documents.values():
            counts.update(doc.distinct_terms)
        return counts

    def document_frequency(self, term: str) -> int:
        """Number of documents whose distinct terms contain ``term``."""
        return self._document_frequencies[term]

    def vocabulary(self) -> frozenset[str]:
        return frozenset(self._document_frequencies)


@dataclass
class CleaningSummary:
    """Counts of records kept and dropped, by reason and language."""

    input_records: int = 0
    kept: int = 0
    dropped_empty_text: int = 0
    dropped_duplicate_id: int = 0
    dropped_non_english: int = 0
    dropped_duplicate_text: int = 0
    by_language: dict[str, dict[str, int]] = field(default_factory=dict)

    def _bump(self, language: Language, field_name: str) -> None:
        per = self.by_language.setdefault(
            language.value,
            {
                "input_records": 0,
                "kept": 0,
                "dropped_empty_text": 0,
                "dropped_duplicate_id": 0,
                "dropped_non_english": 0,
                "dropped_duplicate_text": 0,
            },
        )
        per[field_name] += 1
        setattr(self, field_name, getattr(self, field_name) + 1)

    def to_json_dict(self) -> dict:
        return {
            "input_records": self.input_records,
            "kept": self.kept,
            "dropped_empty_text": self.dropped_empty_text,
            "dropped_duplicate_id": self.dropped_duplicate_id,
            "dropped_non_english": self.dropped_non_english,
            "dropped_duplicate_text": self.dropped_duplicate_text,
            "by_language": {
                lang: dict(counts) for lang, counts in sorted(self.by_language.items())
            },
        }


def document_key_for(record: GenerationRecord) -> DocumentKey:
    return DocumentKey(
        language=record.language,
        method=record.method,
        identity=record.identity,
        application=record.application.kind,
    )


def clean_records(
    records: Iterable[GenerationRecord],
    detector: LanguageDetector | None = None,
) -> tuple[list[GenerationRecord], CleaningSummary]:
    """Normalize English text, then drop unusable records.

    Drops, in order of checks: records whose normalized English text is
    empty, repeated record ids, records the detector does not classify as
    English, and exact duplicate texts within the same document key. Kept
    records preserve input order.
    """
    summary = CleaningSummary()
    kept: list[GenerationRecord] = []
    seen_ids: set[str] = set()
    seen_texts: set[tuple[DocumentKey, str]] = set()
    for record in records:
        summary._bump(record.language, "input_records")
        text = normalize_text(record.english_text)
        if not text:
            summary._bump(record.language, "dropped_empty_text")
            continue
        if record.record_id in seen_ids:
            summary._bump(record.language, "dropped_duplicate_id")
            continue
        if detector is not None and detector(text) != "en":
            summary._bump(record.language, "dropped_non_english")
            continue
        dedup_key = (document_key_for(record), text)
        if dedup_key in seen_texts:
            summary._bump(record.language, "dropped_duplicate_text")
            continue
        seen_ids.add(record.record_id)
        seen_texts.add(dedup_key)
        kept.append(replace(record, english_text=text))
        summary._bump(record.language, "kept")
    return kept, summary


def build_corpus(
    records: Iterable[GenerationRecord],
    lemmatizer: Lemmatizer | None = None,
    stopwords: frozenset[str] | None = None,
) -> dict[tuple[Language, PromptMethod], Corpus]:
    """Assemble one corpus per (language, method) from cleaned records.

    All English text for a document key is concatenated and preprocessed
    together; lemmas occurring in any contributing prompt are excluded
    from that document's tokens. The lemmatizer is memoized for the
    duration of the call, so each distinct token is lemmatized once.
    """
    lemmatize = cache(lemmatizer or rule_lemmatize)
    if stopwords is None:
        stopwords = load_stopwords()
    grouped: dict[DocumentKey, list[GenerationRecord]] = {}
    for record in records:
        grouped.setdefault(document_key_for(record), []).append(record)

    per_corpus: dict[tuple[Language, PromptMethod], list[Document]] = {}
    for key in sorted(grouped, key=lambda k: k.sort_key()):
        cell_records = grouped[key]
        text = "\n".join(r.english_text for r in cell_records)
        prompts = "\n".join(r.prompt_text for r in cell_records)
        tokens = preprocess(
            text,
            key.application,
            lemmatizer=lemmatize,
            stopwords=stopwords,
            prompt_text=prompts,
        )
        per_corpus.setdefault((key.language, key.method), []).append(
            Document(key=key, tokens=tuple(tokens))
        )
    return {
        (language, method): Corpus(language, method, docs)
        for (language, method), docs in per_corpus.items()
    }


def corpus_filename(language: Language, method: PromptMethod) -> str:
    return f"corpus_{language.value}_{method.value}.jsonl"


def write_corpus_dir(
    corpora: dict[tuple[Language, PromptMethod], Corpus],
    out_dir: str | Path,
    summary: CleaningSummary | None = None,
) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for (language, method) in sorted(
        corpora, key=lambda lm: (LANGUAGE_ORDER[lm[0]], METHOD_ORDER[lm[1]])
    ):
        corpus = corpora[(language, method)]
        path = out / corpus_filename(language, method)
        with open(path, "w", encoding="utf-8") as handle:
            for doc in corpus:
                row = doc.key.to_json_dict()
                row["tokens"] = list(doc.tokens)
                handle.write(json.dumps(row, ensure_ascii=False))
                handle.write("\n")
        written.append(path)
    if summary is not None:
        summary_path = out / "cleaning_summary.json"
        summary_path.write_text(
            json.dumps(summary.to_json_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        written.append(summary_path)
    return written


def read_corpus_file(path: str | Path) -> Corpus:
    documents = []
    language = method = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            key = DocumentKey.from_json_dict(row)
            if language is None:
                language, method = key.language, key.method
            elif (key.language, key.method) != (language, method):
                raise ValueError(
                    f"corpus file {path} mixes (language, method) pairs"
                )
            documents.append(Document(key=key, tokens=tuple(row["tokens"])))
    if language is None:
        raise ValueError(f"corpus file {path} holds no documents")
    return Corpus(language, method, documents)


def read_corpus_dir(path: str | Path) -> dict[tuple[Language, PromptMethod], Corpus]:
    directory = Path(path)
    if not directory.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {directory}")
    corpora = {}
    for file in sorted(directory.glob("corpus_*.jsonl")):
        corpus = read_corpus_file(file)
        corpora[(corpus.language, corpus.method)] = corpus
    return corpora
