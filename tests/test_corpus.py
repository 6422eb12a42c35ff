import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslex.corpus import (
    CleaningSummary,
    Corpus,
    GenerationRecord,
    build_corpus,
    clean_records,
    document_key_for,
    read_corpus_dir,
    read_records,
    stub_english_detector,
    write_corpus_dir,
    write_records,
)
from biaslex.identities import (
    Application,
    ApplicationKind,
    Language,
    PromptMethod,
    StoryLocation,
    enumerate_identities,
    iter_applications,
)
from biaslex.preprocess import load_stopwords, rule_lemmatize, tokenize
from biaslex.prompts import render_application_prompt

STOPWORDS = load_stopwords()
IDENTITIES = enumerate_identities()


def make_record(
    identity,
    app,
    text,
    method=PromptMethod.ORIGINAL,
    language=Language.HINDI,
    record_id=None,
):
    prompt = (
        render_application_prompt(identity, app, language)
        if not method.is_debias
        else "debias wrapper"
    )
    if record_id is None:
        record_id = f"{identity.to_json_dict()}-{app.to_json_dict()}-{method.value}-{hash(text)}"
    return GenerationRecord(
        record_id=record_id,
        language=language,
        method=method,
        identity=identity,
        application=app,
        prompt_text=prompt,
        raw_output=text,
        english_text=text,
    )


def test_stub_detector():
    assert stub_english_detector("The market was busy this morning.") == "en"
    assert stub_english_detector("आज बाज़ार") == "und"
    assert stub_english_detector("12345 !!!") == "und"


def _letter_ratio_detector(text):
    """The detector's definition: ``en`` iff at least 90% of letters are ASCII."""
    letters = [ch for ch in text if ch.isalpha()]
    if not letters:
        return "und"
    ascii_letters = sum(1 for ch in letters if ch.isascii())
    return "en" if ascii_letters / len(letters) >= 0.9 else "und"


_DETECTOR_ALPHABET = st.sampled_from(
    list("abcXYZ019 .,!\n") + list("आजबाज़ारक्ष०१२ािं") + list("éßñ") + ["\u200d"]
)


@given(
    text=st.one_of(
        st.text(alphabet=_DETECTOR_ALPHABET, max_size=60),
        st.text(alphabet=st.characters(max_codepoint=127), max_size=40),
        st.text(max_size=40),
    )
)
@settings(max_examples=500, deadline=None)
def test_stub_detector_equals_the_letter_ratio(text):
    assert stub_english_detector(text) == _letter_ratio_detector(text)


@pytest.mark.parametrize(
    "text", ["", "12345", "   ", "abc", "आज", "a" * 9 + "आ", "a" * 8 + "आ"]
)
def test_stub_detector_edge_cases(text):
    assert stub_english_detector(text) == _letter_ratio_detector(text)


def test_build_corpus_lemmatizes_each_distinct_token_once():
    records = full_grid_records()
    calls = Counter()

    def counting_lemmatizer(token):
        calls[token] += 1
        return rule_lemmatize(token)

    corpora = build_corpus(records, lemmatizer=counting_lemmatizer, stopwords=STOPWORDS)
    tokens = {
        tok for r in records for tok in tokenize(r.english_text + "\n" + r.prompt_text)
    }
    assert set(calls) == tokens
    assert set(calls.values()) == {1}
    default = build_corpus(records, stopwords=STOPWORDS)
    assert [d.tokens for c in corpora.values() for d in c] == [
        d.tokens for c in default.values() for d in c
    ]


def test_duplicate_text_within_key_is_dropped():
    identity = IDENTITIES[0]
    app = Application(ApplicationKind.TODO_LIST)
    records = [
        make_record(identity, app, "same text here", record_id="a"),
        make_record(identity, app, "same text here", record_id="b"),
    ]
    kept, summary = clean_records(records, stub_english_detector)
    assert len(kept) == 1
    assert summary.dropped_duplicate_text == 1
    assert summary.kept == 1


def test_duplicate_text_across_keys_survives():
    app = Application(ApplicationKind.TODO_LIST)
    records = [
        make_record(IDENTITIES[0], app, "same text here", record_id="a"),
        make_record(IDENTITIES[1], app, "same text here", record_id="b"),
    ]
    kept, _ = clean_records(records, stub_english_detector)
    assert len(kept) == 2


def test_non_english_is_dropped():
    identity = IDENTITIES[0]
    app = Application(ApplicationKind.TODO_LIST)
    records = [
        make_record(identity, app, "an english sentence", record_id="a"),
        make_record(identity, app, "हिन्दी पाठ", record_id="b"),
    ]
    kept, summary = clean_records(records, stub_english_detector)
    assert [r.record_id for r in kept] == ["a"]
    assert summary.dropped_non_english == 1


def test_without_detector_no_language_filtering():
    identity = IDENTITIES[0]
    app = Application(ApplicationKind.TODO_LIST)
    records = [make_record(identity, app, "हिन्दी", record_id="b")]
    kept, _ = clean_records(records, None)
    assert len(kept) == 1


def test_empty_input():
    kept, summary = clean_records([], stub_english_detector)
    assert kept == []
    assert summary.input_records == 0


def test_cleaning_normalizes_text_and_drops_empty():
    identity = IDENTITIES[0]
    app = Application(ApplicationKind.TODO_LIST)
    records = [
        make_record(identity, app, "  spaced \t out text ", record_id="a"),
        make_record(identity, app, "   \t ", record_id="b"),
    ]
    kept, summary = clean_records(records, None)
    assert kept[0].english_text == "spaced out text"
    assert summary.dropped_empty_text == 1


def test_duplicate_record_id_is_dropped():
    identity = IDENTITIES[0]
    app = Application(ApplicationKind.TODO_LIST)
    records = [
        make_record(identity, app, "first text", record_id="x"),
        make_record(identity, app, "second text", record_id="x"),
    ]
    kept, summary = clean_records(records, None)
    assert len(kept) == 1
    assert summary.dropped_duplicate_id == 1


def test_summary_reports_per_language():
    records = [
        make_record(IDENTITIES[0], Application(ApplicationKind.TODO_LIST), "text a",
                    language=Language.HINDI, record_id="a"),
        make_record(IDENTITIES[0], Application(ApplicationKind.TODO_LIST), "text b",
                    language=Language.TAMIL, record_id="b"),
    ]
    _, summary = clean_records(records, None)
    assert summary.by_language["hindi"]["kept"] == 1
    assert summary.by_language["tamil"]["kept"] == 1


def full_grid_records(language=Language.HINDI, method=PromptMethod.ORIGINAL):
    rng = random.Random(7)
    words = ["garden", "music", "walking", "reading", "temple", "cooking"]
    records = []
    for identity in IDENTITIES:
        for app in iter_applications():
            text = " ".join(rng.choice(words) for _ in range(12))
            records.append(
                make_record(
                    identity,
                    app,
                    text,
                    method=method,
                    language=language,
                    record_id=f"{identity_slug(identity)}-{app_slug(app)}-{method.value}",
                )
            )
    return records


def identity_slug(identity):
    d = identity.to_json_dict()
    return "-".join(d.values())


def app_slug(app):
    return app.kind.value + ("-" + app.story_location.value if app.story_location else "")


def test_full_grid_builds_144_documents():
    records = full_grid_records()
    corpora = build_corpus(records, stopwords=STOPWORDS)
    corpus = corpora[(Language.HINDI, PromptMethod.ORIGINAL)]
    assert corpus.N == 144
    kinds = {doc.key.application for doc in corpus}
    assert kinds == set(ApplicationKind)


def test_single_record_corpus():
    records = [make_record(IDENTITIES[0], Application(ApplicationKind.TODO_LIST), "gardening daily", record_id="a")]
    corpora = build_corpus(records, stopwords=STOPWORDS)
    assert len(corpora) == 1
    assert corpora[(Language.HINDI, PromptMethod.ORIGINAL)].N == 1


def test_methods_are_never_mixed():
    records = full_grid_records(method=PromptMethod.ORIGINAL) + full_grid_records(
        method=PromptMethod.SIMPLE_DEBIAS
    )
    corpora = build_corpus(records, stopwords=STOPWORDS)
    assert set(corpora) == {
        (Language.HINDI, PromptMethod.ORIGINAL),
        (Language.HINDI, PromptMethod.SIMPLE_DEBIAS),
    }
    assert corpora[(Language.HINDI, PromptMethod.ORIGINAL)].N == 144
    assert corpora[(Language.HINDI, PromptMethod.SIMPLE_DEBIAS)].N == 144


def test_story_locations_merge_into_one_document():
    identity = IDENTITIES[0]
    records = [
        make_record(
            identity,
            Application(ApplicationKind.STORY, loc),
            f"a tale near the {loc.value} about {loc.value} gardens",
            record_id=loc.value,
        )
        for loc in StoryLocation
    ]
    corpora = build_corpus(records, stopwords=STOPWORDS)
    corpus = corpora[(Language.HINDI, PromptMethod.ORIGINAL)]
    assert corpus.N == 1
    doc = next(iter(corpus))
    assert doc.key.application is ApplicationKind.STORY
    assert "garden" in doc.distinct_terms
    # location words and prompt lemmas are stripped
    for loc in StoryLocation:
        assert loc.value not in doc.distinct_terms
    assert "tale" in doc.distinct_terms


def test_no_stopword_or_frame_lemma_in_documents():
    records = full_grid_records()
    corpora = build_corpus(records, stopwords=STOPWORDS)
    for corpus in corpora.values():
        for doc in corpus:
            assert not (doc.distinct_terms & STOPWORDS)
            if doc.key.application is ApplicationKind.STORY:
                assert not (
                    doc.distinct_terms
                    & {"home", "school", "workplace", "hospital"}
                )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_build_corpus_is_permutation_invariant(seed):
    records = full_grid_records()[:40]
    shuffled = records[:]
    random.Random(seed).shuffle(shuffled)
    base = build_corpus(records, stopwords=STOPWORDS)
    other = build_corpus(shuffled, stopwords=STOPWORDS)
    assert set(base) == set(other)
    for key, corpus in base.items():
        twin = other[key]
        assert set(corpus.documents) == set(twin.documents)
        for doc_key, doc in corpus.documents.items():
            assert doc.distinct_terms == twin.documents[doc_key].distinct_terms
            assert doc.total_terms == twin.documents[doc_key].total_terms


def test_records_round_trip(tmp_path):
    records = full_grid_records()[:10]
    path = tmp_path / "records.jsonl"
    assert write_records(records, path) == 10
    assert read_records(path) == records


def test_corpus_file_rejects_mixed_slices(tmp_path):
    records = full_grid_records()[:2] + full_grid_records(
        method=PromptMethod.SIMPLE_DEBIAS
    )[:2]
    corpora = build_corpus(records, stopwords=STOPWORDS)
    write_corpus_dir(corpora, tmp_path)
    merged = tmp_path / "corpus_hindi_original.jsonl"
    merged.write_text(
        merged.read_text()
        + (tmp_path / "corpus_hindi_simple.jsonl").read_text()
    )
    from biaslex.corpus import read_corpus_file

    with pytest.raises(ValueError):
        read_corpus_file(merged)


def test_corpus_dir_round_trip(tmp_path):
    records = full_grid_records()
    cleaned, summary = clean_records(records, stub_english_detector)
    corpora = build_corpus(cleaned, stopwords=STOPWORDS)
    write_corpus_dir(corpora, tmp_path, summary)
    assert (tmp_path / "corpus_hindi_original.jsonl").exists()
    cleaning = json.loads((tmp_path / "cleaning_summary.json").read_text())
    assert cleaning["kept"] == summary.kept
    reloaded = read_corpus_dir(tmp_path)
    assert set(reloaded) == set(corpora)
    original = corpora[(Language.HINDI, PromptMethod.ORIGINAL)]
    twin = reloaded[(Language.HINDI, PromptMethod.ORIGINAL)]
    assert list(original.documents) == list(twin.documents)
    for key in original.documents:
        assert original.documents[key].tokens == twin.documents[key].tokens
