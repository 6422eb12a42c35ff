import ast
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from conftest import make_corpus
from biaslex.corpus import Corpus, Document, DocumentKey
from biaslex.identities import (
    ApplicationKind,
    Children,
    Gender,
    Language,
    MaritalStatus,
    PromptMethod,
    Religion,
    enumerate_identities,
)
from biaslex.lexicon import BiasLexicon, BiasTerm, IdentitySelector, Provenance
from biaslex.scoring import (
    EmptyCorpusError,
    Scope,
    ScoreCell,
    bias_idf,
    overall_top_terms,
    read_scores,
    score_corpus,
    write_scores,
)

WORDS = [
    "house", "family", "garden", "lonely", "happy", "clean",
    "market", "walk", "read", "temple", "music", "daily",
]


def small_lexicon():
    return BiasLexicon(
        [
            BiasTerm(
                "house",
                IdentitySelector(genders=frozenset({Gender.FEMALE})),
                Provenance.LITERATURE,
            ),
            BiasTerm(
                "lonely",
                IdentitySelector(marital_statuses=frozenset({MaritalStatus.SINGLE})),
                Provenance.LITERATURE,
            ),
            BiasTerm(
                "happy",
                IdentitySelector(marital_statuses=frozenset({MaritalStatus.MARRIED})),
                Provenance.LITERATURE,
            ),
        ]
    )


def every_lemma(*lemmas):
    """A lexicon that lists each of ``lemmas`` once, for scope ``all``."""
    anyone = IdentitySelector(genders=frozenset(Gender))
    return BiasLexicon(BiasTerm(lemma, anyone, Provenance.LITERATURE) for lemma in lemmas)


def weights(token_lists, *lemmas):
    """Each document's per-term weights of ``lemmas`` under scope ``all``."""
    cells = score_corpus(make_corpus(token_lists), every_lemma(*lemmas), Scope.ALL_TERMS)
    return [cell.per_term for cell in cells]


def test_tf_examples():
    # "a" is in every document, so its idf is 1 and its weight is its tf
    assert weights([["a", "a", "b", "c"], ["a"]], "a", "z") == [{"a": 0.5}, {"a": 1.0}]


def test_tf_empty_document():
    [cell] = score_corpus(make_corpus([[]]), every_lemma("a"), Scope.ALL_TERMS)
    assert (cell.bias_score, cell.per_term) == (0.0, {})


def test_df_examples():
    corpus = make_corpus(
        [["x", "x", "x", "x", "x"], ["x", "y"], ["y"], ["x", "z"]]
    )
    assert corpus.document_frequency("missing") == 0
    # five occurrences inside one document still count that document once
    solo = make_corpus([["x", "x", "x", "x", "x"]])
    assert solo.document_frequency("x") == 1
    assert corpus.document_frequency("x") == 3


def test_idf_saturates_at_one():
    corpus = make_corpus([["a"], ["a", "b"]])
    assert bias_idf("a", corpus) == pytest.approx(1.0, abs=1e-12)


def test_idf_value_for_unseen_term():
    corpus = make_corpus([["w"] for _ in range(144)])
    assert bias_idf("unseen", corpus) == pytest.approx(math.log(145.0) + 1.0, abs=1e-9)


def test_idf_requires_documents():
    empty = make_corpus([])
    with pytest.raises(EmptyCorpusError):
        bias_idf("a", empty)


def test_idf_strictly_decreases_with_df():
    corpus = make_corpus([["a"], ["a", "b"], ["a", "b", "c"], ["d"]])
    # df: a=3, b=2, c=1, d=1, absent=0
    assert bias_idf("a", corpus) < bias_idf("b", corpus) < bias_idf("c", corpus)
    assert bias_idf("c", corpus) < bias_idf("missing", corpus)


def test_tfidf_zero_tf():
    # a lexicon term absent from a document gets no weight there
    assert weights([["a"], ["b"]], "b")[0] == {}


def test_tfidf_unit_idf():
    # df(a) = N so idf(a) = 1; tf = 0.5
    assert weights([["a", "b"], ["a"]], "a")[0] == {"a": 0.5}


def _assert_equals_the_oracle(token_lists):
    """Every weight and idf the run path computes over ``token_lists``,
    exactly as the oracle computes it."""
    corpus = make_corpus(token_lists)
    vocab = {t for tokens in token_lists for t in tokens}
    for term in vocab | {"missing"}:
        assert corpus.document_frequency(term) == oracle.df(term, token_lists)
        assert bias_idf(term, corpus) == oracle.idf(term, token_lists)
    cells = score_corpus(corpus, every_lemma(*vocab, "missing"), Scope.ALL_TERMS)
    for tokens, cell, (_, top) in zip(token_lists, cells, overall_top_terms(corpus)):
        expected = {t: oracle.tfidf(t, tokens, token_lists) for t in set(tokens)}
        assert cell.per_term == expected
        ranked = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))
        assert top == (ranked[0] if ranked else None)


def test_tfidf_agrees_with_oracle_on_fixed_corpus():
    _assert_equals_the_oracle(
        [
            ["house", "house", "garden", "lonely"],
            ["garden", "market"],
            ["house", "daily", "daily"],
            [],
        ]
    )


def test_score_cell_from_terms_sums_values():
    corpus = make_corpus([["x"]])
    key = next(iter(corpus)).key
    cell = ScoreCell.from_terms(key, {"rude": 0.18, "lonely": 0.14, "strict": 0.13})
    assert cell.bias_score == pytest.approx(0.45, abs=1e-12)
    assert cell.top_term == ("rude", 0.18)


def test_bias_score_empty_when_no_lexicon_term_present():
    corpus = make_corpus([["garden", "market"]])
    [cell] = score_corpus(corpus, small_lexicon(), Scope.ALL_TERMS)
    assert cell.bias_score == 0.0
    assert cell.per_term == {}
    assert cell.top_term is None


def test_bias_score_top_term_argmax():
    corpus = make_corpus([["x"]])
    key = next(iter(corpus)).key
    cell = ScoreCell.from_terms(key, {"house": 0.037, "family": 0.02})
    assert cell.top_term == ("house", 0.037)


def test_identity_scoping_restricts_terms():
    # document identity is (Hindu, Male, Married, NoChildren): "happy" applies,
    # "house" (female) and "lonely" (single) do not
    corpus = make_corpus([["house", "lonely", "happy", "garden"]])
    [scoped] = score_corpus(corpus, small_lexicon(), Scope.IDENTITY_SCOPED)
    [broad] = score_corpus(corpus, small_lexicon(), Scope.ALL_TERMS)
    assert set(scoped.per_term) == {"happy"}
    assert set(broad.per_term) == {"house", "lonely", "happy"}
    assert set(scoped.per_term) <= set(broad.per_term)
    assert scoped.bias_score <= broad.bias_score


def test_bias_score_reassembles_to_sum():
    corpus = make_corpus([["house", "happy", "happy", "garden"], ["house"]])
    for cell in score_corpus(corpus, small_lexicon(), Scope.ALL_TERMS):
        assert cell.bias_score == pytest.approx(sum(cell.per_term.values()), abs=1e-12)


def test_top_overall_term_empty_document():
    corpus = make_corpus([[]])
    [(_, top)] = overall_top_terms(corpus)
    assert top is None


def test_top_overall_term_tie_breaks_lexicographically():
    corpus = make_corpus([["b", "a"], ["c"]])
    key, top = overall_top_terms(corpus)[0]
    assert key == list(corpus)[0].key
    assert top[0] == "a"


def test_top_overall_term_dominant_word():
    corpus = make_corpus([["daily", "daily", "daily", "walk"], ["walk", "read"]])
    doc = list(corpus)[0]
    key, (term, value) = overall_top_terms(corpus)[0]
    assert key == doc.key
    assert term == "daily"
    assert value == pytest.approx(
        oracle.tfidf(
            "daily",
            ["daily", "daily", "daily", "walk"],
            [["daily", "daily", "daily", "walk"], ["walk", "read"]],
        ),
        abs=1e-9,
    )


def test_scoring_is_deterministic():
    corpus = make_corpus([["house", "happy"], ["lonely"]])
    lexicon = small_lexicon()
    first = score_corpus(corpus, lexicon)
    second = score_corpus(corpus, lexicon)
    assert first == second


def test_randomized_oracle_equivalence():
    rng = random.Random(20240811)
    for _ in range(100):
        n_docs = rng.randint(1, 5)
        token_lists = [
            [rng.choice(WORDS) for _ in range(rng.randint(0, 20))]
            for _ in range(n_docs)
        ]
        _assert_equals_the_oracle(token_lists)


@given(
    token_lists=st.lists(
        st.lists(st.sampled_from(WORDS), max_size=12), min_size=1, max_size=5
    ),
    term=st.sampled_from(WORDS),
)
@settings(max_examples=300, deadline=None)
def test_tf_stays_in_unit_interval(token_lists, term):
    # a weight is tf * idf, so 0 < tf <= 1 bounds it by the term's idf
    corpus = make_corpus(token_lists)
    for cell in score_corpus(corpus, every_lemma(term), Scope.ALL_TERMS):
        for value in cell.per_term.values():
            assert 0.0 < value <= bias_idf(term, corpus)


@given(
    token_lists=st.lists(
        st.lists(st.sampled_from(WORDS), max_size=12), min_size=1, max_size=5
    )
)
@settings(max_examples=300, deadline=None)
def test_idf_monotone_in_df(token_lists):
    corpus = make_corpus(token_lists)
    vocab = sorted({t for tokens in token_lists for t in tokens} | {"missing"})
    stats = [(corpus.document_frequency(t), bias_idf(t, corpus)) for t in vocab]
    for df_a, idf_a in stats:
        for df_b, idf_b in stats:
            if df_a <= df_b:
                assert idf_a >= idf_b - 1e-12
                if df_a < df_b:
                    assert idf_a > idf_b


def test_scores_round_trip(tmp_path):
    corpus = make_corpus([["house", "happy"], ["lonely", "house"]])
    cells = score_corpus(corpus, small_lexicon(), Scope.ALL_TERMS)
    path = tmp_path / "scores.jsonl"
    write_scores(cells, path)
    assert read_scores(path) == cells


_SELECTORS = [
    IdentitySelector(genders=frozenset({Gender.FEMALE})),
    IdentitySelector(marital_statuses=frozenset({MaritalStatus.SINGLE})),
    IdentitySelector(religions=frozenset({Religion.MUSLIM, Religion.HINDU})),
    IdentitySelector(children=frozenset({Children.NO_CHILDREN})),
]


@given(
    docs=st.dictionaries(
        st.sampled_from(enumerate_identities()),
        st.lists(st.sampled_from(WORDS), max_size=12),
        min_size=1,
        max_size=8,
    ),
    entries=st.sets(
        st.tuples(st.sampled_from(WORDS), st.sampled_from(range(len(_SELECTORS)))),
        max_size=10,
    ),
    scope=st.sampled_from(Scope),
)
@settings(max_examples=200, deadline=None)
def test_corpus_scoring_equals_the_per_term_reference(docs, entries, scope):
    """One idf table per corpus gives exactly the oracle's per-(term,
    document) floats."""
    corpus = Corpus(
        Language.HINDI,
        PromptMethod.ORIGINAL,
        [
            Document(
                DocumentKey(
                    Language.HINDI, PromptMethod.ORIGINAL, identity, ApplicationKind.STORY
                ),
                tuple(tokens),
            )
            for identity, tokens in docs.items()
        ],
    )
    token_lists = [list(doc.tokens) for doc in corpus]
    lexicon = BiasLexicon(
        BiasTerm(lemma, _SELECTORS[i], Provenance.LITERATURE) for lemma, i in entries
    )
    cells = score_corpus(corpus, lexicon, scope)
    overall = overall_top_terms(corpus)
    assert len(cells) == len(overall) == len(token_lists)
    for doc, tokens, cell, (key, top) in zip(corpus, token_lists, cells, overall):
        if scope is Scope.IDENTITY_SCOPED:
            eligible = {e.lemma for e in lexicon if e.selector.matches(doc.key.identity)}
        else:
            eligible = {e.lemma for e in lexicon}
        per_term = {
            t: oracle.tfidf(t, tokens, token_lists)
            for t in sorted(doc.distinct_terms & eligible)
        }
        assert cell == ScoreCell.from_terms(doc.key, per_term)
        weights = {t: oracle.tfidf(t, tokens, token_lists) for t in set(tokens)}
        expected_top = (
            sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            if weights
            else None
        )
        assert (key, top) == (doc.key, expected_top)


def test_the_oracle_imports_nothing_from_biaslex():
    """The tests' one reference for tf-idf and the averages stays apart
    from the code it checks."""
    tree = ast.parse((Path(__file__).parent / "oracle.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert "math" in imported
    assert [name for name in imported if name.split(".")[0] == "biaslex"] == []
