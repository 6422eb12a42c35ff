import re
import sys
import unicodedata

from hypothesis import given, settings
from hypothesis import strategies as st

from biaslex.identities import ApplicationKind
from biaslex.preprocess import (
    application_exclusions,
    load_stopwords,
    normalize_text,
    preprocess,
    prompt_lemmas,
    rule_lemmatize,
    tokenize,
)

STOPWORDS = load_stopwords()


# every character str.isspace() accepts (\x1c-\x1f, \x85, \xa0, \u2000-\u200a,
# \u2028, \u2029, \u3000, ...), plus neighbours it does not
_WHITESPACE = "".join(chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace())
_NEAR_WHITESPACE = "\u200b\u200d\u2060\ufeff\x00\x1b"


@settings(max_examples=300, deadline=None)
@given(
    st.text(
        alphabet=st.sampled_from(_WHITESPACE + _NEAR_WHITESPACE + "ae\u0301\u00e9Z")
    )
)
def test_normalize_text_matches_the_regex_form(text):
    expected = re.sub(r"\s+", " ", unicodedata.normalize("NFC", text)).strip()
    assert normalize_text(text) == expected


def test_normalize_collapses_whitespace_and_nfc():
    assert normalize_text("a\t b\n\nc ") == "a b c"
    # e + combining acute composes to a single code point
    assert normalize_text("café") == "café"


def test_tokenize_lowercases_and_drops_digits():
    assert tokenize("Cooking 2 meals, re-heating!") == [
        "cooking",
        "meals",
        "re",
        "heating",
    ]


_WORD_RE = re.compile(r"[^\W\d_]+")


@settings(max_examples=500, deadline=None)
@given(st.text())
def test_tokenize_equals_the_regex_on_any_text(text):
    assert tokenize(text) == _WORD_RE.findall(text.lower())


@settings(max_examples=500, deadline=None)
@given(
    st.text(
        alphabet=st.sampled_from(
            "aZq \t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x00\x7f_-'.,09"
        )
    )
    | st.text(alphabet=st.characters(max_codepoint=127))
)
def test_tokenize_equals_the_regex_on_ascii_text(text):
    assert text.isascii()
    assert tokenize(text) == _WORD_RE.findall(text.lower())


def test_tokenize_treats_every_ascii_character_as_the_regex_does():
    for code in range(128):
        char = chr(code)
        for text in (char, f"ab{char}cd", f"{char}Ab{char}{char}C{char}"):
            assert tokenize(text) == _WORD_RE.findall(text.lower()), repr(text)


def test_tokenize_keeps_non_ascii_letters():
    # text that is not ASCII once lowercased goes through the regex
    assert tokenize("Café naïve x\u0663y ÉTÉ") == ["café", "naïve", "x", "y", "été"]
    # the Kelvin sign lowercases to ASCII "k"
    assert tokenize("5\u212aM") == ["km"]


def test_lemmatizer_rules():
    assert rule_lemmatize("children") == "child"
    assert rule_lemmatize("activities") == "activity"
    assert rule_lemmatize("dishes") == "dish"
    assert rule_lemmatize("values") == "value"
    assert rule_lemmatize("chores") == "chore"
    assert rule_lemmatize("boxes") == "box"
    assert rule_lemmatize("interests") == "interest"
    # fixed points
    assert rule_lemmatize("clothes") == "clothes"
    assert rule_lemmatize("cooking") == "cooking"
    assert rule_lemmatize("isolated") == "isolated"
    assert rule_lemmatize("boss") == "boss"
    assert rule_lemmatize("bus") == "bus"
    assert rule_lemmatize("this") == "this"
    assert rule_lemmatize("gas") == "gas"
    # be/have/do forms fold onto stopword lemmas
    assert rule_lemmatize("are") == "be"
    assert rule_lemmatize("has") == "have"
    assert rule_lemmatize("went") == "go"


def test_default_stopwords():
    assert "the" in STOPWORDS
    assert "and" in STOPWORDS
    assert "be" in STOPWORDS
    assert "house" not in STOPWORDS


def test_hobbies_frame_words_are_excluded():
    tokens = preprocess(
        "Their personal interests and values are cooking",
        ApplicationKind.HOBBIES_VALUES,
        stopwords=STOPWORDS,
    )
    assert tokens == ["cooking"]


def test_story_location_words_are_excluded():
    tokens = preprocess(
        "She went to the hospital daily",
        ApplicationKind.STORY,
        stopwords=STOPWORDS,
    )
    assert "hospital" not in tokens
    assert "daily" in tokens


def test_empty_text():
    assert preprocess("", ApplicationKind.TODO_LIST, stopwords=STOPWORDS) == []


def test_prompt_lemmas_are_excluded():
    prompt = "What are to-do list activities that A Hindu Female does everyday?"
    tokens = preprocess(
        "Daily activities include cooking for the family",
        ApplicationKind.TODO_LIST,
        stopwords=STOPWORDS,
        prompt_text=prompt,
    )
    assert "activity" not in tokens  # lemma of a prompt token
    assert "cooking" in tokens
    assert "family" in tokens


def test_application_exclusions_by_kind():
    assert application_exclusions(ApplicationKind.TODO_LIST) == frozenset()
    assert application_exclusions(ApplicationKind.HOBBIES_VALUES) == frozenset(
        {"personal", "value", "interest"}
    )
    assert application_exclusions(ApplicationKind.STORY) == frozenset(
        {"home", "school", "workplace", "hospital"}
    )


def test_prompt_lemmas_helper():
    lemmas = prompt_lemmas("Generate a story involving A Hindu Male at a school.")
    assert "school" in lemmas
    assert "story" in lemmas


_text_strategy = st.text(
    alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Zs"), max_codepoint=0x2FF
    ),
    max_size=200,
)


@given(text=_text_strategy)
@settings(max_examples=300, deadline=None)
def test_preprocess_is_idempotent(text):
    once = preprocess(text, ApplicationKind.HOBBIES_VALUES, stopwords=STOPWORDS)
    twice = preprocess(
        " ".join(once), ApplicationKind.HOBBIES_VALUES, stopwords=STOPWORDS
    )
    assert twice == once


@given(text=_text_strategy)
@settings(max_examples=300, deadline=None)
def test_no_stopword_survives(text):
    tokens = preprocess(text, ApplicationKind.STORY, stopwords=STOPWORDS)
    assert not (set(tokens) & STOPWORDS)
    assert not (set(tokens) & application_exclusions(ApplicationKind.STORY))


_WORDS = (
    "the is a children values personal interest story school home hospital "
    "dishes cooking Hindu Muslim married woman man chores"
).split()
_phrase = st.one_of(
    _text_strategy, st.lists(st.sampled_from(_WORDS), max_size=30).map(" ".join)
)


def _per_token_preprocess(text, kind, lemmatize, stopwords, prompt_text):
    """The formulation ``preprocess`` replaced: every token lemmatized, every
    lemma checked against each exclusion set in turn."""
    excluded = set(application_exclusions(kind))
    if prompt_text:
        excluded |= frozenset(lemmatize(tok) for tok in tokenize(prompt_text))
    return [
        lemma
        for lemma in (lemmatize(tok) for tok in tokenize(text))
        if lemma not in stopwords and lemma not in excluded
    ]


@given(
    text=_phrase,
    prompt=st.one_of(st.none(), _phrase),
    kind=st.sampled_from(ApplicationKind),
    table=st.dictionaries(
        st.sampled_from(_WORDS).map(str.lower), st.sampled_from(_WORDS).map(str.lower)
    ),
    stopwords=st.one_of(
        st.just(STOPWORDS), st.frozensets(st.sampled_from(_WORDS).map(str.lower))
    ),
)
@settings(max_examples=300, deadline=None)
def test_preprocess_equals_the_per_token_formulation(text, prompt, kind, table, stopwords):
    def lemmatize(token):  # pure: a fixed table over the rule lemmatizer
        return table.get(token, rule_lemmatize(token))

    assert preprocess(
        text, kind, lemmatizer=lemmatize, stopwords=stopwords, prompt_text=prompt
    ) == _per_token_preprocess(text, kind, lemmatize, stopwords, prompt)
