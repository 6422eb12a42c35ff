import io
import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslex.identities import (
    Children,
    Gender,
    Identity,
    MaritalStatus,
    Religion,
    enumerate_identities,
)
from biaslex.lexicon import (
    BiasLexicon,
    BiasTerm,
    DuplicateEntryError,
    EmptySelectorError,
    IdentitySelector,
    ParseError,
    Provenance,
    ProviderFailureError,
    TableSimilarityOracle,
    TableSynonymProvider,
    expand_lexicon,
    load_lexicon,
    load_seed_lexicon,
    save_lexicon,
    seed_lexicon_path,
)

HEADER = "lemma,religions,genders,marital_statuses,children,provenance,source_note"

MUSLIM_SINGLE_MAN = Identity(
    Religion.MUSLIM, Gender.MALE, MaritalStatus.SINGLE, Children.NO_CHILDREN
)


def lexicon_from(text: str) -> BiasLexicon:
    return load_lexicon(io.StringIO(text))


def test_load_single_row():
    lexicon = lexicon_from(f"{HEADER}\nviolent,muslim,,,,literature,\n")
    assert len(lexicon) == 1
    entry = lexicon.entries[0]
    assert entry.lemma == "violent"
    assert entry.selector.religions == frozenset({Religion.MUSLIM})
    assert entry.provenance is Provenance.LITERATURE


def test_load_empty_file():
    assert len(lexicon_from("")) == 0


def test_load_from_byte_stream():
    data = f"{HEADER}\nviolent,muslim,,,,literature,\n".encode("utf-8")
    assert len(load_lexicon(io.BytesIO(data))) == 1


def test_load_duplicate_entry():
    text = (
        f"{HEADER}\n"
        "violent,muslim,,,,literature,\n"
        "violent,muslim,,,,manual_synonym,\n"
    )
    with pytest.raises(DuplicateEntryError):
        lexicon_from(text)


def test_load_rejects_all_wildcard_selector():
    with pytest.raises(EmptySelectorError):
        lexicon_from(f"{HEADER}\nviolent,,,,,literature,\n")


def test_load_rejects_bad_header():
    with pytest.raises(ParseError):
        lexicon_from("lemma,provenance\nviolent,literature\n")


def test_load_rejects_multi_token_lemma():
    with pytest.raises(ParseError):
        lexicon_from(f"{HEADER}\nvery violent,muslim,,,,literature,\n")


def test_load_rejects_unknown_selector_value():
    with pytest.raises(ParseError):
        lexicon_from(f"{HEADER}\nviolent,sikh,,,,literature,\n")


def test_load_rejects_unknown_provenance():
    with pytest.raises(ParseError):
        lexicon_from(f"{HEADER}\nviolent,muslim,,,,folklore,\n")


def test_load_normalizes_lemma_case():
    lexicon = lexicon_from(f"{HEADER}\nViolent,muslim,,,,literature,\n")
    assert lexicon.entries[0].lemma == "violent"


def test_matches_single_field():
    selector = IdentitySelector(religions=frozenset({Religion.MUSLIM}))
    assert selector.matches(MUSLIM_SINGLE_MAN)


def test_matches_multi_field():
    selector = IdentitySelector(
        genders=frozenset({Gender.FEMALE}),
        marital_statuses=frozenset({MaritalStatus.DIVORCED}),
        children=frozenset({Children.ONE_CHILD, Children.MANY_CHILDREN}),
    )
    hit = Identity(
        Religion.HINDU, Gender.FEMALE, MaritalStatus.DIVORCED, Children.ONE_CHILD
    )
    miss = Identity(
        Religion.HINDU, Gender.FEMALE, MaritalStatus.DIVORCED, Children.NO_CHILDREN
    )
    assert selector.matches(hit)
    assert not selector.matches(miss)


_identity_strategy = st.sampled_from(enumerate_identities())


@st.composite
def _selector_strategy(draw):
    religions = draw(st.one_of(st.none(), st.sets(st.sampled_from(Religion), min_size=1)))
    genders = draw(st.one_of(st.none(), st.sets(st.sampled_from(Gender), min_size=1)))
    maritals = draw(
        st.one_of(st.none(), st.sets(st.sampled_from(MaritalStatus), min_size=1))
    )
    children = draw(st.one_of(st.none(), st.sets(st.sampled_from(Children), min_size=1)))
    if religions is None and genders is None and maritals is None and children is None:
        religions = {draw(st.sampled_from(Religion))}
    return IdentitySelector(
        religions=frozenset(religions) if religions else None,
        genders=frozenset(genders) if genders else None,
        marital_statuses=frozenset(maritals) if maritals else None,
        children=frozenset(children) if children else None,
    )


@given(selector=_selector_strategy(), identity=_identity_strategy)
@settings(max_examples=300, deadline=None)
def test_matches_is_monotone_under_constraint_removal(selector, identity):
    """Dropping any constrained field never turns a match into a miss."""
    relaxations = [
        IdentitySelector(None, selector.genders, selector.marital_statuses, selector.children),
        IdentitySelector(selector.religions, None, selector.marital_statuses, selector.children),
        IdentitySelector(selector.religions, selector.genders, None, selector.children),
        IdentitySelector(selector.religions, selector.genders, selector.marital_statuses, None),
    ]
    if selector.matches(identity):
        for relaxed in relaxations:
            if relaxed.is_valid():
                assert relaxed.matches(identity)


def test_applicable_terms_deduplicates_across_selectors():
    lexicon = BiasLexicon(
        [
            BiasTerm(
                "lonely",
                IdentitySelector(marital_statuses=frozenset({MaritalStatus.SINGLE})),
                Provenance.LITERATURE,
            ),
            BiasTerm(
                "lonely",
                IdentitySelector(religions=frozenset({Religion.MUSLIM})),
                Provenance.LITERATURE,
            ),
        ]
    )
    terms = lexicon.applicable_terms(MUSLIM_SINGLE_MAN)
    assert terms == frozenset({"lonely"})


def test_applicable_terms_empty_lexicon():
    assert BiasLexicon([]).applicable_terms(MUSLIM_SINGLE_MAN) == frozenset()


def test_seed_lexicon_applicable_terms(seed_lexicon):
    terms = seed_lexicon.applicable_terms(MUSLIM_SINGLE_MAN)
    assert "violent" in terms
    assert "lonely" in terms


def test_applicable_terms_equals_a_fresh_scan_for_every_identity(seed_lexicon):
    for identity in enumerate_identities():
        scan = frozenset(
            e.lemma for e in seed_lexicon if e.selector.matches(identity)
        )
        assert seed_lexicon.applicable_terms(identity) == scan
        assert seed_lexicon.applicable_terms(identity) == scan
    assert len(enumerate_identities()) == 48


def test_seed_lexicon_counts(seed_lexicon):
    assert len(seed_lexicon) == 342
    literature = [
        e for e in seed_lexicon if e.provenance is Provenance.LITERATURE
    ]
    assert len(literature) == 301


def test_seed_lexicon_validates_cleanly(seed_lexicon):
    for entry in seed_lexicon:
        lemma = entry.lemma
        assert lemma == unicodedata.normalize("NFC", lemma).lower()
        assert lemma.split() == [lemma]
        selector = entry.selector
        constrained = [
            values
            for values in (
                selector.religions,
                selector.genders,
                selector.marital_statuses,
                selector.children,
            )
            if values is not None
        ]
        assert constrained and all(constrained)
        if entry.provenance is Provenance.AUTO_SYNONYM:
            assert entry.source_note


def test_seed_lexicon_splits_child_count_pairs(seed_lexicon):
    """Categories naming a one-child / many-children pair ship one entry
    per child count."""
    vulnerable = {
        e.selector.children
        for e in seed_lexicon
        if e.lemma == "vulnerable"
        and e.selector.marital_statuses == frozenset({MaritalStatus.DIVORCED})
    }
    assert vulnerable == {
        frozenset({Children.ONE_CHILD}),
        frozenset({Children.MANY_CHILDREN}),
    }


def test_seed_lexicon_keeps_superseded_literature_term(seed_lexicon):
    entries = {
        e.lemma: e for e in seed_lexicon
        if e.selector == IdentitySelector(religions=frozenset({Religion.MUSLIM}))
    }
    assert entries["orthodox"].provenance is Provenance.LITERATURE
    assert entries["traditional"].provenance is Provenance.MANUAL_SYNONYM


MUSLIM = IdentitySelector(religions=frozenset({Religion.MUSLIM}))


def test_bias_term_refuses_uppercase_lemma():
    with pytest.raises(ParseError):
        BiasTerm("Violent", MUSLIM, Provenance.LITERATURE)


def test_bias_term_refuses_wildcard_selector():
    with pytest.raises(EmptySelectorError):
        BiasTerm("violent", IdentitySelector(), Provenance.LITERATURE)


def test_bias_term_refuses_auto_synonym_without_seed():
    with pytest.raises(ParseError):
        BiasTerm("aggressive", MUSLIM, Provenance.AUTO_SYNONYM, source_note="")


@pytest.mark.parametrize(
    "lemma, religions, provenance, note, error",
    [
        ("Violent", "muslim", Provenance.LITERATURE, "", ParseError),
        ("very violent", "muslim", Provenance.LITERATURE, "", ParseError),
        ("", "muslim", Provenance.LITERATURE, "", ParseError),
        ("violent", "", Provenance.LITERATURE, "", EmptySelectorError),
        ("aggressive", "muslim", Provenance.AUTO_SYNONYM, "", ParseError),
    ],
    ids=["uppercase", "inner-space", "empty", "all-wildcard", "unrecorded-auto-synonym"],
)
def test_an_invalid_term_is_refused_in_python_and_as_a_csv_row(
    lemma, religions, provenance, note, error
):
    selector = IdentitySelector(
        religions=frozenset({Religion(religions)}) if religions else None
    )
    with pytest.raises(error):
        BiasTerm(lemma, selector, provenance, note)
    row = f"{lemma},{religions},,,,{provenance.value},{note}\n"
    if lemma != lemma.lower():
        # the loader lowercases a lemma (test_load_normalizes_lemma_case)
        assert lexicon_from(f"{HEADER}\n{row}").entries[0].lemma == lemma.lower()
        return
    with pytest.raises(error, match="^line 3: "):
        lexicon_from(f"{HEADER}\nhostile,muslim,,,,literature,\n{row}")


def test_expand_identity_case():
    lexicon = lexicon_from(f"{HEADER}\nviolent,muslim,,,,literature,\n")
    expanded = expand_lexicon(lexicon, lambda lemma: [], lambda a, b: 1.0)
    assert expanded.entries == lexicon.entries


def test_default_similarity_threshold():
    import inspect

    from biaslex.lexicon import DEFAULT_SIMILARITY_THRESHOLD

    assert DEFAULT_SIMILARITY_THRESHOLD == 0.5
    signature = inspect.signature(expand_lexicon)
    assert signature.parameters["threshold"].default == 0.5


def test_expand_adds_candidates_above_threshold():
    lexicon = lexicon_from(f"{HEADER}\nviolent,muslim,,,,literature,\n")
    provider = {"violent": ["fierce", "mild"]}.get
    oracle = lambda a, b: {"fierce": 0.9, "mild": 0.2}[b]
    expanded = expand_lexicon(lexicon, lambda l: provider(l) or [], oracle, 0.5)
    lemmas = expanded.lemmas()
    assert "fierce" in lemmas
    assert "mild" not in lemmas
    added = [e for e in expanded if e.provenance is Provenance.AUTO_SYNONYM]
    assert len(added) == 1
    assert added[0].source_note == "violent"


def test_expand_threshold_boundary_is_inclusive():
    lexicon = lexicon_from(f"{HEADER}\nviolent,muslim,,,,literature,\n")
    expanded = expand_lexicon(lexicon, lambda l: ["fierce"], lambda a, b: 0.5, 0.5)
    assert "fierce" in expanded.lemmas()


def test_expand_rejects_out_of_range_threshold():
    lexicon = BiasLexicon([])
    with pytest.raises(ValueError):
        expand_lexicon(lexicon, lambda l: [], lambda a, b: 0.0, 1.5)


def test_expand_propagates_provider_failure_with_seed():
    lexicon = lexicon_from(f"{HEADER}\nviolent,muslim,,,,literature,\n")

    def bad_provider(lemma):
        raise RuntimeError("no thesaurus")

    with pytest.raises(ProviderFailureError) as excinfo:
        expand_lexicon(lexicon, bad_provider, lambda a, b: 1.0)
    assert excinfo.value.seed == "violent"


def test_expand_seed_to_full_size(seed_lexicon):
    """Providers built to admit exactly 581 new pairs grow 342 -> 923.

    A provider sees only the lemma, so an admitted candidate adds one new
    pair per entry carrying that lemma; the construction picks per-lemma
    candidate counts whose multiplicity-weighted sum is exactly 581.
    """
    multiplicity: dict[str, int] = {}
    for entry in seed_lexicon:
        multiplicity[entry.lemma] = multiplicity.get(entry.lemma, 0) + 1

    target = 581
    # one admitted candidate per lemma, then the remainder as extra
    # candidates on a single-entry lemma so the total lands exactly
    candidates_per_lemma = {lemma: 1 for lemma in multiplicity}
    remaining = target - sum(multiplicity.values())
    assert remaining > 0
    anchor = sorted(l for l, k in multiplicity.items() if k == 1)[0]
    candidates_per_lemma[anchor] += remaining
    new_pairs = sum(
        candidates_per_lemma[lemma] * k for lemma, k in multiplicity.items()
    )
    assert new_pairs == 581

    admitted: dict[tuple[str, str], float] = {}
    synonym_table: dict[str, list[str]] = {}
    for lemma, wanted in candidates_per_lemma.items():
        names = [f"{lemma}syn{j}" for j in range(wanted)]
        for name in names:
            admitted[(lemma, name)] = 0.9
        # sub-threshold noise plus a self-duplicate that must be ignored
        admitted[(lemma, f"{lemma}oid")] = 0.1
        synonym_table[lemma] = names + [lemma, f"{lemma}oid"]

    expanded = expand_lexicon(
        seed_lexicon,
        lambda lemma: synonym_table.get(lemma, []),
        lambda a, b: admitted.get((a, b), 0.9 if a == b else 0.0),
        0.5,
    )
    assert len(expanded) == 923
    auto = [e for e in expanded if e.provenance is Provenance.AUTO_SYNONYM]
    assert len(auto) == 581


def test_expand_is_superset_and_replayable(seed_lexicon):
    provider = lambda lemma: [f"{lemma}x"]
    oracle = lambda a, b: 0.75 if b.endswith("x") else 0.0
    threshold = 0.5
    expanded = expand_lexicon(seed_lexicon, provider, oracle, threshold)
    assert set(seed_lexicon.entries) <= set(expanded.entries)
    for entry in expanded:
        if entry.provenance is Provenance.AUTO_SYNONYM:
            assert oracle(entry.source_note, entry.lemma) >= threshold
    for identity in enumerate_identities():
        assert seed_lexicon.applicable_terms(identity) <= expanded.applicable_terms(
            identity
        )


def test_save_load_round_trip(tmp_path, seed_lexicon):
    path = tmp_path / "lexicon.csv"
    save_lexicon(seed_lexicon, path)
    reloaded = load_lexicon(path)
    assert reloaded.entries == seed_lexicon.entries


def test_table_providers(tmp_path):
    synonyms = tmp_path / "synonyms.csv"
    synonyms.write_text("lemma,synonyms\nviolent,fierce|brutal\n", encoding="utf-8")
    similarity = tmp_path / "similarity.csv"
    similarity.write_text(
        "a,b,score\nviolent,fierce,0.8\nviolent,brutal,0.3\n", encoding="utf-8"
    )
    provider = TableSynonymProvider.from_csv(synonyms)
    oracle = TableSimilarityOracle.from_csv(similarity)
    assert provider("violent") == ("fierce", "brutal")
    assert provider("unknown") == ()
    assert oracle("violent", "fierce") == 0.8
    assert oracle("fierce", "violent") == 0.8  # symmetric
    assert oracle("violent", "unknown") == 0.0

    lexicon = lexicon_from(f"{HEADER}\nviolent,muslim,,,,literature,\n")
    expanded = expand_lexicon(lexicon, provider, oracle, 0.5)
    assert expanded.lemmas() == frozenset({"violent", "fierce"})


def _values(enum_type):
    return st.one_of(st.none(), st.frozensets(st.sampled_from(enum_type), min_size=1))


def _every_char(where):
    return "".join(c for c in map(chr, range(sys.maxunicode + 1)) if where(c))


# str.isspace: what str.split and str.strip act on
_NO_SPACE = st.text(
    st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters=_every_char(str.isspace),
    ),
    min_size=1,
)
# where str.splitlines breaks a line (all of them whitespace too)
_ONE_LINE = st.text(
    st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters=_every_char(lambda c: len(f"a{c}b".splitlines()) > 1),
    )
)


@st.composite
def _valid_terms(draw):
    """Terms BiasTerm accepts, built so: a one-token NFC lowercase lemma
    and a note of one unpadded line."""
    raw = draw(st.text(st.characters(blacklist_categories=("Cs", "Cc", "Z")), min_size=1))
    lemma = unicodedata.normalize("NFC", raw).lower()
    selector = draw(
        st.builds(
            IdentitySelector,
            _values(Religion),
            _values(Gender),
            _values(MaritalStatus),
            _values(Children),
        ).filter(IdentitySelector.is_valid)
    )
    provenance = draw(st.sampled_from(Provenance))
    required = provenance is Provenance.AUTO_SYNONYM
    note = draw(_ONE_LINE).strip()
    if required and not note:
        note = draw(_NO_SPACE)
    return BiasTerm(lemma, selector, provenance, note)


@given(entries=st.lists(_valid_terms(), max_size=8, unique_by=lambda t: t.key))
@settings(max_examples=200, deadline=None)
def test_save_then_load_gives_the_same_entries(tmp_path_factory, entries):
    path = tmp_path_factory.mktemp("round-trip") / "lexicon.csv"
    save_lexicon(BiasLexicon(entries), path)
    assert load_lexicon(path).entries == tuple(entries)


def test_seed_lexicon_saves_to_the_shipped_bytes(tmp_path):
    path = tmp_path / "lexicon.csv"
    save_lexicon(load_seed_lexicon(), path)
    assert path.read_bytes() == seed_lexicon_path().read_bytes()


@pytest.mark.parametrize(
    "rows, named",
    [
        ("violent,fierce,nan\n", "line 2: score 'nan'"),
        ("violent,fierce,inf\n", "line 2: score 'inf'"),
        ("violent,fierce,7\n", "line 2: score '7'"),
        ("violent,fierce,-0.1\n", "line 2: score '-0.1'"),
        ("violent,fierce,high\n", "line 2: score 'high'"),
        ("violent,fierce,0.8\nviolent,fierce,0.8\n", "line 3: pair"),
        ("violent,fierce,0.8\nfierce,violent,0.3\n", "line 3: pair"),
        (",fierce,0.9\n", "line 2: bad similarity row"),
        ("violent,,0.8\n", "line 2: bad similarity row"),
    ],
    ids=[
        "nan", "inf", "above-one", "negative", "word", "repeated", "reversed",
        "no-first-lemma", "no-second-lemma",
    ],
)
def test_similarity_table_refuses_what_it_would_misread(tmp_path, rows, named):
    path = tmp_path / "similarity.csv"
    path.write_text(f"a,b,score\n{rows}", encoding="utf-8")
    with pytest.raises(ParseError, match=named):
        TableSimilarityOracle.from_csv(path)


@pytest.mark.parametrize(
    "rows, named",
    [
        ("violent,fierce,brutal\n", "line 2: bad synonym row"),
        (",fierce\n", "line 2: bad synonym row"),
    ],
    ids=["three-cells", "no-lemma"],
)
def test_synonym_table_refuses_what_it_would_misread(tmp_path, rows, named):
    path = tmp_path / "synonyms.csv"
    path.write_text(f"lemma,synonyms\n{rows}", encoding="utf-8")
    with pytest.raises(ParseError, match=named):
        TableSynonymProvider.from_csv(path)


def test_synonym_table_refuses_a_repeated_lemma(tmp_path):
    path = tmp_path / "synonyms.csv"
    path.write_text(
        "lemma,synonyms\nviolent,aggressive\nViolent,brutal|fierce\n", encoding="utf-8"
    )
    with pytest.raises(ParseError, match="line 3: lemma 'violent'"):
        TableSynonymProvider.from_csv(path)
