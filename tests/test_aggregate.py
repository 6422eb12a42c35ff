import csv
import random

import pytest

import oracle
from biaslex.aggregate import SeriesAxis, series, write_averages_csv
from biaslex.corpus import DocumentKey
from biaslex.identities import (
    ApplicationKind,
    Children,
    Gender,
    Identity,
    Language,
    LanguageFamily,
    MaritalStatus,
    PromptMethod,
    Religion,
    enumerate_identities,
)
from biaslex.scoring import ScoreCell

MUSLIM_SINGLE_MAN = Identity(
    Religion.MUSLIM, Gender.MALE, MaritalStatus.SINGLE, Children.NO_CHILDREN
)
HINDU_SINGLE_FATHER = Identity(
    Religion.HINDU, Gender.MALE, MaritalStatus.SINGLE, Children.MANY_CHILDREN
)


def cell(identity, score, method=PromptMethod.ORIGINAL,
         application=ApplicationKind.TODO_LIST, language=Language.HINDI):
    key = DocumentKey(
        language=language, method=method, identity=identity, application=application
    )
    return ScoreCell.from_terms(key, {"term": score})


def worked_example_cells():
    return {
        PromptMethod.ORIGINAL: [
            cell(MUSLIM_SINGLE_MAN, 0.45),
            cell(HINDU_SINGLE_FATHER, 0.03),
        ],
        PromptMethod.SIMPLE_DEBIAS: [
            cell(MUSLIM_SINGLE_MAN, 0.005, method=PromptMethod.SIMPLE_DEBIAS),
            cell(HINDU_SINGLE_FATHER, 0.07, method=PromptMethod.SIMPLE_DEBIAS),
        ],
        PromptMethod.COMPLEX_DEBIAS: [
            cell(MUSLIM_SINGLE_MAN, 0.009, method=PromptMethod.COMPLEX_DEBIAS),
            cell(HINDU_SINGLE_FATHER, 0.01, method=PromptMethod.COMPLEX_DEBIAS),
        ],
    }


def test_method_averages_worked_examples():
    means = {}
    for method, cells in worked_example_cells().items():
        [row] = series(cells, SeriesAxis.METHOD_BY_FAMILY, ApplicationKind.TODO_LIST)
        assert row[:4] == (
            method, LanguageFamily.INDO_ARYAN, method, ApplicationKind.TODO_LIST
        )
        means[method], n = row[4:]
        assert n == 2
    assert means[PromptMethod.ORIGINAL] == pytest.approx(0.24, abs=1e-12)
    assert means[PromptMethod.SIMPLE_DEBIAS] == pytest.approx(0.0375, abs=1e-12)
    assert means[PromptMethod.COMPLEX_DEBIAS] == pytest.approx(0.0095, abs=1e-12)


def test_subdimension_averages_worked_examples():
    cells = worked_example_cells()[PromptMethod.ORIGINAL]
    expected = {
        (SeriesAxis.RELIGION_BY_FAMILY, Religion.MUSLIM): 0.45,
        (SeriesAxis.RELIGION_BY_FAMILY, Religion.HINDU): 0.03,
        (SeriesAxis.GENDER_BY_FAMILY, Gender.MALE): 0.24,
        (SeriesAxis.MARITAL_BY_FAMILY, MaritalStatus.SINGLE): 0.24,
        (SeriesAxis.CHILDREN_BY_FAMILY, Children.NO_CHILDREN): 0.45,
        (SeriesAxis.CHILDREN_BY_FAMILY, Children.MANY_CHILDREN): 0.03,
    }
    for (axis, sub), mean in expected.items():
        means = {
            row[0]: row[4] for row in series(cells, axis, ApplicationKind.TODO_LIST)
        }
        assert means[sub] == pytest.approx(mean, abs=1e-12)


def test_single_cell_average_is_its_score():
    cells = [cell(MUSLIM_SINGLE_MAN, 0.45)]
    assert series(cells, SeriesAxis.RELIGION_BY_FAMILY) == [
        (Religion.MUSLIM, LanguageFamily.INDO_ARYAN, PromptMethod.ORIGINAL, None, 0.45, 1)
    ]


def test_series_keeps_families_apart():
    cells = [
        cell(MUSLIM_SINGLE_MAN, 0.4, language=Language.HINDI),
        cell(MUSLIM_SINGLE_MAN, 0.2, language=Language.TAMIL),
    ]
    rows = series(cells, SeriesAxis.METHOD_BY_FAMILY)
    assert [(row[1], row[4], row[5]) for row in rows] == [
        (LanguageFamily.INDO_ARYAN, 0.4, 1),
        (LanguageFamily.DRAVIDIAN, 0.2, 1),
    ]


def test_series_gender_by_family():
    identities = {
        Gender.MALE: MUSLIM_SINGLE_MAN,
        Gender.FEMALE: Identity(
            Religion.HINDU, Gender.FEMALE, MaritalStatus.MARRIED, Children.ONE_CHILD
        ),
    }
    cells = [
        cell(identities[Gender.MALE], 0.1, language=Language.HINDI),
        cell(identities[Gender.FEMALE], 0.2, language=Language.HINDI),
        cell(identities[Gender.MALE], 0.3, language=Language.TAMIL),
        cell(identities[Gender.FEMALE], 0.4, language=Language.TAMIL),
    ]
    results = series(cells, SeriesAxis.GENDER_BY_FAMILY, ApplicationKind.TODO_LIST)
    assert [row[:3] for row in results] == [
        (Gender.MALE, LanguageFamily.INDO_ARYAN, PromptMethod.ORIGINAL),
        (Gender.MALE, LanguageFamily.DRAVIDIAN, PromptMethod.ORIGINAL),
        (Gender.FEMALE, LanguageFamily.INDO_ARYAN, PromptMethod.ORIGINAL),
        (Gender.FEMALE, LanguageFamily.DRAVIDIAN, PromptMethod.ORIGINAL),
    ]


def test_series_method_by_family_single_family():
    cells = [
        cell(MUSLIM_SINGLE_MAN, 0.45),
        cell(MUSLIM_SINGLE_MAN, 0.005, method=PromptMethod.SIMPLE_DEBIAS),
        cell(MUSLIM_SINGLE_MAN, 0.009, method=PromptMethod.COMPLEX_DEBIAS),
    ]
    results = series(cells, SeriesAxis.METHOD_BY_FAMILY, ApplicationKind.TODO_LIST)
    assert [row[0] for row in results] == list(PromptMethod)


# each axis: the identity field it reads (None: the method) and its values
_AXIS_FIELDS = {
    SeriesAxis.GENDER_BY_FAMILY: ("gender", Gender),
    SeriesAxis.RELIGION_BY_FAMILY: ("religion", Religion),
    SeriesAxis.MARITAL_BY_FAMILY: ("marital_status", MaritalStatus),
    SeriesAxis.CHILDREN_BY_FAMILY: ("children", Children),
    SeriesAxis.METHOD_BY_FAMILY: (None, PromptMethod),
}


def _oracle_series(cells, axis, application):
    """``series`` rebuilt from one brute-force mean per combination."""
    field, values = _AXIS_FIELDS[axis]
    rows = []
    for value in values:
        for family in LanguageFamily:
            for method in PromptMethod:
                if field is None and value is not method:
                    continue
                identity = {} if field is None else {field: value}
                mean, n = oracle.mean(cells, method, application, family, **identity)
                if n:
                    rows.append((value, family, method, application, mean, n))
    return rows


@pytest.mark.parametrize("application", [None, *ApplicationKind])
@pytest.mark.parametrize("axis", list(SeriesAxis))
def test_series_equals_the_oracle_per_combination(axis, application):
    rng = random.Random(5)
    dropped = (Gender.FEMALE, PromptMethod.SIMPLE_DEBIAS)
    cells = [
        cell(identity, rng.uniform(0, 1), method=method, application=kind,
             language=language)
        for language in (Language.HINDI, Language.TAMIL)
        for method in PromptMethod
        for identity in enumerate_identities()
        for kind in ApplicationKind
        # no Tamil and no female simple-debias cells, so some (value,
        # family, method) combinations are empty
        if not (language is Language.TAMIL and method is PromptMethod.SIMPLE_DEBIAS)
        and (identity.gender, method) != dropped
    ]
    rng.shuffle(cells)
    got = series(cells, axis, application)
    # exact: both take the correctly rounded sum of the same scores
    assert got == _oracle_series(cells, axis, application)
    present = {row[1:3] for row in got}
    assert (LanguageFamily.DRAVIDIAN, PromptMethod.SIMPLE_DEBIAS) not in present
    assert (LanguageFamily.INDO_ARYAN, PromptMethod.SIMPLE_DEBIAS) in present


def test_series_empty_cells():
    assert series([], SeriesAxis.GENDER_BY_FAMILY) == []


def test_overall_average_is_count_weighted_mean_of_subdimension_averages():
    rng = random.Random(13)
    cells = [
        cell(identity, rng.uniform(0, 1))
        for identity in enumerate_identities()
        for _ in range(rng.randint(1, 2))
    ]
    [(*_, overall, count)] = series(cells, SeriesAxis.METHOD_BY_FAMILY)
    for axis in SeriesAxis:
        rows = series(cells, axis)
        assert sum(n for *_, n in rows) == count
        weighted = sum(mean * n for *_, mean, n in rows)
        assert weighted / count == pytest.approx(overall, abs=1e-12)


def test_mean_reassembles_from_contributing_scores():
    rng = random.Random(21)
    cells = [
        cell(identity, rng.uniform(0, 2))
        for identity in enumerate_identities()
    ]
    [(*_, mean, n)] = series(cells, SeriesAxis.METHOD_BY_FAMILY)
    total = sum(c.bias_score for c in cells)
    assert n == len(cells)
    assert mean == pytest.approx(total / len(cells), abs=1e-12)


def test_averages_csv(tmp_path):
    cells = worked_example_cells()[PromptMethod.ORIGINAL]
    results = series(cells, SeriesAxis.RELIGION_BY_FAMILY, ApplicationKind.TODO_LIST)
    path = tmp_path / "averages.csv"
    count = write_averages_csv(results, path)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == count == 2
    assert rows[0] == {
        "axis_value": "hindu",
        "family": "indo_aryan",
        "method": "original",
        "application": "todo_list",
        "mean": "0.03",
        "n": "1",
    }
    assert rows[1]["axis_value"] == "muslim"
    assert float(rows[1]["mean"]) == pytest.approx(0.45)

    # a series without an application pools them all
    write_averages_csv(series(cells, SeriesAxis.RELIGION_BY_FAMILY), path)
    with open(path, newline="") as handle:
        assert {row["application"] for row in csv.DictReader(handle)} == {"all"}
