import csv
import random

import pytest

from biaslex.aggregate import (
    AverageQuery,
    Dimension,
    NoMatchingCellsError,
    SeriesAxis,
    average,
    axis_value_of,
    series,
    subdimension_value,
    write_averages_csv,
)
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
    cells = worked_example_cells()
    base = dict(application=ApplicationKind.TODO_LIST, family=LanguageFamily.INDO_ARYAN)
    original = average(
        cells[PromptMethod.ORIGINAL], AverageQuery(method=PromptMethod.ORIGINAL, **base)
    )
    simple = average(
        cells[PromptMethod.SIMPLE_DEBIAS],
        AverageQuery(method=PromptMethod.SIMPLE_DEBIAS, **base),
    )
    complex_ = average(
        cells[PromptMethod.COMPLEX_DEBIAS],
        AverageQuery(method=PromptMethod.COMPLEX_DEBIAS, **base),
    )
    assert original.mean == pytest.approx(0.24, abs=1e-12)
    assert simple.mean == pytest.approx(0.0375, abs=1e-12)
    assert complex_.mean == pytest.approx(0.0095, abs=1e-12)
    assert (original.n, simple.n, complex_.n) == (2, 2, 2)


def test_subdimension_averages_worked_examples():
    cells = worked_example_cells()[PromptMethod.ORIGINAL]
    expected = {
        (Dimension.RELIGION, Religion.MUSLIM): 0.45,
        (Dimension.RELIGION, Religion.HINDU): 0.03,
        (Dimension.GENDER, Gender.MALE): 0.24,
        (Dimension.MARITAL_STATUS, MaritalStatus.SINGLE): 0.24,
        (Dimension.CHILDREN, Children.NO_CHILDREN): 0.45,
        (Dimension.CHILDREN, Children.MANY_CHILDREN): 0.03,
    }
    for (dimension, sub), mean in expected.items():
        result = average(
            cells,
            AverageQuery(
                method=PromptMethod.ORIGINAL,
                application=ApplicationKind.TODO_LIST,
                family=LanguageFamily.INDO_ARYAN,
                dimension=dimension,
                subdimension=sub,
            ),
        )
        assert result.mean == pytest.approx(mean, abs=1e-12)


def test_single_cell_average_is_its_score():
    cells = [cell(MUSLIM_SINGLE_MAN, 0.45)]
    result = average(
        cells,
        AverageQuery(
            method=PromptMethod.ORIGINAL,
            dimension=Dimension.RELIGION,
            subdimension=Religion.MUSLIM,
        ),
    )
    assert result.mean == 0.45
    assert result.n == 1


def test_empty_slice_raises():
    cells = [cell(MUSLIM_SINGLE_MAN, 0.45)]
    with pytest.raises(NoMatchingCellsError):
        average(
            cells,
            AverageQuery(
                method=PromptMethod.ORIGINAL,
                dimension=Dimension.RELIGION,
                subdimension=Religion.HINDU,
            ),
        )
    with pytest.raises(NoMatchingCellsError):
        average(
            cells, AverageQuery(method=PromptMethod.COMPLEX_DEBIAS)
        )


def test_query_validation():
    with pytest.raises(ValueError):
        AverageQuery(method=PromptMethod.ORIGINAL, dimension=Dimension.GENDER)
    with pytest.raises(ValueError):
        AverageQuery(
            method=PromptMethod.ORIGINAL,
            dimension=Dimension.GENDER,
            subdimension=Religion.HINDU,
        )


def test_family_pooling():
    cells = [
        cell(MUSLIM_SINGLE_MAN, 0.4, language=Language.HINDI),
        cell(MUSLIM_SINGLE_MAN, 0.2, language=Language.TAMIL),
    ]
    both = average(cells, AverageQuery(method=PromptMethod.ORIGINAL))
    indo = average(
        cells,
        AverageQuery(method=PromptMethod.ORIGINAL, family=LanguageFamily.INDO_ARYAN),
    )
    assert both.mean == pytest.approx(0.3, abs=1e-12)
    assert both.n == 2
    assert indo.mean == pytest.approx(0.4, abs=1e-12)


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
    assert len(results) == 4
    labels = [
        (axis_value_of(r), r.query.family, r.query.method) for r in results
    ]
    assert labels == [
        ("male", LanguageFamily.INDO_ARYAN, PromptMethod.ORIGINAL),
        ("male", LanguageFamily.DRAVIDIAN, PromptMethod.ORIGINAL),
        ("female", LanguageFamily.INDO_ARYAN, PromptMethod.ORIGINAL),
        ("female", LanguageFamily.DRAVIDIAN, PromptMethod.ORIGINAL),
    ]


def test_series_method_by_family_single_family():
    cells = [
        cell(MUSLIM_SINGLE_MAN, 0.45),
        cell(MUSLIM_SINGLE_MAN, 0.005, method=PromptMethod.SIMPLE_DEBIAS),
        cell(MUSLIM_SINGLE_MAN, 0.009, method=PromptMethod.COMPLEX_DEBIAS),
    ]
    results = series(cells, SeriesAxis.METHOD_BY_FAMILY, ApplicationKind.TODO_LIST)
    assert len(results) == 3
    assert [axis_value_of(r) for r in results] == ["original", "simple", "complex"]


def _per_query_series(cells, axis, application):
    """``series`` rebuilt from one ``AverageQuery`` per combination."""
    dimension = {
        SeriesAxis.GENDER_BY_FAMILY: Dimension.GENDER,
        SeriesAxis.RELIGION_BY_FAMILY: Dimension.RELIGION,
        SeriesAxis.MARITAL_BY_FAMILY: Dimension.MARITAL_STATUS,
        SeriesAxis.CHILDREN_BY_FAMILY: Dimension.CHILDREN,
    }.get(axis)
    if dimension is None:
        queries = [
            AverageQuery(method=method, application=application, family=family)
            for method in PromptMethod
            for family in LanguageFamily
        ]
    else:
        values = {
            Dimension.GENDER: Gender,
            Dimension.RELIGION: Religion,
            Dimension.MARITAL_STATUS: MaritalStatus,
            Dimension.CHILDREN: Children,
        }[dimension]
        queries = [
            AverageQuery(
                method=method,
                application=application,
                family=family,
                dimension=dimension,
                subdimension=value,
            )
            for value in values
            for family in LanguageFamily
            for method in PromptMethod
        ]
    results = []
    for query in queries:
        try:
            results.append(average(cells, query))
        except NoMatchingCellsError:
            continue
    return results


@pytest.mark.parametrize("application", [None, *ApplicationKind])
@pytest.mark.parametrize("axis", list(SeriesAxis))
def test_series_equals_one_query_per_combination(axis, application):
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
    # exact: both sum the same scores in the same order
    assert got == _per_query_series(cells, axis, application)
    present = {(r.query.family, r.query.method) for r in got}
    assert (LanguageFamily.DRAVIDIAN, PromptMethod.SIMPLE_DEBIAS) not in present
    assert (LanguageFamily.INDO_ARYAN, PromptMethod.SIMPLE_DEBIAS) in present


def test_series_empty_cells():
    assert series([], SeriesAxis.GENDER_BY_FAMILY) == []


def test_overall_average_is_count_weighted_mean_of_subdimension_averages():
    rng = random.Random(13)
    identities = enumerate_identities()
    cells = [
        cell(identity, rng.uniform(0, 1))
        for identity in identities
        for _ in range(rng.randint(1, 2))
    ]
    query = AverageQuery(method=PromptMethod.ORIGINAL)
    overall = average(cells, query)
    for dimension in Dimension:
        weighted = 0.0
        total = 0
        for value in {subdimension_value(i, dimension) for i in identities}:
            sub = average(
                cells,
                AverageQuery(
                    method=PromptMethod.ORIGINAL,
                    dimension=dimension,
                    subdimension=value,
                ),
            )
            weighted += sub.mean * sub.n
            total += sub.n
        assert total == overall.n
        assert weighted / total == pytest.approx(overall.mean, abs=1e-12)


def test_mean_reassembles_from_contributing_scores():
    rng = random.Random(21)
    cells = [
        cell(identity, rng.uniform(0, 2))
        for identity in enumerate_identities()
    ]
    result = average(cells, AverageQuery(method=PromptMethod.ORIGINAL))
    total = sum(c.bias_score for c in cells)
    assert result.n == len(cells)
    assert result.mean == pytest.approx(total / len(cells), abs=1e-12)


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
