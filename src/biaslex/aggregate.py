"""Averaged bias scores by identity sub-dimension, method, and family.

Every contributing document weighs equally in a mean: averages are plain
arithmetic means over the bias scores of the matching cells.
"""
from __future__ import annotations

import csv
import enum
from pathlib import Path
from statistics import fmean
from typing import Iterable, Sequence

from .artifacts import atomic_open
from .identities import (
    ApplicationKind,
    Children,
    Gender,
    LanguageFamily,
    MaritalStatus,
    PromptMethod,
    Religion,
)
from .scoring import ScoreCell

# a row of an averages file: axis value, family, method, application
# (``None`` pools every application), mean, and the number of cells averaged
AverageRow = tuple[
    enum.Enum, LanguageFamily, PromptMethod, ApplicationKind | None, float, int
]


class SeriesAxis(enum.Enum):
    GENDER_BY_FAMILY = "gender_by_family"
    RELIGION_BY_FAMILY = "religion_by_family"
    MARITAL_BY_FAMILY = "marital_by_family"
    CHILDREN_BY_FAMILY = "children_by_family"
    METHOD_BY_FAMILY = "method_by_family"


# each axis: the Identity field it reads (``None``: the method) and the
# enum whose declaration order orders its values
_AXES = {
    SeriesAxis.GENDER_BY_FAMILY: ("gender", Gender),
    SeriesAxis.RELIGION_BY_FAMILY: ("religion", Religion),
    SeriesAxis.MARITAL_BY_FAMILY: ("marital_status", MaritalStatus),
    SeriesAxis.CHILDREN_BY_FAMILY: ("children", Children),
    SeriesAxis.METHOD_BY_FAMILY: (None, PromptMethod),
}


def series(
    cells: Sequence[ScoreCell],
    axis: SeriesAxis,
    application: ApplicationKind | None = None,
) -> list[AverageRow]:
    """One mean per (axis value, family, method) combination present.

    Rows are ordered by axis value, then family, then method, each in
    canonical declaration order; empty combinations are omitted.
    """
    field, values = _AXES[axis]
    groups: dict[tuple, list[float]] = {}
    for cell in cells:
        key = cell.key
        if application is not None and key.application is not application:
            continue
        value = key.method if field is None else getattr(key.identity, field)
        groups.setdefault((value, key.language.family, key.method), []).append(
            cell.bias_score
        )
    return [
        (value, family, method, application, fmean(scores), len(scores))
        for value in values
        for family in LanguageFamily
        for method in PromptMethod
        if (scores := groups.get((value, family, method)))
    ]


def write_averages_csv(rows: Iterable[AverageRow], path: str | Path) -> int:
    count = 0
    with atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["axis_value", "family", "method", "application", "mean", "n"])
        for value, family, method, application, mean, n in rows:
            writer.writerow(
                [
                    value.value,
                    family.value,
                    method.value,
                    application.value if application else "all",
                    repr(mean),
                    n,
                ]
            )
            count += 1
    return count
