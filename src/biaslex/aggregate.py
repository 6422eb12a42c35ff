"""Averaged bias scores by identity sub-dimension, method, and family.

Every contributing document weighs equally in a mean: averages are plain
arithmetic means over the bias scores of the matching cells.
"""
from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from typing import Iterable, Sequence

from .artifacts import atomic_open
from .identities import (
    ApplicationKind,
    Children,
    Gender,
    Identity,
    LanguageFamily,
    MaritalStatus,
    PromptMethod,
    Religion,
)
from .scoring import ScoreCell


class NoMatchingCellsError(Exception):
    """An average was requested over an empty slice."""


class Dimension(enum.Enum):
    RELIGION = "religion"
    GENDER = "gender"
    MARITAL_STATUS = "marital_status"
    CHILDREN = "children"


_DIMENSION_ENUMS = {
    Dimension.RELIGION: Religion,
    Dimension.GENDER: Gender,
    Dimension.MARITAL_STATUS: MaritalStatus,
    Dimension.CHILDREN: Children,
}


def subdimension_value(identity: Identity, dimension: Dimension):
    return getattr(identity, dimension.value)


@dataclass(frozen=True)
class AverageQuery:
    """One slice of the score cells.

    ``application=None`` pools all applications and ``family=None`` pools
    both language families. ``dimension`` and ``subdimension`` must be
    given together or not at all.
    """

    method: PromptMethod
    application: ApplicationKind | None = None
    family: LanguageFamily | None = None
    dimension: Dimension | None = None
    subdimension: Religion | Gender | MaritalStatus | Children | None = None

    def __post_init__(self) -> None:
        if (self.dimension is None) != (self.subdimension is None):
            raise ValueError("dimension and subdimension must be given together")
        if self.dimension is not None and not isinstance(
            self.subdimension, _DIMENSION_ENUMS[self.dimension]
        ):
            raise ValueError(
                f"subdimension {self.subdimension!r} does not belong to "
                f"dimension {self.dimension.value!r}"
            )

    def matches(self, cell: ScoreCell) -> bool:
        key = cell.key
        if key.method is not self.method:
            return False
        if self.application is not None and key.application is not self.application:
            return False
        if self.family is not None and key.language.family is not self.family:
            return False
        if self.dimension is not None:
            return subdimension_value(key.identity, self.dimension) is self.subdimension
        return True


@dataclass(frozen=True)
class AverageResult:
    query: AverageQuery
    mean: float
    n: int


def average(cells: Iterable[ScoreCell], query: AverageQuery) -> AverageResult:
    """Mean bias score over the cells ``query`` matches, one query at a time."""
    matched = [cell.bias_score for cell in cells if query.matches(cell)]
    if not matched:
        raise NoMatchingCellsError(f"no cells match {query}")
    return AverageResult(query=query, mean=fmean(matched), n=len(matched))


class SeriesAxis(enum.Enum):
    GENDER_BY_FAMILY = "gender_by_family"
    RELIGION_BY_FAMILY = "religion_by_family"
    MARITAL_BY_FAMILY = "marital_by_family"
    CHILDREN_BY_FAMILY = "children_by_family"
    METHOD_BY_FAMILY = "method_by_family"


_AXIS_DIMENSIONS = {
    SeriesAxis.GENDER_BY_FAMILY: Dimension.GENDER,
    SeriesAxis.RELIGION_BY_FAMILY: Dimension.RELIGION,
    SeriesAxis.MARITAL_BY_FAMILY: Dimension.MARITAL_STATUS,
    SeriesAxis.CHILDREN_BY_FAMILY: Dimension.CHILDREN,
}


def series(
    cells: Sequence[ScoreCell],
    axis: SeriesAxis,
    application: ApplicationKind | None = None,
) -> list[AverageResult]:
    """One mean per (axis value, family, method) combination present.

    Results are ordered by axis value, then family, then method, each in
    canonical declaration order; empty combinations are omitted.
    """
    dimension = _AXIS_DIMENSIONS.get(axis)
    groups: dict[tuple, list[float]] = {}
    for cell in cells:
        key = cell.key
        if application is not None and key.application is not application:
            continue
        value = (
            key.method
            if dimension is None
            else subdimension_value(key.identity, dimension)
        )
        groups.setdefault((value, key.language.family, key.method), []).append(
            cell.bias_score
        )

    values = PromptMethod if dimension is None else _DIMENSION_ENUMS[dimension]
    results: list[AverageResult] = []
    for value in values:
        for family in LanguageFamily:
            for method in PromptMethod:
                scores = groups.get((value, family, method))
                if not scores:
                    continue
                query = AverageQuery(
                    method=method,
                    application=application,
                    family=family,
                    dimension=dimension,
                    subdimension=None if dimension is None else value,
                )
                results.append(
                    AverageResult(query=query, mean=fmean(scores), n=len(scores))
                )
    return results


def axis_value_of(result: AverageResult) -> str:
    query = result.query
    if query.subdimension is not None:
        return query.subdimension.value
    return query.method.value


def write_averages_csv(results: Iterable[AverageResult], path: str | Path) -> int:
    count = 0
    with atomic_open(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["axis_value", "family", "method", "application", "mean", "n"])
        for result in results:
            query = result.query
            writer.writerow(
                [
                    axis_value_of(result),
                    query.family.value if query.family else "both",
                    query.method.value,
                    query.application.value if query.application else "all",
                    repr(result.mean),
                    result.n,
                ]
            )
            count += 1
    return count
