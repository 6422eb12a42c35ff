"""Per-identity report tables with mean +/- sigma colour binning.

Each numeric column is classified independently against the population
mean and standard deviation of its present values: at least one sigma
above the mean is High (red), at least one sigma below is Low (green),
everything else is Mid (yellow). Absent cells render as ``N/A`` and never
participate in a column's statistics.
"""
from __future__ import annotations

import csv
import enum
import html
import io
from dataclasses import dataclass
from statistics import fmean, pstdev
from typing import Sequence

from .identities import (
    ApplicationKind,
    Identity,
    Language,
    PromptMethod,
    enumerate_identities,
)
from .scoring import OverallRow, ScoreCell


class ReportError(Exception):
    pass


class EmptyColumnError(ReportError):
    """A column with no present values cannot be binned."""


class BinClass(enum.Enum):
    HIGH = "high"
    MID = "mid"
    LOW = "low"


def bin_column(values: Sequence[float | None]) -> list[BinClass | None]:
    """Classify each present value against the column's mean +/- sigma.

    Boundary values classify into the extreme class; a zero-sigma column is
    entirely Mid. Absent values stay absent.
    """
    present = [v for v in values if v is not None]
    if not present:
        raise EmptyColumnError("cannot bin a column with no present values")
    mean = fmean(present)
    sigma = pstdev(present)
    classes: list[BinClass | None] = []
    for value in values:
        if value is None:
            classes.append(None)
        elif sigma > 0.0 and value >= mean + sigma:
            classes.append(BinClass.HIGH)
        elif sigma > 0.0 and value <= mean - sigma:
            classes.append(BinClass.LOW)
        else:
            classes.append(BinClass.MID)
    return classes


@dataclass(frozen=True)
class ReportRow:
    identity: Identity
    bias_score: float | None = None
    top_bias_term: str | None = None
    top_bias_tfidf: float | None = None
    top_overall_term: str | None = None
    top_overall_tfidf: float | None = None


@dataclass(frozen=True)
class ReportTable:
    language: Language
    application: ApplicationKind
    method: PromptMethod
    rows: tuple[ReportRow, ...]
    bias_score_bins: tuple[BinClass | None, ...]
    top_bias_tfidf_bins: tuple[BinClass | None, ...]
    top_overall_tfidf_bins: tuple[BinClass | None, ...]

    @property
    def title(self) -> str:
        return f"{self.language.label} / {self.application.value} / {self.method.value}"


def _bin_or_absent(values: list[float | None]) -> tuple[BinClass | None, ...]:
    if all(v is None for v in values):
        return tuple(None for _ in values)
    return tuple(bin_column(values))


def build_report(
    scores: Sequence[ScoreCell],
    overall: Sequence[OverallRow],
    language: Language,
    application: ApplicationKind,
    method: PromptMethod,
) -> ReportTable:
    """Assemble the 48-row table for one (language, application, method).

    Inputs are filtered to the requested slice; identities with no data
    get absent cells. Supplying two cells for one identity is an error.
    """
    score_by_identity: dict[Identity, ScoreCell] = {}
    overall_by_identity: dict[Identity, tuple[str, float] | None] = {}
    for what, by_identity, keyed in (
        ("score cell", score_by_identity, ((cell.key, cell) for cell in scores)),
        ("overall row", overall_by_identity, overall),
    ):
        for key, value in keyed:
            if (
                key.language is language
                and key.application is application
                and key.method is method
            ):
                if key.identity in by_identity:
                    raise ReportError(f"duplicate {what} for {key.identity}")
                by_identity[key.identity] = value

    rows = []
    for identity in enumerate_identities():
        cell = score_by_identity.get(identity)
        top_overall = overall_by_identity.get(identity)
        rows.append(
            ReportRow(
                identity=identity,
                bias_score=cell.bias_score if cell else None,
                top_bias_term=cell.top_term[0] if cell and cell.top_term else None,
                top_bias_tfidf=cell.top_term[1] if cell and cell.top_term else None,
                top_overall_term=top_overall[0] if top_overall else None,
                top_overall_tfidf=top_overall[1] if top_overall else None,
            )
        )

    return ReportTable(
        language=language,
        application=application,
        method=method,
        rows=tuple(rows),
        bias_score_bins=_bin_or_absent([r.bias_score for r in rows]),
        top_bias_tfidf_bins=_bin_or_absent([r.top_bias_tfidf for r in rows]),
        top_overall_tfidf_bins=_bin_or_absent([r.top_overall_tfidf for r in rows]),
    )


class ReportFormat(enum.Enum):
    CSV = "csv"
    MARKDOWN = "md"
    HTML = "html"


def _fmt_number(value: float | None) -> str:
    return "N/A" if value is None else f"{value:.3f}"


def _fmt_term(term: str | None) -> str:
    return term if term else "N/A"


def _fmt_bin(bin_class: BinClass | None) -> str:
    return bin_class.value if bin_class else ""


# the identity, then the bias score and top bias term, then the top overall term
_COLUMNS = [
    "religion", "gender", "marital_status", "children",
    "bias_score", "bias_score_bin",
    "top_bias_term", "top_bias_tfidf", "top_bias_tfidf_bin",
    "top_overall_term", "top_overall_tfidf", "top_overall_tfidf_bin",
]


def _row_values(table: ReportTable, index: int) -> list[str]:
    row = table.rows[index]
    return [
        row.identity.religion.label,
        row.identity.gender.label,
        row.identity.marital_status.label,
        row.identity.children.label,
        _fmt_number(row.bias_score),
        _fmt_bin(table.bias_score_bins[index]),
        _fmt_term(row.top_bias_term),
        _fmt_number(row.top_bias_tfidf),
        _fmt_bin(table.top_bias_tfidf_bins[index]),
        _fmt_term(row.top_overall_term),
        _fmt_number(row.top_overall_tfidf),
        _fmt_bin(table.top_overall_tfidf_bins[index]),
    ]


def _render_csv(table: ReportTable) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for index in range(len(table.rows)):
        writer.writerow(_row_values(table, index))
    return buffer.getvalue()


def _render_markdown(table: ReportTable) -> str:
    lines = [
        f"# {table.title}",
        "",
        "| " + " | ".join(_COLUMNS) + " |",
        "| " + " | ".join("---" for _ in _COLUMNS) + " |",
    ]
    for index in range(len(table.rows)):
        lines.append("| " + " | ".join(_row_values(table, index)) + " |")
    lines.append("")
    return "\n".join(lines)


_HTML_STYLE = (
    ".bin-high { background-color: #e06666; }\n"  # red
    ".bin-mid { background-color: #ffd966; }\n"  # yellow
    ".bin-low { background-color: #93c47d; }\n"  # green
    "table { border-collapse: collapse; }\n"
    "th, td { border: 1px solid #999; padding: 2px 6px; }\n"
)


def _render_html(table: ReportTable) -> str:
    # bins become td classes, so the _bin columns have no cells of their own
    columns = [c for c in _COLUMNS if not c.endswith("_bin")]
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset=\"utf-8\">",
        f"<title>{html.escape(table.title)}</title>",
        f"<style>\n{_HTML_STYLE}</style>",
        "</head><body>",
        f"<h1>{html.escape(table.title)}</h1>",
        "<table>",
        "<tr>" + "".join(f"<th>{html.escape(c)}</th>" for c in columns) + "</tr>",
    ]
    for index in range(len(table.rows)):
        cells = []  # [class attribute, escaped text]
        for column, value in zip(_COLUMNS, _row_values(table, index)):
            if not column.endswith("_bin"):
                cells.append(["", html.escape(value)])
            elif value:  # each _bin column follows the column it classes
                cells[-1][0] = f" class=\"bin-{value}\""
        parts.append(
            "<tr>" + "".join(f"<td{css}>{text}</td>" for css, text in cells) + "</tr>"
        )
    parts += ["</table>", "</body></html>", ""]
    return "\n".join(parts)


def render_table(table: ReportTable, fmt: ReportFormat) -> str:
    """Deterministic rendering; identical tables give identical bytes."""
    if fmt is ReportFormat.CSV:
        return _render_csv(table)
    if fmt is ReportFormat.MARKDOWN:
        return _render_markdown(table)
    return _render_html(table)
