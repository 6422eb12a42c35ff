import csv
import io
import random

import pytest

from biaslex.corpus import DocumentKey
from biaslex.identities import (
    ApplicationKind,
    Language,
    PromptMethod,
    enumerate_identities,
)
from biaslex.report import (
    BinClass,
    EmptyColumnError,
    ReportFormat,
    bin_column,
    build_report,
    render_table,
)
from biaslex.scoring import ScoreCell


def make_cell(identity, per_term, language=Language.HINDI,
              application=ApplicationKind.STORY, method=PromptMethod.ORIGINAL):
    key = DocumentKey(
        language=language, method=method, identity=identity, application=application
    )
    return ScoreCell.from_terms(key, per_term)


def test_bin_all_equal_values_are_mid():
    assert bin_column([2.0, 2.0, 2.0]) == [BinClass.MID, BinClass.MID, BinClass.MID]


def test_bin_outlier_high():
    # mean 10/3, population sigma ~4.714: only 10 clears mean + sigma
    assert bin_column([0.0, 0.0, 10.0]) == [BinClass.MID, BinClass.MID, BinClass.HIGH]


def test_bin_boundary_goes_extreme():
    # mean 2, sigma 1: boundaries land exactly on 1 and 3
    assert bin_column([1.0, 2.0, 2.0, 3.0]) == [
        BinClass.LOW,
        BinClass.MID,
        BinClass.MID,
        BinClass.HIGH,
    ]


def test_bin_preserves_absent_cells():
    classes = bin_column([None, 1.0, None, 1.0])
    assert classes == [None, BinClass.MID, None, BinClass.MID]


def test_bin_absent_cells_do_not_shift_others():
    values = [0.0, 0.0, 10.0]
    with_absent = [0.0, None, 0.0, 10.0, None]
    assert [c for c in bin_column(with_absent) if c is not None] == bin_column(values)


def test_bin_empty_column():
    with pytest.raises(EmptyColumnError):
        bin_column([])
    with pytest.raises(EmptyColumnError):
        bin_column([None, None])


def test_bin_invariant_under_positive_affine_maps():
    # n = 2 is excluded: with two values the boundaries coincide with the
    # values themselves, and float rounding of k*v + c can flip those exact
    # ties in either direction
    rng = random.Random(99)
    for _ in range(200):
        values = [rng.uniform(0, 10) for _ in range(rng.randint(3, 48))]
        k = rng.uniform(0.1, 10)
        c = rng.uniform(-5, 5)
        transformed = [k * v + c for v in values]
        assert bin_column(values) == bin_column(transformed)


def build_full_table(n_identities=48):
    rng = random.Random(4)
    identities = enumerate_identities()[:n_identities]
    cells = []
    overall = []
    for identity in identities:
        per_term = {"house": rng.uniform(0.001, 0.05), "happy": rng.uniform(0.001, 0.05)}
        cell = make_cell(identity, per_term)
        cells.append(cell)
        overall.append((cell.key, ("daily", rng.uniform(0.01, 0.4))))
    return build_report(
        cells, overall, Language.HINDI, ApplicationKind.STORY, PromptMethod.ORIGINAL
    )


def test_build_report_has_48_canonical_rows():
    table = build_full_table()
    assert len(table.rows) == 48
    assert [r.identity for r in table.rows] == enumerate_identities()


def test_build_report_missing_identity_renders_absent():
    table = build_full_table(n_identities=47)
    last = table.rows[-1]
    assert last.bias_score is None
    assert table.bias_score_bins[-1] is None
    rendered = render_table(table, ReportFormat.CSV)
    final_row = rendered.strip().splitlines()[-1]
    assert "N/A" in final_row


def test_build_report_pipes_top_bias_term_through():
    identity = enumerate_identities()[0]
    cell = make_cell(identity, {"house": 0.037, "family": 0.02})
    table = build_report(
        [cell], [], Language.HINDI, ApplicationKind.STORY, PromptMethod.ORIGINAL
    )
    assert table.rows[0].top_bias_term == "house"
    assert table.rows[0].top_bias_tfidf == pytest.approx(0.037)


def test_build_report_rejects_duplicate_cells():
    identity = enumerate_identities()[0]
    cell = make_cell(identity, {"house": 0.01})
    with pytest.raises(Exception):
        build_report(
            [cell, cell], [], Language.HINDI, ApplicationKind.STORY,
            PromptMethod.ORIGINAL,
        )


def test_build_report_filters_other_slices():
    identity = enumerate_identities()[0]
    cell = make_cell(identity, {"house": 0.01}, method=PromptMethod.SIMPLE_DEBIAS)
    table = build_report(
        [cell], [], Language.HINDI, ApplicationKind.STORY, PromptMethod.ORIGINAL
    )
    assert all(r.bias_score is None for r in table.rows)


def test_empty_score_row_renders_zero_and_na():
    identity = enumerate_identities()[0]
    cell = make_cell(identity, {})
    assert cell.bias_score == 0.0
    table = build_report(
        [cell], [], Language.HINDI, ApplicationKind.STORY, PromptMethod.ORIGINAL
    )
    rendered = render_table(table, ReportFormat.CSV)
    first_row = rendered.splitlines()[1]
    assert first_row.startswith("Hindu,Male,Married,No children,0.000,")
    assert ",N/A," in first_row


def test_render_is_deterministic():
    table = build_full_table()
    for fmt in ReportFormat:
        assert render_table(table, fmt) == render_table(table, fmt)


def test_markdown_row_starts_with_identity_labels():
    table = build_full_table()
    rendered = render_table(table, ReportFormat.MARKDOWN)
    lines = rendered.splitlines()
    assert lines[4].startswith("| Hindu | Male | Married | No children |")


def test_csv_has_bin_column_per_numeric_column():
    table = build_full_table()
    rendered = render_table(table, ReportFormat.CSV)
    header = rendered.splitlines()[0].split(",")
    assert "bias_score_bin" in header
    assert "top_bias_tfidf_bin" in header
    assert "top_overall_tfidf_bin" in header


def test_csv_reparses_to_3_decimal_values():
    table = build_full_table()
    rendered = render_table(table, ReportFormat.CSV)
    rows = list(csv.DictReader(io.StringIO(rendered)))
    assert len(rows) == 48
    for row, report_row in zip(rows, table.rows):
        assert float(row["bias_score"]) == pytest.approx(
            round(report_row.bias_score, 3), abs=5e-4
        )
        assert float(row["top_overall_tfidf"]) == pytest.approx(
            round(report_row.top_overall_tfidf, 3), abs=5e-4
        )


def test_html_encodes_bins_as_classes():
    table = build_full_table()
    rendered = render_table(table, ReportFormat.HTML)
    assert "bin-high" in rendered or "bin-mid" in rendered
    assert ".bin-high" in rendered and ".bin-mid" in rendered and ".bin-low" in rendered
    assert "class=\"bin-" in rendered
    # one coloured cell per present numeric value
    assert rendered.count("class=\"bin-") == 48 * 3
