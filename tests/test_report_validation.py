"""Validation report: error semantics, gates, JSON schema round trip."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.claims import ClaimResult
from repro.experiments.common import ExperimentTable
from repro.report import (
    build_report,
    dumps_report,
    get_figure,
    loads_report,
    report_to_dict,
    report_to_markdown,
    validate_report_dict,
)
from repro.report.registry import ABSOLUTE, RELATIVE, Comparison, FigureSpec
from repro.report.validation import (
    BOTH_SATURATED,
    MODEL_SATURATED,
    OK,
    SIM_SATURATED,
    UNDEFINED,
    evaluate_comparison,
    validate_figure,
)


def _spec(metric=RELATIVE, threshold=0.25) -> FigureSpec:
    return FigureSpec("fig03", (
        Comparison("algo", "response", "model", "sim",
                   metric=metric, threshold=threshold),))


def _table(rows) -> ExperimentTable:
    table = ExperimentTable("fig03", "Synthetic", "Figure 3",
                            ["x", "model", "sim"])
    for row in rows:
        table.add(*row)
    return table


class TestPointSemantics:
    def test_statuses(self):
        spec = _spec()
        result = evaluate_comparison(spec, spec.comparisons[0], _table([
            (1.0, 10.0, 11.0),
            (2.0, math.inf, math.inf),
            (3.0, math.inf, 40.0),
            (4.0, 40.0, math.inf),
            (5.0, math.nan, 40.0),
        ]))
        assert [p.status for p in result.points] == [
            OK, BOTH_SATURATED, MODEL_SATURATED, SIM_SATURATED, UNDEFINED]
        # Only the OK point contributes to the error statistics; a
        # saturated or undefined point carries no error at all.
        assert len(result.valid_points) == 1
        assert result.points[0].error == pytest.approx(0.1)
        assert [p.error for p in result.points[1:]] == [None] * 4
        assert result.saturation_mismatches == 2

    def test_relative_vs_absolute_metric(self):
        rows = [(1.0, 10.0, 12.0)]
        spec_rel = _spec(metric=RELATIVE)
        rel = evaluate_comparison(spec_rel, spec_rel.comparisons[0],
                                  _table(rows))
        spec_abs = _spec(metric=ABSOLUTE)
        abs_ = evaluate_comparison(spec_abs, spec_abs.comparisons[0],
                                   _table(rows))
        assert rel.points[0].error == pytest.approx(0.2)
        assert abs_.points[0].error == pytest.approx(2.0)

    def test_zero_model_relative_error_is_undefined_unless_sim_zero(self):
        spec = _spec()
        result = evaluate_comparison(spec, spec.comparisons[0], _table([
            (1.0, 0.0, 0.0),
            (2.0, 0.0, 3.0),
        ]))
        assert result.points[0].status == OK
        assert result.points[0].error == 0.0
        assert result.points[1].status == UNDEFINED

    def test_missing_columns_pass_vacuously(self):
        spec = _spec()
        table = ExperimentTable("fig03", "Synthetic", "Figure 3",
                                ["x", "model"])
        table.add(1.0, 10.0)
        result = evaluate_comparison(spec, spec.comparisons[0], table)
        assert result.points == []
        assert math.isnan(result.median_error)
        assert result.passed()


class TestGates:
    def test_median_gates_not_max(self):
        # One outlier point must not fail the comparison when the
        # median stays inside the threshold.
        spec = _spec(threshold=0.25)
        result = evaluate_comparison(spec, spec.comparisons[0], _table([
            (1.0, 10.0, 11.0),   # 10%
            (2.0, 10.0, 11.5),   # 15%
            (3.0, 10.0, 19.0),   # 90% outlier
        ]))
        assert result.median_error == pytest.approx(0.15)
        assert result.max_error == pytest.approx(0.90)
        assert result.passed()

    def test_threshold_scale_loosens_and_tightens(self):
        spec = _spec(threshold=0.25)
        result = evaluate_comparison(spec, spec.comparisons[0],
                                     _table([(1.0, 10.0, 14.0)]))  # 40%
        assert not result.passed()
        assert result.passed(threshold_scale=2.0)
        assert not result.passed(threshold_scale=0.5)

    def test_figure_and_report_aggregation(self):
        spec = _spec(threshold=0.25)
        bad = _table([(1.0, 10.0, 20.0)])  # 100% error
        validation = validate_figure(spec, bad)
        assert not validation.passed()
        report = build_report([(spec, bad)], scale=0.1)
        assert len(report.breaches) == 1
        assert not report.passed
        report.claims = [ClaimResult("c1", "S1", "stmt", "meas", True)]
        assert report.failed_claims == []


class TestJsonRoundTrip:
    def _report(self):
        spec = _spec(threshold=0.25)
        table = _table([(1.0, 10.0, 11.0), (2.0, math.inf, math.inf)])
        report = build_report([(spec, table)], scale=0.1,
                              threshold_scale=1.5)
        report.claims = [
            ClaimResult("ordering", "Section 5.3", "a >> b",
                        "measured text", True),
            ClaimResult("broken", "Section 9", "x < y", "nope", False),
        ]
        return report

    def test_dumps_validates_and_loads_back_equal(self):
        report = self._report()
        text = dumps_report(report)
        loaded = loads_report(text)
        assert loaded.scale == report.scale
        assert loaded.threshold_scale == report.threshold_scale
        assert loaded.passed == report.passed
        assert len(loaded.figures) == 1
        original = report.figures[0].comparisons[0]
        round_tripped = loaded.figures[0].comparisons[0]
        assert round_tripped.median_error == pytest.approx(
            original.median_error)
        assert [p.status for p in round_tripped.points] \
            == [p.status for p in original.points]
        assert round_tripped.points[1].model == math.inf
        assert [c.claim_id for c in loaded.claims] == ["ordering", "broken"]
        assert loaded.failed_claims[0].claim_id == "broken"
        # A second serialization of the loaded report is byte-identical.
        assert dumps_report(loaded) == text

    def test_schema_rejects_missing_key(self):
        data = report_to_dict(self._report())
        del data["figures"][0]["comparisons"][0]["median_error"]
        with pytest.raises(ConfigurationError, match="median_error"):
            validate_report_dict(data)

    def test_schema_rejects_bad_status_and_version(self):
        data = report_to_dict(self._report())
        data["figures"][0]["comparisons"][0]["points"][0]["status"] = "meh"
        with pytest.raises(ConfigurationError, match="status"):
            validate_report_dict(data)
        data = report_to_dict(self._report())
        data["schema"] = 999
        with pytest.raises(ConfigurationError, match="schema"):
            validate_report_dict(data)


class TestMarkdown:
    def test_contains_verdicts_and_claims(self):
        spec = _spec(threshold=0.25)
        report = build_report(
            [(spec, _table([(1.0, 10.0, 20.0)]))],  # breach
            scale=0.1)
        report.claims = [ClaimResult("c1", "S1", "stmt", "meas", False)]
        text = report_to_markdown(report)
        assert "**FAIL**" in text
        assert "**BREACH**" in text
        assert "**FAILS**" in text
        assert "fig03" in text

    def test_analytical_only_run_reads_cleanly(self):
        spec = get_figure("fig11")  # no comparisons declared
        table = spec.run(scale=0.02)
        report = build_report([(spec, table)], scale=0.02)
        assert report.passed
        text = report_to_markdown(report)
        assert "**PASS**" in text
        assert "no simulated comparisons" in text
