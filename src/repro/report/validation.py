"""Model-vs-simulation validation over generated figure tables.

The evaluation's core claim is numerical agreement between the
analytical framework and the simulator.  This module turns each
figure's declared :class:`~repro.report.registry.Comparison` pairs into
per-operating-point error rows, aggregates them per figure, and emits
one machine-checkable report — JSON (with a shipped schema and a
round-trip loader) plus human-readable markdown — whose thresholds
gate CI: a breach exits the ``figures`` subcommand nonzero.

Error semantics per point:

* both sides finite → the declared metric (relative or absolute);
* both sides saturated (``+inf``) → agreement on saturation, recorded
  with status ``both_saturated`` and excluded from the error stats;
* exactly one side saturated → a *saturation mismatch*, counted but
  not failed (the paper expects divergence at the knee);
* NaN anywhere → ``undefined`` (e.g. a quarantined point), excluded.

The gate statistic is the **median** error across a comparison's valid
points (see :mod:`repro.report.registry` for why), compared against
``threshold * threshold_scale``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from statistics import median
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.claims import ClaimResult
from repro.experiments.common import ExperimentTable
from repro.report.registry import ABSOLUTE, Comparison, FigureSpec

REPORT_SCHEMA_VERSION = 1

#: Point statuses (also the schema's enum).
OK = "ok"
BOTH_SATURATED = "both_saturated"
MODEL_SATURATED = "model_saturated"
SIM_SATURATED = "sim_saturated"
UNDEFINED = "undefined"


@dataclass(frozen=True)
class ErrorPoint:
    """One operating point of one comparison."""

    x: float
    model: float
    sim: float
    error: Optional[float]
    status: str


@dataclass
class ComparisonResult:
    """One comparison's error column, with its verdict."""

    figure_id: str
    algorithm: str
    quantity: str
    metric: str
    threshold: float
    points: List[ErrorPoint] = field(default_factory=list)

    @property
    def valid_points(self) -> List[ErrorPoint]:
        return [p for p in self.points if p.status == OK]

    @property
    def median_error(self) -> float:
        valid = self.valid_points
        return median(p.error for p in valid) if valid else math.nan

    @property
    def max_error(self) -> float:
        valid = self.valid_points
        return max(p.error for p in valid) if valid else math.nan

    @property
    def saturation_mismatches(self) -> int:
        return sum(1 for p in self.points
                   if p.status in (MODEL_SATURATED, SIM_SATURATED))

    def passed(self, threshold_scale: float = 1.0) -> bool:
        """True when the median error is within the (scaled) threshold.

        A comparison with *no* valid points passes vacuously: a run of
        fig12, fig15 or ext01 without ``simulate=True`` (no sim column),
        or an all-saturated or all-quarantined sweep, carries no
        evidence either way.
        """
        value = self.median_error
        if math.isnan(value):
            return True
        return value <= self.threshold * threshold_scale


@dataclass
class FigureValidation:
    """All of one figure's comparisons."""

    figure_id: str
    title: str
    comparisons: List[ComparisonResult] = field(default_factory=list)

    def passed(self, threshold_scale: float = 1.0) -> bool:
        return all(c.passed(threshold_scale) for c in self.comparisons)


@dataclass
class ReproductionReport:
    """The one-command reproduction's machine-checked summary."""

    scale: float
    threshold_scale: float
    figures: List[FigureValidation] = field(default_factory=list)
    claims: List[ClaimResult] = field(default_factory=list)

    @property
    def breaches(self) -> List[ComparisonResult]:
        return [c for fig in self.figures for c in fig.comparisons
                if not c.passed(self.threshold_scale)]

    @property
    def failed_claims(self) -> List[ClaimResult]:
        return [c for c in self.claims if not c.holds]

    @property
    def passed(self) -> bool:
        return not self.breaches and not self.failed_claims


# ----------------------------------------------------------------------
# Building error tables from figure tables
# ----------------------------------------------------------------------
def _point_status(model: float, sim: float) -> str:
    if math.isnan(model) or math.isnan(sim):
        return UNDEFINED
    model_inf, sim_inf = math.isinf(model), math.isinf(sim)
    if model_inf and sim_inf:
        return BOTH_SATURATED
    if model_inf:
        return MODEL_SATURATED
    if sim_inf:
        return SIM_SATURATED
    return OK


def _error(comparison: Comparison, model: float, sim: float,
           ) -> Optional[float]:
    if comparison.metric == ABSOLUTE:
        return abs(sim - model)
    if model == 0.0:
        return math.nan if sim != 0.0 else 0.0
    return abs(sim - model) / abs(model)


def evaluate_comparison(spec: FigureSpec, comparison: Comparison,
                        table: ExperimentTable) -> ComparisonResult:
    """Error rows for one declared column pair over ``table``.

    Missing columns (fig12, fig15 or ext01 run without
    ``simulate=True``) yield an empty, vacuously-passing result.
    """
    result = ComparisonResult(
        figure_id=spec.figure_id, algorithm=comparison.algorithm,
        quantity=comparison.quantity, metric=comparison.metric,
        threshold=comparison.threshold)
    if comparison.model_column not in table.columns \
            or comparison.sim_column not in table.columns:
        return result
    xs = table.column(table.columns[0])
    models = table.column(comparison.model_column)
    sims = table.column(comparison.sim_column)
    for x, model, sim in zip(xs, models, sims):
        model, sim = float(model), float(sim)
        status = _point_status(model, sim)
        error = _error(comparison, model, sim) if status == OK else None
        if error is not None and math.isnan(error):
            status, error = UNDEFINED, None
        result.points.append(ErrorPoint(float(x), model, sim, error,
                                        status))
    return result


def validate_figure(spec: FigureSpec, table: ExperimentTable,
                    ) -> FigureValidation:
    """Evaluate every declared comparison of ``spec`` over ``table``."""
    return FigureValidation(
        figure_id=spec.figure_id, title=table.title,
        comparisons=[evaluate_comparison(spec, comparison, table)
                     for comparison in spec.comparisons])


def build_report(pairs: Sequence[Tuple[FigureSpec, ExperimentTable]],
                 scale: float, threshold_scale: float = 1.0,
                 claims: Sequence[ClaimResult] = ()) -> ReproductionReport:
    """The full report over ``(spec, table)`` pairs.

    ``claims`` are the verdicts of the paper's in-text claims
    (:mod:`repro.experiments.claims`), folded into the same document so
    one artifact carries every machine-checked statement of the
    reproduction.
    """
    report = ReproductionReport(scale=scale,
                                threshold_scale=threshold_scale)
    for spec, table in pairs:
        report.figures.append(validate_figure(spec, table))
    report.claims = list(claims)
    return report


# ----------------------------------------------------------------------
# JSON round trip
# ----------------------------------------------------------------------
def _num_out(value: Optional[float]):
    if value is None:
        return None
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return value


def _num_in(value) -> Optional[float]:
    if value is None:
        return None
    if isinstance(value, str):
        return {"NaN": math.nan, "Infinity": math.inf,
                "-Infinity": -math.inf}[value]
    return float(value)


def report_to_dict(report: ReproductionReport) -> dict:
    """The report as a plain JSON-serializable dict (strict JSON: non-
    finite numbers become sentinel strings)."""
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "scale": report.scale,
        "threshold_scale": report.threshold_scale,
        "passed": report.passed,
        "figures": [{
            "figure_id": fig.figure_id,
            "title": fig.title,
            "passed": fig.passed(report.threshold_scale),
            "comparisons": [{
                "algorithm": c.algorithm,
                "quantity": c.quantity,
                "metric": c.metric,
                "threshold": c.threshold,
                "median_error": _num_out(c.median_error),
                "max_error": _num_out(c.max_error),
                "n_valid": len(c.valid_points),
                "saturation_mismatches": c.saturation_mismatches,
                "passed": c.passed(report.threshold_scale),
                "points": [{
                    "x": _num_out(p.x),
                    "model": _num_out(p.model),
                    "sim": _num_out(p.sim),
                    "error": _num_out(p.error),
                    "status": p.status,
                } for p in c.points],
            } for c in fig.comparisons],
        } for fig in report.figures],
        "claims": [{
            "claim_id": c.claim_id,
            "section": c.section,
            "statement": c.statement,
            "measured": c.measured,
            "holds": c.holds,
        } for c in report.claims],
    }


def report_from_dict(data: dict) -> ReproductionReport:
    """Rebuild a :class:`ReproductionReport` from its dict form."""
    validate_report_dict(data)
    report = ReproductionReport(scale=float(data["scale"]),
                                threshold_scale=float(
                                    data["threshold_scale"]))
    for fig in data["figures"]:
        validation = FigureValidation(figure_id=fig["figure_id"],
                                      title=fig["title"])
        for c in fig["comparisons"]:
            result = ComparisonResult(
                figure_id=fig["figure_id"], algorithm=c["algorithm"],
                quantity=c["quantity"], metric=c["metric"],
                threshold=float(c["threshold"]))
            for p in c["points"]:
                result.points.append(ErrorPoint(
                    x=_num_in(p["x"]), model=_num_in(p["model"]),
                    sim=_num_in(p["sim"]), error=_num_in(p["error"]),
                    status=p["status"]))
            validation.comparisons.append(result)
        report.figures.append(validation)
    for c in data["claims"]:
        report.claims.append(ClaimResult(
            claim_id=c["claim_id"], section=c["section"],
            statement=c["statement"], measured=c["measured"],
            holds=bool(c["holds"])))
    return report


def dumps_report(report: ReproductionReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def loads_report(text: str) -> ReproductionReport:
    return report_from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Schema validation (dependency-free subset of JSON Schema)
# ----------------------------------------------------------------------
_STATUSES = (OK, BOTH_SATURATED, MODEL_SATURATED, SIM_SATURATED,
             UNDEFINED)

#: JSON-Schema-shaped description of the report document, shipped so
#: external consumers can validate artifacts with a real validator.
REPORT_JSON_SCHEMA: dict = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "repro reproduction report",
    "type": "object",
    "required": ["schema", "scale", "threshold_scale", "passed",
                 "figures", "claims"],
    "properties": {
        "schema": {"const": REPORT_SCHEMA_VERSION},
        "scale": {"type": "number"},
        "threshold_scale": {"type": "number"},
        "passed": {"type": "boolean"},
        "figures": {"type": "array", "items": {
            "type": "object",
            "required": ["figure_id", "title", "passed", "comparisons"],
            "properties": {
                "figure_id": {"type": "string"},
                "title": {"type": "string"},
                "passed": {"type": "boolean"},
                "comparisons": {"type": "array", "items": {
                    "type": "object",
                    "required": ["algorithm", "quantity", "metric",
                                 "threshold", "median_error", "max_error",
                                 "n_valid", "saturation_mismatches",
                                 "passed", "points"],
                    "properties": {
                        "metric": {"enum": ["relative", "absolute"]},
                        "points": {"type": "array", "items": {
                            "type": "object",
                            "required": ["x", "model", "sim", "error",
                                         "status"],
                            "properties": {
                                "status": {"enum": list(_STATUSES)},
                            },
                        }},
                    },
                }},
            },
        }},
        "claims": {"type": "array", "items": {
            "type": "object",
            "required": ["claim_id", "section", "statement", "measured",
                         "holds"],
        }},
    },
}


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(f"invalid reproduction report: {message}")


def validate_report_dict(data: dict) -> None:
    """Structural validation of a report dict against the shipped
    schema's constraints; raises ConfigurationError on any mismatch."""
    _check(isinstance(data, dict), "document is not an object")
    for key in REPORT_JSON_SCHEMA["required"]:
        _check(key in data, f"missing top-level key {key!r}")
    _check(data["schema"] == REPORT_SCHEMA_VERSION,
           f"schema {data['schema']!r} != {REPORT_SCHEMA_VERSION}")
    _check(isinstance(data["passed"], bool), "'passed' is not a boolean")
    for field_name in ("scale", "threshold_scale"):
        _check(isinstance(data[field_name], (int, float))
               and not isinstance(data[field_name], bool),
               f"{field_name!r} is not a number")
    _check(isinstance(data["figures"], list), "'figures' is not a list")
    for fig in data["figures"]:
        for key in ("figure_id", "title", "passed", "comparisons"):
            _check(key in fig, f"figure entry missing {key!r}")
        _check(isinstance(fig["comparisons"], list),
               f"{fig['figure_id']}: 'comparisons' is not a list")
        for c in fig["comparisons"]:
            for key in ("algorithm", "quantity", "metric", "threshold",
                        "median_error", "max_error", "n_valid",
                        "saturation_mismatches", "passed", "points"):
                _check(key in c,
                       f"{fig['figure_id']}: comparison missing {key!r}")
            _check(c["metric"] in ("relative", "absolute"),
                   f"{fig['figure_id']}: unknown metric {c['metric']!r}")
            for p in c["points"]:
                for key in ("x", "model", "sim", "error", "status"):
                    _check(key in p,
                           f"{fig['figure_id']}: point missing {key!r}")
                _check(p["status"] in _STATUSES,
                       f"{fig['figure_id']}: unknown point status "
                       f"{p['status']!r}")
    _check(isinstance(data["claims"], list), "'claims' is not a list")
    for c in data["claims"]:
        for key in ("claim_id", "section", "statement", "measured",
                    "holds"):
            _check(key in c, f"claim entry missing {key!r}")


# ----------------------------------------------------------------------
# Markdown rendering
# ----------------------------------------------------------------------
def _pct(value: Optional[float], metric: str) -> str:
    if value is None or math.isnan(value):
        return "–"
    if metric == ABSOLUTE:
        return f"{value:.3g}"
    return f"{value:.1%}"


def report_to_markdown(report: ReproductionReport) -> str:
    """The human-readable twin of the JSON report."""
    scale_note = (f" (thresholds x{report.threshold_scale:g})"
                  if report.threshold_scale != 1.0 else "")
    lines = [
        "# Reproduction validation report",
        "",
        f"Simulation scale: **{report.scale:g}** — paper scale is 1.0."
        + scale_note,
        "",
        f"Overall: **{'PASS' if report.passed else 'FAIL'}** — "
        f"{len(report.breaches)} threshold breach(es), "
        f"{len(report.failed_claims)} failed claim(s).",
        "",
        "## Model vs simulation, per figure",
        "",
        "| figure | algorithm | quantity | metric | median err | "
        "max err | points | sat. mismatch | threshold | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    any_rows = False
    for fig in report.figures:
        for c in fig.comparisons:
            if not c.points:
                continue
            any_rows = True
            verdict = ("pass" if c.passed(report.threshold_scale)
                       else "**BREACH**")
            threshold = c.threshold * report.threshold_scale
            lines.append(
                f"| {fig.figure_id} | {c.algorithm} | {c.quantity} "
                f"| {c.metric} | {_pct(c.median_error, c.metric)} "
                f"| {_pct(c.max_error, c.metric)} | {len(c.valid_points)} "
                f"| {c.saturation_mismatches} "
                f"| {_pct(threshold, c.metric)} | {verdict} |")
    if not any_rows:
        lines.append("| – | – | – | – | – | – | – | – | – | no "
                     "simulated comparisons in this run |")
    analytical = [fig.figure_id for fig in report.figures
                  if not any(c.points for c in fig.comparisons)]
    if analytical:
        lines += ["", "Analytical-only in this run (no error rows): "
                  + ", ".join(analytical) + "."]

    lines += ["", "## Per-point error tables", ""]
    for fig in report.figures:
        for c in fig.comparisons:
            if not c.points:
                continue
            lines += [
                f"### {fig.figure_id}: {c.quantity} ({c.algorithm})",
                "",
                "| x | model | sim | error | status |",
                "|---|---|---|---|---|",
            ]
            for p in c.points:
                lines.append(
                    f"| {p.x:g} | {_fmt_value(p.model)} "
                    f"| {_fmt_value(p.sim)} | {_pct(p.error, c.metric)} "
                    f"| {p.status} |")
            lines.append("")

    if report.claims:
        lines += [
            "## In-text claims",
            "",
            "| claim | section | verdict | measured |",
            "|---|---|---|---|",
        ]
        for c in report.claims:
            verdict = "holds" if c.holds else "**FAILS**"
            lines.append(f"| {c.claim_id} | {c.section} | {verdict} "
                         f"| {c.measured} |")
        lines.append("")
    return "\n".join(lines) + "\n"


def _fmt_value(value: float) -> str:
    if math.isinf(value):
        return "saturated"
    if math.isnan(value):
        return "–"
    return f"{value:.4g}"
