"""The one-command figure/report pipeline.

:func:`generate_figures` regenerates any subset of the registered
figures (default: all of them), renders each as SVG with the
publication theme, writes the NDJSON data sidecar, and emits one
validation report (markdown + JSON) whose model-vs-simulation error
tables are checked against the registry's thresholds.

Every figure's driver, and every in-text claim, hands its simulation
runs and capacity searches over, and
:func:`~repro.experiments.registry.run_drivers` runs the tasks of the
whole run as one de-duplicated :func:`~repro.parallel.run_batch` with
the ``jobs``/``cache``/``progress``/``resilience`` given here, which
hits the on-disk :class:`~repro.parallel.ResultCache`.  That cache is
the resume: a killed run re-invoked on the same cache serves every
simulation point and search it had finished and computes only the
rest, and a rerun of a finished one is all cache hits and writes
byte-identical output.  A run without a cache recomputes everything.
A batch that retried or quarantined a task says so on stderr.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.claims import claim_checks
from repro.experiments.common import ExperimentTable
from repro.experiments.registry import run_drivers
from repro.parallel import ResultCache
from repro.report.registry import FIGURES, FigureSpec, get_figure
from repro.report.sidecar import write_sidecar
from repro.report.svg import render_svg
from repro.report.table import format_table
from repro.report.validation import (
    ReproductionReport,
    build_report,
    dumps_report,
    report_to_markdown,
)
from repro.resilience.policy import ResilienceOptions
from repro.resilience.report import BatchReport


@dataclass
class FigureOutput:
    """One generated figure's artifacts."""

    figure_id: str
    table: ExperimentTable
    #: format -> written path ("svg" and "ndjson").
    paths: Dict[str, Path] = field(default_factory=dict)
    #: Rendering time; the run's one batch ran before it.
    seconds: float = 0.0


@dataclass
class PipelineResult:
    """Everything one :func:`generate_figures` run produced."""

    out_dir: Path
    figures: List[FigureOutput]
    report: ReproductionReport
    report_json: Path
    report_markdown: Path
    tables_text: Path
    #: The account of the run's one batch (retries, quarantines).
    batch: BatchReport

    @property
    def passed(self) -> bool:
        return self.report.passed


def _render(spec: FigureSpec, table: ExperimentTable,
            out_dir: Path) -> Dict[str, Path]:
    sidecar = write_sidecar(table, out_dir / f"{spec.figure_id}.ndjson")
    columns = None
    if spec.plot_columns is not None:
        columns = [c for c in spec.plot_columns if c in table.columns]
    svg_path = out_dir / f"{spec.figure_id}.svg"
    svg_path.write_text(render_svg(table, y_columns=columns),
                        encoding="utf-8")
    return {"ndjson": sidecar, "svg": svg_path}


def generate_figures(figure_ids: Optional[Sequence[str]] = None,
                     scale: float = 1.0,
                     out_dir="figures",
                     threshold_scale: float = 1.0,
                     include_claims: bool = True,
                     log: Optional[Callable[[str], None]] = None,
                     jobs: int = 1,
                     cache: Optional[ResultCache] = None,
                     progress: Optional[Callable] = None,
                     resilience: Optional[ResilienceOptions] = None,
                     ) -> PipelineResult:
    """Run the full figure/report pipeline.

    ``figure_ids`` defaults to every registered figure, in registry
    order, each run as its driver's defaults make it.
    ``threshold_scale`` multiplies every validation threshold
    (tighten with values < 1, loosen with > 1).  All figures'
    simulations and capacity searches, and the claims' searches when
    ``include_claims``, run first, as one
    :func:`~repro.parallel.run_batch` with ``jobs``, ``cache``,
    ``progress`` and ``resilience``; the per-figure log lines time
    rendering only.  When that batch retried or quarantined a task,
    its :meth:`~repro.resilience.BatchReport.summary` goes to stderr.

    Returns a :class:`PipelineResult`; callers that need a CI gate
    check ``result.passed`` (the CLI maps a breach to a nonzero exit).
    """
    ids = list(figure_ids) if figure_ids else list(FIGURES)
    specs = [get_figure(figure_id) for figure_id in ids]
    for name, value in (("scale", scale),
                        ("threshold scale", threshold_scale)):
        if not math.isfinite(value) or value <= 0:
            raise ConfigurationError(
                f"{name} must be positive and finite, got {value}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit = log if log is not None else (lambda message: None)

    claims = claim_checks() if include_claims else []
    values, batch = run_drivers(
        [spec.start(scale) for spec in specs] + claims,
        jobs=jobs, cache=cache, progress=progress, resilience=resilience)
    if batch.retries or batch.failures:
        print(f"figures batch: {batch.summary()}", file=sys.stderr)
    tables = values[:len(specs)]
    outputs: List[FigureOutput] = []
    for index, (spec, table) in enumerate(zip(specs, tables)):
        started = time.perf_counter()
        paths = _render(spec, table, out)
        seconds = time.perf_counter() - started
        outputs.append(FigureOutput(spec.figure_id, table, paths,
                                    seconds=seconds))
        rendered = "+".join(sorted(paths))
        emit(f"[{index + 1}/{len(specs)}] {spec.figure_id} "
             f"in {seconds:.1f}s -> {rendered}")
    report = build_report(
        [(spec, output.table) for spec, output in zip(specs, outputs)],
        scale=scale, threshold_scale=threshold_scale,
        claims=values[len(specs):])

    report_json = out / "report.json"
    report_json.write_text(dumps_report(report), encoding="utf-8")
    report_markdown = out / "report.md"
    report_markdown.write_text(report_to_markdown(report),
                               encoding="utf-8")
    # Every figure's aligned table in one artifact next to the report.
    tables_text = out / "tables.txt"
    tables_text.write_text(
        "\n".join(format_table(output.table) for output in outputs),
        encoding="utf-8")

    breaches = report.breaches
    if breaches:
        names = ", ".join(f"{c.figure_id}/{c.quantity}" for c in breaches)
        emit(f"validation FAILED: {len(breaches)} threshold breach(es): "
             f"{names}")
    else:
        emit("validation passed: every comparison within thresholds")
    return PipelineResult(out_dir=out, figures=outputs, report=report,
                          report_json=report_json,
                          report_markdown=report_markdown,
                          tables_text=tables_text, batch=batch)
