"""The one-command figure/report pipeline.

:func:`generate_figures` regenerates any subset of the registered
figures (default: all of them), renders each as SVG (+PNG when
matplotlib is installed) with the publication theme, writes the NDJSON
data sidecar, and emits one validation report (markdown + JSON) whose
model-vs-simulation error tables are checked against the registry's
thresholds.

The run is **checkpointed and resumable**: a
:class:`~repro.resilience.SweepJournal` at the output directory records
every completed figure's table (keyed by figure id, scale, simulate
flag and the simulator's :data:`~repro.parallel.cache.CODE_SALT`), so a
killed run re-invoked with ``resume=True`` serves finished figures from
the journal and only computes the remainder.  Below the figure level,
the sweeps inside each figure fan out through :mod:`repro.parallel`
(ambient ``execution(jobs=..., cache=...)`` context) and hit the
on-disk :class:`~repro.parallel.ResultCache`, so even a figure that was
mid-flight when the run died resumes from its cached simulation points.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentTable
from repro.parallel.cache import CODE_SALT
from repro.report.png import matplotlib_available, save_figure_image
from repro.report.registry import FIGURES, FigureSpec, get_figure
from repro.report.sidecar import write_sidecar
from repro.report.svg import render_svg
from repro.report.table import format_table
from repro.report.theme import PUBLICATION, Theme
from repro.report.validation import (
    ReproductionReport,
    build_report,
    dumps_report,
    report_to_markdown,
)
from repro.resilience import SweepJournal

#: Image formats the pipeline can emit (sidecars are always written).
KNOWN_FORMATS = ("svg", "png")

#: Default name of the figure-level checkpoint journal.
JOURNAL_NAME = "figures-journal.ndjson"


@dataclass
class FigureOutput:
    """One generated figure's artifacts."""

    figure_id: str
    table: ExperimentTable
    #: format -> written path ("ndjson" is always present).
    paths: Dict[str, Path] = field(default_factory=dict)
    #: True when the table was served from the resume journal.
    resumed: bool = False
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
    journal_path: Path

    @property
    def passed(self) -> bool:
        return self.report.passed


def figure_key(figure_id: str, scale: float,
               simulate: Optional[bool]) -> str:
    """Content key pinning one figure run for journal resume.

    Includes the simulator's code salt so a journal written by a build
    whose simulation results differ is refused rather than replayed.
    """
    blob = json.dumps({"figure": figure_id, "scale": scale,
                       "simulate": simulate, "salt": CODE_SALT},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def resolve_formats(formats: Optional[Sequence[str]]) -> Tuple[str, ...]:
    """The image formats to emit: the explicit request (strict — asking
    for PNG without matplotlib is an error), or SVG plus PNG-when-
    available by default."""
    if formats is None:
        return ("svg", "png") if matplotlib_available() else ("svg",)
    resolved = []
    for name in formats:
        name = name.strip().lower()
        if not name:
            continue
        if name == "ndjson":
            continue  # sidecars are unconditional
        if name not in KNOWN_FORMATS:
            raise ConfigurationError(
                f"unknown figure format {name!r}; known: "
                f"{', '.join(KNOWN_FORMATS)} (ndjson sidecars are always "
                f"written)")
        if name == "png" and not matplotlib_available():
            raise ConfigurationError(
                "png output needs matplotlib (pip install "
                "'repro[figures]'); svg and ndjson are dependency-free")
        if name not in resolved:
            resolved.append(name)
    return tuple(resolved)


def _run_figure(spec: FigureSpec, scale: float,
                simulate: Optional[bool]) -> ExperimentTable:
    """Regenerate one figure's table (module-level so tests can stub
    it to assert resume semantics)."""
    return spec.run(scale=scale, simulate=simulate)


def _render(spec: FigureSpec, table: ExperimentTable, out_dir: Path,
            formats: Tuple[str, ...], theme: Theme) -> Dict[str, Path]:
    paths: Dict[str, Path] = {}
    paths["ndjson"] = write_sidecar(table, out_dir / f"{spec.figure_id}.ndjson")
    columns = None
    if spec.plot_columns is not None:
        columns = [c for c in spec.plot_columns if c in table.columns]
    if "svg" in formats:
        svg_path = out_dir / f"{spec.figure_id}.svg"
        svg_path.write_text(render_svg(table, y_columns=columns,
                                       theme=theme), encoding="utf-8")
        paths["svg"] = svg_path
    if "png" in formats:
        paths["png"] = save_figure_image(
            table, out_dir / f"{spec.figure_id}.png",
            y_columns=columns, theme=theme)
    return paths


def generate_figures(figure_ids: Optional[Sequence[str]] = None,
                     scale: float = 1.0,
                     out_dir="figures",
                     formats: Optional[Sequence[str]] = None,
                     simulate: Optional[bool] = None,
                     resume: bool = False,
                     journal_path=None,
                     theme: Theme = PUBLICATION,
                     threshold_scale: float = 1.0,
                     include_claims: bool = True,
                     log: Optional[Callable[[str], None]] = None,
                     ) -> PipelineResult:
    """Run the full figure/report pipeline.

    ``figure_ids`` defaults to every registered figure, in registry
    order.  ``simulate=None`` keeps each figure's own default (the
    paper's simulated figures simulate, the analytical ones don't);
    ``simulate=False`` forces analytical-only output everywhere.
    ``threshold_scale`` multiplies every validation threshold
    (tighten with values < 1, loosen with > 1).

    Returns a :class:`PipelineResult`; callers that need a CI gate
    check ``result.passed`` (the CLI maps a breach to a nonzero exit).
    """
    ids = list(figure_ids) if figure_ids else list(FIGURES)
    specs = [get_figure(figure_id) for figure_id in ids]
    if threshold_scale <= 0:
        raise ConfigurationError(
            f"threshold scale must be > 0, got {threshold_scale}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit = log if log is not None else (lambda message: None)
    image_formats = resolve_formats(formats)

    keys = [figure_key(spec.figure_id, scale, simulate) for spec in specs]
    journal_file = Path(journal_path) if journal_path is not None \
        else out / JOURNAL_NAME
    outputs: List[FigureOutput] = []
    with SweepJournal(journal_file, keys, resume=resume) as journal:
        for index, spec in enumerate(specs):
            started = time.perf_counter()
            replayed = journal.completed.get(index)
            resumed = isinstance(replayed, ExperimentTable)
            if resumed:
                table = replayed
            else:
                table = _run_figure(spec, scale, simulate)
                journal.record_completed(index, attempts=1, result=table)
            paths = _render(spec, table, out, image_formats, theme)
            seconds = time.perf_counter() - started
            outputs.append(FigureOutput(spec.figure_id, table, paths,
                                        resumed=resumed, seconds=seconds))
            origin = "journal" if resumed else "computed"
            rendered = "+".join(sorted(paths))
            emit(f"[{index + 1}/{len(specs)}] {spec.figure_id} "
                 f"{origin} in {seconds:.1f}s -> {rendered}")
        report = build_report(
            [(spec, output.table) for spec, output in zip(specs, outputs)],
            scale=scale, threshold_scale=threshold_scale,
            include_claims=include_claims)
        journal.close(summary={
            "figures": len(outputs),
            "resumed": sum(1 for o in outputs if o.resumed),
            "validation_passed": report.passed,
        })

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
                          tables_text=tables_text,
                          journal_path=journal_file)
