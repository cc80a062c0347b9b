"""repro.report: the unified figure/report pipeline.

One subsystem turns cached sweep results into the paper's full
evidence set:

* :mod:`repro.report.registry` — every paper + extension figure with
  its declared model-vs-simulation comparisons and error thresholds;
* :mod:`repro.report.theme` — the publication theme every figure is
  rendered with;
* :mod:`repro.report.svg` — dependency-free SVG rendering, the only
  figure format;
* :mod:`repro.report.table` — aligned plain-text tables
  (``tables.txt``);
* :mod:`repro.report.sidecar` — deterministic NDJSON data sidecars;
* :mod:`repro.report.validation` — per-figure error tables and the
  machine-checked reproduction report (markdown + JSON + schema);
* :mod:`repro.report.pipeline` — the one-command run behind
  ``btree-perf figures``; a rerun on the same result cache is its
  resume.

See ``docs/reproduction.md`` for the end-to-end workflow.
"""

from repro.report.pipeline import (
    FigureOutput,
    PipelineResult,
    generate_figures,
)
from repro.report.registry import (
    FIGURES,
    Comparison,
    FigureSpec,
    all_figure_ids,
    get_figure,
)
from repro.report.sidecar import (
    dumps_sidecar,
    loads_sidecar,
    read_sidecar,
    write_sidecar,
)
from repro.report.svg import render_svg
from repro.report.table import format_table
from repro.report.theme import PUBLICATION, Theme
from repro.report.validation import (
    REPORT_JSON_SCHEMA,
    ComparisonResult,
    ErrorPoint,
    FigureValidation,
    ReproductionReport,
    build_report,
    dumps_report,
    loads_report,
    report_from_dict,
    report_to_dict,
    report_to_markdown,
    validate_figure,
    validate_report_dict,
)

__all__ = [
    "Comparison",
    "ComparisonResult",
    "ErrorPoint",
    "FIGURES",
    "FigureOutput",
    "FigureSpec",
    "FigureValidation",
    "PUBLICATION",
    "PipelineResult",
    "REPORT_JSON_SCHEMA",
    "ReproductionReport",
    "Theme",
    "all_figure_ids",
    "build_report",
    "dumps_report",
    "dumps_sidecar",
    "format_table",
    "generate_figures",
    "get_figure",
    "loads_report",
    "loads_sidecar",
    "read_sidecar",
    "render_svg",
    "report_from_dict",
    "report_to_dict",
    "report_to_markdown",
    "validate_figure",
    "validate_report_dict",
    "write_sidecar",
]
