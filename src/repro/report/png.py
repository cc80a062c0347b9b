"""Optional matplotlib PNG backend for experiment tables.

:func:`save_figure_image` rasterizes a table through matplotlib under
the shared publication theme (:mod:`repro.report.theme`).  Matplotlib
is an *optional* dependency (``pip install 'repro[figures]'``):
:func:`matplotlib_available` reports whether the backend can be used,
and the figure pipeline falls back to its dependency-free SVG renderer
(:mod:`repro.report.svg`) when it cannot.  The backend is forced to the
headless ``Agg`` canvas **before** ``pyplot`` is ever imported, so
figure generation works in CI and over SSH where no display exists,
and every figure is closed after saving so a full-registry run does not
accumulate open figures.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentTable

_pyplot_module = None


def _pyplot():
    """Import pyplot with the headless ``Agg`` backend forced first.

    ``matplotlib.use("Agg")`` must run before the first pyplot import:
    importing pyplot binds the canvas backend, and on a display-less CI
    runner or SSH session the default can be an interactive backend
    that crashes on import.  Raises ConfigurationError when matplotlib
    is not installed.
    """
    global _pyplot_module
    if _pyplot_module is not None:
        return _pyplot_module
    try:
        import matplotlib
    except ImportError as error:
        raise ConfigurationError(
            "matplotlib is not installed; PNG output needs it "
            "(pip install 'repro[figures]') — the SVG and NDJSON "
            "outputs are dependency-free") from error
    matplotlib.use("Agg", force=True)
    import matplotlib.pyplot as plt

    _pyplot_module = plt
    return plt


def matplotlib_available() -> bool:
    """True when the optional matplotlib backend can be used."""
    try:
        _pyplot()
    except ConfigurationError:
        return False
    return True


def save_figure_image(table: ExperimentTable, path,
                      y_columns: Optional[Sequence[str]] = None,
                      theme=None) -> Path:
    """Rasterize ``table`` to ``path`` (PNG) under the publication theme.

    Same column conventions as :func:`repro.report.svg.render_svg`:
    first column is x, ``y_columns`` defaults to every other column,
    ``+inf`` points draw as up-arrow markers pinned to the panel top,
    NaN points are skipped.  The figure is always closed after saving
    (a full-registry run renders dozens of figures; leaking them grows
    memory without bound).
    """
    from repro.report.theme import PUBLICATION

    if theme is None:
        theme = PUBLICATION
    if not table.rows:
        raise ConfigurationError("cannot plot an empty table")
    x_name = table.columns[0]
    names = list(y_columns) if y_columns is not None \
        else [c for c in table.columns[1:]]
    for name in names:
        if name not in table.columns:
            raise ConfigurationError(f"no column {name!r} in {table.columns}")
    if not names:
        raise ConfigurationError("table has no series columns to plot")

    plt = _pyplot()
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    xs = [float(v) for v in table.column(x_name)]
    with plt.rc_context(theme.rc_params()):
        fig, axis = plt.subplots(
            figsize=(theme.width / 100.0, theme.height / 100.0))
        try:
            finite_top = max(
                (float(v) for name in names for v in table.column(name)
                 if math.isfinite(float(v))), default=1.0)
            for index, name in enumerate(names):
                values = [float(v) for v in table.column(name)]
                color = theme.color(index)
                marker = theme.mpl_marker(index)
                keep = [(x, y) for x, y in zip(xs, values)
                        if math.isfinite(y)]
                if keep:
                    axis.plot([p[0] for p in keep], [p[1] for p in keep],
                              color=color, marker=marker, label=name)
                saturated = [x for x, y in zip(xs, values)
                             if math.isinf(y) and y > 0]
                if saturated:
                    axis.plot(saturated, [finite_top] * len(saturated),
                              linestyle="none", marker="^", color=color,
                              markersize=theme.marker_size * 2.5,
                              label=f"{name} (saturated)")
            axis.set_title(table.title)
            axis.set_xlabel(x_name)
            axis.legend(loc="best")
            fig.tight_layout()
            fig.savefig(target, format="png")
        finally:
            # Never leak figures across a full-registry run.
            plt.close(fig)
    return target
