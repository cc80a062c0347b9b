"""Plain-text rendering of experiment tables.

:func:`format_table` renders one
:class:`~repro.experiments.common.ExperimentTable` as an aligned
monospace block; the figure pipeline concatenates one per figure into
the ``tables.txt`` artifact next to the validation report.
"""

from __future__ import annotations

import io
import math

from repro.experiments.common import ExperimentTable


def _format_cell(value) -> str:
    if isinstance(value, float):
        if math.isinf(value):
            return "saturated"
        if math.isnan(value):
            return "-"
        if value == 0.0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1000 or magnitude < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(table: ExperimentTable) -> str:
    """Aligned monospace rendering, figure header and notes included."""
    header = f"{table.experiment_id}  ({table.figure})  {table.title}"
    cells = [[_format_cell(v) for v in row] for row in table.rows]
    widths = [
        max(len(name), *(len(row[i]) for row in cells)) if cells else len(name)
        for i, name in enumerate(table.columns)
    ]
    out = io.StringIO()
    out.write(header + "\n")
    out.write("=" * len(header) + "\n")
    out.write("  ".join(name.rjust(w)
                        for name, w in zip(table.columns, widths)) + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for row in cells:
        out.write("  ".join(cell.rjust(w)
                            for cell, w in zip(row, widths)) + "\n")
    for note in table.notes:
        out.write(f"note: {note}\n")
    return out.getvalue()
