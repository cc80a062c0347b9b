"""Figure id -> sweep driver lookup.

Every ``figNN`` function in :mod:`repro.experiments.figures` and
``extNN`` function in :mod:`repro.experiments.extensions` is the driver
of the figure of that id.  Which ids exist, and how each is validated,
is :data:`repro.report.FIGURES`.
"""

from __future__ import annotations

import re
from typing import Callable

from repro.errors import ConfigurationError
from repro.experiments import extensions, figures
from repro.experiments.common import ExperimentTable

Driver = Callable[..., ExperimentTable]

_DRIVER_ID = re.compile(r"(fig|ext)\d\d")


def driver(figure_id: str) -> Driver:
    """The ``(scale, simulate) -> ExperimentTable`` function of
    ``figure_id``; raises ConfigurationError when there is none."""
    module = extensions if figure_id.startswith("ext") else figures
    run = getattr(module, figure_id, None) \
        if _DRIVER_ID.fullmatch(figure_id) else None
    if run is None:
        raise ConfigurationError(
            f"no experiment driver for figure {figure_id!r}")
    return run
