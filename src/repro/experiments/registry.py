"""Figure id -> sweep driver lookup, and the runner that finishes
driver calls with one simulation batch.

Every ``figNN`` function in :mod:`repro.experiments.figures` and
``extNN`` function in :mod:`repro.experiments.extensions` is the driver
of the figure of that id.  Which ids exist, and how each is validated,
is :data:`repro.report.FIGURES`.
"""

from __future__ import annotations

import re
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments import extensions, figures
from repro.experiments.common import finish, gather
from repro.parallel import ResultCache, run_batch_report
from repro.resilience.policy import ResilienceOptions
from repro.resilience.report import BatchReport

_DRIVER_ID = re.compile(r"(fig|ext)\d\d")


def driver(figure_id: str) -> Callable[..., Any]:
    """The driver function of ``figure_id``; raises ConfigurationError
    when there is none.  It takes ``scale`` (fig12, fig15 and ext01
    also ``simulate``, default False) and returns an ExperimentTable
    or, with simulated series or capacity searches, a generator that
    yields its tasks once and returns the table."""
    module = extensions if figure_id.startswith("ext") else figures
    run = getattr(module, figure_id, None) \
        if _DRIVER_ID.fullmatch(figure_id) else None
    if run is None:
        raise ConfigurationError(
            f"no experiment driver for figure {figure_id!r}")
    return run


def run_drivers(calls: Sequence[Any], jobs: int = 1,
                cache: Optional[ResultCache] = None,
                progress: Optional[Callable] = None,
                resilience: Optional[ResilienceOptions] = None,
                ) -> Tuple[List[Any], BatchReport]:
    """Finish driver calls; returns their values in call order and the
    :class:`~repro.resilience.BatchReport` of their batch.

    Each of ``calls`` is what a driver call returned: a table (or any
    other value) is finished, a generator is advanced to its one
    ``yield`` (:func:`~repro.experiments.common.gather`).  The yielded
    task lists, concatenated and without duplicates (first occurrence
    kept), run as one :func:`~repro.parallel.run_batch_report` with
    these settings; each generator is then sent the results of its own
    tasks and returns its value.  A second yield raises
    ConfigurationError.
    """
    combined = gather(*calls)
    try:
        tasks = combined.send(None)
    except StopIteration as stop:
        return stop.value, BatchReport(results=[])
    batch = list(dict.fromkeys(tasks))
    report = run_batch_report(batch, jobs=jobs, cache=cache,
                              progress=progress, resilience=resilience)
    results = dict(zip(batch, report.results))
    return finish(combined, [results[task] for task in tasks]), report
