"""Figure id -> sweep driver lookup, and the runner that finishes
driver calls with one simulation batch.

Every ``figNN`` function in :mod:`repro.experiments.figures` and
``extNN`` function in :mod:`repro.experiments.extensions` is the driver
of the figure of that id.  Which ids exist, and how each is validated,
is :data:`repro.report.FIGURES`.
"""

from __future__ import annotations

import inspect
import re
from itertools import chain
from typing import Any, Callable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments import extensions, figures
from repro.parallel import ResultCache, run_batch
from repro.resilience.policy import ResilienceOptions

_DRIVER_ID = re.compile(r"(fig|ext)\d\d")


def driver(figure_id: str) -> Callable[..., Any]:
    """The ``(scale, simulate)`` driver function of ``figure_id``;
    raises ConfigurationError when there is none.  It returns an
    ExperimentTable, or, with a simulated series, a generator that
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
                ) -> List[Any]:
    """Finish driver calls; returns their tables in call order.

    Each of ``calls`` is what a driver call returned: a table is
    finished, a generator is advanced to its one ``yield``.  The
    yielded task lists, concatenated and without duplicates (first
    occurrence kept), run as one :func:`~repro.parallel.run_batch` with
    these settings; each generator is then sent the results of its own
    tasks and returns its table.  A second yield raises
    ConfigurationError.
    """
    finished = list(calls)
    pending = {}  # call index -> the task list it yielded
    for index, call in enumerate(finished):
        if not inspect.isgenerator(call):
            continue
        try:
            pending[index] = call.send(None)
        except StopIteration as stop:
            finished[index] = stop.value
    batch = list(dict.fromkeys(chain.from_iterable(pending.values())))
    results = dict(zip(batch, run_batch(
        batch, jobs=jobs, cache=cache, progress=progress,
        resilience=resilience))) if batch else {}
    for index, tasks in pending.items():
        call = finished[index]
        try:
            call.send([results[task] for task in tasks])
        except StopIteration as stop:
            finished[index] = stop.value
        else:
            raise ConfigurationError(
                f"driver {call.__name__} yielded a second time; a driver "
                "hands over all of its tasks in one yield")
    return finished
