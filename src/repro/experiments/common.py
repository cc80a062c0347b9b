"""Shared experiment plumbing: result tables and sweep helpers.

A driver that simulates or searches is a generator function: it hands
every simulation run and capacity search of its figure over with one
``results = yield tasks`` (a list of :class:`~repro.parallel.SimTask`)
and gets the results back in task order;
:func:`repro.experiments.registry.run_drivers` runs the tasks of every
driver in a run as one de-duplicated batch.  The sweep helpers below
are sub-generators for ``yield from``, and :func:`gather` runs several
of them with one yield.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import (
    Any,
    Dict,
    Generator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.algorithms import AlgorithmSpec
from repro.errors import ConfigurationError
from repro.model.throughput import CapacitySearch
from repro.parallel import SimTask, replication_tasks
from repro.simulator.config import SimulationConfig
from repro.simulator.driver import pooled_response_means
from repro.simulator.metrics import SimulationResult

T = TypeVar("T")

#: A generator that yields one task list, is sent the results in task
#: order, and returns ``T``.
YieldsTasks = Generator[List[SimTask], List[Any], T]


def finish(generator: YieldsTasks[T], results: List[Any]) -> T:
    """Send ``results`` to a generator at its one yield; its return
    value.  A second yield raises ConfigurationError."""
    try:
        generator.send(results)
    except StopIteration as stop:
        return stop.value
    raise ConfigurationError(
        f"driver {generator.__name__} yielded a second time; a driver "
        "hands over all of its tasks in one yield")


def gather(*parts: Any) -> YieldsTasks[List[Any]]:
    """The values of ``parts``, in order, from one combined yield.

    A part that is a generator of this protocol is advanced to its one
    yield; the yielded task lists go out concatenated, and each part
    is sent back the results of its own tasks.  Any other part is
    already its own value.  Nothing is yielded when no part yields.
    """
    values = list(parts)
    waiting = []  # (part index, number of tasks it yielded)
    tasks: List[SimTask] = []
    for index, part in enumerate(parts):
        if not inspect.isgenerator(part):
            continue
        try:
            yielded = part.send(None)
        except StopIteration as stop:
            values[index] = stop.value
            continue
        waiting.append((index, len(yielded)))
        tasks += yielded
    if waiting:
        results = iter((yield tasks))
        for index, count in waiting:
            values[index] = finish(parts[index],
                                   list(islice(results, count)))
    return values


def capacities(searches: Sequence[CapacitySearch],
               ) -> YieldsTasks[List[float]]:
    """The rates of ``searches`` (``math.inf`` where unbounded), from
    one yield of ``"search"`` tasks; NaN where a search was
    quarantined."""
    rates = yield [SimTask(search, kind="search") for search in searches]
    return [math.nan if rate is None else rate for rate in rates]


def base_sim_config(spec: AlgorithmSpec | str, arrival_rate: float = 0.1,
                    **overrides) -> SimulationConfig:
    """Baseline simulator configuration for a registered algorithm.

    Experiment drivers build their simulation points from registry
    specs (or names) rather than hard-coded name literals, so the
    registry stays the single dispatch point (``docs/architecture.md``).
    """
    name = spec if isinstance(spec, str) else spec.name
    return SimulationConfig(algorithm=name, arrival_rate=arrival_rate,
                            **overrides)


@dataclass
class ExperimentTable:
    """The regenerated series of one paper figure.

    ``rows`` hold the plotted points; ``columns`` name them.  ``notes``
    carry caveats (substitutions, saturated settings, etc.) that the
    report printer and EXPERIMENTS.md surface alongside the numbers.
    """

    experiment_id: str
    title: str
    figure: str
    columns: List[str]
    rows: List[Tuple] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns")
        self.rows.append(tuple(values))

    def column(self, name: str) -> List:
        """Extract one column as a list."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def note(self, text: str) -> None:
        self.notes.append(text)


#: A driver call with a simulated series or a capacity search: it
#: yields its tasks once and returns its table.
SimulatedFigure = YieldsTasks[ExperimentTable]


def scaled_sim_config(base: SimulationConfig, scale: float) -> SimulationConfig:
    """Shrink a simulation configuration's effort by ``scale``."""
    if scale >= 1.0:
        return base
    return base.scaled(scale)


def sim_seeds(scale: float, full: int = 5) -> int:
    """Number of replication seeds at ``scale`` (paper uses 5)."""
    if scale >= 1.0:
        return full
    return max(1, min(full, int(round(full * scale * 2))))


def sweep_replications(bases: Sequence[SimulationConfig],
                       rates: Sequence[float], scale: float,
                       seeds: Optional[int] = None,
                       ) -> YieldsTasks[List[List[List[SimulationResult]]]]:
    """Replication results for every ``(base, rate)``, from one yield.

    Returns ``out[b][r]``, the seed-ordered results of ``bases[b]`` at
    ``rates[r]``.  The grid is yielded seed-major (every point of one
    seed, then the next seed): runs of one seed share a warm-up tree,
    so the one-tree memo of :func:`repro.btree.builder.warm_tree` grows
    each tree once.  Runs are independent, so the order changes no
    result.
    """
    n = seeds if seeds is not None else sim_seeds(scale)
    per_point = [replication_tasks(
        scaled_sim_config(base.with_rate(rate), scale), n)
        for base in bases for rate in rates]
    flat = yield [replicas[seed] for seed in range(n)
                  for replicas in per_point]
    points = len(per_point)
    return [[flat[b * len(rates) + r::points] for r in range(len(rates))]
            for b in range(len(bases))]


def sweep_simulated_responses(bases: Sequence[SimulationConfig],
                              rates: Sequence[float], scale: float,
                              seeds: Optional[int] = None,
                              ) -> YieldsTasks[List[List[Dict[str, float]]]]:
    """Pooled simulated response means for every ``(base, rate)``,
    from one yield; +inf where every replication overflowed."""
    grid = yield from sweep_replications(bases, rates, scale, seeds)
    return [[pooled_response_means(results) for results in per_rate]
            for per_rate in grid]


def measured(result, name: str, digits: Optional[int] = None) -> float:
    """``result.<name>``, rounded to ``digits`` when given.  A
    quarantined (``None``) run measured nothing: NaN (the report's
    ``undefined``), never +inf (saturated) and never a crash."""
    if result is None:
        return math.nan
    value = getattr(result, name)
    return value if digits is None else round(value, digits)


def run_response(result: Optional[SimulationResult],
                 operation: str) -> float:
    """One run's mean ``operation`` response to 3 places; +inf when it
    overflowed, NaN when it was quarantined."""
    return round(pooled_response_means([result])[operation], 3)

