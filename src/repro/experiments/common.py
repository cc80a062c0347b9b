"""Shared experiment plumbing: result tables and sweep helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algorithms import AlgorithmSpec
from repro.model.params import ModelConfig
from repro.model.results import AlgorithmPrediction
from repro.parallel import replication_grid
from repro.simulator.config import SimulationConfig
from repro.simulator.driver import pooled_response_means
from repro.simulator.metrics import SimulationResult

Analyzer = Callable[..., AlgorithmPrediction]


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


def model_response(analyzer: Analyzer, config: ModelConfig, rate: float,
                   operation: str, **kwargs) -> float:
    """One analytical response-time point; +inf past the knee."""
    prediction = analyzer(config, rate, **kwargs)
    return prediction.response(operation)


def sweep_replications(base: SimulationConfig, rates: Sequence[float],
                       scale: float, seeds: Optional[int] = None,
                       ) -> List[List[SimulationResult]]:
    """Replication results for every rate, one fan-out for the grid.

    The whole ``(rate, seed)`` grid goes out as a single
    :func:`~repro.parallel.replication_grid` batch, so a parallel
    execution context overlaps *all* of a figure's simulation runs
    instead of blocking point by point; returns the per-rate result
    lists in rate order (each in seed order, identical to serial
    execution).
    """
    n = seeds if seeds is not None else sim_seeds(scale)
    return replication_grid([scaled_sim_config(base.with_rate(rate), scale)
                             for rate in rates], n)


def _pooled_means(results: Sequence[Optional[SimulationResult]]
                  ) -> Dict[str, float]:
    # None entries are quarantined tasks from a resilient sweep: the
    # point survives on its remaining replications.
    means = pooled_response_means(results)
    means["_overflow_fraction"] = (
        sum(1 for r in results if r is not None and r.overflowed)
        / len(results))
    return means


def sweep_simulated_responses(base: SimulationConfig,
                              rates: Sequence[float], scale: float,
                              seeds: Optional[int] = None,
                              ) -> List[Dict[str, float]]:
    """Pooled simulated response means for every rate (one fan-out)."""
    return [_pooled_means(results)
            for results in sweep_replications(base, rates, scale, seeds)]


def simulated_response(base: SimulationConfig, rate: float, operation: str,
                       scale: float, seeds: Optional[int] = None,
                       ) -> Dict[str, float]:
    """Pooled simulated response means at ``rate`` (over several seeds)."""
    del operation  # kept for call-site readability; means cover all ops
    return sweep_simulated_responses(base, [rate], scale, seeds)[0]


def response_sweep(table: ExperimentTable, rates: Sequence[float],
                   analyzer: Analyzer, model_config: ModelConfig,
                   operation: str, sim_base: Optional[SimulationConfig],
                   scale: float, analyzer_kwargs: Optional[dict] = None,
                   ) -> None:
    """Fill ``table`` with (rate, model, sim) response-time rows.

    When ``sim_base`` is None only the analytical column is produced
    (columns must match).  The simulated points for the whole sweep are
    submitted as one batch, so under ``execution(jobs=N)`` they run
    concurrently.
    """
    kwargs = analyzer_kwargs or {}
    models = [model_response(analyzer, model_config, rate, operation,
                             **kwargs) for rate in rates]
    if sim_base is None:
        for rate, model in zip(rates, models):
            table.add(rate, _rounded(model))
        return
    sims = sweep_simulated_responses(sim_base, rates, scale)
    for rate, model, sim in zip(rates, models, sims):
        table.add(rate, _rounded(model), _rounded(sim[operation]))


def _rounded(value: float, digits: int = 3) -> float:
    if value is None or math.isnan(value):
        return math.nan
    if math.isinf(value):
        return math.inf
    return round(value, digits)
