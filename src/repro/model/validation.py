"""Prediction-vs-simulation comparison utilities.

The paper's methodology is to overlay analytical curves on simulated
points; this module packages one such comparison point so applications
(and this repository's own integration tests and examples) can validate
a model configuration against the simulator with one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.algorithms import get_algorithm
from repro.btree import build_tree, collect_statistics
from repro.errors import ConfigurationError
from repro.model.occupancy import OccupancyModel
from repro.model.params import ModelConfig, TreeShape
from repro.model.results import AlgorithmPrediction
from repro.parallel import replication_grid
from repro.simulator.config import SimulationConfig
from repro.simulator.driver import pooled_response_means, run_replications
from repro.simulator.metrics import SimulationResult

Analyzer = Callable[..., AlgorithmPrediction]

OPERATIONS = ("search", "insert", "delete")


@dataclass(frozen=True)
class ComparisonRow:
    """One operation's predicted vs simulated response time."""

    operation: str
    predicted: float
    simulated: float

    @property
    def relative_error(self) -> float:
        """|sim - model| / model; NaN when either side is undefined."""
        if not math.isfinite(self.predicted) \
                or not math.isfinite(self.simulated) \
                or self.predicted == 0.0:
            return math.nan
        return abs(self.simulated - self.predicted) / self.predicted


@dataclass(frozen=True)
class ValidationReport:
    """A full comparison at one operating point."""

    algorithm: str
    arrival_rate: float
    rows: List[ComparisonRow]
    prediction: AlgorithmPrediction
    results: List[SimulationResult]

    @property
    def max_relative_error(self) -> float:
        errors = [row.relative_error for row in self.rows
                  if not math.isnan(row.relative_error)]
        return max(errors) if errors else math.nan

    @property
    def any_overflowed(self) -> bool:
        return any(result.overflowed for result in self.results)

    def agrees_within(self, tolerance: float) -> bool:
        """True when every operation's relative error is within
        ``tolerance`` (and neither side saturated)."""
        if not self.prediction.stable or self.any_overflowed:
            return False
        return self.max_relative_error <= tolerance

    def format(self) -> str:
        lines = [f"{self.algorithm} @ lambda={self.arrival_rate:g} "
                 f"({len(self.results)} seed(s))"]
        for row in self.rows:
            error = ("-" if math.isnan(row.relative_error)
                     else f"{row.relative_error:.1%}")
            lines.append(f"  {row.operation:<7} model {row.predicted:8.3f}"
                         f"  sim {row.simulated:8.3f}  err {error}")
        return "\n".join(lines)


def measured_model_config(sim_config: SimulationConfig,
                          ) -> ModelConfig:
    """A :class:`ModelConfig` whose tree shape is *measured* from the
    simulator configuration's construction phase, so shape mismatch
    cannot pollute a comparison."""
    tree = build_tree(sim_config.n_items, order=sim_config.order,
                      insert_fraction=sim_config.mix.insert_share or 1.0,
                      merge_policy=sim_config.merge_policy,
                      key_space=sim_config.key_space,
                      seed=sim_config.seed)
    stats = collect_statistics(tree)
    return ModelConfig(mix=sim_config.mix, costs=sim_config.costs,
                       shape=TreeShape.from_statistics(stats),
                       order=sim_config.order)


def resolve_analyzer(analyzer: Optional[Analyzer],
                     algorithm: str) -> Analyzer:
    """``analyzer`` itself, or ``algorithm``'s registered analytical
    model when None (ConfigurationError for simulator-only specs)."""
    if analyzer is not None:
        return analyzer
    spec = get_algorithm(algorithm)
    if not spec.has_model:
        raise ConfigurationError(
            f"algorithm {algorithm!r} has no registered analytical "
            "model; pass an analyzer explicitly")
    return spec.analyze


def compare_prediction_to_simulation(
        analyzer: Optional[Analyzer],
        sim_config: SimulationConfig,
        model_config: Optional[ModelConfig] = None,
        n_seeds: int = 2,
        occupancy: Optional[OccupancyModel] = None,
        jobs: Optional[int] = None,
        **analyzer_kwargs) -> ValidationReport:
    """Run the analyzer and the simulator at ``sim_config``'s operating
    point and tabulate per-operation agreement.

    ``analyzer=None`` uses the algorithm's registered analytical model
    (see :mod:`repro.algorithms`).  ``model_config`` defaults to
    :func:`measured_model_config` (shape measured from an
    identically-built tree).  ``jobs`` fans the replication seeds out
    over worker processes (see :mod:`repro.parallel`); results are
    identical to serial execution.
    """
    analyzer = resolve_analyzer(analyzer, sim_config.algorithm)
    config = model_config if model_config is not None \
        else measured_model_config(sim_config)
    if occupancy is not None:
        analyzer_kwargs["occupancy"] = occupancy
    prediction = analyzer(config, sim_config.arrival_rate,
                          **analyzer_kwargs)
    results = run_replications(sim_config, n_seeds=n_seeds, jobs=jobs)
    return _report(sim_config, prediction, results)


def _report(sim_config: SimulationConfig,
            prediction: AlgorithmPrediction,
            results: List[SimulationResult]) -> ValidationReport:
    means = pooled_response_means(results)
    rows = [ComparisonRow(op, prediction.response(op), means[op])
            for op in OPERATIONS]
    return ValidationReport(
        algorithm=sim_config.algorithm,
        arrival_rate=sim_config.arrival_rate,
        rows=rows, prediction=prediction, results=results,
    )


def sweep_agreement(analyzer: Optional[Analyzer],
                    sim_config: SimulationConfig,
                    rates: Sequence[float], n_seeds: int = 2,
                    jobs: Optional[int] = None,
                    ) -> Dict[float, ValidationReport]:
    """Validate several operating points, reusing one measured shape.

    ``analyzer=None`` uses the algorithm's registered analytical model.
    The whole ``(rate, seed)`` grid is submitted as one batch through
    :func:`repro.parallel.replication_grid`, so with ``jobs=N`` (or an
    ambient parallel execution context) every point's replications
    overlap.
    """
    analyzer = resolve_analyzer(analyzer, sim_config.algorithm)
    config = measured_model_config(sim_config)
    points = [sim_config.with_rate(rate) for rate in rates]
    grid = replication_grid(points, n_seeds, jobs=jobs)
    return {rate: _report(point, analyzer(config, rate), results)
            for rate, point, results in zip(rates, points, grid)}
