"""The figure registry: every paper + extension figure, with its
model-vs-simulation comparisons declared as data.

A :class:`FigureSpec` is the one per-figure record: its id names the
sweep driver (:func:`repro.experiments.registry.driver`), and it adds
what the *report* pipeline needs on top of the raw series — which
column pairs overlay an analytical prediction on simulated points, what
error metric applies, and how much divergence the reproduction
tolerates before the run is declared a validation failure
(Thomasian-style contention-analysis validation: the claim "the model
matches the simulation" is checked numerically, per figure, per
operating point).

Thresholds bound the **median** relative (or absolute) error across a
comparison's valid points: single-seed smoke runs are noisy point by
point, and the paper's own methodology treats near-saturation
divergence as expected, so the median over the sweep is the robust
statistic that still catches a broken model or simulator.  They were
calibrated against ``--scale 0.1`` and ``--scale 0.05`` runs with ~3x
headroom over the observed error (see ``docs/reproduction.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.algorithms import names
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentTable
from repro.experiments.registry import driver, run_drivers
from repro.parallel import ResultCache
from repro.resilience.policy import ResilienceOptions

#: Error metrics a comparison may declare.
RELATIVE = "relative"
ABSOLUTE = "absolute"


@dataclass(frozen=True)
class Comparison:
    """One analytical-vs-simulated column pair of a figure."""

    #: Registry name of the algorithm the pair belongs to.
    algorithm: str
    #: Human label of the compared quantity ("insert response", ...).
    quantity: str
    model_column: str
    sim_column: str
    #: ``"relative"`` (|sim-model|/|model|) or ``"absolute"`` (|sim-model|).
    metric: str = RELATIVE
    #: Maximum allowed median error across the comparison's valid
    #: points; breaching it fails the validation report.
    threshold: float = 0.35


@dataclass(frozen=True)
class FigureSpec:
    """One figure of the reproduction's output set.

    Its title and figure label live in the table its driver renders."""

    figure_id: str
    comparisons: Tuple[Comparison, ...] = field(default_factory=tuple)
    #: Columns to draw (None: every non-x column).  Used where a table
    #: carries bookkeeping columns on a different scale than the series
    #: (fig09's operation counts next to per-1k rates).
    plot_columns: Optional[Tuple[str, ...]] = None

    @property
    def kind(self) -> str:
        """``"paper"`` for Figures 3-16, ``"ext"`` for the extensions."""
        return "ext" if self.figure_id.startswith("ext") else "paper"

    def start(self, scale: float = 1.0):
        """Call the figure's driver: its table, or the generator that
        yields its simulation and search tasks (finish it with
        :func:`~repro.experiments.registry.run_drivers`)."""
        return driver(self.figure_id)(scale=scale)

    def run(self, scale: float = 1.0, jobs: int = 1,
            cache: Optional[ResultCache] = None,
            progress: Optional[Callable] = None,
            resilience: Optional[ResilienceOptions] = None,
            ) -> ExperimentTable:
        """Regenerate the figure's table, its simulations and searches
        run as one batch with the given settings (serial, uncached,
        silent and fail-fast by default)."""
        (table,), _report = run_drivers(
            [self.start(scale)], jobs=jobs, cache=cache,
            progress=progress, resilience=resilience)
        return table


def _response_pair(algorithm: str, operation: str,
                   threshold: float) -> Comparison:
    return Comparison(algorithm, f"{operation} response",
                      f"model_{operation}_response",
                      f"sim_{operation}_response",
                      metric=RELATIVE, threshold=threshold)


_ENTRIES: Tuple[FigureSpec, ...] = (
    # Figures 3/4: Naive Lock-coupling saturates early; simulated
    # points near the knee sit well above the open-model curve.
    FigureSpec("fig03",
               (_response_pair(names.NAIVE_LOCK_COUPLING, "insert", 0.40),)),
    FigureSpec("fig04",
               (_response_pair(names.NAIVE_LOCK_COUPLING, "search", 0.40),)),
    FigureSpec("fig05",
               (_response_pair(names.OPTIMISTIC_DESCENT, "insert", 0.35),)),
    FigureSpec("fig06",
               (_response_pair(names.OPTIMISTIC_DESCENT, "search", 0.35),)),
    FigureSpec("fig07",
               (_response_pair(names.LINK_TYPE, "insert", 0.35),)),
    FigureSpec("fig08",
               (_response_pair(names.LINK_TYPE, "search", 0.35),)),
    # Figure 9 compares *rates of a rare event* (link crossings per
    # 1000 operations); both sides hover near zero, so the bound is
    # absolute, in the figure's own per-1k units.
    FigureSpec("fig09",
               (Comparison(names.LINK_TYPE, "link crossings per 1k ops",
                           "model_crossings_per_1k_ops",
                           "sim_crossings_per_1k_ops",
                           metric=ABSOLUTE, threshold=4.0),),
               plot_columns=("model_crossings_per_1k_ops",
                             "sim_crossings_per_1k_ops")),
    # Figure 10: the simulator samples writer *presence* at the root, a
    # documented slight over-estimate of the model's aggregate rho_w.
    FigureSpec("fig10",
               (Comparison(names.NAIVE_LOCK_COUPLING,
                           "root writer utilization",
                           "model_rho_w_root", "sim_rho_w_root",
                           metric=RELATIVE, threshold=0.60),)),
    FigureSpec("fig11"),
    # Figures 12/15 and ext01 are analytical by default; their sim
    # columns (and these comparisons) only materialize when their
    # drivers are called with ``simulate=True``.
    FigureSpec("fig12", (
        Comparison(names.NAIVE_LOCK_COUPLING, "insert response",
                   "naive_insert", "sim_naive_insert", threshold=0.40),
        Comparison(names.OPTIMISTIC_DESCENT, "insert response",
                   "optimistic_insert", "sim_optimistic_insert",
                   threshold=0.40),
        Comparison(names.LINK_TYPE, "insert response",
                   "link_insert", "sim_link_insert", threshold=0.40),
    )),
    FigureSpec("fig13"),
    FigureSpec("fig14"),
    FigureSpec("fig15", (
        Comparison(names.OPTIMISTIC_DESCENT, "insert response (no recovery)",
                   "no_recovery_insert", "sim_no_recovery", threshold=0.45),
        Comparison(names.OPTIMISTIC_DESCENT, "insert response (leaf-only)",
                   "leaf_only_insert", "sim_leaf_only", threshold=0.45),
        Comparison(names.OPTIMISTIC_DESCENT, "insert response (naive rec.)",
                   "naive_recovery_insert", "sim_naive_recovery",
                   threshold=0.60),
    )),
    FigureSpec("fig16"),
    FigureSpec("ext01", (
        Comparison(names.TWO_PHASE_LOCKING, "insert response",
                   "two_phase_insert", "sim_two_phase_insert",
                   threshold=0.45),
    )),
    FigureSpec("ext02"),
    FigureSpec("ext03"),
    # ext04 overlays the interactive response-time-law fixed point on
    # the closed-system simulation for the first closed-capable spec.
    FigureSpec("ext04", (
        Comparison(names.NAIVE_LOCK_COUPLING, "closed-system throughput",
                   "naive_model_throughput", "naive_throughput",
                   metric=RELATIVE, threshold=0.35),
    )),
    FigureSpec("ext05"),
    FigureSpec("ext06"),
    FigureSpec("ext07"),
    # ext08 validates the cluster tier on both axes: the M/G/1 router +
    # multi-class-shard response composition on the fault-free rows
    # (faulted rows carry NaN sim responses and drop out), and the
    # closed-form crash availability — exact without retries, a
    # mean-jitter rescue-horizon approximation (plus breaker sheds the
    # model does not charge) with them, hence the looser second bound.
    FigureSpec("ext08", (
        Comparison(names.NAIVE_LOCK_COUPLING, "cluster response",
                   "model_response", "sim_response",
                   metric=RELATIVE, threshold=0.35),
        Comparison(names.NAIVE_LOCK_COUPLING, "availability (fragile)",
                   "model_availability", "availability_fragile",
                   metric=ABSOLUTE, threshold=0.05),
        Comparison(names.NAIVE_LOCK_COUPLING, "availability (resilient)",
                   "model_availability_resilient",
                   "availability_resilient",
                   metric=ABSOLUTE, threshold=0.08),
    ), plot_columns=("model_availability", "availability_fragile",
                     "model_availability_resilient",
                     "availability_resilient", "goodput_fragile",
                     "goodput_resilient")),
)


def _build() -> Dict[str, FigureSpec]:
    figures: Dict[str, FigureSpec] = {}
    for spec in _ENTRIES:
        if spec.figure_id in figures:
            raise ConfigurationError(
                f"figure {spec.figure_id!r} registered twice")
        driver(spec.figure_id)  # raises when the id has no driver
        figures[spec.figure_id] = spec
    return figures


#: Every figure the pipeline can emit, in registry (paper) order.
FIGURES: Dict[str, FigureSpec] = _build()


def get_figure(figure_id: str) -> FigureSpec:
    """Look up a figure; ConfigurationError names the known ids."""
    try:
        return FIGURES[figure_id]
    except KeyError:
        raise ConfigurationError(
            f"unknown figure {figure_id!r}; known ids: "
            f"{', '.join(sorted(FIGURES))}") from None


def all_figure_ids(kind: Optional[str] = None) -> Tuple[str, ...]:
    """Registered figure ids, optionally restricted to one kind."""
    return tuple(fid for fid, spec in FIGURES.items()
                 if kind is None or spec.kind == kind)
