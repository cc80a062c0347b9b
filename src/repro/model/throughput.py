"""Throughput solvers.

* :func:`max_throughput` — Theorem 2's maximum sustainable arrival rate:
  the largest rate at which every lock queue is still stable (for
  lock-coupling the binding queue is the root; for the Link-type
  algorithm it may be any level).
* :func:`arrival_rate_for_root_utilization` — the arrival rate at which
  the root writer utilization reaches a target (Section 6 uses
  rho_w = .5 as the "effective maximum arrival rate" against which the
  rules of thumb are checked).

Both are monotone bisection searches over the analytical predictions, so
they work unchanged for all three algorithm analyses (pass the analyzer
callable).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigurationError, ConvergenceError
from repro.model.params import ModelConfig
from repro.model.results import AlgorithmPrediction

Analyzer = Callable[..., AlgorithmPrediction]

#: Hard ceiling for the exponential bracket search; arrival rates are in
#: units of 1/root-search so physical systems sit far below this.
_BRACKET_LIMIT = 1e9


def _bracket_instability(analyze: Analyzer, config: ModelConfig,
                         probe, start: float) -> float:
    """Grow an upper bound until the prediction goes unstable."""
    hi = start
    while probe(analyze(config, hi)) and hi < _BRACKET_LIMIT:
        hi *= 2.0
    if hi >= _BRACKET_LIMIT:
        raise ConvergenceError(
            "no instability found below the bracket limit; the algorithm "
            "has no effective maximum throughput at this configuration "
            "(the paper observes this for the Link-type algorithm)",
            solver="max-throughput",
            context={"bracket_limit": _BRACKET_LIMIT},
        )
    return hi


def max_throughput(analyze: Analyzer, config: ModelConfig,
                   rel_tol: float = 1e-4, start: float = 1e-3,
                   **analyzer_kwargs) -> float:
    """Largest arrival rate with a stable prediction (Theorem 2).

    ``analyze`` is one of the ``analyze_*`` functions; extra keyword
    arguments are forwarded to it.
    """
    def run(config: ModelConfig, rate: float) -> AlgorithmPrediction:
        return analyze(config, rate, **analyzer_kwargs)

    def stable(prediction: AlgorithmPrediction) -> bool:
        return prediction.stable

    if not stable(run(config, start)):
        # Shrink until stable so the bracket is valid.
        lo = start
        while not stable(run(config, lo)):
            lo /= 2.0
            if lo < 1e-15:
                raise ConvergenceError(
                    "unstable even at negligible load",
                    solver="max-throughput",
                    context={"start": start})
        hi = lo * 2.0
    else:
        hi = _bracket_instability(run, config, stable, start)
        lo = hi / 2.0
    return _bisect(lambda rate: stable(run(config, rate)), lo, hi, rel_tol)


def arrival_rate_for_root_utilization(
        analyze: Analyzer, config: ModelConfig, target: float = 0.5,
        rel_tol: float = 1e-4, start: float = 1e-3,
        use_max_level: bool = False, **analyzer_kwargs) -> float:
    """Arrival rate at which the (root) writer utilization hits ``target``.

    With ``use_max_level=True`` the criterion is the maximum rho_w over
    all levels instead of the root's (appropriate for the Link-type
    algorithm, whose bottleneck is usually a lower level).
    """
    if not 0.0 < target < 1.0:
        raise ConfigurationError(f"target utilization must be in (0,1), got {target}")

    def utilization(rate: float) -> float:
        prediction = analyze(config, rate, **analyzer_kwargs)
        if use_max_level:
            return prediction.max_writer_utilization
        return prediction.root_writer_utilization

    def below(rate: float) -> bool:
        return utilization(rate) < target

    if not below(start):
        lo = start
        while not below(lo):
            lo /= 2.0
            if lo < 1e-15:
                raise ConvergenceError(
                    f"utilization exceeds {target} even at negligible load",
                    solver="root-utilization",
                    context={"target": target})
        hi = lo * 2.0
    else:
        hi = start
        while below(hi):
            hi *= 2.0
            if hi > _BRACKET_LIMIT:
                raise ConvergenceError(
                    f"utilization never reaches {target}; effectively "
                    "unbounded throughput at this configuration",
                    solver="root-utilization",
                    context={"target": target,
                             "bracket_limit": _BRACKET_LIMIT})
        lo = hi / 2.0
    return _bisect(below, lo, hi, rel_tol)


def _bisect(predicate_holds_below: Callable[[float], bool], lo: float,
            hi: float, rel_tol: float, max_iter: int = 200) -> float:
    """Largest x in [lo, hi] where the predicate still holds."""
    for _ in range(max_iter):
        if hi - lo <= rel_tol * hi:
            return lo
        mid = 0.5 * (lo + hi)
        if predicate_holds_below(mid):
            lo = mid
        else:
            hi = mid
    raise ConvergenceError(  # pragma: no cover - 200 halvings always suffice
        f"bisection failed to converge in {max_iter} iterations",
        solver="bisection", iterations=max_iter, residual=hi - lo)

