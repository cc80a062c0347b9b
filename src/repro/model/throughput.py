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
callable).  Each brackets the answer between two doublings of ``start``,
found by bisecting the doubling exponent, then bisects the bracket.

A search is a pure function of its arguments.  A :class:`CapacitySearch`
names one by value, so the figures and claims hand theirs to their
run's batch as ``"search"`` tasks (:class:`~repro.parallel.SimTask`):
the batch runs each distinct search once, and the result cache serves
it on a rerun.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple, Union

from repro.errors import ConfigurationError, ConvergenceError
from repro.model.params import ModelConfig
from repro.model.results import AlgorithmPrediction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.config import SimulationConfig

Analyzer = Callable[..., AlgorithmPrediction]

#: Hard ceiling for the exponential bracket search; arrival rates are in
#: units of 1/root-search so physical systems sit far below this.
_BRACKET_LIMIT = 1e9


def _first_failing_doubling(holds: Callable[[float], bool], start: float,
                            within_limit: Callable[[float], bool],
                            error: ConvergenceError) -> float:
    """Smallest ``start * 2**k`` (k >= 1) at which ``holds`` fails.

    ``holds(start)`` is known to be true and is not evaluated again.  The
    exponent k is bisected over [1, K), where K is the first exponent
    whose rate is no longer ``within_limit``; ``error`` is raised when
    ``holds`` does not fail below K.  Scaling by a power of two is exact,
    so for a predicate monotone in the rate (the premise :func:`_bisect`
    also rests on) this returns the float that doubling one step at a
    time reaches, in O(log K) evaluations instead of O(k).
    """
    limit = 0
    while within_limit(math.ldexp(start, limit)):
        limit += 1
    lo, hi = 0, limit  # holds at exponent lo; fails at hi unless hi == limit
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(math.ldexp(start, mid)):
            lo = mid
        else:
            hi = mid
    if hi == limit:
        raise error
    return math.ldexp(start, hi)


def max_throughput(analyze: Analyzer, config: ModelConfig,
                   rel_tol: float = 1e-4, start: float = 1e-3,
                   **analyzer_kwargs) -> float:
    """Largest arrival rate with a stable prediction (Theorem 2).

    ``analyze`` is one of the ``analyze_*`` functions; extra keyword
    arguments are forwarded to it.
    """
    def stable(rate: float) -> bool:
        return analyze(config, rate, **analyzer_kwargs).stable

    return _bracketed_search(
        stable, start, rel_tol, lambda rate: rate < _BRACKET_LIMIT,
        unbounded=ConvergenceError(
            "no instability found below the bracket limit; the "
            "algorithm has no effective maximum throughput at this "
            "configuration (the paper observes this for the Link-type "
            "algorithm)",
            solver="max-throughput",
            context={"bracket_limit": _BRACKET_LIMIT}),
        never_holds=ConvergenceError(
            "unstable even at negligible load",
            solver="max-throughput",
            context={"start": start}))


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

    def below(rate: float) -> bool:
        prediction = analyze(config, rate, **analyzer_kwargs)
        if use_max_level:
            return prediction.max_writer_utilization < target
        return prediction.root_writer_utilization < target

    return _bracketed_search(
        below, start, rel_tol, lambda rate: rate <= _BRACKET_LIMIT,
        unbounded=ConvergenceError(
            f"utilization never reaches {target}; effectively "
            "unbounded throughput at this configuration",
            solver="root-utilization",
            context={"target": target, "bracket_limit": _BRACKET_LIMIT}),
        never_holds=ConvergenceError(
            f"utilization exceeds {target} even at negligible load",
            solver="root-utilization",
            context={"target": target}))


@dataclass(frozen=True)
class CapacitySearch:
    """One capacity search, named by value: Theorem 2's maximum
    throughput (``target`` None, :func:`max_throughput`) or the rate at
    which the writer utilization reaches ``target``
    (:func:`arrival_rate_for_root_utilization`).

    ``analyze`` is the analyzer's ``"module:function"`` reference (like
    :attr:`~repro.algorithms.AlgorithmSpec.analyze_ref`) and
    ``analyzer_kwargs`` its keyword arguments as sorted ``(name,
    value)`` items, so a search pickles, hashes and keys stably; build
    one with :meth:`of`.  ``config`` is the model configuration, or a
    :class:`~repro.simulator.config.SimulationConfig` standing for the
    model of the tree that config's runs start from
    (:func:`~repro.model.validation.measured_model_config`).
    """

    analyze: str
    config: Union[ModelConfig, "SimulationConfig"]
    target: Optional[float] = None
    analyzer_kwargs: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, analyze: Analyzer,
           config: Union[ModelConfig, "SimulationConfig"], *,
           target: Optional[float] = None,
           **analyzer_kwargs) -> "CapacitySearch":
        """The search of ``analyze``, a module-level function."""
        if "<" in analyze.__qualname__:
            raise ConfigurationError(
                "a capacity search needs a module-level analyzer, got "
                f"{analyze.__qualname__}")
        return cls(f"{analyze.__module__}:{analyze.__qualname__}", config,
                   target, tuple(sorted(analyzer_kwargs.items())))

    def run(self) -> float:
        """The searched rate; ``math.inf`` when the search is unbounded
        (the ``ConvergenceError`` whose context names the bracket
        limit).  Any other error propagates."""
        module, _, name = self.analyze.partition(":")
        analyze = getattr(importlib.import_module(module), name)
        config = self.config
        if not isinstance(config, ModelConfig):
            from repro.model.validation import measured_model_config
            config = measured_model_config(config)
        kwargs = dict(self.analyzer_kwargs)
        try:
            if self.target is None:
                return max_throughput(analyze, config, **kwargs)
            return arrival_rate_for_root_utilization(
                analyze, config, self.target, **kwargs)
        except ConvergenceError as error:
            if "bracket_limit" in error.context:
                return math.inf
            raise


def _bracketed_search(holds: Callable[[float], bool], start: float,
                      rel_tol: float,
                      within_limit: Callable[[float], bool],
                      unbounded: ConvergenceError,
                      never_holds: ConvergenceError) -> float:
    """Largest rate at which the monotone ``holds`` is true, to
    ``rel_tol``: double ``start`` to the first failure
    (:func:`_first_failing_doubling`; ``unbounded`` past
    ``within_limit``) or halve it until ``holds`` (``never_holds`` below
    1e-15), then bisect."""
    if holds(start):
        hi = _first_failing_doubling(holds, start, within_limit, unbounded)
    else:
        lo = start
        while True:
            lo /= 2.0
            if lo < 1e-15:
                raise never_holds
            if holds(lo):
                break
        hi = lo * 2.0
    return _bisect(holds, hi / 2.0, hi, rel_tol)


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

