"""Closed-system predictions from the open-system model.

The paper analyses an open system; its introduction, though, motivates
everything with a *closed* one (a fixed multiprogramming level around
100).  The two are connected by the classic flow-equivalent
approximation / interactive response-time law: with N terminals, think
time Z and mix-weighted response time R(X) at throughput X,

.. math::  X = N / (R(X) + Z)

whose fixed point (capped by the open system's maximum throughput,
Theorem 2) predicts the closed system's operating point.  This is the
analytical counterpart of :mod:`repro.simulator.closed` and of the
``ext04`` experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigurationError, ConvergenceError
from repro.model.params import ModelConfig
from repro.model.results import AlgorithmPrediction
from repro.model.throughput import max_throughput

Analyzer = Callable[..., AlgorithmPrediction]


@dataclass(frozen=True)
class ClosedSystemPrediction:
    """Predicted operating point of a closed system."""

    multiprogramming_level: int
    think_time: float
    throughput: float
    #: Mix-weighted mean response time at the operating point.
    response_time: float
    #: The open system's maximum throughput (the plateau).
    capacity: float

    @property
    def saturated(self) -> bool:
        """True when the population pushes the system onto its plateau
        (throughput within 2% of capacity)."""
        return self.throughput >= 0.98 * self.capacity


def _mixed_response(prediction: AlgorithmPrediction,
                    config: ModelConfig) -> float:
    mix = config.mix
    return (mix.q_search * prediction.response("search")
            + mix.q_insert * prediction.response("insert")
            + mix.q_delete * prediction.response("delete"))


def closed_system_prediction(analyzer: Analyzer, config: ModelConfig,
                             multiprogramming_level: int,
                             think_time: float = 0.0,
                             rel_tol: float = 1e-6,
                             max_iterations: int = 500,
                             capacity: Optional[float] = None,
                             **analyzer_kwargs) -> ClosedSystemPrediction:
    """Solve the interactive response-time fixed point for ``analyzer``.

    Damped iteration on ``X <- N / (R(X) + Z)``, with X confined below
    the open model's maximum throughput (beyond which R is infinite).
    On the plateau the fixed point sits at the capacity itself and the
    response time follows from the response-time law
    ``R = N / X - Z``.  ``capacity`` is that maximum throughput when
    the caller already has it (a sweep over populations of one
    configuration searches for it once); without it,
    :func:`~repro.model.throughput.max_throughput` searches here.
    """
    if multiprogramming_level < 1:
        raise ConfigurationError(
            f"multiprogramming level must be >= 1, got "
            f"{multiprogramming_level}")
    if think_time < 0:
        raise ConfigurationError(f"think_time must be >= 0, got {think_time}")

    if capacity is None:
        capacity = max_throughput(analyzer, config, **analyzer_kwargs)
    n = multiprogramming_level

    def response_at(x: float) -> float:
        prediction = analyzer(config, x, **analyzer_kwargs)
        if not prediction.stable:
            return math.inf
        r = _mixed_response(prediction, config)
        if math.isnan(r):
            raise ConvergenceError(
                f"mix-weighted response is NaN at throughput {x:.6g}",
                solver="closed-system",
                context={"throughput": x,
                         "multiprogramming_level": multiprogramming_level})
        return r

    # The fixed point solves g(x) = x * (R(x) + Z) - N = 0; g is
    # strictly increasing in x (R is), so bisection is exact.  When even
    # the capacity cannot carry the population — g(capacity-) < 0 — the
    # system sits on the plateau: X = capacity and the response-time law
    # R = N/X - Z gives the (linearly growing) response.
    ceiling = 0.999 * capacity

    def g(x: float) -> float:
        r = response_at(x)
        if math.isinf(r):
            return math.inf
        return x * (r + think_time) - n

    if g(ceiling) < 0.0:
        x = capacity
        response = n / x - think_time
        return ClosedSystemPrediction(
            multiprogramming_level=n, think_time=think_time,
            throughput=x, response_time=response, capacity=capacity,
        )
    lo, hi = 1e-12, ceiling
    for iteration in range(max_iterations):
        if hi - lo <= rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    else:  # pragma: no cover - bisection halves 500 times
        raise ConvergenceError(
            "closed-system fixed point did not converge",
            solver="closed-system", iterations=max_iterations,
            residual=hi - lo,
            context={"multiprogramming_level": multiprogramming_level,
                     "think_time": think_time})
    x = 0.5 * (lo + hi)
    response = response_at(x)
    return ClosedSystemPrediction(
        multiprogramming_level=n, think_time=think_time,
        throughput=x, response_time=response, capacity=capacity,
    )
