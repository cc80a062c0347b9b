"""Solver divergence guards, per registered algorithm analyzer.

A parameter point past saturation must surface as a structured outcome
— an unstable prediction with infinite (never NaN) responses, or a
structured :class:`~repro.errors.ConvergenceError` /
:class:`~repro.errors.UnstableQueueError` — and a numerically poisoned
fixed point must raise :class:`~repro.errors.ConvergenceError` instead
of propagating NaN into result tables.
"""

from __future__ import annotations

import math

import pytest

from repro.algorithms import all_algorithms
from repro.errors import ConvergenceError, UnstableQueueError
from repro.model import rwqueue
from repro.model.params import paper_default_config
from repro.model.rwqueue import RWQueueInput, solve_rw_queue

#: Far past every algorithm's saturation knee at the paper's
#: configuration (rates there are O(0.1) per root-search time).
_PAST_SATURATION_RATE = 50.0

_MODELED = [spec for spec in all_algorithms() if spec.has_model]


@pytest.fixture(scope="module")
def config():
    return paper_default_config()


@pytest.fixture
def poisoned(monkeypatch):
    """Every Theorem 6 fixed-point evaluation returns NaN."""
    monkeypatch.setattr(rwqueue, "_residual",
                        lambda *rates: lambda rho: math.nan)


@pytest.mark.parametrize("spec", _MODELED, ids=lambda s: s.name)
class TestPastSaturationPerAlgorithm:

    def test_no_nan_propagation_past_saturation(self, spec, config):
        prediction = spec.analyze(config, _PAST_SATURATION_RATE)
        for operation, value in prediction.response_times.items():
            assert not math.isnan(value), \
                f"{spec.name}/{operation} produced NaN past saturation"
        if not prediction.stable:
            assert all(math.isinf(v)
                       for v in prediction.response_times.values())

    def test_poisoned_fixed_point_raises_convergence_error(
            self, spec, config, poisoned):
        # Every evaluation NaN: the solver must fail with the
        # structured error, not emit NaN numbers.
        with pytest.raises((ConvergenceError, UnstableQueueError)) \
                as excinfo:
            spec.analyze(config, _PAST_SATURATION_RATE)
        if isinstance(excinfo.value, ConvergenceError):
            assert excinfo.value.solver == "rw-queue"
            assert excinfo.value.iterations is not None


class TestQueueSolverGuards:

    def test_structured_convergence_error_fields(self, poisoned):
        q = RWQueueInput(lambda_r=0.5, lambda_w=0.1, mu_r=2.0, mu_w=1.0)
        with pytest.raises(ConvergenceError) as excinfo:
            solve_rw_queue(q, level=3)
        error = excinfo.value
        assert error.solver == "rw-queue"
        assert error.iterations is not None
        assert error.context["level"] == 3
        assert error.context["lambda_w"] == q.lambda_w

    def test_saturation_still_raises_unstable_not_convergence(self):
        q = RWQueueInput(lambda_r=0.5, lambda_w=2.0, mu_r=2.0, mu_w=1.0)
        with pytest.raises(UnstableQueueError):
            solve_rw_queue(q)

    def test_closed_system_prediction_is_finite(self):
        from repro.model.closed import closed_system_prediction

        spec = _MODELED[0]
        config = paper_default_config()
        # Sanity: the real solver works and reports a finite point.
        prediction = closed_system_prediction(spec.analyze, config, 5)
        assert math.isfinite(prediction.throughput)
        assert math.isfinite(prediction.response_time)
