"""Coverage for the error hierarchy and result containers."""

import math

import pytest

from repro import errors
from repro.model.results import (
    AlgorithmPrediction,
    LevelSolution,
    unstable_prediction,
)


class TestErrorHierarchy:
    def test_everything_is_a_repro_error(self):
        leaf_errors = [
            errors.ConfigurationError("x"),
            errors.UnstableQueueError(),
            errors.ConvergenceError("x"),
            errors.ProcessError("x"),
            errors.LockProtocolError("x"),
            errors.KeyNotFoundError("x"),
            errors.InvariantViolationError("x"),
        ]
        for error in leaf_errors:
            assert isinstance(error, errors.ReproError)

    def test_configuration_error_is_value_error(self):
        assert isinstance(errors.ConfigurationError("x"), ValueError)

    def test_key_not_found_is_key_error(self):
        assert isinstance(errors.KeyNotFoundError("x"), KeyError)

    def test_unstable_queue_carries_level(self):
        error = errors.UnstableQueueError("saturated", level=4)
        assert error.level == 4
        assert errors.UnstableQueueError().level is None

    def test_model_vs_simulation_branches(self):
        assert issubclass(errors.UnstableQueueError, errors.ModelError)
        assert issubclass(errors.LockProtocolError, errors.SimulationError)
        assert not issubclass(errors.ModelError, errors.SimulationError)


def _level(level=1, rho=0.2, r=0.5, w=0.8):
    return LevelSolution(level=level, lambda_r=0.3, lambda_w=0.1,
                         mu_r=1.0, mu_w=0.5, rho_w=rho, r_u=0.1,
                         r_e=0.2, R=r, W=w)


class TestLevelSolution:
    def test_reader_drain(self):
        level = _level(rho=0.25)
        expected = 0.25 * 0.1 + 0.75 * 0.2
        assert level.reader_drain == pytest.approx(expected)

    def test_writer_service_time(self):
        assert _level().writer_service_time == pytest.approx(2.0)


class TestAlgorithmPrediction:
    def _prediction(self):
        return AlgorithmPrediction(
            algorithm="test", arrival_rate=0.1, stable=True,
            levels=[_level(1, rho=0.1), _level(2, rho=0.4),
                    _level(3, rho=0.3)],
            response_times={"search": 10.0, "insert": 12.0,
                            "delete": 11.0})

    def test_root_vs_max_utilization(self):
        prediction = self._prediction()
        assert prediction.root_writer_utilization == 0.3   # top level
        assert prediction.max_writer_utilization == 0.4    # level 2

    def test_level_accessor(self):
        assert self._prediction().level(2).level == 2

    def test_mean_response(self):
        assert self._prediction().mean_response == pytest.approx(11.0)

    def test_unstable_prediction(self):
        prediction = unstable_prediction("test", 5.0, saturated_level=3)
        assert not prediction.stable
        assert prediction.saturated_level == 3
        assert prediction.response("insert") == math.inf
        assert prediction.root_writer_utilization == math.inf
        assert prediction.max_writer_utilization == math.inf
        assert prediction.mean_response == math.inf
