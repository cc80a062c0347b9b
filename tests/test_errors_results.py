"""Coverage for the error hierarchy and result containers."""

import math

import pytest

from repro import errors
from repro.model.mg1 import LockCouplingServer
from repro.model.occupancy import OccupancyModel
from repro.model.params import paper_default_config
from repro.model.results import (
    AlgorithmPrediction,
    LevelSolution,
    occupancy_for,
    solve_level,
    unstable_prediction,
)
from repro.model.rwqueue import RWQueueInput, solve_rw_queue


class TestErrorHierarchy:
    def test_everything_is_a_repro_error(self):
        leaf_errors = [
            errors.ConfigurationError("x"),
            errors.UnstableQueueError(),
            errors.ConvergenceError("x"),
            errors.ProcessError("x"),
            errors.LockProtocolError("x"),
            errors.InvariantViolationError("x"),
        ]
        for error in leaf_errors:
            assert isinstance(error, errors.ReproError)

    def test_configuration_error_is_value_error(self):
        assert isinstance(errors.ConfigurationError("x"), ValueError)

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

    def test_unstable_prediction(self):
        prediction = unstable_prediction("test", 5.0, saturated_level=3)
        assert not prediction.stable
        assert prediction.saturated_level == 3
        assert prediction.response("insert") == math.inf
        assert prediction.root_writer_utilization == math.inf
        assert prediction.max_writer_utilization == math.inf


class TestSolveLevel:
    """The shared level solver: Theorem 6, then Theorem 4 or Theorem 3."""

    def test_theorem4_wait(self):
        queue = solve_rw_queue(RWQueueInput(0.3, 0.1, 1.0, 0.5))
        drain = queue.rho_w * queue.r_u + (1.0 - queue.rho_w) * queue.r_e
        solved = solve_level(2, 0.3, 0.1, 1.0, 0.5)
        assert (solved.level, solved.rho_w, solved.r_u, solved.r_e) == \
            (2, queue.rho_w, queue.r_u, queue.r_e)
        assert solved.R == pytest.approx(
            queue.rho_w / (1.0 - queue.rho_w) * (1.0 / 0.5 + drain))
        assert solved.W == solved.R + drain

    def test_theorem3_wait_for_coupled_holds(self):
        below = _level(1, rho=0.2, r=0.5)
        solved = solve_level(2, 0.3, 0.1, 1.0, 0.5,
                             coupled=(1.5, 0.1, 3.0, below))
        drain = solved.W - solved.R
        server = LockCouplingServer(
            t_e=1.5 + drain, p_f=0.1, t_f=3.0, rho_o=0.2,
            inv_mu_o=0.5 / 0.2 + below.r_u, r_e_child=below.r_e)
        assert solved.R == pytest.approx(server.wait(0.1, solved.rho_w))

    def test_no_writers_no_wait(self):
        solved = solve_level(3, 0.3, 0.0, 1.0, 0.0,
                             coupled=(1.0, 0.1, 3.0, _level()))
        assert solved.rho_w == solved.R == 0.0

    def test_saturation_names_the_level(self):
        with pytest.raises(errors.UnstableQueueError) as caught:
            solve_level(4, 0.5, 1.5, 1.0, 1.0)
        assert caught.value.level == 4


def test_occupancy_for_defaults_to_corollary1():
    config = paper_default_config()
    assert occupancy_for(config, None) is OccupancyModel.corollary1(
        config.mix, config.order, config.height)
    measured = OccupancyModel.uniform(0.1, config.height)
    assert occupancy_for(config, measured) is measured
