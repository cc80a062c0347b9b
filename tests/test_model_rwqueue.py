"""Unit tests for the FCFS R/W queue fixed point (Theorem 6)."""

import math

import pytest

from repro.errors import ConfigurationError, UnstableQueueError
from repro.model import rwqueue
from repro.model.rwqueue import RWQueueInput, solve_rw_queue


def _solve(lambda_r, lambda_w, mu_r, mu_w):
    return solve_rw_queue(RWQueueInput(lambda_r, lambda_w, mu_r, mu_w))


class TestLimits:
    def test_no_writers(self):
        sol = _solve(1.0, 0.0, 2.0, 1.0)
        assert sol.rho_w == 0.0
        assert sol.aggregate_service_time == 0.0

    def test_no_readers_reduces_to_mm1(self):
        """Without readers the fixed point is rho = lambda_w / mu_w."""
        sol = _solve(0.0, 0.3, 1.0, 1.0)
        assert sol.rho_w == pytest.approx(0.3)
        assert sol.r_u == 0.0
        assert sol.r_e == 0.0
        assert sol.aggregate_service_time == pytest.approx(1.0)

    def test_readers_inflate_utilization(self):
        base = _solve(0.0, 0.3, 1.0, 1.0).rho_w
        with_readers = _solve(0.5, 0.3, 1.0, 1.0).rho_w
        assert with_readers > base


class TestFixedPoint:
    @pytest.mark.parametrize("lambda_r,lambda_w,mu_r,mu_w", [
        (0.5, 0.2, 1.0, 1.0),
        (2.0, 0.1, 3.0, 0.8),
        (0.05, 0.4, 1.0, 2.0),
        (1.0, 0.01, 1.0, 0.05),
    ])
    def test_residual_is_zero(self, lambda_r, lambda_w, mu_r, mu_w):
        sol = _solve(lambda_r, lambda_w, mu_r, mu_w)
        rhs = lambda_w * (1.0 / mu_w
                          + sol.rho_w * sol.r_u
                          + (1.0 - sol.rho_w) * sol.r_e)
        assert sol.rho_w == pytest.approx(rhs, abs=1e-9)

    def test_theorem6_drain_formulas(self):
        sol = _solve(0.5, 0.2, 1.0, 1.0)
        expected_r_u = math.log1p(sol.rho_w * 0.5 / 0.2) / 1.0
        expected_r_e = math.log1p((1 + sol.rho_w) * 0.5 / (1.0 + 0.2)) / 1.0
        assert sol.r_u == pytest.approx(expected_r_u)
        assert sol.r_e == pytest.approx(expected_r_e)

    def test_aggregate_service_composition(self):
        sol = _solve(0.5, 0.2, 1.0, 1.0)
        assert sol.aggregate_service_time == pytest.approx(
            1.0 + sol.mean_reader_drain)

    def test_monotone_in_writer_rate(self):
        rhos = [_solve(0.5, lw, 1.0, 1.0).rho_w
                for lw in (0.05, 0.1, 0.2, 0.4)]
        assert all(a < b for a, b in zip(rhos, rhos[1:]))

    def test_monotone_in_reader_rate(self):
        rhos = [_solve(lr, 0.2, 1.0, 1.0).rho_w
                for lr in (0.1, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(rhos, rhos[1:]))

    def test_reader_drain_logarithmic(self):
        """Serving n readers grows like log n: doubling the reader rate
        must not double the drain."""
        lo = _solve(1.0, 0.2, 1.0, 1.0)
        hi = _solve(2.0, 0.2, 1.0, 1.0)
        assert hi.r_e < 2.0 * lo.r_e
        assert hi.r_e > lo.r_e


class TestGoldenSolutions:
    """``float.hex()`` of every solution field, captured when the root
    finder was scipy.optimize.brentq: the in-repo Brent port must keep
    them bit for bit."""

    @pytest.mark.parametrize("rates,expected", [
        pytest.param((2.5, 0.05, 3.0, 0.8), (
            "0x1.2fc1f65509e6ap-4", "0x1.0868264a448d6p-1",
            "0x1.af1d5f3cea97bp-3", "0x1.7bb273ea4c1dbp+0"),
            id="read-heavy"),
        pytest.param((0.05, 0.45, 1.0, 0.7), (
            "0x1.588c9c74d1a75p-1", "0x1.275b44485b612p-4",
            "0x1.cb734eaee8929p-5", "0x1.7ed51f9e3de72p+0"),
            id="write-heavy"),
        pytest.param((0.2, 0.8, 1.0, 1.0), (
            "0x1.f2a5eee350ee0p-1", "0x1.be49e0842e35cp-3",
            "0x1.961cd41af50fep-3", "0x1.37a7b54e1294cp+0"),
            id="near-saturation"),
        pytest.param((0.0, 0.3, 1.0, 1.3), (
            "0x1.d89d89d89d89cp-3", "0x0.0p+0",
            "0x0.0p+0", "0x1.89d89d89d89d8p-1"),
            id="no-readers"),
    ])
    def test_solution_bits(self, rates, expected):
        sol = _solve(*rates)
        assert (sol.rho_w.hex(), sol.r_u.hex(), sol.r_e.hex(),
                sol.aggregate_service_time.hex()) == expected

    def test_near_saturation_case_is_near_saturation(self):
        assert _solve(0.2, 0.8, 1.0, 1.0).rho_w > 0.97


class TestSaturation:
    def test_overload_raises(self):
        with pytest.raises(UnstableQueueError):
            _solve(0.5, 1.5, 1.0, 1.0)

    def test_exact_boundary_raises(self):
        with pytest.raises(UnstableQueueError):
            _solve(0.0, 1.0, 1.0, 1.0)

    def test_level_attached_to_error(self):
        with pytest.raises(UnstableQueueError) as exc_info:
            solve_rw_queue(RWQueueInput(0.5, 1.5, 1.0, 1.0), level=3)
        assert exc_info.value.level == 3


class TestValidation:
    def test_negative_rates_rejected(self):
        with pytest.raises(ConfigurationError):
            RWQueueInput(-1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            RWQueueInput(0.0, -1.0, 1.0, 1.0)

    def test_arrivals_need_service_capacity(self):
        with pytest.raises(ConfigurationError):
            RWQueueInput(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            RWQueueInput(0.0, 1.0, 1.0, 0.0)

    def test_idle_queue_is_fine(self):
        sol = solve_rw_queue(RWQueueInput(0.0, 0.0, 0.0, 0.0))
        assert sol.rho_w == 0.0


class TestPoisonedSolver:
    """A non-finite fixed-point evaluation must raise a structured
    ConvergenceError carrying the full operating point, never a NaN."""

    def test_persistent_poison_raises_with_operating_point(
            self, monkeypatch):
        from repro.errors import ConvergenceError
        # Every evaluation returns NaN.
        monkeypatch.setattr(rwqueue, "_residual",
                            lambda *rates: lambda rho: math.nan)
        with pytest.raises(ConvergenceError) as exc_info:
            solve_rw_queue(RWQueueInput(0.5, 0.2, 1.0, 1.0), level=2)
        error = exc_info.value
        assert error.solver == "rw-queue"
        context = error.context
        assert context["level"] == 2
        assert context["lambda_r"] == 0.5
        assert context["lambda_w"] == 0.2
        assert context["mu_r"] == 1.0
        assert context["mu_w"] == 1.0
        assert "rho_w_estimate" in context

    def test_mid_search_poison_raises_with_operating_point(
            self, monkeypatch):
        from repro.errors import ConvergenceError
        # The stability guard at the top of the bracket evaluates
        # cleanly; the root finder's first evaluation, at rho = 0, is
        # NaN.
        clean = rwqueue._residual

        def poisoned_below_half(*rates):
            g = clean(*rates)
            return lambda rho: g(rho) if rho > 0.5 else math.nan

        monkeypatch.setattr(rwqueue, "_residual", poisoned_below_half)
        with pytest.raises(ConvergenceError) as exc_info:
            solve_rw_queue(RWQueueInput(0.5, 0.2, 1.0, 1.0), level=2)
        error = exc_info.value
        assert error.solver == "rw-queue"
        assert error.context["level"] == 2
        assert error.context["lambda_w"] == 0.2
