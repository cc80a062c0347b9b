"""Unit tests for the M/G/1 machinery and the Theorem 3 server."""

import random

import pytest

from repro.errors import ConfigurationError, UnstableQueueError
from repro.model.mg1 import LockCouplingServer, pollaczek_khinchine_wait


class TestPollaczekKhinchine:
    @pytest.mark.parametrize("lam, mu", [(0.5, 1.0), (1.6, 2.0)])
    def test_reduces_to_mm1_for_exponential_service(self, lam, mu):
        # An exponential service time with mean m has E[X^2] = 2 m^2, and
        # the M/M/1 delay is rho / ((1 - rho) mu).
        rho = lam / mu
        wait = pollaczek_khinchine_wait(lam, 2.0 / mu**2, rho)
        assert wait == pytest.approx(rho / ((1.0 - rho) * mu))

    def test_deterministic_service_halves_the_wait(self):
        lam, mean = 0.5, 1.0
        exp_wait = pollaczek_khinchine_wait(lam, 2.0 * mean**2, lam * mean)
        det_wait = pollaczek_khinchine_wait(lam, mean**2, lam * mean)
        assert det_wait == pytest.approx(exp_wait / 2.0)

    def test_saturation(self):
        with pytest.raises(UnstableQueueError):
            pollaczek_khinchine_wait(1.0, 2.0, 1.0)

    def test_negative_moment_rejected(self):
        with pytest.raises(ConfigurationError):
            pollaczek_khinchine_wait(0.5, -1.0, 0.5)


class TestLockCouplingServer:
    def _server(self):
        return LockCouplingServer(t_e=1.0, p_f=0.1, t_f=3.0, rho_o=0.3,
                                  inv_mu_o=2.0, r_e_child=0.5)

    def test_mean_composition(self):
        server = self._server()
        t_o = 0.3 * 2.0 + 0.7 * 0.5
        assert server.t_o == pytest.approx(t_o)
        assert server.mean == pytest.approx(1.0 + 0.1 * 3.0 + t_o)

    def test_second_moment_matches_monte_carlo(self):
        """The twice-differentiated Laplace transform agrees with direct
        sampling of the three-stage server of Figure 2."""
        server = self._server()
        rng = random.Random(42)
        n = 200_000
        total = 0.0
        total_sq = 0.0
        for _ in range(n):
            x = rng.expovariate(1.0 / server.t_e)
            # Stage o: the holder's service w.p. rho_o, else the child's
            # empty-lock residual (branch draw, then its exponential).
            o_mean = server.inv_mu_o if rng.random() <= server.rho_o \
                else server.r_e_child
            x += rng.expovariate(1.0 / o_mean)
            if rng.random() < server.p_f:
                x += rng.expovariate(1.0 / server.t_f)
            total += x
            total_sq += x * x
        assert total / n == pytest.approx(server.mean, rel=0.02)
        assert total_sq / n == pytest.approx(server.second_moment, rel=0.04)

    def test_more_variable_than_exponential(self):
        """A positive squared coefficient of variation,
        E[X^2] / E[X]^2 - 1 > 0."""
        server = self._server()
        assert server.second_moment / server.mean ** 2 - 1.0 > 0.0

    def test_wait_is_pk(self):
        server = self._server()
        lam, rho = 0.1, 0.4
        assert server.wait(lam, rho) == pytest.approx(
            lam * server.second_moment / (2 * (1 - rho)))

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ConfigurationError):
            LockCouplingServer(1.0, 1.5, 1.0, 0.5, 1.0, 1.0)
        with pytest.raises(ConfigurationError):
            LockCouplingServer(1.0, 0.5, 1.0, -0.1, 1.0, 1.0)

    def test_degenerate_no_child_contention(self):
        """With rho_o = 0 and no split branch the server is the t_e
        stage plus the fixed reader drain."""
        server = LockCouplingServer(t_e=2.0, p_f=0.0, t_f=0.0, rho_o=0.0,
                                    inv_mu_o=0.0, r_e_child=0.5)
        assert server.mean == pytest.approx(2.5)

