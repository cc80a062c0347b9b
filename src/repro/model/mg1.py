"""Single-server queueing building blocks.

* :func:`mm1_wait` — the M/M/1 queueing delay used at the leaves
  (paper Theorem 4).
* :func:`pollaczek_khinchine_wait` — the M/G/1 delay
  ``W = lambda * E[X^2] / (2 (1 - rho))`` used with the hyperexponential
  lock-coupling server (paper Theorem 3, equation (1)).
* :class:`LockCouplingServer` — the three-stage hyperexponential server of
  paper Figure 2 with the exact second moment obtained from its Laplace
  transform (equation (2)).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, UnstableQueueError


def mm1_wait(arrival_rate: float, service_rate: float) -> float:
    """Expected M/M/1 queueing delay ``rho / ((1 - rho) mu)``."""
    if service_rate <= 0:
        raise ConfigurationError("service rate must be positive")
    rho = arrival_rate / service_rate
    if rho >= 1.0:
        raise UnstableQueueError(f"M/M/1 utilization {rho:.4f} >= 1")
    return rho / ((1.0 - rho) * service_rate)


def pollaczek_khinchine_wait(arrival_rate: float, second_moment: float,
                             utilization: float) -> float:
    """Expected M/G/1 queueing delay ``lambda E[X^2] / (2 (1 - rho))``."""
    if utilization >= 1.0:
        raise UnstableQueueError(f"M/G/1 utilization {utilization:.4f} >= 1")
    if second_moment < 0:
        raise ConfigurationError("second moment must be non-negative")
    return arrival_rate * second_moment / (2.0 * (1.0 - utilization))


@dataclass(frozen=True)
class LockCouplingServer:
    """The hyperexponential W-lock server of paper Figure 2 / Theorem 3.

    A W lock at level i is held for:

    1. an exponential "everyone" stage with mean ``t_e`` — searching the
       node plus draining the readers ahead;
    2. with probability ``p_f`` (the child is insert-unsafe), a stage with
       mean ``t_f`` — holding through the child's own lock service and
       the split that may climb into it;
    3. the wait for the child's lock: with probability ``rho_o`` the
       child's queue already had a writer (exponential stage with mean
       ``1/mu_o``), otherwise only the reader drain ``r_e_child``.

    ``second_moment`` evaluates the paper's equation (2),
    ``B*(2)(0) = 2 [t_o t_e + p_f t_f t_e + t_e^2 + p_f t_o t_f +
    rho_o/mu_o^2 + p_f t_f^2 + (1 - rho_o) r_e_child^2]``.
    """

    t_e: float
    p_f: float
    t_f: float
    rho_o: float
    inv_mu_o: float
    r_e_child: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_f <= 1.0:
            raise ConfigurationError(f"p_f={self.p_f} outside [0, 1]")
        if not 0.0 <= self.rho_o <= 1.0:
            raise ConfigurationError(f"rho_o={self.rho_o} outside [0, 1]")

    @property
    def t_o(self) -> float:
        """Mean of the child-lock-wait stage:
        ``rho_o / mu_o + (1 - rho_o) r_e_child``."""
        return self.rho_o * self.inv_mu_o + (1.0 - self.rho_o) * self.r_e_child

    @property
    def mean(self) -> float:
        """Expected total service time ``t_e + p_f t_f + t_o``."""
        return self.t_e + self.p_f * self.t_f + self.t_o

    @property
    def second_moment(self) -> float:
        """E[X^2] from the twice-differentiated Laplace transform."""
        t_o = self.t_o
        bracket = (
            t_o * self.t_e
            + self.p_f * self.t_f * self.t_e
            + self.t_e ** 2
            + self.p_f * t_o * self.t_f
            + self.rho_o * self.inv_mu_o ** 2
            + self.p_f * self.t_f ** 2
            + (1.0 - self.rho_o) * self.r_e_child ** 2
        )
        return 2.0 * bracket

    def wait(self, lambda_w: float, rho_w: float) -> float:
        """Theorem 3's queueing delay
        ``R(i) = lambda_w / (1 - rho_w) * [bracket]``."""
        return pollaczek_khinchine_wait(lambda_w, self.second_moment, rho_w)

