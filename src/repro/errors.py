"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch one type to handle all library failures.  The sub-classes
mirror the three layers of the system: the analytical model, the
discrete-event engine, and the B-tree substrate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """A configuration object is internally inconsistent or out of range."""


class ModelError(ReproError):
    """Base class for analytical-model failures."""


class UnstableQueueError(ModelError):
    """A lock queue is saturated: no stable solution exists.

    Raised by the FCFS R/W queue solver when the writer utilization fixed
    point has no root below 1, i.e. the offered load exceeds the queue's
    capacity.  The paper's Theorem 2 identifies the arrival rate at which
    this first happens as the maximum throughput.
    """

    def __init__(self, message: str = "lock queue is saturated (rho_w >= 1)",
                 level: int | None = None) -> None:
        super().__init__(message)
        #: B-tree level of the saturated queue (leaves = 1), if known.
        self.level = level


class ConvergenceError(ModelError):
    """An iterative solver failed to converge to the requested tolerance.

    Structured so sweep drivers can record the failure per parameter
    point instead of letting a NaN propagate into result tables:
    ``solver`` names the iteration that failed, ``iterations`` how far
    it got, ``residual`` the last fixed-point residual (possibly NaN),
    and ``context`` carries solver-specific diagnostics (input rates,
    brackets, the B-tree level, ...).
    """

    def __init__(self, message: str, *, solver: str | None = None,
                 iterations: int | None = None,
                 residual: float | None = None,
                 context: dict | None = None) -> None:
        super().__init__(message)
        self.solver = solver
        self.iterations = iterations
        self.residual = residual
        self.context = dict(context or {})


class SimulationError(ReproError):
    """Base class for discrete-event simulation failures."""


class ProcessError(SimulationError):
    """A simulation process misused the engine protocol."""


class LockProtocolError(SimulationError):
    """A process violated the lock protocol (e.g. double release)."""


class ResilienceError(ReproError):
    """Base class for sweep-resilience failures (see :mod:`repro.resilience`)."""


class InjectedFaultError(ResilienceError):
    """A deterministic fault from the fault-injection harness fired.

    Raised in place of a hard worker kill when the harness runs inline
    (killing the calling process would take the test suite down with
    it); worker processes really do die.
    """


class BTreeError(ReproError):
    """Base class for B-tree structural errors."""


class InvariantViolationError(BTreeError):
    """A structural invariant check failed (used by the validator)."""
