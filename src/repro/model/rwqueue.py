"""The FCFS reader/writer queue (paper appendix, Theorem 6).

Johnson's approximate analysis treats the queue through *aggregate
customers*: a writer together with all the readers immediately ahead of it
for which it must wait.  With reader/writer arrival rates
``lambda_r, lambda_w`` and service rates ``mu_r, mu_w``:

.. math::

    r_u = \\ln(1 + \\rho_w \\lambda_r / \\lambda_w) / \\mu_r

    r_e = \\ln(1 + (1 + \\rho_w)\\lambda_r / (\\mu_r + \\lambda_w)) / \\mu_r

where :math:`\\rho_w`, the probability that a writer is present, is the
root of the fixed point

.. math::

    \\rho_w = \\lambda_w\\Big(\\frac{1}{\\mu_w} + \\rho_w r_u(\\rho_w)
              + (1-\\rho_w) r_e(\\rho_w)\\Big).

The aggregate customer's service time is
:math:`T_a = 1/\\mu_w + \\rho_w r_u + (1-\\rho_w) r_e`.

``r_u`` is the reader drain a writer sees when another writer was already
queued on arrival; ``r_e`` when the queue had no writer.  The logarithm
reflects the fact that serving n concurrent readers takes
:math:`O(\\log n)` expected time (the max of n exponentials).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from repro.errors import (
    ConfigurationError,
    ConvergenceError,
    UnstableQueueError,
)

#: Upper end of the root bracket: rho_w stays strictly below 1.
_RHO_CEILING = 1.0 - 1e-12
#: Brent root finder: relative tolerance and iteration cap of the
#: reference ``brentq`` (docs/robustness.md).
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100


@dataclass(frozen=True)
class RWQueueInput:
    """Arrival and service rates of one FCFS R/W queue."""

    lambda_r: float
    lambda_w: float
    mu_r: float
    mu_w: float

    def __post_init__(self) -> None:
        if self.lambda_r < 0 or self.lambda_w < 0:
            raise ConfigurationError("arrival rates must be non-negative")
        if self.lambda_r > 0 and self.mu_r <= 0:
            raise ConfigurationError("readers arrive but mu_r <= 0")
        if self.lambda_w > 0 and self.mu_w <= 0:
            raise ConfigurationError("writers arrive but mu_w <= 0")


@dataclass(frozen=True)
class RWQueueSolution:
    """Fixed-point solution of Theorem 6."""

    #: Probability that a W lock is present (holding or queued).
    rho_w: float
    #: Expected reader drain seen by a writer that found another writer queued.
    r_u: float
    #: Expected reader drain seen by a writer that found no writer queued.
    r_e: float
    #: Expected service time of an aggregate customer.
    aggregate_service_time: float

    @property
    def mean_reader_drain(self) -> float:
        """rho_w * r_u + (1 - rho_w) * r_e — the reader component of the
        aggregate customer."""
        return self.rho_w * self.r_u + (1.0 - self.rho_w) * self.r_e


def _reader_drains(rho: float, q: RWQueueInput) -> tuple:
    """(r_u, r_e) at writer presence ``rho``."""
    if q.lambda_r == 0.0:
        return 0.0, 0.0
    if q.lambda_w == 0.0:
        # No writers: the drains are irrelevant; define the limiting r_e.
        r_e = math.log1p((1.0 + rho) * q.lambda_r / (q.mu_r + q.lambda_w)) / q.mu_r
        return 0.0, r_e
    r_u = math.log1p(rho * q.lambda_r / q.lambda_w) / q.mu_r
    r_e = math.log1p((1.0 + rho) * q.lambda_r / (q.mu_r + q.lambda_w)) / q.mu_r
    return r_u, r_e


def _brentq(f, a: float, b: float, xtol: float) -> float:
    """Root of ``f`` in the sign-changing bracket ``[a, b]`` by Brent's
    method.

    A line-for-line port of the reference C ``brentq`` (Brent 1973,
    ch. 4; docs/robustness.md) with its defaults ``rtol = 4 eps`` and
    ``maxiter = 100``: the same evaluations in the same order and the
    same float operations, so it returns the same root bit for bit.
    Raises ``ValueError`` when an evaluation is NaN or ``f(a)`` and
    ``f(b)`` have the same sign, and ``RuntimeError`` when the
    iterations run out.

    At the top of each iteration the root lies between ``xcur`` and
    ``xblk``, ``xcur`` is the latest estimate, ``xpre`` the previous one
    and ``|f(xcur)| <= |f(xblk)|``.
    """
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    if fpre != fpre:
        raise ValueError(f"f({xpre}) is NaN; the root finder cannot continue")
    fcur = f(xcur)
    if fcur != fcur:
        raise ValueError(f"f({xcur}) is NaN; the root finder cannot continue")
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre
            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C yields inf or NaN here, which fails the test below.
                stry = math.nan
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = f(xcur)
        if fcur != fcur:
            raise ValueError(
                f"f({xcur}) is NaN; the root finder cannot continue")
    raise RuntimeError(
        f"failed to converge after {_BRENT_MAXITER} iterations")


def _error_context(q: RWQueueInput, level: int | None,
                   rho: float) -> dict:
    """Full operating point for a ConvergenceError: which queue, at
    what arrival/service rates, and where the solver last stood —
    enough to reproduce the failure without re-running the sweep."""
    return {"level": level, "lambda_r": q.lambda_r,
            "lambda_w": q.lambda_w, "mu_r": q.mu_r, "mu_w": q.mu_w,
            "rho_w_estimate": rho}


def _fixed_point_rhs(rho: float, q: RWQueueInput) -> float:
    r_u, r_e = _reader_drains(rho, q)
    return q.lambda_w * (1.0 / q.mu_w + rho * r_u + (1.0 - rho) * r_e)


def solve_rw_queue(q: RWQueueInput, tol: float = 1e-12,
                   level: int | None = None) -> RWQueueSolution:
    """Solve the Theorem 6 fixed point for ``q``.

    Raises :class:`~repro.errors.UnstableQueueError` when no root exists
    in [0, 1) — i.e. the writer load saturates the queue.  ``level`` is
    attached to the exception for diagnostics.

    Guarded against numeric corruption (``docs/robustness.md``): a
    non-finite fixed-point evaluation, or a root finder that cannot
    finish, raises a structured :class:`~repro.errors.ConvergenceError`
    carrying the operating point rather than propagating NaN into
    result tables.
    """
    if q.lambda_w == 0.0:
        r_u, r_e = _reader_drains(0.0, q)
        return RWQueueSolution(rho_w=0.0, r_u=r_u, r_e=r_e,
                               aggregate_service_time=0.0)

    def g(rho: float) -> float:
        return rho - _fixed_point_rhs(rho, q)

    # g(0) < 0 always (writers arrive, so f(0) > 0).  The queue is stable
    # iff g crosses zero before rho = 1.
    upper = _RHO_CEILING
    g_upper = g(upper)
    if not math.isfinite(g_upper):
        raise ConvergenceError(
            f"R/W queue fixed point is non-finite at rho={upper!r}",
            solver="rw-queue", iterations=0, residual=math.nan,
            context=_error_context(q, level, upper))
    if g_upper <= 0.0:
        raise UnstableQueueError(
            f"no stable writer utilization: offered load rho_w >= 1 "
            f"(lambda_w={q.lambda_w:.6g}, mu_w={q.mu_w:.6g})",
            level=level,
        )
    try:
        rho = _brentq(g, 0.0, upper, tol)
    except (ValueError, RuntimeError) as exc:
        raise ConvergenceError(
            f"R/W queue root finder failed: {exc}",
            solver="rw-queue", residual=math.nan,
            context=_error_context(q, level, math.nan)) from exc
    r_u, r_e = _reader_drains(rho, q)
    t_a = 1.0 / q.mu_w + rho * r_u + (1.0 - rho) * r_e
    if not (math.isfinite(r_u) and math.isfinite(r_e)
            and math.isfinite(t_a)):
        raise ConvergenceError(
            f"R/W queue solution is non-finite at rho={rho:.6g} "
            f"(r_u={r_u:.6g}, r_e={r_e:.6g}, T_a={t_a:.6g})",
            solver="rw-queue", residual=math.nan,
            context=_error_context(q, level, rho))
    return RWQueueSolution(rho_w=rho, r_u=r_u, r_e=r_e,
                           aggregate_service_time=t_a)

