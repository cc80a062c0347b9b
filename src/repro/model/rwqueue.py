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
from collections import namedtuple
from typing import Callable, NamedTuple, Optional

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


def _check_rates(lambda_r: float, lambda_w: float, mu_r: float,
                 mu_w: float) -> None:
    if lambda_r < 0 or lambda_w < 0:
        raise ConfigurationError("arrival rates must be non-negative")
    if lambda_r > 0 and mu_r <= 0:
        raise ConfigurationError("readers arrive but mu_r <= 0")
    if lambda_w > 0 and mu_w <= 0:
        raise ConfigurationError("writers arrive but mu_w <= 0")


class RWQueueInput(namedtuple("RWQueueInput",
                              "lambda_r lambda_w mu_r mu_w")):
    """Arrival and service rates of one FCFS R/W queue, checked on
    construction.  Any ``(lambda_r, lambda_w, mu_r, mu_w)`` tuple is
    accepted by :func:`solve_rw_queue` too."""

    __slots__ = ()

    def __new__(cls, lambda_r: float, lambda_w: float, mu_r: float,
                mu_w: float) -> "RWQueueInput":
        _check_rates(lambda_r, lambda_w, mu_r, mu_w)
        return super().__new__(cls, lambda_r, lambda_w, mu_r, mu_w)


class RWQueueSolution(NamedTuple):
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


def _residual(lambda_r: float, lambda_w: float, mu_r: float,
              mu_w: float) -> Callable[[float], float]:
    """Theorem 6's residual ``g(rho) = rho - lambda_w * T_a(rho)`` for
    one queue with writers, as a closure over its rates.

    The drains are ``r_u = log1p(rho lambda_r / lambda_w) / mu_r`` and
    ``r_e = log1p((1 + rho) lambda_r / (mu_r + lambda_w)) / mu_r``; only
    rate-only subexpressions are hoisted, so every evaluation does the
    float operations of the unhoisted formula and returns the same bits.
    """
    inv_mu_w = 1.0 / mu_w
    if lambda_r == 0.0:
        # No readers: both drains are 0.0, and adding zeros to 1/mu_w
        # changes no bit.
        load = lambda_w * inv_mu_w
        return lambda rho: rho - load
    reader_writer = mu_r + lambda_w
    log1p = math.log1p

    def g(rho: float) -> float:
        r_u = log1p(rho * lambda_r / lambda_w) / mu_r
        r_e = log1p((1.0 + rho) * lambda_r / reader_writer) / mu_r
        return rho - lambda_w * (inv_mu_w + rho * r_u + (1.0 - rho) * r_e)
    return g


def _brentq(f, a: float, b: float, xtol: float,
            f_b: Optional[float] = None) -> float:
    """Root of ``f`` in the sign-changing bracket ``[a, b]`` by Brent's
    method.  ``f_b`` is ``f(b)`` when the caller has already evaluated
    it; ``f`` must then be pure.

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
    fcur = f(xcur) if f_b is None else f_b
    if fcur != fcur:
        raise ValueError(f"f({xcur}) is NaN; the root finder cannot continue")
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    # Each |.| the loop tests is taken once per iteration; the tests and
    # the float operations are the reference's.
    rtol = _BRENT_RTOL
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        abs_fcur = abs(fcur)
        abs_fblk = abs(fblk)
        if abs_fblk < abs_fcur:
            xpre = xcur
            xcur = xblk
            xblk = xpre
            fpre = fcur
            fcur = fblk
            fblk = fpre
            abs_fcur = abs_fblk

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        abs_sbis = abs(sbis)
        if fcur == 0 or abs_sbis < delta:
            return xcur

        abs_spre = abs(spre)
        if abs_spre > delta and abs_fcur < abs(fpre):
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
            # min(abs_spre, limit), as the builtin picks it.
            limit = 3 * abs_sbis - delta
            if 2 * abs(stry) < (limit if limit < abs_spre else abs_spre):
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


def _error_context(rates: tuple, level: int | None, rho: float) -> dict:
    """Full operating point for a ConvergenceError: which queue, at
    what arrival/service rates, and where the solver last stood —
    enough to reproduce the failure without re-running the sweep."""
    lambda_r, lambda_w, mu_r, mu_w = rates
    return {"level": level, "lambda_r": lambda_r, "lambda_w": lambda_w,
            "mu_r": mu_r, "mu_w": mu_w, "rho_w_estimate": rho}


def solve_rw_queue(q, tol: float = 1e-12,
                   level: int | None = None) -> RWQueueSolution:
    """Solve the Theorem 6 fixed point for the queue ``q``, an
    :class:`RWQueueInput` or any ``(lambda_r, lambda_w, mu_r, mu_w)``
    tuple.

    Raises :class:`~repro.errors.UnstableQueueError` when no root exists
    in [0, 1) — i.e. the writer load saturates the queue.  ``level`` is
    attached to the exception for diagnostics.

    Guarded against numeric corruption (``docs/robustness.md``): a
    non-finite fixed-point evaluation, or a root finder that cannot
    finish, raises a structured :class:`~repro.errors.ConvergenceError`
    carrying the operating point rather than propagating NaN into
    result tables.
    """
    lambda_r, lambda_w, mu_r, mu_w = q
    _check_rates(lambda_r, lambda_w, mu_r, mu_w)
    if lambda_w == 0.0:
        # No writers: the drains are irrelevant; define the limiting r_e.
        r_e = (math.log1p(lambda_r / (mu_r + lambda_w)) / mu_r
               if lambda_r != 0.0 else 0.0)
        return RWQueueSolution(0.0, 0.0, r_e, 0.0)

    g = _residual(lambda_r, lambda_w, mu_r, mu_w)
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
            f"(lambda_w={lambda_w:.6g}, mu_w={mu_w:.6g})",
            level=level,
        )
    try:
        rho = _brentq(g, 0.0, upper, tol, f_b=g_upper)
    except (ValueError, RuntimeError) as exc:
        raise ConvergenceError(
            f"R/W queue root finder failed: {exc}",
            solver="rw-queue", residual=math.nan,
            context=_error_context(q, level, math.nan)) from exc
    if lambda_r == 0.0:
        r_u = r_e = 0.0
    else:
        r_u = math.log1p(rho * lambda_r / lambda_w) / mu_r
        r_e = math.log1p((1.0 + rho) * lambda_r / (mu_r + lambda_w)) / mu_r
    t_a = 1.0 / mu_w + rho * r_u + (1.0 - rho) * r_e
    if not (math.isfinite(r_u) and math.isfinite(r_e)
            and math.isfinite(t_a)):
        raise ConvergenceError(
            f"R/W queue solution is non-finite at rho={rho:.6g} "
            f"(r_u={r_u:.6g}, r_e={r_e:.6g}, T_a={t_a:.6g})",
            solver="rw-queue", residual=math.nan,
            context=_error_context(q, level, rho))
    return RWQueueSolution(rho, r_u, r_e, t_a)
