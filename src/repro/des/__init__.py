"""Discrete-event simulation engine.

This subpackage is a small, self-contained process-oriented discrete-event
simulation kernel in the style of SIMULA / SimPy, built specifically for the
concurrent B-tree simulator of Johnson & Shasha (PODS 1990, Section 4):

* :class:`~repro.des.engine.Simulator` — event heap, simulation clock and
  process scheduler.
* :class:`~repro.des.process.Process` and the yieldable commands
  :class:`~repro.des.process.Hold`, :class:`~repro.des.process.Acquire` —
  processes are plain Python generators that yield commands to the engine.
* :class:`~repro.des.rwlock.RWLock` — a first-come-first-served
  reader/writer lock queue: R locks are shared, W locks are exclusive and
  grants never overtake earlier requests (paper Section 3.2, "Lock types").
* :mod:`~repro.des.distributions` — exponential / hyperexponential /
  deterministic service-time samplers with exact moment accessors.
* :mod:`~repro.des.stats` — Welford accumulators and time-weighted
  statistics used for response times and lock utilizations.

The kernel is pure Python (no numpy): one scalar engine runs every
simulation in the repository.
"""

from repro.des.distributions import (
    Deterministic,
    Exponential,
    Hyperexponential,
    UniformDist,
)
from repro.des.engine import Simulator
from repro.des.process import Acquire, Hold, Process, READ, Release, WRITE
from repro.des.rwlock import RWLock
from repro.des.stats import ReservoirSample, RunningStats, TimeWeightedStat

__all__ = [
    "Acquire",
    "Deterministic",
    "Exponential",
    "Hold",
    "Hyperexponential",
    "Process",
    "READ",
    "RWLock",
    "Release",
    "ReservoirSample",
    "RunningStats",
    "Simulator",
    "TimeWeightedStat",
    "UniformDist",
    "WRITE",
]
