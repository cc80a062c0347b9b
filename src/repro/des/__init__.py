"""Discrete-event simulation engine.

This subpackage is a small, self-contained process-oriented discrete-event
simulation kernel in the style of SIMULA / SimPy, built specifically for the
concurrent B-tree simulator of Johnson & Shasha (PODS 1990, Section 4):

* :class:`~repro.des.engine.Simulator` — event heap, simulation clock and
  process scheduler.
* :class:`~repro.des.process.Process` — processes are plain Python
  generators that yield commands to the engine: a ``float`` hold, or a
  lock's interned :class:`~repro.des.process.Acquire` /
  :class:`~repro.des.process.Release`.
* :class:`~repro.des.rwlock.RWLock` — a first-come-first-served
  reader/writer lock queue: R locks are shared, W locks are exclusive and
  grants never overtake earlier requests (paper Section 3.2, "Lock types").
* :mod:`~repro.des.stats` — the Welford accumulator and reservoir sample
  behind response-time means, confidence intervals and percentiles.

The kernel is pure Python (no numpy): one scalar engine runs every
simulation in the repository.  Service times are drawn inline with
``random.Random.expovariate`` by the simulator's
``ServiceTimeSampler``.
"""

from repro.des.engine import Simulator
from repro.des.process import Acquire, Process, READ, Release, WRITE
from repro.des.rwlock import RWLock
from repro.des.stats import ReservoirSample, RunningStats

__all__ = [
    "Acquire",
    "Process",
    "READ",
    "RWLock",
    "Release",
    "ReservoirSample",
    "RunningStats",
    "Simulator",
    "WRITE",
]
