"""Discrete-event simulation engine.

This subpackage is a small, self-contained process-oriented discrete-event
simulation kernel in the style of SIMULA / SimPy, built specifically for the
concurrent B-tree simulator of Johnson & Shasha (PODS 1990, Section 4):

* :class:`~repro.des.engine.Simulator` — event heap, simulation clock and
  process scheduler.
* :class:`~repro.des.process.Process` — processes are plain Python
  generators that yield one of two values to the engine: a ``float``
  hold, or :data:`~repro.des.process.WAIT`, which parks them until
  something resumes them.  They take a lock with ``yield
  lock.acquire_read(sim)`` / ``acquire_write(sim)`` (``0.0`` on an
  immediate grant, else ``WAIT``) and release it by calling
  ``lock.release(sim)``.
* :class:`~repro.des.rwlock.RWLock` — a first-come-first-served
  reader/writer lock queue: R locks are shared, W locks are exclusive and
  grants never overtake earlier requests (paper Section 3.2, "Lock types").
* :mod:`~repro.des.stats` — the running means behind response-time and
  lock-wait means, the Welford accumulator with confidence intervals,
  and the reservoir sample behind percentiles.

The kernel is pure Python (no numpy): one scalar engine runs every
simulation in the repository.  Service times are drawn inline with
``random.Random.expovariate`` by the simulator's
``ServiceTimeSampler``.
"""

from repro.des.engine import Simulator
from repro.des.process import Process, READ, WAIT, WRITE
from repro.des.rwlock import RWLock
from repro.des.stats import ReservoirSample, RunningMean, RunningStats

__all__ = [
    "Process",
    "READ",
    "RWLock",
    "ReservoirSample",
    "RunningMean",
    "RunningStats",
    "Simulator",
    "WAIT",
    "WRITE",
]
