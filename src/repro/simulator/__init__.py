"""The concurrent B-tree simulator (paper Section 4).

Runs the concurrency-control algorithms — the paper's Naive
Lock-coupling, Optimistic Descent and Link-type, plus the Two-Phase
Locking baseline and the symmetric link variant — as discrete-event
processes against an actual :class:`~repro.btree.tree.BPlusTree`:

* operations arrive in a Poisson process and perform real searches,
  inserts and deletes on the shared tree;
* every node carries a FCFS R/W lock, created when an operation first
  reaches the node; all service times are exponential
  with the Section 5.3 cost means (disk levels dilated by D);
* the paper's simulator crashes when the in-flight operation population
  exceeds its allocation, which is how saturation manifests; here the
  open driver stops the run at ``config.max_population`` instead and
  flags the result ``overflowed``.

Entry points: :func:`~repro.simulator.driver.run_simulation` (open
Poisson arrivals) and
:func:`~repro.simulator.closed.run_closed_simulation` (fixed
multiprogramming level), both taking a
:class:`~repro.simulator.config.SimulationConfig`.
"""

from repro.simulator.config import SimulationConfig
from repro.simulator.driver import run_simulation, run_replications
from repro.simulator.metrics import SimulationResult


__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "run_replications",
    "run_simulation",
]
