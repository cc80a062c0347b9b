"""Algorithm registry: capability-driven dispatch for every consumer.

One :class:`~repro.algorithms.spec.AlgorithmSpec` per concurrency-
control algorithm pairs the simulator operation processes with the
analytical model and capability flags; the open/closed drivers, model
validation, experiment drivers and the CLI all resolve algorithms here
(``btree-perf list-algorithms`` prints the registry).

Adding an algorithm means adding one spec module to this package (plus
its ops module) — see ``docs/architecture.md`` for a worked example.
"""

from repro.algorithms import names
from repro.algorithms.spec import (
    CAPABILITY_FLAGS,
    AlgorithmSpec,
    algorithm_names,
    all_algorithms,
    display_label,
    get_algorithm,
    register_algorithm,
)

# Self-registering spec modules.  Import order defines registry order:
# the paper's three algorithms, then the baselines/extensions.
from repro.algorithms import naive_lock_coupling  # noqa: F401
from repro.algorithms import optimistic_descent  # noqa: F401
from repro.algorithms import link_type  # noqa: F401
from repro.algorithms import two_phase  # noqa: F401
from repro.algorithms import optimistic_lock_coupling  # noqa: F401

__all__ = [
    "CAPABILITY_FLAGS",
    "AlgorithmSpec",
    "algorithm_names",
    "all_algorithms",
    "display_label",
    "get_algorithm",
    "names",
    "register_algorithm",
]
