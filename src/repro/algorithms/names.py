"""Canonical algorithm names (pure constants, no imports).

The single source of truth for registry keys.  Everything outside
:mod:`repro.algorithms` must refer to algorithms through these
constants or through registered
:class:`~repro.algorithms.spec.AlgorithmSpec` objects; a guard test
(``tests/test_algorithm_name_guard.py``) fails the build on hard-coded
name literals elsewhere in ``src/``, so dispatch cannot re-fragment.
"""

NAIVE_LOCK_COUPLING = "naive-lock-coupling"
OPTIMISTIC_DESCENT = "optimistic-descent"
LINK_TYPE = "link-type"
TWO_PHASE_LOCKING = "two-phase-locking"
OPTIMISTIC_LOCK_COUPLING = "optimistic-lock-coupling"

#: The simulator's default algorithm (the paper's baseline).
DEFAULT_ALGORITHM = NAIVE_LOCK_COUPLING
