"""Multi-operation transaction envelopes.

A transaction bundles ``k`` consecutive B-tree operations under
per-key *transaction locks* held from before the first member until
after the last — the lock-held-across-operations regime of Thomasian's
high-data-contention analysis (PAPERS.md, arXiv 2404.02276).

Design constraints, and how the envelope meets them:

* **No deadlock.**  Transaction locks live in a dedicated
  :class:`TransactionLockTable` of per-key FCFS R/W locks, *disjoint*
  from the B-tree's node latches.  An envelope acquires every member
  key's lock up front in **sorted key order** (a total order, so no
  acquisition cycles between envelopes) and only then runs its member
  operations; node latches are never held while waiting on a
  transaction lock, and transaction locks are never requested while a
  node latch is held.
* **Determinism.**  The member (operation, key) list is drawn at
  envelope spawn time from the same RNG streams, in the same order, an
  independent operation sequence would have used — so a transactional
  run is a pure function of the config's seed, like every other run.
* **Isolation semantics.**  Reads (searches) take shared locks,
  updates exclusive ones; a key both read and updated by one envelope
  is locked exclusively.  This is lock-based isolation at transaction
  granularity — the B-tree latches below continue to guarantee
  structural consistency exactly as before.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.des.rwlock import RWLock

__all__ = ["TransactionLockTable", "transaction_envelope"]

#: Operation label whose members take shared (read) transaction locks.
_READ_OP = "search"


class TransactionLockTable:
    """Lazy per-key FCFS R/W transaction locks.

    Locks are created on first touch and kept for the run (the
    footprint is bounded by the number of distinct keys transactions
    touch, far below the key universe for any realistic run length).
    The table's locks keep no wait means: transaction-lock waits are
    contention *above* the tree and must not pollute the per-level
    latch-wait statistics.
    """

    __slots__ = ("_locks",)

    def __init__(self) -> None:
        self._locks: Dict[int, RWLock] = {}

    def __len__(self) -> int:
        return len(self._locks)

    def lock_for(self, key: int) -> RWLock:
        lock = self._locks.get(key)
        if lock is None:
            lock = RWLock(name=f"txn{key}")
            self._locks[key] = lock
        return lock


def transaction_envelope(module, ctx, members: List[Tuple[str, int]],
                         table: TransactionLockTable,
                         on_commit: Optional[Callable[[float], None]]
                         = None):
    """Generator process: run ``members`` under held transaction locks.

    ``members`` is the pre-drawn ``(op_name, key)`` list; ``module`` is
    the algorithm's ops module (each ``getattr(module, op)`` a
    generator factory).  Lock modes are computed per distinct key
    (exclusive dominates), acquired in sorted key order, and released
    only at commit; ``on_commit`` receives the simulated time the full
    lock set was held (last grant to commit), feeding the
    ``workload.txn_hold`` telemetry timer.
    """
    modes: Dict[int, bool] = {}  # key -> exclusive?
    for op_name, key in members:
        exclusive = op_name != _READ_OP
        if exclusive or key not in modes:
            modes[key] = exclusive or modes.get(key, False)
    ordered = sorted(modes)
    for key in ordered:
        lock = table.lock_for(key)
        yield (lock.acquire_write if modes[key] else lock.acquire_read)(
            ctx.sim)
    locked_at = ctx.sim.now
    for op_name, key in members:
        yield from getattr(module, op_name)(ctx, key)
    for key in ordered:
        table.lock_for(key).release(ctx.sim)
    if on_commit is not None:
        on_commit(ctx.sim.now - locked_at)
