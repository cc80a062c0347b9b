"""Symmetric Link-type algorithm (after Lanin & Shasha, ref [15]).

The paper's Link-type family: Lehman-Yao [16] handles inserts with
half-splits but ignores deletion restructuring; Lanin & Shasha's
symmetric algorithm [15] gives deletes the mirror treatment — a node
that empties is merged away inline, so the tree does not accumulate
empty leaves.

This implementation keeps Lehman-Yao's searches, inserts and scans
verbatim and adds the symmetric delete: when a delete empties a leaf,
the deleter releases its leaf lock and performs the same deadlock-free
(parent, left-neighbour, leaf) splice the background compactor uses —
locks ordered top-down then left-to-right, re-validated under the locks.
Leaves that race out of the merge (or whose parent would be emptied) are
simply left for a later delete or a compactor pass, mirroring the
best-effort character of the original algorithm's maintenance.
"""

from __future__ import annotations

from typing import Generator

from repro.simulator import link as link_base
from repro.simulator.compaction import _reclaim
from repro.simulator.operations import (
    OP_DELETE,
    OperationContext,
)

#: Searches, inserts and range scans are exactly Lehman-Yao's.
search = link_base.search
insert = link_base.insert
scan = link_base.scan


def delete(ctx: OperationContext, key: int) -> Generator:
    """Link-type delete with inline merge-at-empty.

    The response time recorded for the operation includes the merge work
    (the deleter performs it before completing), which is the symmetric
    analogue of an insert paying for its own half-split.
    """
    started = ctx.sim.now
    target = yield from link_base._read_descent(ctx, key, stack=None,
                                                stop_above_leaf=True)
    leaf = yield from link_base._wlock_covering(ctx, target, key)
    yield ctx.sampler.modify(1)
    ctx.tree.apply_leaf_delete(leaf, key)
    emptied = (leaf.n_entries() == 0 and leaf is not ctx.tree.root)
    leaf.lock.release(ctx.sim)
    if emptied:
        removed = yield from _reclaim(ctx, leaf)
        if removed:
            ctx.metrics.leaf_removals += 1
    ctx.finish(OP_DELETE, started)
