"""Two-Phase Locking operation processes.

The restrictive baseline the paper's introduction warns about (and whose
full analysis the conclusions promise): no lock is released before the
operation has acquired every lock it needs, so the entire root-to-leaf
path stays locked until the operation completes.  Locks are acquired
top-down, which keeps the schedule deadlock-free.
"""

from __future__ import annotations

from typing import Generator, List

from repro.btree.node import LeafNode, Node
from repro.des.process import READ, WRITE
from repro.simulator import lock_coupling as naive
from repro.simulator.operations import (
    OP_DELETE,
    OP_INSERT,
    OP_SEARCH,
    OperationContext,
    acquire_valid_root,
    release_all,
)


def search(ctx: OperationContext, key: int) -> Generator:
    """R-lock the whole path, search the leaf, then release everything."""
    started = ctx.sim.now
    locked = yield from _full_descent(ctx, key, READ)
    yield ctx.sampler.search(1)
    leaf = locked[-1]
    assert isinstance(leaf, LeafNode)
    leaf.contains(key)
    release_all(ctx.sim, locked)
    ctx.finish(OP_SEARCH, started)


def insert(ctx: OperationContext, key: int) -> Generator:
    started = ctx.sim.now
    locked = yield from _full_descent(ctx, key, WRITE)
    yield from naive._apply_insert(ctx, key, locked)
    release_all(ctx.sim, locked)
    ctx.finish(OP_INSERT, started)


def delete(ctx: OperationContext, key: int) -> Generator:
    started = ctx.sim.now
    locked = yield from _full_descent(ctx, key, WRITE)
    yield from naive._apply_delete(ctx, key, locked)
    release_all(ctx.sim, locked)
    ctx.finish(OP_DELETE, started)


def _full_descent(ctx: OperationContext, key: int,
                  mode: str) -> Generator:
    """Lock the whole root-to-leaf path in ``mode``, releasing nothing."""
    read = mode == READ
    while True:
        node = yield from acquire_valid_root(ctx, mode)
        locked: List[Node] = [node]
        restart = False
        while not node.is_leaf:
            yield ctx.sampler.search(node.level)
            child = node.child_for(key)
            lock = child.lock
            yield (lock.acquire_read if read else lock.acquire_write)(ctx.sim)
            if child.dead:  # pragma: no cover - path fully locked
                release_all(ctx.sim, locked)
                lock.release(ctx.sim)
                ctx.metrics.restarts += 1
                restart = True
                break
            locked.append(child)
            node = child
        if not restart:
            return locked
