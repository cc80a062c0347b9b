"""Naive Lock-coupling operation processes (paper Section 2).

Searches R-lock-couple from the root to the leaf.  Updates W-lock-couple
and release all ancestor locks if and only if the child is safe for the
operation, so when the leaf is reached every node that restructuring can
touch is already W-locked; the restructure then proceeds without
interfering with other operations.
"""

from __future__ import annotations

from typing import Generator, List

from repro.btree.node import LeafNode, Node
from repro.des.process import WRITE
from repro.simulator.operations import (
    OP_DELETE,
    OP_INSERT,
    OP_SEARCH,
    OperationContext,
    acquire_valid_root,
    coupled_read_descent,
    release_all,
)


def search(ctx: OperationContext, key: int) -> Generator:
    """R-lock-coupled membership search."""
    started = ctx.sim.now
    leaf = yield from coupled_read_descent(ctx, key, stop_level=1)
    yield ctx.sampler.search(1)
    assert isinstance(leaf, LeafNode)
    leaf.contains(key)
    leaf.lock.release(ctx.sim)
    ctx.finish(OP_SEARCH, started)


def insert(ctx: OperationContext, key: int) -> Generator:
    """W-lock-coupled insert, splitting along the retained unsafe path."""
    started = ctx.sim.now
    locked = yield from _write_descent(ctx, key, for_insert=True)
    yield from _apply_insert(ctx, key, locked)
    release_all(ctx.sim, locked)
    ctx.finish(OP_INSERT, started)


def delete(ctx: OperationContext, key: int) -> Generator:
    """W-lock-coupled delete, removing emptied nodes (merge-at-empty)."""
    started = ctx.sim.now
    locked = yield from _write_descent(ctx, key, for_insert=False)
    yield from _apply_delete(ctx, key, locked)
    release_all(ctx.sim, locked)
    ctx.finish(OP_DELETE, started)


# ----------------------------------------------------------------------
# Building blocks (shared with Optimistic Descent's redo pass)
# ----------------------------------------------------------------------
def _write_descent(ctx: OperationContext, key: int, for_insert: bool,
                   release_early: bool = True) -> Generator:
    """W-lock-coupled descent.  Returns the list of still-locked nodes:
    the deepest safe ancestor followed by the contiguous unsafe path down
    to (and including) the leaf.

    ``release_early=False`` disables the release of ancestor locks on
    safe children: every W lock placed stays held (the strict
    two-phase-locking behaviour of the Naive recovery policy, paper
    Section 7)."""
    while True:
        node = yield from acquire_valid_root(ctx, WRITE)
        locked = yield from _write_couple(ctx, node, key, for_insert,
                                          release_early)
        if locked is not None:
            return locked
        ctx.metrics.restarts += 1  # pragma: no cover - coupling pins children


def _write_couple(ctx: OperationContext, node: Node, key: int,
                  for_insert: bool, release_early: bool = True) -> Generator:
    """W-lock-couple from the already W-locked ``node`` down to the leaf.

    Returns the still-locked path as :func:`_write_descent` does, or
    ``None`` after releasing everything when a child it locked turned
    out to be freed (the caller restarts)."""
    locked: List[Node] = [node]
    while not node.is_leaf:
        yield ctx.sampler.search(node.level)
        child = node.child_for(key)
        yield child.lock.acquire_write(ctx.sim)
        if child.dead:  # pragma: no cover - coupling pins children
            release_all(ctx.sim, locked)
            child.lock.release(ctx.sim)
            return None
        safe = (ctx.tree.is_insert_safe(child) if for_insert
                else ctx.tree.is_delete_safe(child))
        if safe and release_early:
            release_all(ctx.sim, locked)
            locked = [child]
        else:
            locked.append(child)
        node = child
    return locked


def _apply_insert(ctx: OperationContext, key: int,
                  locked: List[Node]) -> Generator:
    """Leaf modify plus the split cascade along the locked path."""
    leaf = locked[-1]
    assert isinstance(leaf, LeafNode)
    yield ctx.sampler.modify(1)
    ctx.tree.apply_leaf_insert(leaf, key)
    if not ctx.tree.overflowed(leaf):
        return
    # Charge the split work level by level before restructuring; the
    # whole affected path is W-locked, so the order cannot race.
    will_receive_router = False
    for node in reversed(locked):
        entries = node.n_entries() + (1 if will_receive_router else 0)
        if entries <= ctx.tree.order:
            break
        yield ctx.sampler.split(node.level)
        will_receive_router = True
    ctx.metrics.splits += ctx.tree.split_path(locked)


def _apply_delete(ctx: OperationContext, key: int,
                  locked: List[Node]) -> Generator:
    """Leaf modify plus merge-at-empty removal along the locked path."""
    leaf = locked[-1]
    assert isinstance(leaf, LeafNode)
    yield ctx.sampler.modify(1)
    ctx.tree.apply_leaf_delete(leaf, key)
    if leaf.n_entries() > 0 or leaf is ctx.tree.root:
        return
    removed_below = False
    for node in reversed(locked):
        if node is locked[0]:
            break  # the safe ancestor absorbs the removal
        entries = node.n_entries() - (1 if removed_below else 0)
        if entries > 0:
            break
        yield ctx.sampler.merge(node.level)
        removed_below = True
    ctx.metrics.leaf_removals += ctx.tree.remove_empty_leaf(locked)
