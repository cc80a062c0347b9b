"""Optimistic Descent operation processes (paper Section 2).

Updates first descend exactly like searches (R lock coupling), W-locking
only the leaf.  If the leaf turns out to be unsafe for the operation, all
locks are dropped and the operation re-descends with the Naive
Lock-coupling W protocol (the analysis's *redo* operation).

Recovery policies (Section 7) are implemented here: when the context
retains leaf locks, the operation's response ends at completion but the
process keeps holding the retained W locks for the remaining transaction
time before releasing them.
"""

from __future__ import annotations

from typing import Generator, List

from repro.btree.node import LeafNode, Node
from repro.simulator import lock_coupling as naive
from repro.simulator.operations import (
    OP_DELETE,
    OP_INSERT,
    OperationContext,
    coupled_read_descent,
    release_all,
)

#: Searches are identical to Naive Lock-coupling searches.
search = naive.search


def insert(ctx: OperationContext, key: int) -> Generator:
    yield from _update(ctx, key, for_insert=True)


def delete(ctx: OperationContext, key: int) -> Generator:
    yield from _update(ctx, key, for_insert=False)


def _update(ctx: OperationContext, key: int, for_insert: bool) -> Generator:
    started = ctx.sim.now
    op_name = OP_INSERT if for_insert else OP_DELETE

    leaf = yield from _optimistic_leaf_lock(ctx, key)
    if leaf is None:
        # Height-1 tree: the root is the leaf; fall back to the W protocol.
        yield from _redo(ctx, key, for_insert, started, op_name)
        return

    yield ctx.sampler.modify(1)
    if _leaf_safe(ctx, leaf, key, for_insert):
        if for_insert:
            ctx.tree.apply_leaf_insert(leaf, key)
        else:
            ctx.tree.apply_leaf_delete(leaf, key)
        yield from _finish_with_retention(ctx, [leaf], started, op_name)
        return

    # Unsafe leaf: release everything and redo with W locks.
    leaf.lock.release(ctx.sim)
    ctx.metrics.redo_descents += 1
    yield from _redo(ctx, key, for_insert, started, op_name)


def _optimistic_leaf_lock(ctx: OperationContext, key: int) -> Generator:
    """R-couple to level 2, then W-lock the leaf (holding the level-2 R
    lock across the wait).  Returns the W-locked leaf, or None when the
    tree is a single leaf (caller falls back to the W protocol)."""
    while True:
        if ctx.tree.height == 1:
            return None
        parent = yield from coupled_read_descent(ctx, key, stop_level=2)
        if parent.is_leaf:
            # The tree shrank under us; retry.
            parent.lock.release(ctx.sim)
            ctx.metrics.restarts += 1
            continue
        yield ctx.sampler.search(parent.level)
        leaf = parent.child_for(key)
        yield leaf.lock.acquire_write(ctx.sim)
        parent.lock.release(ctx.sim)
        if leaf.dead:  # pragma: no cover - coupling pins the child
            leaf.lock.release(ctx.sim)
            ctx.metrics.restarts += 1
            continue
        assert isinstance(leaf, LeafNode)
        return leaf


def _leaf_safe(ctx: OperationContext, leaf: LeafNode, key: int,
               for_insert: bool) -> bool:
    """Can the operation complete on this leaf without restructuring?

    Duplicate inserts and misses cannot overflow; deleting the last key
    of a non-root leaf would trigger a merge-at-empty removal."""
    if for_insert:
        return leaf.contains(key) or ctx.tree.is_insert_safe(leaf)
    if not leaf.contains(key):
        return True
    return leaf is ctx.tree.root or ctx.tree.is_delete_safe(leaf)


def _redo(ctx: OperationContext, key: int, for_insert: bool,
          started: float, op_name: str) -> Generator:
    """Second pass: the Naive Lock-coupling W-lock protocol.

    Under the Naive recovery policy the redo descent keeps every W lock
    it places (strict two-phase locking): ancestor locks are not released
    when the child is safe, and everything is retained until commit."""
    locked = yield from naive._write_descent(
        ctx, key, for_insert, release_early=not ctx.retain_all)
    if for_insert:
        yield from naive._apply_insert(ctx, key, locked)
    else:
        yield from naive._apply_delete(ctx, key, locked)
    yield from _finish_with_retention(ctx, locked, started, op_name)


def _finish_with_retention(ctx: OperationContext, locked: List[Node],
                           started: float, op_name: str) -> Generator:
    """Record the response, then hold retained W locks until the
    enclosing transaction commits (Section 7 recovery policies).

    * no recovery: release everything now;
    * leaf-only: retain the leaf lock, release internal locks now;
    * naive: retain every W lock still held (the unsafe-path suffix),
      matching the analysis's Pr[F(i)] * T_trans retention weighting.
    """
    retained: List[Node] = []
    released: List[Node] = []
    for node in locked:
        if node.dead:
            # Freed by this very operation's merge-at-empty removal; its
            # lock is still held and must simply be released.
            released.append(node)
        elif ctx.retain_all or (ctx.retain_leaf and node.is_leaf):
            retained.append(node)
        else:
            released.append(node)
    release_all(ctx.sim, released)
    ctx.finish(op_name, started)
    if retained:
        yield ctx.sampler.transaction_remainder(ctx.t_trans)
        release_all(ctx.sim, retained)
