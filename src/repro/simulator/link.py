"""Link-type (Lehman-Yao) operation processes (paper Section 2).

At most one lock is held at a time.  Every node has a right link and a
high key; a process that lands on a node no longer covering its key
(because the node half-split after the parent was read) chases right
links until it does — a *link crossing*, counted for Figure 9.

Inserts remember the descent path; after a leaf half-split the separator
is posted into the remembered parent (chasing links if the parent itself
split), and the process repeats upward.  A split of the root is completed
by atomically growing a new root.  Deletes never restructure (the paper
ignores merges for link-type trees; empty leaves simply remain).
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.btree.node import InternalNode, Node
from repro.simulator.operations import (
    OP_DELETE,
    OP_INSERT,
    OP_SEARCH,
    OperationContext,
)


def search(ctx: OperationContext, key: int) -> Generator:
    """Lehman-Yao search: R lock one node at a time, chase links."""
    started = ctx.sim.now
    leaf = yield from _read_descent(ctx, key, stack=None)
    leaf.contains(key)
    leaf.lock.release(ctx.sim)
    ctx.finish(OP_SEARCH, started)


def insert(ctx: OperationContext, key: int) -> Generator:
    started = ctx.sim.now
    stack: List[Node] = []
    target = yield from _read_descent(ctx, key, stack, stop_above_leaf=True)
    leaf = yield from _wlock_covering(ctx, target, key)
    yield ctx.sampler.modify(1)
    ctx.tree.apply_leaf_insert(leaf, key)
    if not ctx.tree.overflowed(leaf):
        leaf.lock.release(ctx.sim)
        ctx.finish(OP_INSERT, started)
        return
    yield from _split_cascade(ctx, leaf, stack)
    ctx.finish(OP_INSERT, started)


def scan(ctx: OperationContext, low: int, high: int,
         out: Optional[List[int]] = None) -> Generator:
    """Range scan over ``[low, high)`` — the B-link tree's signature
    workload beyond the paper's point operations.

    Descends to the leaf for ``low`` and walks the leaf chain holding
    one R lock at a time (crabbing right).  Keys are appended to ``out``
    if given.  Concurrent splits are harmless: a split moves keys to the
    right of the scan position, where the chain walk will find them.
    """
    started = ctx.sim.now
    node = yield from _read_descent(ctx, low, stack=None)
    while True:
        if out is not None:
            out.extend(k for k in node.keys if low <= k < high)
        done = node.high_key is None or node.high_key >= high
        successor = node.right
        node.lock.release(ctx.sim)
        if done or successor is None:
            break
        node = successor
        yield node.lock.acquire_read(ctx.sim)
        yield ctx.sampler.search(1)
    ctx.finish(OP_SEARCH, started)


def delete(ctx: OperationContext, key: int) -> Generator:
    """W-lock the leaf, remove the key; no restructuring (merges are
    ignored in link-type trees — empty leaves persist)."""
    started = ctx.sim.now
    target = yield from _read_descent(ctx, key, stack=None,
                                      stop_above_leaf=True)
    leaf = yield from _wlock_covering(ctx, target, key)
    yield ctx.sampler.modify(1)
    ctx.tree.apply_leaf_delete(leaf, key)
    leaf.lock.release(ctx.sim)
    ctx.finish(OP_DELETE, started)


# ----------------------------------------------------------------------
# Descent helpers
# ----------------------------------------------------------------------
def _read_descent(ctx: OperationContext, key: int,
                  stack: Optional[List[Node]],
                  stop_above_leaf: bool = False) -> Generator:
    """Descend one R lock at a time, chasing right links.

    Returns the leaf with its R lock *held*, or — with
    ``stop_above_leaf`` (updates, which W-lock the leaf themselves) — the
    *unlocked* leaf pointer as routed by the last internal node.  When
    ``stack`` is given the rightmost node visited at each internal level
    is appended (root first) for later parent backtracking."""
    node: Node = ctx.tree.root
    while True:
        if node.is_leaf and stop_above_leaf:
            # Single-leaf tree or routed child: caller W-locks it.
            return node
        yield node.lock.acquire_read(ctx.sim)
        yield ctx.sampler.search(node.level)
        if not node.covers(key):
            successor = node.right
            node.lock.release(ctx.sim)
            ctx.metrics.link_crossings += 1
            node = successor
            continue
        if node.is_leaf:
            return node
        assert isinstance(node, InternalNode)
        child = node.child_for(key)
        node.lock.release(ctx.sim)
        if stack is not None:
            stack.append(node)
        node = child


def _wlock_covering(ctx: OperationContext, node: Node, key: int) -> Generator:
    """W-lock ``node``, chasing right links until the locked node covers
    ``key``.  Returns the locked node."""
    while True:
        yield node.lock.acquire_write(ctx.sim)
        if node.covers(key):
            return node
        successor = node.right
        node.lock.release(ctx.sim)
        ctx.metrics.link_crossings += 1
        node = successor
        yield ctx.sampler.search(node.level)


def _split_cascade(ctx: OperationContext, node: Node,
                   stack: List[Node]) -> Generator:
    """Half-split ``node`` (W-locked, overflowed) and post separators
    upward until a parent absorbs one without overflowing."""
    while True:
        yield ctx.sampler.half_split(node.level)
        sibling, separator = ctx.tree.half_split(node)
        ctx.metrics.splits += 1
        at_top = ctx.tree.root is node
        node.lock.release(ctx.sim)
        if at_top:
            # This block runs atomically (no yields), so the root pointer
            # swing cannot race with another grower: any earlier splitter
            # of this node completed its own grow before our W lock was
            # granted, which would have made ``at_top`` False.
            ctx.tree.grow_root(node, separator, sibling)
            return
        parent = yield from _locate_parent(ctx, node.level + 1, separator,
                                           stack)
        yield ctx.sampler.parent_post(parent.level)
        assert isinstance(parent, InternalNode)
        ctx.tree.complete_split(parent, separator, sibling)
        if not ctx.tree.overflowed(parent):
            parent.lock.release(ctx.sim)
            return
        node = parent


def _locate_parent(ctx: OperationContext, level: int, separator: int,
                   stack: List[Node]) -> Generator:
    """W-lock the node at ``level`` that should receive ``separator``.

    Normally the remembered stack entry (plus link chasing).  When the
    stack is exhausted — the split climbed past where the root was when
    the descent started — re-descend from the current root."""
    while stack and stack[-1].level < level:
        stack.pop()  # stale entries below the target (shouldn't happen)
    if stack and stack[-1].level == level:
        remembered = stack.pop()
        parent = yield from _wlock_covering(ctx, remembered, separator)
        return parent
    # Fresh partial descent from the current root down to `level`.
    node: Node = ctx.tree.root
    while node.level > level:
        yield node.lock.acquire_read(ctx.sim)
        yield ctx.sampler.search(node.level)
        if not node.covers(separator):
            successor = node.right
            node.lock.release(ctx.sim)
            ctx.metrics.link_crossings += 1
            node = successor
            continue
        assert isinstance(node, InternalNode)
        child = node.child_for(separator)
        node.lock.release(ctx.sim)
        node = child
    parent = yield from _wlock_covering(ctx, node, separator)
    return parent
