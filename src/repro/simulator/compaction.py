"""Background compression for Link-type trees (after Sagiv, ref [23]).

The Link-type algorithm never merges, so deletes leave empty leaves in
place (the paper ignores merges because, with inserts outnumbering
deletes, they are rare).  Sagiv's B*-link paper proposes an independent
*compression process* that reclaims empty nodes in the background; this
module implements it for the leaf level:

* periodically sweep the leaf chain (the peek is atomic in simulated
  time) collecting empty-leaf candidates;
* for each candidate, acquire W locks in the global deadlock-free order
  every other process uses — parent (upper level) first, then
  left-to-right within the leaf level: left neighbour before the victim;
* re-validate under the locks (splits/removals may have raced ahead) and
  splice the leaf out via
  :meth:`~repro.btree.tree.BPlusTree.splice_out_empty_leaf`.

The compactor holds at most three locks, never blocks the tree for long,
and its reclamation count is reported through the run metrics.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Tuple

from repro.btree.node import InternalNode, LeafNode, Node
from repro.simulator.operations import OperationContext


def compactor(ctx: OperationContext, interval: float,
              max_sweeps: Optional[int] = None) -> Generator:
    """Background process: sweep for empty leaves every ``interval``
    (exponentially distributed) time units.

    Runs forever unless ``max_sweeps`` is given; the driver simply stops
    the event loop when the measured run ends.
    """
    sweeps = 0
    while max_sweeps is None or sweeps < max_sweeps:
        yield (ctx.rng.expovariate(1.0 / interval)
               if interval > 0 else 0.0)
        yield from sweep_once(ctx)
        sweeps += 1


def sweep_once(ctx: OperationContext) -> Generator:
    """One full pass over the leaf chain; returns reclaimed count."""
    reclaimed = 0
    for leaf in _empty_leaf_candidates(ctx):
        removed = yield from _reclaim(ctx, leaf)
        if removed:
            reclaimed += 1
            ctx.metrics.compactions += 1
    return reclaimed


def _empty_leaf_candidates(ctx: OperationContext) -> List[LeafNode]:
    """Atomic snapshot of the currently-empty leaves."""
    candidates: List[LeafNode] = []
    node: Optional[Node] = ctx.tree.root
    while node is not None and not node.is_leaf:
        node = node.children[0]  # type: ignore[union-attr]
    while node is not None:
        if not node.keys and node is not ctx.tree.root:
            candidates.append(node)  # type: ignore[arg-type]
        node = node.right
    return candidates


def _locate(ctx: OperationContext,
            leaf: LeafNode) -> Optional[Tuple[InternalNode, Optional[Node]]]:
    """Atomic lookup of the victim's parent and left neighbour.

    An empty leaf is only findable positionally: descend toward its key
    range (just below the high key, or the rightmost path when the leaf
    is the rightmost of its level) to level 2, then walk right links by
    identity.  Best-effort — returning None just defers the leaf to the
    next sweep.
    """
    if leaf.dead or leaf.keys:
        return None
    node: Node = ctx.tree.root
    if node.is_leaf or node.level < 2:
        return None
    while node.level > 2:
        assert isinstance(node, InternalNode)
        if leaf.high_key is None:
            node = node.children[-1]
        else:
            node = node.child_for(leaf.high_key - 1)
        if node.is_leaf:  # pragma: no cover - height raced under us
            return None
    candidate: Optional[Node] = node
    while candidate is not None:
        assert isinstance(candidate, InternalNode)
        if leaf in candidate.children:
            break
        candidate = candidate.right
    if candidate is None:
        return None
    left = ctx.tree._scan_for_left_neighbour(leaf)
    return candidate, left  # type: ignore[return-value]


def _reclaim(ctx: OperationContext, leaf: LeafNode) -> Generator:
    """Lock (parent, left, leaf) in deadlock-free order and splice."""
    located = _locate(ctx, leaf)
    if located is None:
        return False
    parent, left = located
    yield parent.lock.acquire_write(ctx.sim)
    yield ctx.sampler.search(parent.level)
    if left is not None:
        yield left.lock.acquire_write(ctx.sim)
    yield leaf.lock.acquire_write(ctx.sim)
    yield ctx.sampler.merge(1)
    removed = ctx.tree.splice_out_empty_leaf(leaf, parent, left)
    leaf.lock.release(ctx.sim)
    if left is not None:
        left.lock.release(ctx.sim)
    parent.lock.release(ctx.sim)
    return removed
