"""Shared machinery for the concurrent operation processes.

Each algorithm module exposes three generator factories — ``search``,
``insert``, ``delete`` — taking an :class:`OperationContext` and a key.
The generators yield what the kernel takes (see :mod:`repro.des.process`):
a ``float`` (hold that much simulated time), and whatever a lock call
returns, ``yield lock.acquire_read(ctx.sim)`` /
``yield lock.acquire_write(ctx.sim)`` (``0.0`` on an immediate grant,
else ``WAIT`` until the lock resumes them).  They release a lock with a
plain call, ``lock.release(ctx.sim)``, which never blocks.  Code between
yields executes atomically in simulated time, so structural tree changes
made while holding the right locks are race-free by construction (the
same property the paper's simulator relies on).

Restart rules (the only deviations from the textbook protocols, both
consequences of implementing the algorithms on a *growing/shrinking*
tree):

* A process that locked what it believed was the root re-checks
  ``tree.root`` after the grant; a root split or collapse in the
  meantime forces a restart.
* A process that acquired a lock on a node freed by a merge-at-empty
  removal (``node.dead``) releases and restarts.  Lock-coupling makes
  this impossible mid-descent (the parent lock pins the child), so it
  only fires at the root boundary.
"""

from __future__ import annotations

import random
from typing import Generator, Optional

from repro.btree.node import LeafNode, Node
from repro.btree.tree import BPlusTree
from repro.des.engine import Simulator
from repro.des.process import READ
from repro.simulator.costs import ServiceTimeSampler
from repro.simulator.metrics import MetricsCollector

#: Operation type labels.
OP_SEARCH = "search"
OP_INSERT = "insert"
OP_DELETE = "delete"


class OperationContext:
    """Everything an operation process needs, bundled.

    The context also carries the recovery policy knobs so the Optimistic
    Descent operations can retain W locks past completion (Section 7).
    """

    __slots__ = ("sim", "tree", "sampler", "metrics", "rng",
                 "retain_leaf", "retain_all", "t_trans")

    def __init__(self, sim: Simulator, tree: BPlusTree,
                 sampler: ServiceTimeSampler, metrics: MetricsCollector,
                 rng: random.Random,
                 recovery: str = "no-recovery",
                 t_trans: float = 0.0) -> None:
        self.sim = sim
        self.tree = tree
        self.sampler = sampler
        self.metrics = metrics
        self.rng = rng
        self.retain_leaf = recovery in ("leaf-only-recovery", "naive-recovery")
        self.retain_all = recovery == "naive-recovery"
        self.t_trans = t_trans

    def finish(self, operation: str, started_at: float) -> None:
        """Record the operation's response time (now minus arrival)."""
        self.metrics.record_response(operation, self.sim.now - started_at)


def acquire_valid_root(ctx: OperationContext, mode: str) -> Generator:
    """Sub-generator: lock the current root, restarting while stale.

    Returns the locked root node (via generator return / ``yield from``).
    """
    read = mode == READ
    while True:
        node = ctx.tree.root
        lock = node.lock
        yield (lock.acquire_read if read else lock.acquire_write)(ctx.sim)
        if node is ctx.tree.root and not node.dead:
            return node
        lock.release(ctx.sim)
        ctx.metrics.restarts += 1


def release_all(sim: Simulator, locked) -> None:
    """Release the lock of every node in ``locked`` (top-down order)
    for the process ``sim`` is stepping."""
    for node in locked:
        node.lock.release(sim)


def coupled_read_descent(ctx: OperationContext, key: int,
                         stop_level: int = 1) -> Generator:
    """R-lock-coupled descent to ``stop_level``; returns the locked node.

    Used by searches (to the leaf) and by Optimistic Descent first passes
    (to level 2, from where the leaf is W-locked).  The caller receives
    the node at ``stop_level`` with its R lock held.
    """
    node = yield from acquire_valid_root(ctx, READ)
    while node.level > stop_level:
        yield ctx.sampler.search(node.level)
        child = node.child_for(key)
        yield child.lock.acquire_read(ctx.sim)
        node.lock.release(ctx.sim)
        if child.dead:  # pragma: no cover - pinned by coupling; root edge only
            child.lock.release(ctx.sim)
            ctx.metrics.restarts += 1
            node = yield from acquire_valid_root(ctx, READ)
            continue
        node = child
    return node


def pick_resident_key(tree: BPlusTree, rng: random.Random,
                      key_space: int,
                      probe: Optional[int] = None) -> int:
    """A key currently in the tree, located near a probe.

    Deletes target resident keys (otherwise merge behaviour never
    triggers); the probe-then-pick scheme is O(height).  The read is
    atomic in simulated time, so no locks are needed to *choose* the key
    — the operation still locks properly to delete it (and simply finds
    nothing if it lost a race).  ``probe`` defaults to a uniform draw;
    skewed workloads pass their own so deletes follow the same
    distribution as the other operations.
    """
    if probe is None:
        probe = rng.randrange(key_space)
    node: Optional[Node] = tree.find_leaf(probe)
    while node is not None and not node.keys:
        node = node.right
    if node is None or not node.keys:
        return probe
    assert isinstance(node, LeafNode)
    return node.keys[rng.randrange(len(node.keys))]
