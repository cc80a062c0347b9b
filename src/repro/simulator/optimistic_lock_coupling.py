"""Optimistic Lock-coupling operation processes (registered extension).

A hybrid between Naive Lock-coupling and Optimistic Descent, in the
spirit of the Bayer-Schkolnick family of update protocols the paper's
Section 2 surveys: restructures almost never climb above the bottom two
levels, so updates R-lock-couple down to level 3 (the cheap, shareable
part of the descent) and only then switch to the Naive W-lock-coupling
protocol for the level-2 node and the leaf.  When the level-2 node
turns out to be unsafe for the operation — its restructure could
propagate higher — the operation releases everything, counts a redo and
re-descends with the full Naive W protocol, exactly like Optimistic
Descent's redo pass.

The module is dispatched purely through its registry spec
(:mod:`repro.algorithms.optimistic_lock_coupling`); no core dispatch
site names it.
"""

from __future__ import annotations

from typing import Generator

from repro.simulator import lock_coupling as naive
from repro.simulator.operations import (
    OP_DELETE,
    OP_INSERT,
    OperationContext,
    coupled_read_descent,
    release_all,
)

#: Updates W-lock at most this many of the deepest levels on the fast
#: path; shallower trees fall back to the full Naive W protocol.
_W_LEVELS = 2

#: Searches are identical to Naive Lock-coupling searches.
search = naive.search


def insert(ctx: OperationContext, key: int) -> Generator:
    yield from _update(ctx, key, for_insert=True)


def delete(ctx: OperationContext, key: int) -> Generator:
    yield from _update(ctx, key, for_insert=False)


def _update(ctx: OperationContext, key: int, for_insert: bool) -> Generator:
    started = ctx.sim.now
    op_name = OP_INSERT if for_insert else OP_DELETE
    locked = yield from _hybrid_descent(ctx, key, for_insert)
    if for_insert:
        yield from naive._apply_insert(ctx, key, locked)
    else:
        yield from naive._apply_delete(ctx, key, locked)
    release_all(ctx.sim, locked)
    ctx.finish(op_name, started)


def _hybrid_descent(ctx: OperationContext, key: int,
                    for_insert: bool) -> Generator:
    """R-couple to level 3, then W-couple the bottom two levels.

    Returns the still-locked path in the shape
    :func:`naive._apply_insert` / :func:`naive._apply_delete` expect:
    the deepest safe node followed by the contiguous unsafe suffix down
    to the leaf.
    """
    while True:
        if ctx.tree.height <= _W_LEVELS:
            # Too shallow for the hybrid: W protocol from the root.
            locked = yield from naive._write_descent(ctx, key, for_insert)
            return locked
        parent = yield from coupled_read_descent(ctx, key,
                                                 stop_level=_W_LEVELS + 1)
        if parent.level != _W_LEVELS + 1:
            # The tree shrank under us; retry.
            parent.lock.release(ctx.sim)
            ctx.metrics.restarts += 1
            continue
        yield ctx.sampler.search(parent.level)
        top = parent.child_for(key)
        yield top.lock.acquire_write(ctx.sim)
        parent.lock.release(ctx.sim)
        if top.dead:  # pragma: no cover - coupling pins the child
            top.lock.release(ctx.sim)
            ctx.metrics.restarts += 1
            continue
        safe = (ctx.tree.is_insert_safe(top) if for_insert
                else ctx.tree.is_delete_safe(top))
        if not safe:
            # A restructure could climb past level 2: full W redo.
            top.lock.release(ctx.sim)
            ctx.metrics.redo_descents += 1
            locked = yield from naive._write_descent(ctx, key, for_insert)
            return locked
        # ``top`` absorbs any restructure, so the path never climbs above it.
        locked = yield from naive._write_couple(ctx, top, key, for_insert)
        if locked is None:  # pragma: no cover - coupling pins children
            ctx.metrics.restarts += 1
            continue
        return locked

