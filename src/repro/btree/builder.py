"""Construction phase: build a B-tree from a random insert/delete mix.

The paper's simulator "first builds a B-tree out of a sequence of insert
and delete operations ... The proportion of insert to delete operations in
the construction phase is the same as the proportion in the concurrent
operation phase" (Section 4).  ``build_tree`` reproduces that: it applies
insert/delete operations drawn with the mix's update proportions until the
tree holds the requested number of items.

The simulator drivers go through ``warm_tree``, which grows each distinct
tree once per process and lends it to every run, which undoes its changes
afterwards.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.btree.node import Node
from repro.btree.policies import MERGE_AT_EMPTY, MergePolicy
from repro.btree.tree import BPlusTree, NodeHook
from repro.errors import ConfigurationError

#: Default size of the integer key universe used by the experiments; large
#: enough that random inserts rarely collide.
DEFAULT_KEY_SPACE = 1 << 30

#: ``warm_tree``'s one template: (key, template tree, every node it ever
#: allocated, in creation order), or None before the first call.
_last: Optional[Tuple[tuple, BPlusTree, List[Node]]] = None


def build_tree(n_items: int, order: int = 13,
               insert_fraction: float = 5.0 / 7.0,
               # One legal value, kept because bench/tracer.py binds it by name.
               merge_policy: MergePolicy = MERGE_AT_EMPTY,
               key_space: int = DEFAULT_KEY_SPACE,
               seed: int = 0,
               on_new_node: NodeHook = None,
               on_free_node: NodeHook = None,
               rng: Optional[random.Random] = None) -> BPlusTree:
    """Grow a tree to ``n_items`` keys with a mixed insert/delete stream.

    Parameters
    ----------
    n_items:
        Target number of keys (the paper's experiments use ~40,000).
    insert_fraction:
        Probability that a construction operation is an insert, i.e.
        ``q_i / (q_i + q_d)`` of the concurrent mix (paper default
        .5/.7 = 5/7).
    merge_policy:
        Must be :data:`~repro.btree.policies.MERGE_AT_EMPTY`, the only
        policy the tree implements.
    key_space:
        Keys are drawn uniformly from ``[0, key_space)``.
    seed / rng:
        Reproducibility controls; ``rng`` wins when both are given.

    Returns the populated :class:`~repro.btree.tree.BPlusTree`.
    """
    if n_items < 0:
        raise ConfigurationError(f"cannot build a tree of {n_items} items")
    if not 0.5 < insert_fraction <= 1.0:
        raise ConfigurationError(
            "insert_fraction must be in (0.5, 1.0] so the tree grows "
            f"(got {insert_fraction})"
        )
    if merge_policy != MERGE_AT_EMPTY:
        raise ConfigurationError(
            f"the B-tree is merge-at-empty only, got {merge_policy!r}")
    rng = rng if rng is not None else random.Random(seed)
    tree = BPlusTree(order=order, on_new_node=on_new_node,
                     on_free_node=on_free_node)
    while len(tree) < n_items:
        key = rng.randrange(key_space)
        if rng.random() < insert_fraction:
            tree.insert(key)
        else:
            # Deleting a uniformly random key usually misses; aim at the
            # resident population half the time so deletes actually bite,
            # as in a mixed workload with re-reads of existing keys.
            if len(tree) > 0 and rng.random() < 0.5:
                key = _approximate_resident_key(tree, key)
            tree.delete(key)
    return tree


def warm_tree(build_seed: int, n_items: int, order: int,
              insert_fraction: float, key_space: int,
              on_new_node: NodeHook = None) -> BPlusTree:
    """The tree ``build_tree`` grows from ``random.Random(build_seed)``,
    built only when the previous call asked for a different tree.

    The memo keeps the last template only, so callers that run several
    trees should group their runs by tree (see
    :func:`repro.experiments.common.sweep_replications`).  A miss builds
    a lock-free template.  Every call lends the template itself, with
    its undo journal open (:meth:`~repro.btree.tree.BPlusTree.journal`):
    the caller must call ``rollback()`` on it when done, which puts back
    every node the caller changed and copies none it did not.  A call
    also rolls back a loan that was never returned.

    ``on_new_node`` first runs over every node the build allocated
    (freed ones included) in creation order, as it would have run during
    the build, and then becomes the tree's hook.  Within the loan the
    tree is indistinguishable from ``build_tree(...,
    rng=random.Random(build_seed), on_new_node=on_new_node)``, except
    that its ``node_id`` values come from the build.
    """
    global _last
    key = (build_seed, n_items, order, insert_fraction, key_space)
    if _last is not None and _last[0] == key:
        _last[1].rollback()  # in case the last loan was never returned
    else:
        _last = None  # drop the old template before growing the next
        created: List[Node] = []
        template = build_tree(n_items, order=order,
                              insert_fraction=insert_fraction,
                              key_space=key_space,
                              rng=random.Random(build_seed),
                              on_new_node=created.append)
        template.on_new_node = None
        _last = (key, template, created)
    _key, template, created = _last
    if on_new_node is not None:
        for node in created:
            on_new_node(node)
    template.journal()
    template.on_new_node = on_new_node
    return template


def _approximate_resident_key(tree: BPlusTree, probe: int) -> int:
    """Return a key actually present in the tree near ``probe``.

    Finds the leaf responsible for ``probe`` and picks one of its keys
    (or walks right to the first non-empty leaf).  O(height) instead of
    O(n), which keeps construction of 40k-item trees fast.
    """
    leaf = tree.find_leaf(probe)
    node = leaf
    while node is not None and not node.keys:
        node = node.right  # type: ignore[assignment]
    if node is None or not node.keys:
        return probe
    return node.keys[len(node.keys) // 2]
