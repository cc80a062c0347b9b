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

``build_tree`` runs one fused loop: the leaf descent and the leaf insert
or delete of :meth:`BPlusTree.insert` / :meth:`BPlusTree.delete` and the
``getrandbits`` rejection loop of ``random.Random.randrange`` are
inlined, so the build makes the same draws in the same order and grows
the same tree as calling those methods would, with fewer calls per key.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from typing import Dict, Optional, Tuple

from repro.btree.node import MAX_KEY_SPACE, Node
from repro.btree.policies import MERGE_AT_EMPTY, MergePolicy
from repro.btree.tree import BPlusTree, NodeHook
from repro.errors import ConfigurationError

#: Default size of the integer key universe used by the experiments; large
#: enough that random inserts rarely collide.
DEFAULT_KEY_SPACE = 1 << 30

#: ``(level, count)`` pairs: how many nodes a build allocated at each
#: tree level (freed ones included), levels in first-allocation order.
BuildLevels = Tuple[Tuple[int, int], ...]

#: ``warm_tree``'s one template: (key, template tree, its build levels),
#: or None before the first call.
_last: Optional[Tuple[tuple, BPlusTree, BuildLevels]] = None


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
        Keys are drawn uniformly from ``[0, key_space)``; at least
        ``n_items`` and at most :data:`~repro.btree.node.MAX_KEY_SPACE`
        (``2**63``), the range of a leaf's typed keys.
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
    if n_items > key_space:
        # The build inserts distinct keys until it holds n_items of them.
        raise ConfigurationError(
            f"cannot draw {n_items} distinct keys from a key space of "
            f"{key_space}")
    if key_space > MAX_KEY_SPACE:
        raise ConfigurationError(
            f"key space must be <= 2**63, got {key_space}")
    tree = BPlusTree(order=order, on_new_node=on_new_node,
                     on_free_node=on_free_node)
    getrandbits = rng.getrandbits
    draw = rng.random
    bits = key_space.bit_length()
    size = 0
    while size < n_items:
        key = getrandbits(bits)  # rng.randrange(key_space), inlined
        while key >= key_space:
            key = getrandbits(bits)
        insert = draw() < insert_fraction
        leaf = tree.root
        while not leaf.is_leaf:  # tree.find_leaf(key), inlined
            leaf = leaf.children[bisect_right(leaf.keys, key)]
        if insert:
            keys = leaf.keys
            i = bisect_left(keys, key)
            if i < len(keys) and keys[i] == key:
                continue
            keys.insert(i, key)
            size += 1
            if len(keys) > order:
                tree._size = size
                tree.split_path(tree.path_to(key))
            continue
        # Deleting a uniformly random key usually misses; aim at the
        # resident population half the time so deletes actually bite,
        # as in a mixed workload with re-reads of existing keys: the
        # middle key of the first non-empty leaf from ``key``'s on.
        # That key lives in that leaf, so no second descent is needed.
        if size > 0 and draw() < 0.5:
            node = leaf
            while node is not None and not node.keys:
                node = node.right
            if node is not None:
                leaf = node
                key = node.keys[len(node.keys) // 2]
        keys = leaf.keys
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            del keys[i]
            size -= 1
            if not keys and leaf is not tree.root:
                tree._size = size
                tree.remove_empty_leaf(tree.path_to(key))
    tree._size = size
    return tree


def warm_tree(build_seed: int, n_items: int, order: int,
              insert_fraction: float, key_space: int,
              on_new_node: NodeHook = None
              ) -> Tuple[BPlusTree, BuildLevels]:
    """The tree ``build_tree`` grows from ``random.Random(build_seed)``,
    built only when the previous call asked for a different tree, and
    its build levels.

    The memo keeps the last template only, so callers that run several
    trees should group their runs by tree (see
    :func:`repro.experiments.common.sweep_replications`).  A miss drops
    the old template (reference counting frees it and its
    ``spare_locks``) and builds a lock-free template.  Every call lends
    the template itself, with its undo journal open
    (:meth:`~repro.btree.tree.BPlusTree.journal`): the caller must call
    ``rollback()`` on it when done, which puts back every node the
    caller changed and copies none it did not.  A call also rolls back a
    loan that was never returned.

    The build levels are ``(level, count)`` pairs: how many nodes the
    build allocated at each level, freed ones included, levels in the
    order the build first allocated at them — what ``on_new_node``
    would have seen during the build, summed per level.
    ``on_new_node`` becomes the tree's hook for the loan.  Within the
    loan the tree is indistinguishable from ``build_tree(...,
    rng=random.Random(build_seed), on_new_node=on_new_node)``, except
    that its ``node_id`` values come from the build and the hook sees
    only the nodes the loan allocates.
    """
    global _last
    key = (build_seed, n_items, order, insert_fraction, key_space)
    if _last is not None and _last[0] == key:
        _last[1].rollback()  # in case the last loan was never returned
    else:
        _last = None  # drop the old template before growing the next
        counts: Dict[int, int] = {}

        def count(node: Node) -> None:
            counts[node.level] = counts.get(node.level, 0) + 1

        template = build_tree(n_items, order=order,
                              insert_fraction=insert_fraction,
                              key_space=key_space,
                              rng=random.Random(build_seed),
                              on_new_node=count)
        template.on_new_node = None
        _last = (key, template, tuple(counts.items()))
    _key, template, levels = _last
    template.journal()
    template.on_new_node = on_new_node
    return template, levels
