"""Structural invariant checker.

``check_invariants`` walks the whole tree and verifies every property the
concurrent algorithms rely on.  It raises
:class:`~repro.errors.InvariantViolationError` with a precise message on
the first violation, which makes hypothesis shrinking output readable.

Checked invariants:

1. keys are strictly sorted inside every node;
2. no node exceeds the order; non-root nodes are not empty (the
   merge-at-empty floor);
3. internal nodes have ``len(children) == len(keys) + 1`` and children one
   level below;
4. separator correctness: each child's keys fall inside the router range;
5. all leaves are at level 1 (uniform depth);
6. each level's right-link chain visits exactly the level's nodes in
   left-to-right order;
7. high keys: ``node.high_key`` equals the next separator bound and every
   key in the subtree is below it;
8. the multiset of leaf keys is globally sorted along the leaf chain.
"""

from __future__ import annotations

from typing import List, Optional

from repro.btree.node import InternalNode, LeafNode, Node
from repro.btree.tree import BPlusTree
from repro.errors import InvariantViolationError


def check_invariants(tree: BPlusTree, allow_underflow: bool = False) -> None:
    """Validate ``tree``; raises InvariantViolationError on any breach.

    ``allow_underflow=True`` skips the occupancy-floor check: the
    Link-type algorithm never merges, so its trees legitimately contain
    empty leaves (paper Section 2 ignores merges for link trees).
    """
    _check_subtree(tree, tree.root, low=None, high=None,
                   allow_underflow=allow_underflow)
    _check_level_chains(tree)
    _check_leaf_order(tree)


def _fail(message: str) -> None:
    raise InvariantViolationError(message)


def _check_subtree(tree: BPlusTree, node: Node,
                   low: Optional[int], high: Optional[int],
                   allow_underflow: bool = False) -> None:
    if node.dead:
        _fail(f"node #{node.node_id} is marked dead but still reachable")
    _check_keys_sorted(node)
    if node.n_entries() > tree.order:
        _fail(f"node #{node.node_id} holds {node.n_entries()} entries "
              f"(> order {tree.order})")
    if not allow_underflow and node is not tree.root \
            and node.n_entries() == 0:
        _fail(f"non-root node #{node.node_id} is empty (merge-at-empty)")
    if node.high_key is not None and high is not None \
            and node.high_key > high:
        _fail(f"node #{node.node_id} high_key {node.high_key} exceeds "
              f"router bound {high}")
    for key in node.keys:
        if low is not None and key < low:
            _fail(f"key {key} in node #{node.node_id} below router bound {low}")
        if high is not None and key >= high:
            _fail(f"key {key} in node #{node.node_id} >= router bound {high}")
        if node.high_key is not None and key >= node.high_key \
                and node.is_leaf:
            _fail(f"leaf key {key} in node #{node.node_id} >= its own "
                  f"high_key {node.high_key}")
    if isinstance(node, InternalNode):
        if len(node.children) != len(node.keys) + 1:
            _fail(f"node #{node.node_id}: {len(node.children)} children vs "
                  f"{len(node.keys)} keys")
        for child in node.children:
            if child.level != node.level - 1:
                _fail(f"child #{child.node_id} at level {child.level} under "
                      f"parent level {node.level}")
        bounds = [low] + list(node.keys) + [high]
        for child, (lo, hi) in zip(node.children, zip(bounds, bounds[1:])):
            _check_subtree(tree, child, lo, hi,
                           allow_underflow=allow_underflow)
    elif not isinstance(node, LeafNode):  # pragma: no cover - type safety
        _fail(f"node #{node.node_id} is neither leaf nor internal")


def _check_keys_sorted(node: Node) -> None:
    for a, b in zip(node.keys, node.keys[1:]):
        if a >= b:
            _fail(f"keys out of order in node #{node.node_id}: {a} >= {b}")


def _collect_level(node: Node, level: int, out: List[Node]) -> None:
    if node.level == level:
        out.append(node)
        return
    assert isinstance(node, InternalNode)
    for child in node.children:
        _collect_level(child, level, out)


def _check_level_chains(tree: BPlusTree) -> None:
    for level in range(1, tree.height + 1):
        expected: List[Node] = []
        _collect_level(tree.root, level, expected)
        # Follow the chain from the leftmost node of the level.
        chain: List[Node] = []
        node: Optional[Node] = expected[0] if expected else None
        seen = set()
        while node is not None:
            if id(node) in seen:
                _fail(f"right-link cycle at level {level} through "
                      f"node #{node.node_id}")
            seen.add(id(node))
            chain.append(node)
            node = node.right
        if [n.node_id for n in chain] != [n.node_id for n in expected]:
            _fail(
                f"level {level} chain {[n.node_id for n in chain]} does not "
                f"match tree order {[n.node_id for n in expected]}"
            )
        # High keys must agree with the right neighbour's key range and the
        # rightmost node must be unbounded.
        if chain and chain[-1].high_key is not None:
            _fail(f"rightmost node #{chain[-1].node_id} of level {level} "
                  f"has finite high_key {chain[-1].high_key}")
        for left, right in zip(chain, chain[1:]):
            if left.high_key is None:
                _fail(f"non-rightmost node #{left.node_id} has no high_key")
            lowest = _lowest_key(right)
            if lowest is not None and lowest < left.high_key:
                _fail(
                    f"node #{right.node_id} starts at {lowest} below left "
                    f"neighbour's high_key {left.high_key}"
                )


def _lowest_key(node: Node) -> Optional[int]:
    while isinstance(node, InternalNode):
        node = node.children[0]
    return node.keys[0] if node.keys else None


def _check_leaf_order(tree: BPlusTree) -> None:
    previous: Optional[int] = None
    count = 0
    for key in tree.items():
        if previous is not None and key <= previous:
            _fail(f"leaf chain keys out of order: {previous} then {key}")
        previous = key
        count += 1
    if count != len(tree):
        _fail(f"tree size {len(tree)} but leaf chain holds {count} keys")
