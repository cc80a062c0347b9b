"""Property-based tests: the B+-tree against a set model.

Hypothesis drives random operation sequences against both merge policies
and checks, after every batch, that (a) every structural invariant holds
and (b) the tree's contents equal a plain Python set subjected to the
same operations.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.btree import (
    BPlusTree,
    MERGE_AT_EMPTY,
    MERGE_AT_HALF,
    check_invariants,
)

#: Small key universe to force collisions, duplicates and deletions of
#: present keys.
KEYS = st.integers(min_value=0, max_value=200)

OPERATIONS = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "search"]), KEYS),
    min_size=1, max_size=300,
)

ORDERS = st.integers(min_value=3, max_value=9)

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


def _apply(tree: BPlusTree, model: set, op: str, key: int) -> None:
    if op == "insert":
        assert tree.insert(key) == (key not in model)
        model.add(key)
    elif op == "delete":
        assert tree.delete(key) == (key in model)
        model.discard(key)
    else:
        assert tree.search(key) == (key in model)


@pytest.mark.parametrize("policy", [MERGE_AT_EMPTY, MERGE_AT_HALF],
                         ids=["merge-at-empty", "merge-at-half"])
class TestAgainstSetModel:
    @_SETTINGS
    @given(order=ORDERS, ops=OPERATIONS)
    def test_contents_and_invariants(self, policy, order, ops):
        tree = BPlusTree(order=order, merge_policy=policy)
        model = set()
        for op, key in ops:
            _apply(tree, model, op, key)
        check_invariants(tree)
        assert list(tree.items()) == sorted(model)
        assert len(tree) == len(model)

    @_SETTINGS
    @given(order=ORDERS, ops=OPERATIONS)
    def test_interleaved_validation(self, policy, order, ops):
        """Invariants hold after *every* operation, not just at the end."""
        tree = BPlusTree(order=order, merge_policy=policy)
        model = set()
        for i, (op, key) in enumerate(ops):
            _apply(tree, model, op, key)
            if i % 7 == 0:
                check_invariants(tree)
        check_invariants(tree)

    @_SETTINGS
    @given(order=ORDERS, keys=st.sets(KEYS, min_size=1, max_size=150))
    def test_insert_all_then_delete_all(self, policy, order, keys):
        tree = BPlusTree(order=order, merge_policy=policy)
        for key in keys:
            tree.insert(key)
        check_invariants(tree)
        assert list(tree.items()) == sorted(keys)
        for key in sorted(keys):
            assert tree.delete(key)
        check_invariants(tree)
        assert len(tree) == 0
        assert tree.height == 1


@_SETTINGS
@given(order=ORDERS, keys=st.sets(KEYS, min_size=10, max_size=150))
def test_leaf_chain_matches_levels(order, keys):
    """The right-link chain at the leaf level enumerates exactly the
    leaves, and per-level chains are complete at all levels."""
    tree = BPlusTree(order=order)
    for key in keys:
        tree.insert(key)
    chained = [key for leaf in tree.leaves() for key in leaf.keys]
    assert chained == sorted(keys)
    total_nodes = sum(
        len(list(tree.level_nodes(level)))
        for level in range(1, tree.height + 1))
    assert total_nodes >= tree.height  # at least one node per level


@_SETTINGS
@given(keys=st.sets(KEYS, min_size=4, max_size=100))
def test_half_split_preserves_contents(keys):
    """Half-splitting an overfilled leaf never loses or reorders keys."""
    tree = BPlusTree(order=4)
    leaf = tree.root
    leaf.keys = sorted(keys)
    sibling, separator = tree.half_split(leaf)
    assert leaf.keys + sibling.keys == sorted(keys)
    assert all(k < separator for k in leaf.keys)
    assert all(k >= separator for k in sibling.keys)
    assert leaf.high_key == separator
    assert leaf.right is sibling


@_SETTINGS
@given(order=ORDERS,
       keys=st.sets(st.integers(min_value=0, max_value=10**6),
                    min_size=1, max_size=400))
def test_search_finds_exactly_members(order, keys):
    tree = BPlusTree(order=order)
    for key in keys:
        tree.insert(key)
    for key in list(keys)[:50]:
        assert tree.search(key)
    for probe in range(0, 10**6, 99_991):
        assert tree.search(probe) == (probe in keys)


def _snapshot(tree: BPlusTree):
    """Every field of every reachable node, nodes named by identity."""
    nodes, frontier = [], [tree.root]
    while frontier:
        nodes.extend(frontier)
        frontier = [child for node in frontier
                    for child in getattr(node, "children", ())]
    return ([(id(node), node.level, list(node.keys), node.high_key,
              id(node.right), node.dead,
              [id(child) for child in getattr(node, "children", ())])
             for node in nodes],
            id(tree.root), len(tree), tree.split_count, tree.merge_count,
            tree.on_new_node)


@_SETTINGS
@given(policy=st.sampled_from([MERGE_AT_EMPTY, MERGE_AT_HALF]),
       order=ORDERS, before=OPERATIONS, during=OPERATIONS)
def test_rollback_restores_the_journaled_tree(policy, order, before, during):
    """Whatever splits, merges and removals happen after ``journal()``,
    ``rollback()`` restores every reachable node and the tree fields."""
    tree = BPlusTree(order=order, merge_policy=policy)
    for op, key in before:
        getattr(tree, op)(key)
    expected = _snapshot(tree)
    tree.journal()
    tree.on_new_node = lambda node: None
    for op, key in during:
        getattr(tree, op)(key)
    tree.rollback()
    assert _snapshot(tree) == expected
    check_invariants(tree)
    tree.rollback()  # no journal open: nothing to undo
    assert _snapshot(tree) == expected


def _undone(tree: BPlusTree, change) -> None:
    """``change(tree)`` under a journal alters the tree; ``rollback()``
    restores it exactly."""
    expected = _snapshot(tree)
    tree.journal()
    change(tree)
    assert _snapshot(tree) != expected
    tree.rollback()
    assert _snapshot(tree) == expected


def _sequential_tree(policy, order: int = 4) -> BPlusTree:
    tree = BPlusTree(order=order, merge_policy=policy)
    for key in range(0, 300, 3):
        tree.insert(key)
    return tree


def test_each_primitive_journals_the_nodes_it_writes():
    """A primitive is undone even when no earlier call journaled the
    nodes it writes (the concurrent algorithms call them directly)."""
    tree = _sequential_tree(MERGE_AT_EMPTY)
    _undone(tree, lambda t: t.half_split(t.find_leaf(150)))
    # Empty one leaf without restructuring, then free it under the
    # journal: the freed leaf and its neighbours were never journaled.
    path = tree.path_to(150)
    for key in list(path[-1].keys):
        tree.apply_leaf_delete(path[-1], key)
    _undone(tree, lambda t: t.remove_empty_leaf(path))


@pytest.mark.parametrize("extra", [1, 0], ids=["borrow", "merge"])
def test_merge_at_half_restructuring_is_undone(extra):
    """A delete that underflows the last child of a parent borrows from
    (or merges into) its left sibling, which nothing journaled before."""
    tree = _sequential_tree(MERGE_AT_HALF)
    parent = tree.path_to(10**6)[-2]
    left, last = parent.children[-2], parent.children[-1]
    floor = MERGE_AT_HALF.min_entries(tree.order)
    while len(left.keys) < floor + extra:
        tree.insert(left.keys[-1] + 1)
    while len(last.keys) > floor:
        tree.delete(last.keys[-1])
    _undone(tree, lambda t: t.delete(last.keys[0]))
