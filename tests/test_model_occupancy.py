"""Unit tests for the occupancy model (Corollary 1) against both the
closed forms and actual built trees."""

import pytest

from repro.btree import build_tree, collect_statistics
from repro.errors import ConfigurationError
from repro.model.occupancy import (
    OccupancyModel,
    pr_full_internal,
    pr_full_leaf,
)
from repro.model.params import PAPER_MIX, OperationMix


class TestClosedForms:
    def test_corollary1_leaf_value(self):
        # q = 2/7 with the paper mix: (1 - 4/7) / ((5/7) * .68 * 13)
        expected = (1 - 4.0 / 7.0) / ((5.0 / 7.0) * 0.68 * 13)
        assert pr_full_leaf(PAPER_MIX, 13) == pytest.approx(expected)

    def test_pure_insert_limit(self):
        mix = OperationMix(0.3, 0.7, 0.0)
        assert pr_full_leaf(mix, 13) == pytest.approx(1.0 / (0.68 * 13))

    def test_more_deletes_than_inserts_rejected(self):
        mix = OperationMix(0.2, 0.3, 0.5)
        with pytest.raises(ConfigurationError):
            pr_full_leaf(mix, 13)

    def test_internal_value(self):
        assert pr_full_internal(13) == pytest.approx(1.0 / (0.69 * 13))

    def test_larger_nodes_are_less_often_full(self):
        assert pr_full_leaf(PAPER_MIX, 59) < pr_full_leaf(PAPER_MIX, 13)
        assert pr_full_internal(59) < pr_full_internal(13)


class TestOccupancyModel:
    def test_corollary1_constructor(self):
        occ = OccupancyModel.corollary1(PAPER_MIX, 13, height=5)
        assert occ.height == 5
        assert occ.full(1) == pytest.approx(pr_full_leaf(PAPER_MIX, 13))
        for level in range(2, 6):
            assert occ.full(level) == pytest.approx(pr_full_internal(13))
            assert occ.empty(level) == 0.0

    def test_split_propagation_product(self):
        occ = OccupancyModel(pr_full=(0.1, 0.2, 0.5), pr_empty=(0, 0, 0))
        assert occ.split_propagation(1) == pytest.approx(0.1)
        assert occ.split_propagation(2) == pytest.approx(0.02)
        assert occ.split_propagation(3) == pytest.approx(0.01)
        assert occ.split_propagation(0) == 1.0

    def test_merge_propagation_zero_by_default(self):
        occ = OccupancyModel.corollary1(PAPER_MIX, 13, height=3)
        assert occ.merge_propagation(1) == 0.0

    def test_uniform(self):
        occ = OccupancyModel.uniform(0.25, height=4)
        assert all(occ.full(level) == 0.25 for level in range(1, 5))

    def test_probability_bounds_checked(self):
        with pytest.raises(ConfigurationError):
            OccupancyModel(pr_full=(1.5,), pr_empty=(0.0,))
        with pytest.raises(ConfigurationError):
            OccupancyModel(pr_full=(0.5, 0.5), pr_empty=(0.0,))

    def test_measured_from_real_tree(self):
        tree = build_tree(10_000, order=13, seed=2)
        occ = OccupancyModel.measured(collect_statistics(tree))
        assert occ.height == tree.height
        assert 0.0 <= occ.full(1) <= 0.3

    def test_corollary1_matches_built_tree(self):
        """The closed form tracks the measured leaf-full fraction."""
        tree = build_tree(40_000, order=13, seed=0)
        measured = OccupancyModel.measured(collect_statistics(tree))
        closed = OccupancyModel.corollary1(PAPER_MIX, 13, tree.height)
        assert measured.full(1) == pytest.approx(closed.full(1), rel=0.25)
