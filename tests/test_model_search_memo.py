"""Each distinct throughput search runs once per process, and each
configuration's rate-independent terms are computed once.

:func:`~repro.model.throughput.max_throughput` (Theorem 2) and
:func:`~repro.model.throughput.arrival_rate_for_root_utilization` share
one bounded memo keyed on every argument.  The counting tests replace
the search behind the memo with a counting wrapper, so they see how
often a search really ran; the wrapper is part of the key, so entries
other tests left behind cannot answer for it.
"""

from collections import Counter

import pytest

from repro.errors import ConvergenceError
from repro.experiments.claims import evaluate_claims
from repro.experiments.extensions import _MPL_LEVELS
from repro.model import (
    analyze_lock_coupling,
    analyze_optimistic_with_recovery,
    arrival_rate_for_root_utilization,
    max_throughput,
    paper_default_config,
)
from repro.model import throughput
from repro.model.closed import closed_system_prediction
from repro.model.occupancy import OccupancyModel
from repro.model.recovery import LEAF_ONLY_RECOVERY, NAIVE_RECOVERY
from repro.model.results import level_terms
from repro.report import FIGURES


def _key(analyze, config, kwargs):
    return analyze, config, repr(sorted(kwargs.items()))


@pytest.fixture
def searches(monkeypatch):
    """Counter of the Theorem 2 searches run, keyed on (analyzer,
    config, repr of the sorted keyword arguments).  Its ``requests``
    attribute counts the calls that asked for each."""
    runs = Counter()
    runs.requests = Counter()
    search, memoized = throughput._max_throughput, throughput._searched

    def counted(analyze, config, rel_tol, start, **kwargs):
        runs[_key(analyze, config, kwargs)] += 1
        return search(analyze, config, rel_tol, start, **kwargs)

    def requested(search, analyze, config, *args, **kwargs):
        if search is counted:
            runs.requests[_key(analyze, config, kwargs)] += 1
        return memoized(search, analyze, config, *args, **kwargs)

    monkeypatch.setattr(throughput, "_max_throughput", counted)
    monkeypatch.setattr(throughput, "_searched", requested)
    yield runs
    throughput._memo.cache_clear()


def _counting(analyze, calls):
    def counted(config, rate, **kwargs):
        calls.append(rate)
        return analyze(config, rate, **kwargs)
    return counted


class TestDistinctSearchesRunOnce:

    def test_closed_system_capacity_searched_once(self, searches):
        """ext04 predicts seven populations of one configuration: they
        share a single Theorem 2 capacity search."""
        config = paper_default_config()
        capacities = {closed_system_prediction(analyze_lock_coupling,
                                               config, mpl).capacity
                      for mpl in _MPL_LEVELS}
        assert len(capacities) == 1
        key = _key(analyze_lock_coupling, config, {})
        assert searches.requests == Counter({key: len(_MPL_LEVELS)})
        assert searches == Counter({key: 1})

    def test_figures_and_claims_share_searches(self, searches):
        """fig11, ext01 and three claims ask for Naive Lock-coupling's
        capacity at the paper's configuration; it is searched once, as
        is every other search they make."""
        FIGURES["fig11"].run(simulate=False)
        FIGURES["ext01"].run(simulate=False)
        evaluate_claims()
        naive = _key(analyze_lock_coupling, paper_default_config(), {})
        assert searches.requests[naive] == 5
        assert searches[naive] == 1
        assert set(searches.values()) == {1}
        assert searches.keys() == searches.requests.keys()


class TestMemoKeys:

    def test_repeat_call_reuses_the_answer(self, searches):
        calls = []
        analyze = _counting(analyze_lock_coupling, calls)
        config = paper_default_config()
        first = max_throughput(analyze, config)
        evaluated = len(calls)
        assert max_throughput(analyze, config) == first
        assert len(calls) == evaluated

    def test_exception_is_not_cached(self, searches):
        config = paper_default_config()
        failing = [True]

        def flaky(config, rate):
            if failing[0]:
                raise ConvergenceError("transient", solver="probe")
            return analyze_lock_coupling(config, rate)

        with pytest.raises(ConvergenceError):
            max_throughput(flaky, config)
        failing[0] = False
        assert max_throughput(flaky, config) == \
            max_throughput(analyze_lock_coupling, config)
        assert sum(searches.values()) == 3

    @pytest.mark.parametrize("changed", [
        {"rel_tol": 1e-3}, {"start": 1e-2}])
    def test_rel_tol_and_start_are_part_of_the_key(self, searches, changed):
        config = paper_default_config()
        max_throughput(analyze_lock_coupling, config)
        max_throughput(analyze_lock_coupling, config, **changed)
        assert sum(searches.values()) == 2

    def test_analyzer_kwargs_are_part_of_the_key(self, searches):
        config = paper_default_config(disk_cost=10.0)
        leaf = max_throughput(analyze_optimistic_with_recovery, config,
                              policy=LEAF_ONLY_RECOVERY, t_trans=100.0)
        naive = max_throughput(analyze_optimistic_with_recovery, config,
                               policy=NAIVE_RECOVERY, t_trans=100.0)
        assert naive < leaf
        # Keyword order does not matter.
        assert max_throughput(analyze_optimistic_with_recovery, config,
                              t_trans=100.0, policy=NAIVE_RECOVERY) == naive
        assert sum(searches.values()) == 2

    def test_unhashable_kwargs_bypass_the_memo(self, searches):
        config = paper_default_config()
        calls = []
        analyze = _counting(analyze_lock_coupling, calls)

        def with_weights(config, rate, weights):
            return analyze(config, rate)

        first = max_throughput(with_weights, config, weights=[1, 2])
        once = len(calls)
        assert max_throughput(with_weights, config, weights=[1, 2]) == first
        assert len(calls) == 2 * once
        assert sum(searches.values()) == 2

    def test_root_utilization_search_is_memoized(self):
        calls = []
        analyze = _counting(analyze_lock_coupling, calls)
        config = paper_default_config()
        half = arrival_rate_for_root_utilization(analyze, config)
        evaluated = len(calls)
        assert arrival_rate_for_root_utilization(analyze, config) == half
        assert len(calls) == evaluated
        # A different target is a different search.
        assert arrival_rate_for_root_utilization(analyze, config,
                                                 target=0.4) < half
        assert len(calls) > evaluated


class TestLevelTerms:

    def test_terms_match_the_occupancy_and_cost_model(self):
        config = paper_default_config()
        h = config.height
        terms = level_terms(config)
        occ = OccupancyModel.corollary1(config.mix, config.order, h)
        assert terms.occupancy is occ
        assert terms.se == tuple(config.costs.se(level, h)
                                 for level in range(1, h + 1))
        assert terms.share == tuple(config.shape.arrival_share(level)
                                    for level in range(1, h + 1))
        assert terms.split == tuple(occ.split_propagation(k)
                                    for k in range(h + 1))
        assert terms.merge == tuple(occ.merge_propagation(k)
                                    for k in range(h + 1))

    def test_equal_configurations_share_one_entry(self):
        assert level_terms(paper_default_config()) is \
            level_terms(paper_default_config())

    def test_unhashable_occupancy_is_computed_without_the_memo(self):
        config = paper_default_config()
        occ = OccupancyModel.corollary1(config.mix, config.order,
                                        config.height)
        listed = OccupancyModel(pr_full=list(occ.pr_full),
                                pr_empty=list(occ.pr_empty))
        terms = level_terms(config, listed)
        assert terms.occupancy is listed
        assert terms.split == level_terms(config, occ).split
        assert level_terms(config, listed) is not terms
