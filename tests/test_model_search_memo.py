"""Each distinct capacity search runs once per batch, and each
configuration's rate-independent terms are computed once.

The model's searches (:func:`~repro.model.throughput.max_throughput`,
Theorem 2, and :func:`~repro.model.throughput.arrival_rate_for_root_utilization`,
the Section 6 rho_w target) are named by value as
:class:`~repro.model.throughput.CapacitySearch` tasks, so a batch
de-duplicates them and the result cache keeps them.  The counting tests
replace the search functions with counting wrappers, so they see how
often a search really ran.
"""

import sys
from collections import Counter

import pytest

from repro.errors import ConfigurationError, ConvergenceError
from repro.experiments.claims import claim_checks
from repro.experiments.extensions import _MPL_LEVELS
from repro.experiments.registry import run_drivers
from repro.model import (
    analyze_lock_coupling,
    analyze_optimistic_with_recovery,
    max_throughput,
    paper_default_config,
)
from repro.model import throughput
from repro.model.closed import closed_system_prediction
from repro.model.occupancy import OccupancyModel
from repro.model.recovery import LEAF_ONLY_RECOVERY, NAIVE_RECOVERY
from repro.model.results import AlgorithmPrediction, level_terms
from repro.model.throughput import CapacitySearch
from repro.parallel import ResultCache, SimTask, run_batch, task_key
from repro.report import FIGURES


@pytest.fixture
def searches(monkeypatch):
    """Counter of the searches run, keyed on (search function, analyzer,
    config, further positional arguments, repr of the sorted keyword
    arguments), wherever a ``repro`` module holds a search by name."""
    runs = Counter()

    def counting(search):
        def counted(analyze, config, *args, **kwargs):
            runs[search.__name__, analyze, config, args,
                 repr(sorted(kwargs.items()))] += 1
            return search(analyze, config, *args, **kwargs)
        return counted

    for name in ("max_throughput", "arrival_rate_for_root_utilization"):
        original = getattr(throughput, name)
        counted = counting(original)
        for loaded_name, module in list(sys.modules.items()):
            if (loaded_name == "repro" or loaded_name.startswith("repro.")) \
                    and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return runs


def _saturated(config, rate):
    """An analyzer whose every prediction is unstable."""
    return AlgorithmPrediction(algorithm="stub", arrival_rate=rate,
                               stable=False, saturated_level=1)


def _search(config=None, **fields) -> SimTask:
    return SimTask(CapacitySearch.of(
        analyze_lock_coupling, config or paper_default_config(), **fields),
        kind="search")


class TestDistinctSearchesRunOnce:

    def test_closed_system_capacity_is_given_once(self, searches):
        """ext04 predicts seven populations of one configuration from
        one capacity: given it, the prediction searches nothing."""
        config = paper_default_config()
        capacity = max_throughput(analyze_lock_coupling, config)
        searches.clear()
        given = [closed_system_prediction(analyze_lock_coupling, config,
                                          mpl, capacity=capacity)
                 for mpl in _MPL_LEVELS]
        assert not searches
        searched = [closed_system_prediction(analyze_lock_coupling,
                                             config, mpl)
                    for mpl in _MPL_LEVELS]
        assert [repr(p) for p in given] == [repr(p) for p in searched]
        assert sum(searches.values()) == len(_MPL_LEVELS)

    def test_figures_and_claims_share_searches(self, searches):
        """fig11, ext01 and three claims ask for Naive Lock-coupling's
        capacity at the paper's configuration; one batch searches it
        once, as it does every other search they make."""
        run_drivers([FIGURES["fig11"].start(), FIGURES["ext01"].start()]
                    + claim_checks())
        naive = ("max_throughput", analyze_lock_coupling,
                 paper_default_config(), (), "[]")
        assert searches[naive] == 1
        assert set(searches.values()) == {1}

    def test_a_cached_search_runs_no_analysis(self, tmp_path, searches):
        [first] = run_batch([_search()], cache=ResultCache(tmp_path))
        warm = ResultCache(tmp_path)
        assert run_batch([_search()], cache=warm) == [first]
        assert (warm.stats.hits, warm.stats.misses) == (1, 0)
        assert sum(searches.values()) == 1


class TestSearchKeys:

    def test_target_is_part_of_the_key(self):
        assert task_key(_search(target=0.5)) != task_key(_search())
        assert task_key(_search(target=0.5)) != \
            task_key(_search(target=0.6))

    def test_analyzer_and_config_are_part_of_the_key(self):
        from repro.model import analyze_optimistic
        assert task_key(_search(paper_default_config(disk_cost=10.0))) \
            != task_key(_search())
        assert task_key(SimTask(CapacitySearch.of(
            analyze_optimistic, paper_default_config()), kind="search")) \
            != task_key(_search())

    def test_analyzer_kwargs_are_part_of_the_key(self):
        config = paper_default_config(disk_cost=10.0)

        def search(**kwargs):
            return SimTask(CapacitySearch.of(
                analyze_optimistic_with_recovery, config, **kwargs),
                kind="search")

        leaf = search(policy=LEAF_ONLY_RECOVERY, t_trans=100.0)
        naive = search(policy=NAIVE_RECOVERY, t_trans=100.0)
        assert task_key(leaf) != task_key(naive)
        # Keyword order does not matter.
        reordered = search(t_trans=100.0, policy=NAIVE_RECOVERY)
        assert reordered == naive
        assert task_key(reordered) == task_key(naive)

    def test_equal_searches_are_one_task(self):
        assert len(dict.fromkeys([_search(), _search()])) == 1

    def test_local_analyzer_is_refused(self):
        def analyze(config, rate):
            return analyze_lock_coupling(config, rate)

        with pytest.raises(ConfigurationError, match="module-level"):
            CapacitySearch.of(analyze, paper_default_config())

    def test_failed_search_stores_nothing(self, tmp_path):
        """A search that raises (here: unstable even at negligible
        load) is a task error, never a cached rate."""
        cache = ResultCache(tmp_path)
        task = SimTask(CapacitySearch.of(_saturated, paper_default_config()),
                       kind="search")
        with pytest.raises(ConvergenceError, match="negligible load"):
            run_batch([task], cache=cache)
        assert cache.stats.stores == 0


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
