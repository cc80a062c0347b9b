"""The upper bracket of the model's throughput searches, and the
Corollary 1 memo they lean on.

Both :func:`~repro.model.throughput.max_throughput` (Theorem 2) and
:func:`~repro.model.throughput.arrival_rate_for_root_utilization` (the
Section 6 rho_w target) find their upper bracket by bisecting the
doubling exponent instead of doubling one analysis at a time.  The
property below holds the helper to a linear-doubling oracle on monotone
predicates; the goldens pin the searches' results bit for bit at the
paper's configuration, and the call counts keep the saving.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ConvergenceError
from repro.model import (
    analyze_link,
    analyze_lock_coupling,
    analyze_optimistic,
    analyze_optimistic_with_recovery,
    analyze_two_phase,
    arrival_rate_for_root_utilization,
    max_throughput,
)
from repro.model.occupancy import OccupancyModel
from repro.model.params import OperationMix, paper_default_config
from repro.model.results import AlgorithmPrediction, LevelSolution
from repro.model.throughput import _BRACKET_LIMIT, _first_failing_doubling

_SETTINGS = settings(max_examples=300, deadline=None)


# Limit semantics of the two searches: Theorem 2 stops at a rate
# ``>= _BRACKET_LIMIT``, the rho_w search at a rate ``> _BRACKET_LIMIT``.
def _theorem2_within(rate):
    return rate < _BRACKET_LIMIT


def _target_within(rate):
    return rate <= _BRACKET_LIMIT


def _doubling_oracle(holds, start, within_limit):
    """The linear search the helper replaces: double from ``start`` (where
    ``holds`` is true) until ``holds`` fails; None past the limit."""
    hi = start
    while True:
        hi *= 2.0
        if not within_limit(hi):
            return None
        if not holds(hi):
            return hi


@st.composite
def monotone_thresholds(draw):
    """``(start, threshold, strict)``: the predicate is ``rate < threshold``
    (or ``<=`` when not strict) and holds at ``start``.  Thresholds fall
    exactly on a doubling of ``start`` as often as between two."""
    start = draw(st.floats(min_value=1e-9, max_value=2e9))
    exponent = draw(st.integers(min_value=0, max_value=70))
    on_doubling = math.ldexp(start, exponent)
    threshold = draw(st.one_of(
        st.just(on_doubling),
        st.floats(min_value=start, max_value=max(start, on_doubling)),
        st.just(math.inf)))
    strict = draw(st.booleans())
    if strict and threshold == start:
        strict = False
    return start, threshold, strict


class TestFirstFailingDoubling:

    @_SETTINGS
    @given(case=monotone_thresholds(),
           within_limit=st.sampled_from([_theorem2_within, _target_within]))
    def test_matches_linear_doubling(self, case, within_limit):
        start, threshold, strict = case
        evaluated = []

        def holds(rate):
            evaluated.append(rate)
            return rate < threshold if strict else rate <= threshold

        expected = _doubling_oracle(holds, start, within_limit)
        evaluated.clear()
        error = ConvergenceError("no failure", solver="probe")
        if expected is None:
            with pytest.raises(ConvergenceError) as excinfo:
                _first_failing_doubling(holds, start, within_limit, error)
            assert excinfo.value is error
        else:
            found = _first_failing_doubling(holds, start, within_limit, error)
            assert found.hex() == expected.hex()
        assert start not in evaluated
        # From start >= 1e-9 the limit is at most 60 doublings away, and
        # bisecting 60 exponents takes at most 6 evaluations.
        assert len(evaluated) <= 6

    def test_start_past_the_limit_raises_without_evaluating(self):
        evaluated = []
        error = ConvergenceError("no failure", solver="probe")
        for within_limit in (_theorem2_within, _target_within):
            with pytest.raises(ConvergenceError):
                _first_failing_doubling(evaluated.append, 2 * _BRACKET_LIMIT,
                                        within_limit, error)
        assert evaluated == []


def _stub_analyzer(stable_below, calls):
    """An analyzer whose prediction is stable, with rho_w = 0, strictly
    below ``stable_below`` and unstable from there on."""
    def analyze(config, rate):
        calls.append(rate)
        if rate < stable_below:
            level = LevelSolution(level=1, lambda_r=0.0, lambda_w=0.0,
                                  mu_r=1.0, mu_w=1.0, rho_w=0.0, r_u=0.0,
                                  r_e=0.0, R=0.0, W=0.0)
            return AlgorithmPrediction(algorithm="stub", arrival_rate=rate,
                                       stable=True, levels=[level])
        return AlgorithmPrediction(algorithm="stub", arrival_rate=rate,
                                   stable=False, saturated_level=1)
    return analyze


class TestSearchLimits:
    """Each search keeps its solver name, context and limit semantics.
    The start below puts one doubling exactly on the limit."""

    START = _BRACKET_LIMIT / 2 ** 10

    def test_theorem2_never_unstable_raises(self, paper_config):
        analyze = _stub_analyzer(math.inf, [])
        with pytest.raises(ConvergenceError) as excinfo:
            max_throughput(analyze, paper_config)
        assert excinfo.value.solver == "max-throughput"
        assert excinfo.value.context == {"bracket_limit": _BRACKET_LIMIT}

    def test_target_never_reached_raises(self, paper_config):
        analyze = _stub_analyzer(math.inf, [])
        with pytest.raises(ConvergenceError) as excinfo:
            arrival_rate_for_root_utilization(analyze, paper_config,
                                              target=0.5)
        assert excinfo.value.solver == "root-utilization"
        assert excinfo.value.context == {"target": 0.5,
                                         "bracket_limit": _BRACKET_LIMIT}

    def test_theorem2_treats_the_limit_as_past_it(self, paper_config):
        # Unstable only at the limit itself: ``>=`` never looks there.
        analyze = _stub_analyzer(_BRACKET_LIMIT, [])
        with pytest.raises(ConvergenceError):
            max_throughput(analyze, paper_config, start=self.START)

    def test_target_search_still_looks_at_the_limit(self, paper_config):
        # ``>``: the limit itself is inside, so its failure brackets.
        analyze = _stub_analyzer(_BRACKET_LIMIT, [])
        rate = arrival_rate_for_root_utilization(analyze, paper_config,
                                                 start=self.START)
        assert _BRACKET_LIMIT / 2 <= rate < _BRACKET_LIMIT

    @pytest.mark.parametrize("stable_below", [0.37, 1e-4])
    def test_start_is_analysed_once(self, paper_config, stable_below):
        # Both branches: stable at start (bracket up) and not (halve).
        for search in (max_throughput, arrival_rate_for_root_utilization):
            calls = []
            search(_stub_analyzer(stable_below, calls), paper_config)
            assert calls.count(1e-3) == 1
            assert len(calls) == len(set(calls))


#: ``float.hex()`` of each search at ``paper_default_config()``, taken
#: from the linear-doubling search this bracket replaced.
GOLDEN_MAX_THROUGHPUT = {
    "naive": "0x1.38b851eb851ecp-1",
    "optimistic": "0x1.fd6872b020c4ap+1",
    "link": "0x1.6d1eb851eb852p+8",
    "two_phase": "0x1.571a9fbe76c8ap-5",
    "recovery": "0x1.fd6872b020c4ap+1",
}
GOLDEN_TARGET_RATE = {
    ("naive", 0.3): "0x1.2778d4fdf3b65p-2",
    ("naive", 0.5): "0x1.a753f7ced9169p-2",
    ("naive", 0.8): "0x1.176872b020c4ap-1",
    ("optimistic", 0.3): "0x1.2a9fbe76c8b44p+1",
    ("optimistic", 0.5): "0x1.809ba5e353f7dp+1",
    ("optimistic", 0.8): "0x1.d4e5604189374p+1",
    ("link", 0.3): "0x1.3126e978d4fe0p+7",
    ("link", 0.5): "0x1.be978d4fdf3b7p+7",
    ("link", 0.8): "0x1.38b4395810626p+8",
}
_ANALYZERS = {
    "naive": analyze_lock_coupling,
    "optimistic": analyze_optimistic,
    "link": analyze_link,
    "two_phase": analyze_two_phase,
    "recovery": analyze_optimistic_with_recovery,
}
#: Analyzer calls per ``max_throughput`` at the paper's configuration
#: (the one-step doubling took 26 / 27 / 34).
_MAX_ANALYSES = 22


def _counting(analyze, calls):
    def counted(config, rate, **kwargs):
        calls.append(rate)
        return analyze(config, rate, **kwargs)
    return counted


class TestGoldens:

    @pytest.mark.parametrize("name", sorted(GOLDEN_MAX_THROUGHPUT))
    def test_max_throughput_bits(self, name):
        rate = max_throughput(_ANALYZERS[name], paper_default_config())
        assert rate.hex() == GOLDEN_MAX_THROUGHPUT[name]

    @pytest.mark.parametrize("name,target", sorted(GOLDEN_TARGET_RATE))
    def test_target_rate_bits(self, name, target):
        rate = arrival_rate_for_root_utilization(
            _ANALYZERS[name], paper_default_config(), target=target,
            use_max_level=(name == "link"))
        assert rate.hex() == GOLDEN_TARGET_RATE[(name, target)]

    @pytest.mark.parametrize("name", ["naive", "optimistic", "link"])
    def test_max_throughput_analysis_count(self, name):
        calls = []
        max_throughput(_counting(_ANALYZERS[name], calls),
                       paper_default_config())
        assert len(calls) <= _MAX_ANALYSES


class TestCorollary1Memo:

    def test_equal_arguments_share_one_model(self):
        first = OccupancyModel.corollary1(OperationMix(0.5, 0.3, 0.2), 13, 4)
        again = OccupancyModel.corollary1(OperationMix(0.5, 0.3, 0.2), 13, 4)
        assert again is first
        other = OccupancyModel.corollary1(OperationMix(0.5, 0.3, 0.2), 13, 5)
        assert other is not first and other.height == 5

    def test_errors_are_raised_on_every_call(self):
        deletes_dominate = OperationMix(0.2, 0.4, 0.4)
        for _ in range(3):
            with pytest.raises(ConfigurationError):
                OccupancyModel.corollary1(deletes_dominate, 13, 3)
