"""The in-repo Brent root finder behind the Theorem 6 fixed point.

``repro.model.rwqueue._brentq`` is a port of the C ``brentq`` that
SciPy ships.  When SciPy is installed the property below checks the two
bit for bit on drawn queues; the failure tests and the golden solutions
in ``test_model_rwqueue.py`` hold the contract without it.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.rwqueue import (
    _RHO_CEILING,
    RWQueueInput,
    _brentq,
    _residual,
)

_SETTINGS = settings(max_examples=300, deadline=None)

_LOG_RATE = st.floats(min_value=-3.0, max_value=1.5)


@st.composite
def queue_inputs(draw):
    """Stable and saturated queues over several decades of rates."""
    lambda_r = draw(st.one_of(st.just(0.0), _LOG_RATE.map(lambda e: 10 ** e)))
    lambda_w, mu_r, mu_w = (10 ** draw(_LOG_RATE) for _ in range(3))
    return RWQueueInput(lambda_r, lambda_w, mu_r, mu_w)


def _outcome(solve):
    """The root as ``float.hex()``, or the class of the raised error."""
    try:
        return float(solve()).hex()
    except (ValueError, RuntimeError) as error:
        return type(error).__name__


@pytest.fixture(scope="module")
def reference_brentq():
    return pytest.importorskip("scipy.optimize").brentq


class TestMatchesReference:
    @_SETTINGS
    @given(q=queue_inputs(),
           upper=st.one_of(st.just(_RHO_CEILING),
                           st.floats(min_value=1e-3, max_value=_RHO_CEILING)),
           xtol=st.sampled_from([1e-12, 2e-12, 1e-9, 1e-6]))
    def test_same_root_bits_or_same_error(self, reference_brentq, q, upper,
                                          xtol):
        g = _residual(*q)
        ours = _outcome(lambda: _brentq(g, 0.0, upper, xtol))
        reference = _outcome(
            lambda: reference_brentq(g, 0.0, upper, xtol=xtol))
        assert ours == reference


class _Counted:
    """``f`` that records every point it is evaluated at."""

    def __init__(self, f):
        self.f = f
        self.calls = []

    def __call__(self, x):
        self.calls.append(x)
        return self.f(x)


class TestFailures:
    def test_nan_mid_iteration_raises_value_error(self):
        f = _Counted(lambda x: math.nan if len(f.calls) == 4 else x * x - 0.5)
        with pytest.raises(ValueError, match="NaN"):
            _brentq(f, 0.0, 1.0, 1e-12)
        # f(a), f(b), then one evaluation per iteration: the poisoned
        # fourth evaluation ends the search at once.
        assert len(f.calls) == 4
        assert f.calls[:2] == [0.0, 1.0]

    def test_nan_at_the_bracket_stops_before_f_of_b(self):
        f = _Counted(lambda x: math.nan)
        with pytest.raises(ValueError, match="NaN"):
            _brentq(f, 0.0, 1.0, 1e-12)
        assert f.calls == [0.0]

    def test_same_sign_bracket_raises_value_error(self):
        f = _Counted(lambda x: x + 1.0)
        with pytest.raises(ValueError, match="different signs"):
            _brentq(f, 0.0, 1.0, 1e-12)
        assert f.calls == [0.0, 1.0]

    def test_same_sign_bracket_of_tiny_values_raises(self):
        """The sign test reads sign bits, so values whose product
        underflows to zero are still seen as one sign."""
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: -1e-200, 0.0, 1.0, 1e-12)

    def test_exhausted_iterations_raise_runtime_error(self):
        """A sign step far from a tiny tolerance needs more than the
        100-iteration cap: bisection halves [-1e300, 1e300] only once
        per iteration."""
        f = _Counted(lambda x: -1.0 if x < 0.1 else 1.0)
        with pytest.raises(RuntimeError, match="100 iterations"):
            _brentq(f, -1e300, 1e300, 5e-324)
        assert len(f.calls) == 2 + 100

    def test_underflowing_step_denominator_bisects(self):
        """At values near 1e-120 the extrapolation denominator underflows
        to zero.  C divides into inf or NaN there and bisects; the port
        must bisect too, not raise ZeroDivisionError.  The expected bits
        are scipy.optimize.brentq's on the same call."""
        root = _brentq(lambda x: 1e-120 * (x ** 3 - 0.2), 0.0, 1.0, 1e-12)
        assert root.hex() == "0x1.2b6b5edf6afb2p-1"

    def test_root_at_an_end_returns_that_end(self):
        assert _brentq(lambda x: x, 0.0, 1.0, 1e-12) == 0.0
        assert _brentq(lambda x: x - 1.0, 0.0, 1.0, 1e-12) == 1.0

    def test_known_f_of_b_is_not_evaluated_again(self):
        f = _Counted(lambda x: x * x - 0.5)
        root = _brentq(f, 0.0, 1.0, 1e-12, f_b=0.5)
        assert f.calls[0] == 0.0
        assert 1.0 not in f.calls
        assert root.hex() == _brentq(lambda x: x * x - 0.5, 0.0, 1.0,
                                     1e-12).hex()

    def test_converges_on_a_smooth_root(self):
        root = _brentq(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)
