"""The ports of expit, logit and ndtr, pinned bitwise to ``scipy.special`` (ndtri: ``test_inference``)."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from oddshift import _special


def _same_bits(got, want):
    """Same shape, NaN at the same places, and every other value the same 64 bits (so -0 != 0)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return (
        got.shape == want.shape
        and np.array_equal(np.isnan(got), nan)
        and np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
    )


def _neighbours(x, steps=3):
    """x and the ``steps`` floats on either side of it."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(float(np.nextafter(below[-1], -math.inf)))
        above.append(float(np.nextafter(above[-1], math.inf)))
    return below[::-1] + above[1:]


_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
             -2.2250738585072014e-308, math.inf, -math.inf, math.nan]

# ndtr evaluates erf at x = a / sqrt(2) while |x| < 1, then erfc with the P/Q
# tables while |x| < 8 and R/S beyond, and is 0 or 1 once x^2 > MAXLOG;
# each edge's branch test, on |x|
_NDTR_EDGES = {
    math.sqrt(2.0): lambda x: x < 1.0,
    8.0 * math.sqrt(2.0): lambda x: x < 8.0,
    math.sqrt(2.0 * _special._MAXLOG): lambda x: x * x <= _special._MAXLOG,
}
_NDTR_POINTS = [
    *(sign * a for edge in _NDTR_EDGES for a in _neighbours(edge) for sign in (1.0, -1.0)),
    1.0, -1.0, 37.7, -37.7, 40.0, -40.0, *_SPECIALS,
]


@pytest.mark.filterwarnings("error")
def test_ndtr_fixed_points_bitwise_scipy_special():
    for edge, inside in _NDTR_EDGES.items():
        sides = {inside(abs(a * _special._SQRT1_2)) for a in _neighbours(edge)}
        assert sides == {True, False}, edge
    a = np.array(_NDTR_POINTS)
    want = scipy.special.ndtr(a)
    assert _same_bits(_special.ndtr(a), want)
    assert _same_bits(_special.ndtr(a[:42].reshape(6, 7)), want[:42].reshape(6, 7))
    for value, expected in zip(_NDTR_POINTS, want):
        got = _special.ndtr(value)
        assert isinstance(got, float) and _same_bits(got, expected), value


def test_ndtr_array_bitwise_scipy_special_on_every_branch():
    rng = np.random.default_rng(0)
    a = np.concatenate([rng.normal(0.0, 1.0, 50_000), rng.uniform(-40.0, 40.0, 50_000),
                        10.0 ** rng.uniform(-320.0, 2.0, 20_000) * rng.choice([-1.0, 1.0], 20_000)])
    assert _same_bits(_special.ndtr(a), scipy.special.ndtr(a))


@given(a=st.floats())
@settings(max_examples=2000, deadline=None)
def test_ndtr_bitwise_scipy_special(a):
    want = scipy.special.ndtr(a)
    assert _same_bits(_special.ndtr(a), want)
    assert _same_bits(_special.ndtr(np.array([a, -a])), scipy.special.ndtr(np.array([a, -a])))


# logit switches from log(x / (1 - x)) to log1p(s) - log1p(-s) on [0.3, 0.65]
_LOGIT_POINTS = [*_neighbours(0.3, 1), *_neighbours(0.65, 1), 0.5, 1e-300, 5e-324, 1.0 - 2.0**-53]


def test_logit_fixed_points_bitwise_scipy_special():
    for x in _LOGIT_POINTS:
        assert _same_bits(_special.logit(x), scipy.special.logit(x)), x


@given(x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=2000, deadline=None)
def test_logit_bitwise_scipy_special(x):
    assert _same_bits(_special.logit(x), scipy.special.logit(x))


# 1 / (1 + exp(-x)): exp(-x) is below one ulp of 1 past 36, and overflows
# past 709.78, where the C library's exp also changes method (past 709)
_EXPIT_POINTS = [
    *(sign * a for edge in (36.0, 709.0, 709.5, 745.0) for a in _neighbours(edge)
      for sign in (1.0, -1.0)),
    *_SPECIALS,
]


@pytest.mark.filterwarnings("error")
def test_expit_fixed_points_bitwise_scipy_special():
    x = np.array(_EXPIT_POINTS)
    want = scipy.special.expit(x)
    assert _same_bits(_special.expit(x), want)
    assert _same_bits(_special.expit(x[:60].reshape(6, 10)[:, ::2]), want[:60].reshape(6, 10)[:, ::2])
    for value, expected in zip(_EXPIT_POINTS, want):
        assert _same_bits(_special.expit(value), expected), value
        assert _same_bits(_special.expit([value]), [expected]), value


def test_expit_array_bitwise_scipy_special():
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.normal(0.0, 5.0, 100_000), rng.uniform(-750.0, 750.0, 20_000)])
    assert _same_bits(_special.expit(x), scipy.special.expit(x))


def test_expit_one_value_at_a_time_bitwise_scipy_special():
    # numpy's own exp rounds a few per cent of these differently, one value as well as many
    for x in np.random.default_rng(2).uniform(-30.0, 30.0, 2000).tolist():
        assert _same_bits(_special.expit([x]), scipy.special.expit([x])), x


@given(x=st.lists(st.floats(), max_size=40))
@settings(max_examples=2000, deadline=None)
def test_expit_bitwise_scipy_special(x):
    # lengths 0, 1 and 2 included: the C library's exp must serve every size
    x = np.array(x, dtype=float)
    assert _same_bits(_special.expit(x), scipy.special.expit(x))
