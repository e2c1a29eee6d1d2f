import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, strategies as st

from dmtsim.specfun import (
    _cin,
    _si_asymptotic,
    _si_continued_fraction,
    _si_series,
    sine_integral,
)
from data.cin_reference import CIN_REFERENCE
from data.si_reference import SI_REFERENCE

SI_MAX = 1.8519370519824663  # global maximum, attained at pi


def test_zero():
    assert sine_integral(0.0) == 0.0
    assert sine_integral(-0.0) == 0.0


def test_tiny_argument_linear():
    x = 1e-8
    assert sine_integral(x) == pytest.approx(x, rel=1e-12)


def test_frozen_reference_table():
    # the table runs to 1e12, both signs through the odd symmetry
    for x, ref in SI_REFERENCE:
        assert sine_integral(x) == pytest.approx(ref, rel=1e-10), f"x = {x}"
        assert sine_integral(-x) == pytest.approx(-ref, rel=1e-10), f"x = {-x}"


def test_odd_symmetry_exact():
    rng = np.random.default_rng(4)
    x = 10.0 ** rng.uniform(-6, 12, size=2000)
    np.testing.assert_array_equal(sine_integral(-x), -sine_integral(x))


@given(st.floats(min_value=-1e12, max_value=1e12, allow_nan=False))
def test_bounded_and_sign(x):
    val = sine_integral(x)
    assert abs(val) <= SI_MAX * (1 + 1e-12)
    if x > 0:
        assert val > 0
    elif x < 0:
        assert val < 0


def test_scipy_agreement_dense():
    # independent implementation route; scipy itself is good to ~1e-15 here
    x = np.concatenate(
        [np.linspace(1e-3, 60.0, 3000), np.geomspace(60.0, 1e12, 4000)]
    )
    x = np.concatenate([x, -x])
    ours = sine_integral(x)
    ref, _ = scipy.special.sici(x)
    assert np.max(np.abs(ours - ref) / np.abs(ref)) < 1e-10


def test_series_cf_overlap():
    # both branches valid on [8, 18]; the series loses ~5e-11 to alternating
    # cancellation at the top of its window, the continued fraction is at
    # machine accuracy there, so their gap stays inside the 1e-10 budget
    x = np.linspace(8.0, 18.0, 201)
    a = _si_series(x)
    b = _si_continued_fraction(x)
    assert np.max(np.abs(a - b)) < 1e-10


def test_cf_asymptotic_overlap():
    x = np.linspace(30.0, 60.0, 201)
    a = _si_continued_fraction(x)
    b = _si_asymptotic(x)
    assert np.max(np.abs(a - b)) < 1e-13


def test_branch_boundaries_continuous():
    for edge in (18.0, 40.0):
        below = sine_integral(edge * (1 - 1e-12))
        above = sine_integral(edge * (1 + 1e-12))
        assert below == pytest.approx(above, abs=1.2e-10)


def test_derivative_is_sinc():
    # h large enough that the ~5e-11 branch noise does not get amplified
    # by the 1/(2h) of the central difference
    h = 1e-4
    for x in (0.7, 3.0, 12.0, 25.0, 55.0, 300.0):
        num = (sine_integral(x + h) - sine_integral(x - h)) / (2 * h)
        assert num == pytest.approx(math.sin(x) / x, abs=1e-8)


def test_tail_envelope():
    # |Si(x) - pi/2| <= 2/x for x >= 10
    x = np.geomspace(10.0, 1e12, 100)
    assert np.all(np.abs(sine_integral(x) - math.pi / 2) <= 2.0 / x)


def test_monotone_below_pi():
    x = np.linspace(1e-3, math.pi, 500)
    vals = sine_integral(x)
    assert np.all(np.diff(vals) > 0)


def test_maximum_at_pi():
    assert sine_integral(math.pi) == pytest.approx(SI_MAX, rel=1e-14)
    assert sine_integral(math.pi) > sine_integral(math.pi - 0.05)
    assert sine_integral(math.pi) > sine_integral(math.pi + 0.05)


def test_array_shape_and_scalar_type():
    out = sine_integral(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert out.shape == (2, 2)
    assert isinstance(sine_integral(1.0), float)


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        sine_integral(float("nan"))
    with pytest.raises(ValueError):
        sine_integral(float("inf"))
    with pytest.raises(ValueError):
        sine_integral(np.array([1.0, float("nan")]))


def test_cin_frozen_reference_table():
    # 1e-15 absolute up to x = 40, where Cin <= 4.3; relative beyond
    for x, ref in CIN_REFERENCE:
        for arg in (x, -x):  # Cin is even
            got = float(_cin(np.array([arg]))[0])
            if x < 40.0:
                assert abs(got - ref) <= 1e-15, f"x = {arg}"
            else:
                assert abs(got - ref) <= 1e-15 * ref, f"x = {arg}"


def test_cin_small_argument_relative():
    # Cin(x) = x^2/4 - x^4/96 + ...: the series keeps relative accuracy
    for x in (1e-150, 1e-8, 1e-4):
        assert float(_cin(np.array([x]))[0]) == pytest.approx(x * x / 4.0, rel=1e-15)
    assert float(_cin(np.array([0.0]))[0]) == 0.0


def test_cin_matches_scipy_through_every_branch():
    x = np.concatenate([np.linspace(1e-2, 60.0, 3000), np.geomspace(60.0, 1e12, 2000)])
    _, ci = scipy.special.sici(x)
    ref = np.euler_gamma + np.log(x) - ci
    np.testing.assert_allclose(_cin(x), ref, rtol=2e-15, atol=2e-15)
