import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, strategies as st

from dmtsim import specfun

from dmtsim.specfun import (
    _ACCUMULATE_MAX,
    _ASYMPTOTIC_CUTOFF,
    _FAR_EDGE,
    _FAR_TERMS,
    _auxiliary,
    _ci,
    _cin,
    _cin_difference,
    _e1_imaginary,
    _fitted_auxiliary,
    _moments,
    _si_asymptotic,
    _si_continued_fraction,
    _si_difference,
    _si_series,
    _sin_cos_of_product,
    sine_integral,
)
from dmtsim.kernels import _second_difference
from conftest import same_bits, ulp_neighbours
from data.cin_reference import CI_REFERENCE, CIN_REFERENCE
from data.moment_reference import MOMENT_REFERENCE
from data.si_reference import SI_DIFFERENCE_REFERENCE, SI_REFERENCE

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


def test_si_difference_past_the_light_cone_matches_mpmath():
    # Si(h + x) - Si(h - x) for h - x >= 40, the closed phi's far route:
    # within 2e-15 of its scale 1/(h - x), a bound fixed before measuring.
    # The difference of two sine_integral values, each rounded near pi/2,
    # misses it on this table
    x, h, want = (np.array(column) for column in zip(*SI_DIFFERENCE_REFERENCE))
    assert (h - x).min() >= 40.0 and (h - x).max() >= 1e11
    got = _si_difference(h + x, h - x, np.sin(x), np.cos(x), np.sin(h), np.cos(h))
    err = np.abs(got - want) * (h - x)
    assert err.max() <= 2e-15, f"x = {x[err.argmax()]}, h = {h[err.argmax()]}"
    direct = sine_integral(h + x) - sine_integral(h - x)
    assert (np.abs(direct - want) * (h - x)).max() > 2e-15


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


def test_no_overflow_warning_where_x_squared_leaves_the_float_range():
    # past |x| = 1.34e154, x^2 overflows inside _auxiliary, whose g is then 0;
    # the suite turns a RuntimeWarning into an error
    assert sine_integral(1e200) == math.pi / 2
    got = sine_integral([-1e300, 1e155, 50.0])
    np.testing.assert_array_equal(got, [-math.pi / 2, math.pi / 2, sine_integral(50.0)])


@pytest.mark.parametrize("x, h", [(1e200, 1.0), (3.0, 1e200), (1e200, 1e200), (2e200, 1e200)])
def test_cin_difference_where_x_squared_leaves_the_float_range(x, h):
    got = float(_cin_difference(np.array([x]), np.array([h]))[0])
    assert math.isfinite(got)
    if x == h:  # Cin(2x) - Cin(0), with Ci(2x) below 1e-200
        assert got == pytest.approx(np.euler_gamma + math.log(2.0 * x), rel=1e-15)


def test_cin_frozen_reference_table():
    # 1e-15 absolute up to x = 40, where Cin <= 4.3; relative beyond
    for x, ref in CIN_REFERENCE:
        for arg in (x, -x):  # Cin is even
            got = float(_cin(np.array([arg]))[0])
            if x < 40.0:
                assert abs(got - ref) <= 1e-15, f"x = {arg}"
            else:
                assert abs(got - ref) <= 1e-15 * ref, f"x = {arg}"


def test_ci_frozen_reference_table():
    # the Chebyshev fit on [3, 40] and one ulp either side of both ends, the
    # asymptotic series at and past 40: within 2e-16 absolute (|Ci| <= 0.12
    # there), a bound that E1's continued fraction misses by up to 7.8e-16
    x, want = (np.array(column) for column in zip(*CI_REFERENCE))
    assert x.min() < 3.0 and x.max() > 40.0
    err = np.abs(_ci(x) - want)
    assert err.max() <= 2e-16, f"x = {x[err.argmax()]}"


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


# -- bit identity -------------------------------------------------------------
# The series' accumulate form and the auxiliary functions' per-element length
# must leave every value's bits as the fixed-length term loops below give them.


def loop_si_series(x):
    """The Maclaurin series as a 48-term loop."""
    x = np.asarray(x, dtype=float)
    x2 = x * x
    p = x.copy()
    total = p.copy()
    for n in range(1, 48):
        k = 2 * n + 1
        p *= -x2 / ((k - 1) * k)
        total += p / k
    return total


def loop_auxiliary(x):
    """The auxiliary functions (f, g) with 14 terms for every element."""
    x = np.asarray(x, dtype=float)
    inv_x2 = 1.0 / (x * x)
    term_f = np.ones_like(x)
    term_g = np.ones_like(x)
    sum_f = term_f.copy()
    sum_g = term_g.copy()
    for k in range(1, 14):
        term_f *= -(2 * k - 1) * (2 * k) * inv_x2
        term_g *= -(2 * k) * (2 * k + 1) * inv_x2
        sum_f += term_f
        sum_g += term_g
    return sum_f / x, sum_g * inv_x2


# the branch seams, the far edge and the exact bound it rounds up
AUX_EDGES = ulp_neighbours([40.0, 166.4, _FAR_EDGE, 634.1329919549701, 1e12, 1.3e154])


def same_auxiliary(x):
    with np.errstate(over="ignore"):  # past 1.3e154 x^2 overflows and g is 0
        for got, want in zip(_auxiliary(x), loop_auxiliary(x)):
            same_bits(got, want)


@pytest.mark.bitwise
@given(st.lists(st.floats(-18.0, 18.0), min_size=1, max_size=2 * _ACCUMULATE_MAX))
def test_series_bits_match_the_term_loop(values):
    x = np.array(values)
    same_bits(_si_series(x), loop_si_series(x))


@pytest.mark.bitwise
def test_series_bits_on_a_dense_grid():
    x = np.concatenate([np.linspace(-18.0, 18.0, 20001), [1e-300, -5e-324, 0.0, -0.0]])
    want = loop_si_series(x)
    same_bits(_si_series(x), want)  # the loop form
    for start in range(0, x.size, _ACCUMULATE_MAX):  # the accumulate form
        part = slice(start, start + _ACCUMULATE_MAX)
        same_bits(_si_series(x[part]), want[part])
    same_bits(_si_series(np.float64(7.5)), loop_si_series(7.5))
    same_bits(_si_series(x[:12].reshape(3, 4)), want[:12].reshape(3, 4))


@pytest.mark.bitwise
@given(
    st.lists(
        st.one_of(st.floats(40.0, 1e3), st.floats(40.0, 1e12), st.floats(1.3e154, 1e308)),
        min_size=1,
        max_size=64,
    )
)
def test_auxiliary_bits_match_the_fixed_length_loop(values):
    same_auxiliary(np.array(values))


@pytest.mark.bitwise
def test_auxiliary_bits_on_dense_grids():
    far = np.geomspace(40.0, 1e12, 50001)  # about a tenth inside the far edge
    same_auxiliary(far)
    same_auxiliary(np.geomspace(40.0, 1e3, 20001))  # most inside
    same_auxiliary(np.geomspace(1.3e154, 1.7e308, 2001))
    same_auxiliary(AUX_EDGES)
    for x in AUX_EDGES:  # one element: every element on one side of the edge
        same_auxiliary(np.array([x]))
        same_auxiliary(np.array(x))
    same_auxiliary(np.concatenate([far[1:], AUX_EDGES]).reshape(-1, 2))


def loop_e1_imaginary(x, max_iter):
    """E1(ix) by the Lentz loop over the whole array, which freezes an
    element's f once it converges; also each element's convergence step
    (0 if it never converges)."""
    z = 1j * np.asarray(x, dtype=float)
    tiny = 1e-290
    b = z + 1.0
    f = np.where(b == 0, tiny, b)
    c, d = f.copy(), np.zeros_like(f)
    converged, step = np.zeros(z.shape, dtype=bool), np.zeros(z.shape, dtype=int)
    for n in range(1, max_iter + 1):
        a = -float(n * n)
        b = b + 2.0
        d = b + a * d
        d = np.where(d == 0, tiny, d)
        c = b + a / c
        c = np.where(c == 0, tiny, c)
        d = 1.0 / d
        delta = c * d
        f = np.where(converged, f, f * delta)
        now = ~converged & (np.abs(delta - 1.0) < 1e-16)
        step[now], converged = n, converged | now
        if converged.all():
            break
    return np.exp(-z) / f, step


@pytest.mark.bitwise
@pytest.mark.parametrize("max_iter", [None, 12, 3])
def test_e1_without_converged_elements_keeps_the_whole_array_bits(monkeypatch, max_iter):
    # each element converges at its own step, 8 to 21 on (18, 40); with 12
    # or 3 steps allowed some or all leave at the _CF_MAX_ITER exit instead
    if max_iter is not None:
        monkeypatch.setattr(specfun, "_CF_MAX_ITER", max_iter)
    rng = np.random.default_rng(37)
    x = np.concatenate([ulp_neighbours([18.0, 40.0])[1:-1], np.linspace(18.0, 40.0, 1002)[1:-1]])
    x = np.concatenate([x, rng.uniform(18.0, 40.0, 500)])
    want, step = loop_e1_imaginary(x, specfun._CF_MAX_ITER)
    if max_iter is None:
        assert 0 < step.min() < step.max()  # all converge, at staggered steps
    else:
        assert (step == 0).any()  # some elements stop at the step cap
    pairs = (x[::-1].reshape(-1, 2), want[::-1].reshape(-1, 2))  # another order and shape
    for got, wanted in ((_e1_imaginary(x), want), (_e1_imaginary(pairs[0]), pairs[1])):
        same_bits(got.real, wanted.real)
        same_bits(got.imag, wanted.imag)
    same_bits(_e1_imaginary(x[7]).imag, want[7].imag)  # a 0-d argument
    assert _e1_imaginary(np.empty(0)).shape == (0,)


def test_far_edge_omits_only_terms_below_half_an_ulp():
    # g's first omitted term (2k + 1)! / x^(2k), k = _FAR_TERMS, is below
    # 2^-56 at the far edge, and its successors fall off from there
    k = _FAR_TERMS
    term = Fraction(math.factorial(2 * k + 1)) / Fraction(_FAR_EDGE) ** (2 * k)
    assert term < Fraction(1, 2**56)
    assert (2 * 13 + 2) * (2 * 13 + 3) < 40.0**2


@pytest.mark.bitwise
@given(
    st.lists(
        st.one_of(
            st.floats(-18.0, 18.0),
            st.floats(18.0, 40.0, exclude_min=True, exclude_max=True),
            st.floats(40.0, 1e3),
            st.floats(-1e12, 1e12),
        ),
        min_size=1,
        max_size=40,
    ),
    st.lists(st.integers(0, 40), max_size=3),
)
def test_sine_integral_of_a_concatenation_keeps_the_bits_of_its_parts(values, cuts):
    x = np.array(values)
    got = sine_integral(x)
    bounds = sorted({min(c, x.size) for c in cuts})
    same_bits(got, np.concatenate([sine_integral(part) for part in np.split(x, bounds)]))
    same_bits(got, [sine_integral(float(v)) for v in x])


@pytest.mark.bitwise
def test_sine_integral_of_all_three_branches_keeps_the_bits_of_each():
    parts = [
        np.linspace(-18.0, 18.0, 301),  # series
        np.linspace(18.05, 39.95, 301),  # continued fraction
        -np.geomspace(40.0, 634.0, 301),  # asymptotic, 14 terms
        np.geomspace(634.5, 1e12, 301),  # asymptotic, 4 terms
        AUX_EDGES,
    ]
    x = np.concatenate(parts)
    got = sine_integral(x)
    same_bits(got, np.concatenate([sine_integral(part) for part in parts]))
    same_bits(got, [sine_integral(float(v)) for v in x])
    same_bits(sine_integral(x[::-1].reshape(-1, 2)), got[::-1].reshape(-1, 2))


# the fit's ends and the seams of Cin and Ci at 3 and 40
FIT_EDGES = ulp_neighbours([3.0, 40.0])


@pytest.mark.bitwise
@given(
    st.lists(
        st.one_of(st.floats(3.0, 40.0), st.floats(40.0, 1e3), st.floats(40.0, 1e12)),
        min_size=1,
        max_size=64,
    )
)
def test_ci_keeps_the_bits_of_each_value(values):
    # the fit's Clenshaw recurrence is elementwise: any array, any mix with
    # the asymptotic series, gives each value the bits it has alone
    x = np.array(values)
    same_bits(_ci(x), np.concatenate([_ci(x[i : i + 1]) for i in range(x.size)]))


@pytest.mark.bitwise
def test_fitted_auxiliary_bits_on_a_dense_grid():
    x = np.concatenate([np.linspace(3.0, 40.0, 20001), FIT_EDGES])
    want = _fitted_auxiliary(x)
    for part in np.array_split(np.arange(x.size), 9):  # any batch
        for got, whole in zip(_fitted_auxiliary(x[part]), want):
            same_bits(got, whole[part])
    for k in range(0, x.size, 997):  # one value, as an array and as a scalar
        for got, alone, whole in zip(
            _fitted_auxiliary(x[k : k + 1]), _fitted_auxiliary(x[k]), want
        ):
            same_bits(got, whole[k : k + 1])
            same_bits(alone, whole[k])
    for got, whole in zip(_fitted_auxiliary(x[:20000].reshape(100, 200)), want):
        same_bits(got, whole[:20000].reshape(100, 200))
    same_bits(_ci(x), np.concatenate([_ci(part) for part in np.array_split(x, 9)]))


# -- the Cin difference -------------------------------------------------------
# One _cin call (near) and one _auxiliary call (far) on both arguments must
# give every value the bits of a call per argument.


def two_call_cin_difference(x, h):
    """Cin(x + h) - Cin(|x - h|) with one _cin or _auxiliary call per argument."""
    plus, minus = x + h, np.abs(x - h)
    out = np.empty_like(plus)
    far = minus >= 40.0
    if far.any():
        xf, hf = x[far], h[far]
        sin_x, cos_x, sin_h, cos_h = np.sin(xf), np.cos(xf), np.sin(hf), np.cos(hf)
        sign = np.sign(xf - hf)
        ci = []
        for y, sin_y, cos_y in (
            (plus[far], sin_x * cos_h + cos_x * sin_h, cos_x * cos_h - sin_x * sin_h),
            (minus[far], sign * (sin_x * cos_h - cos_x * sin_h), cos_x * cos_h + sin_x * sin_h),
        ):
            f_aux, g_aux = _auxiliary(y)
            ci.append(f_aux * sin_y - g_aux * cos_y)
        out[far] = np.log1p(2.0 * np.minimum(xf, hf) / minus[far]) - ci[0] + ci[1]
    near = ~far
    if near.any():
        out[near] = _cin(plus[near]) - _cin(minus[near])
    return out


def seam_pairs(centers):
    """(x, h) one ulp either side of |x - h| = 40 and of x = h, both signs of
    x - h, about each center."""
    apart = ulp_neighbours(centers + _ASYMPTOTIC_CUTOFF)
    same = ulp_neighbours(centers)
    x = np.concatenate([np.tile(centers, 3), apart, np.tile(centers, 3)])
    h = np.concatenate([apart, np.tile(centers, 3), same])
    return x, h


positive = st.one_of(
    st.floats(1e-3, 3.0), st.floats(3.0, 80.0), st.floats(80.0, 1e4), st.floats(1e4, 1e12)
)


@pytest.mark.bitwise
@given(
    st.lists(
        st.one_of(
            st.tuples(positive, positive),
            st.tuples(st.floats(1e-3, 1e6), st.floats(-45.0, 45.0)).map(
                lambda p: (p[0], abs(p[0] + p[1]) or p[0])  # near |x - h| = 40 and x = h
            ),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_cin_difference_bits_match_a_call_per_argument(pairs):
    x, h = (np.array(column) for column in zip(*pairs))
    same_bits(_cin_difference(x, h), two_call_cin_difference(x, h))


@pytest.mark.bitwise
def test_cin_difference_bits_on_seam_grids():
    x, h = seam_pairs(np.geomspace(1e-2, 1e5, 1501))
    want = two_call_cin_difference(x, h)
    same_bits(_cin_difference(x, h), want)
    for part in np.array_split(np.arange(x.size), 7):  # any batch
        same_bits(_cin_difference(x[part], h[part]), want[part])
    grid = np.geomspace(1e-2, 1e12, 301)  # every branch of both arguments
    x, h = (a.ravel() for a in np.meshgrid(grid, grid))
    same_bits(_cin_difference(x, h), two_call_cin_difference(x, h))


# -- angle addition -------------------------------------------------------------
# _angle_sum is the one angle addition, where each caller had its own inline
# form; a sign of +-1 multiplies exactly, so every caller keeps those bits.


def inline_sin_cos_of_product(k, y):
    """_sin_cos_of_product with its angle addition written out."""
    p = k * y
    c = 134217729.0 * k
    k_hi = c - (c - k)
    c = 134217729.0 * y
    y_hi = c - (c - y)
    k_lo, y_lo = k - k_hi, y - y_hi
    e = ((k_hi * y_hi - p) + k_hi * y_lo + k_lo * y_hi) + k_lo * y_lo
    e = np.where(np.isfinite(e), e, 0.0)
    sin_p, cos_p, sin_e, cos_e = np.sin(p), np.cos(p), np.sin(e), np.cos(e)
    return sin_p * cos_e + cos_p * sin_e, cos_p * cos_e - sin_p * sin_e


def inline_second_difference(row, c, w, order):
    """kernels._second_difference in one chunk, with its angle addition and
    its upward recurrence in the sine and cosine moments written out."""
    c = c[:, None]
    xi, weight = np.polynomial.legendre.leggauss(12)
    u = 0.5 * w[:, None] * (1.0 + xi)
    sin_c, cos_c, sin_u, cos_u = np.sin(c), np.cos(c), np.sin(u), np.cos(u)
    sign = np.array([1.0, -1.0])[:, None, None]
    y = c + sign * u
    sin_y = sin_c * cos_u + sign * (cos_c * sin_u)
    cos_y = cos_c * cos_u - sign * (sin_c * sin_u)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = (sin_y if row % 2 else 1.0 - cos_y) / y
        for k in range(1, row + 1):
            m = ((k * m - cos_y) if (row - k) % 2 == 0 else (sin_y - k * m)) / y
    small = np.abs(y) < 1.0
    m[small] = _moments(y[small], row, 10, odd=True)
    values = (w[:, None] - u) ** order / math.factorial(order) * (m[0] + m[1])
    total = np.zeros_like(w)
    for k in range(xi.size):
        total += weight[k] * values[:, k]
    return 0.5 * w * total


@pytest.mark.bitwise
def test_angle_addition_keeps_the_bits_of_each_inline_form():
    rng = np.random.default_rng(34)
    y = np.concatenate([10.0 ** rng.uniform(-3.0, 12.0, 3000), [0.0, 1e300, 1.7e308]])
    for k in (0.01, 0.1, 1.0, 10.0, 1.0 / 3.0):
        with np.errstate(over="ignore", invalid="ignore"):  # kappa y overflows
            for got, want in zip(_sin_cos_of_product(k, y), inline_sin_cos_of_product(k, y)):
                same_bits(got, want)
    x, h = seam_pairs(np.geomspace(1e-2, 1e5, 301))
    same_bits(_cin_difference(x, h), two_call_cin_difference(x, h))
    c = 10.0 ** rng.uniform(-3.0, 5.0, 3000)  # nodes inside |y| < 1 and beyond
    w = np.minimum(10.0 ** rng.uniform(-7.0, 0.5, 3000), 2.0)
    for row, order in ((2, 1), (2, 2), (3, 2)):
        same_bits(_second_difference(row, c, w, order), inline_second_difference(row, c, w, order))


# -- moment series --------------------------------------------------------------
# The edges below which the kernels sum C_k and S_k, with the term counts of
# C_k and S_k there: Cin's below 3, W's moments in h below 2, and G'',
# x - sin x and W itself below 1.
MOMENT_EDGES = ((3.0, 14, 15), (2.0, 12, 13), (1.0, 9, 10))


def series_magnitude(k, y, odd):
    """sum_n |y|^n / (n! (k + n + 1)) over the series' terms: the scale of
    their rounding, equal to the moment's size where they do not cancel."""
    return sum(abs(y) ** n / (math.factorial(n) * (k + n + 1)) for n in range(2 - odd, 40, 2))


def test_moment_series_frozen_reference_table():
    # every row k = -1 .. 15 of C_k and S_k, both signs of y, at each edge's
    # term counts up to that edge: within 2e-15 of the terms' magnitude
    checked = 0
    for k, y, c, s in MOMENT_REFERENCE:
        for edge, c_terms, s_terms in MOMENT_EDGES:
            if abs(y) > edge:
                continue
            for want, terms, odd in ((c, c_terms, False), (s, s_terms, True)):
                got = float(_moments(np.array([y]), k, terms, odd)[0])
                bound = 2e-15 * series_magnitude(k, y, odd)
                assert abs(got - want) <= bound, (k, y, edge, odd, got, want)
                checked += 1
    assert checked == 17 * 2 * (20 + 16 + 12)


@pytest.mark.bitwise
def test_moment_rows_keep_their_bits_in_any_array():
    # a block of rows gives each row the bits of its own call, and each
    # value the bits it has alone
    y = np.concatenate([-np.geomspace(1e-8, 2.0, 40), np.geomspace(1e-8, 2.0, 40), [0.0]])
    rows = range(-1, 16)
    for odd in (False, True):
        block = _moments(y, rows, 13, odd)
        assert block.shape == (17, y.size)
        for row, k in zip(block, rows):
            same_bits(row, _moments(y, k, 13, odd))
            alone = [_moments(y[i : i + 1], k, 13, odd) for i in range(0, y.size, 7)]
            same_bits(row[::7], np.concatenate(alone))
