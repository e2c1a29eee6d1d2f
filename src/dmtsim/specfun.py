"""Sine integral Si(x) = int_0^x sin(u)/u du, and its sibling Cin.

Si is the special function of the closed-form pair kernel phi. Target
accuracy is 1e-10 relative over |x| <= 1e12, which covers the kappa (r +- t)
of the lattice figure (up to about 1e11), met with three branches in float64:

* Maclaurin series for |x| <= 18. Alternating series; by x = 18 the largest
  intermediate term is ~3e5, so cancellation costs about five digits, which
  still leaves ~2e-11 relative error. Its 48 terms are a loop, or for a few
  hundred arguments or fewer, where a loop is bound by numpy's per-call
  overhead, one ufunc accumulate of the products and one of the sum along a
  term axis: the same IEEE operations in the same order.
* Continued fraction for 18 < |x| < 40, via Si(x) = pi/2 + Im E1(ix) and the
  even-contracted Lentz evaluation of E1, in 8 to 21 iterations. A
  two-branch series/asymptotic scheme cannot bridge this window at 1e-10 in
  double precision: the asymptotic tail's optimal truncation error at x = 18
  is ~9e-9.
* Asymptotic auxiliary functions for |x| >= 40,
  Si(x) = pi/2 - f(x) cos x - g(x) sin x. Their sums stop, element by
  element, at the first term below 2^-56, half an ulp of a sum in [1/2, 1]:
  after 4 terms from x = 634.2 on and 14 below, where the first dropped term
  is < 1e-17 relative. Far out the oscillating part is of order 1/x, so
  rounding in cos x and sin x moves Si by far less than the target; frozen
  mpmath values up to 1e12 agree to about 1.4e-16.

Cin(x) = int_0^x (1 - cos u)/u du = gamma + ln x - Ci(x), private to the
zero-temperature off-diagonal f, is row -1 of the moment series up to x = 3;
beyond, Ci = f sin x - g cos x takes the auxiliary functions f and g from a
Chebyshev fit in 1/x up to x = 40 (36th degree, frozen from mpmath by
scripts/make_auxiliary_fit.py; Ci within 1e-16 absolute) and from Si's
asymptotic series from x = 40 on. Past that edge both far brackets are
differences of f and g at a + b and a - b, which _auxiliary_pair evaluates
once: one asymptotic call on both arguments, and their sines and cosines by
one angle addition from those of a and b. f's Cin(x + h) - Cin(|x - h|) is
one Cin call on both arguments or, 40 or more apart, where the pair needs
both past the edge, log1p of their ratio - Ci(x + h) + Ci(|x - h|) from the
pair. The closed phi's Si(h + x) - Si(h - x) for h - x >= 40 is the pair's
S(h - x) - S(h + x) with S = f cos + g sin, from sines and cosines of x and
h that _sin_cos_of_product takes at exact products. The asymptotic series
take x^2 past 1.34e154 as inf: g is 0, with no warning.

The moment series are every small-argument expansion of the kernels: rows of
C_k(y) = int_0^1 s^k (cos ys - 1) ds and S_k(y) = int_0^1 s^k sin(ys) ds,
k = -1 .. 15, from one coefficient table. Cin = -C_(-1), x - sin x = -x C_0,
G'' = -S_2 for G(y) = (1 - cos y)/y, j1(y)/y = S_1(y)/y = -j0'(y)/y, and W's
moments int_0^1 s^(2k+1) (1 - cos sh) ds = -C_(2k+1). Every S_k the kernels
read is _sine_moment: that series below |y| = 1, and beyond it _moment_chain,
the one upward recurrence in S_k and K_k = int_0^1 s^k cos(ys) ds, which also
gives W's moments past h = 2 as 1/(2k+2) - K_(2k+1). _angle_sum is the one
angle addition. All branches are vectorized; scalars in, scalar out.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["sine_integral"]

_SERIES_CUTOFF = 18.0
_ASYMPTOTIC_CUTOFF = 40.0
_SERIES_TERMS = 48
_CF_MAX_ITER = 200
_ASYMPTOTIC_TERMS = 14
_CIN_SERIES_CUTOFF = 3.0

# Below this many elements a term-by-term loop is bound by numpy's per-call
# overhead, and ufunc accumulate along a term axis is faster; above it
# accumulate's sequential inner loops cost more per element than the loop
_ACCUMULATE_MAX = 256
# _auxiliary's sums stop before term k = _FAR_TERMS from x = _FAR_EDGE on,
# where g's term k, (2k + 1)! / x^(2k), is below 2^-56 (from x = 634.13)
_FAR_EDGE = 634.2
_FAR_TERMS = 4

_SPLITTER = 134217729.0  # 2^27 + 1 splits a float64 into two 26-bit halves

_HALF_PI = np.pi / 2.0
_EULER_GAMMA = 0.57721566490153286

# The auxiliary functions f and g of Si and Ci as Chebyshev series on
# _CIN_SERIES_CUTOFF <= x <= _ASYMPTOTIC_CUTOFF (3 to 40): row 0 is x f(x),
# row 1 x^2 g(x), each the sum of c_k T_k(t) for k = 0 .. 36 at
# t = (240/x - 43)/37, linear in 1/x. Their coefficients past degree 36 sum to
# below 3e-19.
# Generated by scripts/make_auxiliary_fit.py from mpmath; do not edit by hand.
_AUXILIARY_FIT = np.array([
    [  # x f(x)
        0.9440750030721591, -0.06346662228687908, -0.0064883722969364295,
        0.0020186634654471777, -0.00027993564142661347, 8.392677523765478e-06,
        8.69308400532909e-06, -3.3670246717368314e-06, 7.879369100097664e-07,
        -1.1413727321809643e-07, -3.074930339519157e-09, 9.483195027889667e-09,
        -4.2247333683442595e-09, 1.3024139687906127e-09, -3.0105426783559963e-10,
        4.144656748155302e-11, 5.6680761383117546e-12, -7.121935357426626e-12,
        3.4511604975769645e-12, -1.2534927127682958e-12, 3.6947969198764044e-13,
        -8.3985941757312e-14, 9.636070263808079e-15, 3.7002584633321234e-15,
        -3.453604613051491e-15, 1.751111823997783e-15, -7.044146892357322e-16,
        2.404538059460443e-16, -6.897502078661191e-17, 1.4878160712143704e-17,
        -9.553118284227924e-19, -1.335033507149028e-18, 1.0451515351529356e-18,
        -5.401340088634293e-19, 2.3163099343770636e-19, -8.689009562997998e-20,
        2.857983411313822e-20,
    ],
    [  # x^2 g(x)
        0.8633367530290942, -0.14741540845524906, -0.007471113825096202,
        0.005642672297697599, -0.0012422757960982057, 0.00013709260826666415,
        1.6400468434725334e-05, -1.42945884873945e-05, 4.815723443179618e-06,
        -1.0966603355042478e-06, 1.3959399022324852e-07, 2.1351800235292174e-08,
        -2.2571938622243776e-08, 9.760298657055182e-09, -3.0907214359030374e-09,
        7.427197566519421e-10, -1.0495753480056764e-10, -1.7265513180484945e-11,
        2.1428131377370808e-11, -1.0896901166953145e-11, 4.192916226005348e-12,
        -1.3231407850556252e-12, 3.309071326088616e-13, -4.959750769955104e-14,
        -9.103394668565306e-15, 1.2224738413673854e-14, -6.9067072896342804e-15,
        3.0135251467856166e-15, -1.1152861300232822e-15, 3.5319900073909604e-16,
        -9.017493867609722e-17, 1.3518820192791027e-17, 3.2346069033577527e-18,
        -4.212495639158423e-18, 2.530521761337167e-18, -1.1987848650812476e-18,
        4.917694956046273e-19,
    ],
])


# _MOMENT_SERIES[n - 1, k] = (-1)^(n // 2) / (n! (k + n + 1)), the coefficient of y^n in
# int_0^1 s^k (e^(iys) - 1) ds = C_k + i S_k, n = 1 .. 30, k = 0 .. 15 and -1 (the
# last row). The terms with |y|^n / n! at least 2^-60 of the first's are 9 of
# C_k and 10 of S_k at |y| = 1, 12 and 13 at 2, 14 and 15 at 3.
_MOMENT_SERIES = np.array(
    [[(-1) ** (n // 2) / (math.factorial(n) * (k + n + 1)) for k in (*range(16), -1)]
     for n in range(1, 31)]
)[..., None]


def _moments(y: np.ndarray, k, terms: int, odd: bool = False) -> np.ndarray:
    """C_k(y) = int_0^1 s^k (cos ys - 1) ds, or S_k(y) = int_0^1 s^k sin(ys) ds
    if odd, over 1-D y from the first terms >= 2 of their series, by Horner's
    rule in y^2. k is a row in -1 .. 15 or a range of rows, whose axis leads."""
    columns = _MOMENT_SERIES[1 - odd : 2 * terms : 2, k]
    y2 = y * y
    total = columns[-1] * y2
    for column in columns[-2:0:-1]:
        total += column
        total *= y2
    total += columns[0]
    return total * (y if odd else y2)


def _moment_chain(y, sin_y, cos_y, odd: bool, stop: int):
    """Yield m_0 .. m_stop over an array y, given its sin and cos: S_k(y)
    where k has the parity of odd, else K_k(y) = int_0^1 s^k cos(ys) ds, up
    from S_0 = (1 - cos y)/y or K_0 = sin(y)/y by S_k = (k K_(k-1) - cos y)/y
    and K_k = (sin y - k S_(k-1))/y; step k scales earlier rounding by k/|y|."""
    m = (sin_y if odd else 1.0 - cos_y) / y
    yield m
    for k in range(1, stop + 1):
        m = ((k * m - cos_y) if k % 2 == odd else (sin_y - k * m)) / y
        yield m


def _sine_moment(row: int, y: np.ndarray, sin_y, cos_y) -> np.ndarray:
    """S_row(y) = int_0^1 s^row sin(ys) ds over an array y, given sin y and
    cos y: _moment_chain where |y| >= 1, the moment series' 10 terms below."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # |y| < 1 below
        for m in _moment_chain(y, sin_y, cos_y, row % 2, row):
            pass  # up to S_row, holding one step at a time
    small = np.abs(y) < 1.0
    if small.any():
        m[small] = _moments(y[small], row, 10, odd=True)
    return m


def _x_minus_sin(x: np.ndarray) -> np.ndarray:
    """x - sin x, which cancels below |x| = 1: there it is -x C_0(x), with
    C_0(x) = int_0^1 (cos xs - 1) ds = sin(x)/x - 1 from the moment series."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1.0
    if small.any():
        out[small] = -x[small] * _moments(x[small], 0, 9)
    out[~small] = x[~small] - np.sin(x[~small])
    return out


def _angle_sum(sin_a, cos_a, sin_b, cos_b, sign=1.0):
    """sin and cos of a + sign b, for a sign of +-1 or an array of them, by
    angle addition: multiplying by the sign is exact."""
    return sin_a * cos_b + sign * (cos_a * sin_b), cos_a * cos_b - sign * (sin_a * sin_b)


def _si_series(x: np.ndarray) -> np.ndarray:
    """Maclaurin sum_{n>=0} (-1)^n x^(2n+1) / ((2n+1) (2n+1)!), for |x| <= 18.

    The power/factorial part p_n = p_(n-1) (-x^2 / ((2n) (2n+1))) is updated
    iteratively and p_n / (2n+1) added in order; 48 terms push the last term
    below 1e-19 at x = 18. Up to _ACCUMULATE_MAX elements the same IEEE
    operations in the same order are one multiply.accumulate of the p_n and
    one add.accumulate of the sum, along a leading term axis.
    """
    x = np.asarray(x, dtype=float)
    x2 = x * x
    if x.size <= _ACCUMULATE_MAX:
        column = (-1,) + (1,) * x.ndim
        n = np.arange(1, _SERIES_TERMS).reshape(column)
        terms = np.empty((_SERIES_TERMS,) + x.shape)
        terms[0] = x
        np.divide(-x2, (2.0 * n) * (2 * n + 1), out=terms[1:])
        np.multiply.accumulate(terms, axis=0, out=terms)
        terms[1:] /= 2 * n + 1
        return np.add.accumulate(terms, axis=0, out=terms)[-1]
    p = x.copy()  # x^(2n+1) / (2n+1)! with alternating sign folded in
    total = p.copy()
    for n in range(1, _SERIES_TERMS):
        k = 2 * n + 1
        p *= -x2 / ((k - 1) * k)
        total += p / k
    return total


def _e1_imaginary(x: np.ndarray) -> np.ndarray:
    """E1(ix) for positive x, modified Lentz on the even-contracted CF

    E1(z) = e^{-z} / (z + 1 - 1/(z + 3 - 4/(z + 5 - 9/(z + 7 - ...)))),

    for Si(x) = pi/2 + Im E1(ix) on 18 < x < 40, in 8 to 21 iterations there.

    An element leaves the iteration at its first step with |delta - 1| <
    1e-16, keeping f from that step, and the live arrays shrink to the rest:
    each element's operations are those of a loop over the whole array that
    freezes f once it converges, in place (a d + b is b + a d, bit for bit).
    Elements still live after _CF_MAX_ITER steps keep their last f.
    """
    x = np.asarray(x, dtype=float)
    z = 1j * x
    tiny = 1e-290
    b = z.ravel() + 1.0
    f = np.where(b == 0, tiny, b)
    out, c, d = np.empty_like(f), f.copy(), np.zeros_like(f)
    live = np.arange(f.size)
    for n in range(1, _CF_MAX_ITER + 1):
        if not live.size:
            break
        a = -float(n * n)
        b += 2.0
        d *= a
        d += b
        np.copyto(d, tiny, where=d == 0)
        np.divide(a, c, out=c)
        c += b
        np.copyto(c, tiny, where=c == 0)
        np.divide(1.0, d, out=d)
        delta = c * d
        f *= delta
        delta -= 1.0
        done = np.abs(delta) < 1e-16
        if done.any():
            out[live[done]] = f[done]
            kept = ~done
            del delta  # then one array at a time, each freed as its copy is made
            live = live[kept]
            b = b[kept]
            c = c[kept]
            d = d[kept]
            f = f[kept]
    out[live] = f
    return np.exp(-z) / out.reshape(x.shape)


def _si_continued_fraction(x: np.ndarray) -> np.ndarray:
    """Si on 18 < x < 40 through E1(ix). Expects positive x."""
    return _HALF_PI + _e1_imaginary(x).imag


def _auxiliary_terms(inv_x2: np.ndarray, state: list, ks: range) -> None:
    """Add the f and g terms k in ks of _auxiliary, in order, to their sums in
    state = [term_f, term_g, sum_f, sum_g], which holds term k - 1 on entry;
    in place."""
    term_f, term_g, sum_f, sum_g = state
    for k in ks:
        term_f *= -(2 * k - 1) * (2 * k) * inv_x2
        term_g *= -(2 * k) * (2 * k + 1) * inv_x2
        sum_f += term_f
        sum_g += term_g


def _auxiliary(x: np.ndarray):
    """The asymptotic auxiliary functions (f, g) of Si and Ci for x >= 40:

    f(x) ~ (1/x)   sum_k (-1)^k (2k)!   / x^(2k)
    g(x) ~ (1/x^2) sum_k (-1)^k (2k+1)! / x^(2k)

    Divergent series; 14 terms keep the truncation error below the first
    omitted term, ~1e-17 relative at the x = 40 seam. An element stops at its
    first term of g below 2^-56: from x = 40 the terms fall through k = 13
    and both sums lie in [1/2, 1], so every later term is below half an ulp
    of its sum and leaves the sum's bits as they are. Past _FAR_EDGE that is
    after 4 terms; the elements nearer in run all 14, gathered unless they
    are most of the array. Where x^2 overflows, g is 0.
    """
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # past 1.34e154 x^2 overflows: g is 0
        inv_x2 = 1.0 / (x * x)
    flat = np.ravel(inv_x2)
    term_f, term_g = -2.0 * flat, -6.0 * flat  # term 1 of each; term 0 is 1
    state = [term_f, term_g, 1.0 + term_f, 1.0 + term_g]
    _auxiliary_terms(flat, state, range(2, _FAR_TERMS))
    near = np.ravel(x) < _FAR_EDGE
    n_near = np.count_nonzero(near)
    rest = range(_FAR_TERMS, _ASYMPTOTIC_TERMS)
    if 2 * n_near > near.size:  # cheaper than the gather; far terms add nothing
        _auxiliary_terms(flat, state, rest)
    elif n_near:
        part = [a[near] for a in state]
        _auxiliary_terms(flat[near], part, rest)
        state[2][near], state[3][near] = part[2], part[3]
    sum_f, sum_g = (s.reshape(x.shape) for s in state[2:])
    return sum_f / x, sum_g * inv_x2


def _si_asymptotic(x: np.ndarray) -> np.ndarray:
    """Si(x) = pi/2 - f(x) cos x - g(x) sin x for x >= 40."""
    f_aux, g_aux = _auxiliary(x)
    return _HALF_PI - f_aux * np.cos(x) - g_aux * np.sin(x)


def _fitted_auxiliary(x: np.ndarray):
    """The auxiliary functions (f, g) of Si and Ci for 3 <= x <= 40 from
    _AUXILIARY_FIT: x f(x) and x^2 g(x) by one Clenshaw recurrence over both
    rows stacked, elementwise, so each value has the same bits in any array."""
    x = np.asarray(x, dtype=float)
    t = (240.0 / x - 43.0) / 37.0  # 1/x mapped from [1/40, 1/3] to [-1, 1]
    two_t = 2.0 * t
    columns = _AUXILIARY_FIT.reshape((2, -1) + (1,) * x.ndim)
    later, total = 0.0, columns[:, -1]
    for k in range(columns.shape[1] - 2, 0, -1):
        later, total = total, two_t * total - later + columns[:, k]
    x_f, x2_g = t * total - later + columns[:, 0]
    return x_f / x, x2_g / (x * x)


def _ci(x: np.ndarray) -> np.ndarray:
    """Ci(x) = f(x) sin x - g(x) cos x for x > _CIN_SERIES_CUTOFF: f and g
    from the Chebyshev fit below x = 40, the asymptotic series beyond. Against
    mpmath its absolute error is below 1e-16 on (3, 40) and stays near
    1e-16 / x far out, where Ci itself is O(1/x)."""
    f_aux, g_aux = np.empty_like(x), np.empty_like(x)
    large = x >= _ASYMPTOTIC_CUTOFF
    if (~large).any():
        f_aux[~large], g_aux[~large] = _fitted_auxiliary(x[~large])
    if large.any():
        f_aux[large], g_aux[large] = _auxiliary(x[large])
    return f_aux * np.sin(x) - g_aux * np.cos(x)


def _cin(x) -> np.ndarray:
    """Cin(x) = int_0^x (1 - cos u)/u du = gamma + ln|x| - Ci(|x|), even and
    entire with Cin(0) = 0.

    -C_(-1)(x), the moment series' row -1, for |x| <= 3, where its terms stay
    below 2.25; beyond, gamma - Ci(x) from _ci is summed before ln x is
    added. Against mpmath: absolute error below 1e-15 up to x = 40, relative
    error about 2e-16 above.
    """
    x = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    small = x <= _CIN_SERIES_CUTOFF
    if small.any():
        out[small] = -_moments(x[small], -1, 14)
    if (~small).any():
        xb = x[~small]
        out[~small] = (_EULER_GAMMA - _ci(xb)) + np.log(xb)
    return out


def _cin_difference(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Cin(x + h) - Cin(|x - h|) for x, h > 0: one _auxiliary_pair or _cin call.

    Where |x - h| >= _ASYMPTOTIC_CUTOFF it is, with Cin(y) = gamma + ln y -
    Ci(y) and Ci = f_aux sin - g_aux cos, log1p(2 min(x, h)/|x - h|) - Ci(x +
    h) + Ci(|x - h|): no loss to Cin's ln growth, and the sines and cosines
    of x +- h come from angle addition, so that h/2 times their O(1/h)
    oscillation cancels sin x (1 - cos h) in B at the phase of h itself.
    """
    plus, minus = x + h, np.abs(x - h)
    out = np.empty_like(plus)
    far = minus >= _ASYMPTOTIC_CUTOFF
    if far.any():
        a, b = np.maximum(x[far], h[far]), np.minimum(x[far], h[far])  # a - b = |x - h|
        trig = np.sin(a), np.cos(a), np.sin(b), np.cos(b)
        f_aux, g_aux, sin_y, cos_y = _auxiliary_pair(plus[far], minus[far], *trig)
        ci = f_aux * sin_y - g_aux * cos_y
        out[far] = np.log1p(2.0 * b / minus[far]) - ci[0] + ci[1]
    near = ~far
    if near.any():
        cin = np.split(_cin(np.concatenate([plus[near], minus[near]])), 2)
        out[near] = cin[0] - cin[1]
    return out


def _sin_cos_of_product(k: float, y: np.ndarray):
    """sin and cos of the real product k y, elementwise over 1-D y, rather
    than of its float64 rounding p: Dekker's two-product gives e = k y - p
    exactly from 26-bit halves of k and y, and angle addition sin(p + e) and
    cos(p + e). Where y's split overflows (|y| past about 1.3e300), e is 0."""
    p = k * y
    c = _SPLITTER * k
    k_hi = c - (c - k)
    c = _SPLITTER * y
    y_hi = c - (c - y)
    k_lo, y_lo = k - k_hi, y - y_hi
    e = ((k_hi * y_hi - p) + k_hi * y_lo + k_lo * y_hi) + k_lo * y_lo
    e = np.where(np.isfinite(e), e, 0.0)
    return _angle_sum(np.sin(p), np.cos(p), np.sin(e), np.cos(e))


def _auxiliary_pair(plus, minus, sin_a, cos_a, sin_b, cos_b):
    """(f, g, sin, cos) at plus = a + b and minus = a - b, both at least
    _ASYMPTOTIC_CUTOFF, each stacked as [at plus, at minus] over 1-D inputs:
    f and g from one _auxiliary call on both arguments, the sines and cosines
    from one _angle_sum of the caller's sin and cos of a and b."""
    sin_y, cos_y = _angle_sum(sin_a, cos_a, sin_b, cos_b, np.array([[1.0], [-1.0]]))
    return (*_auxiliary(np.stack([plus, minus])), sin_y, cos_y)


def _si_difference(plus, minus, sin_x, cos_x, sin_h, cos_h) -> np.ndarray:
    """Si(h + x) - Si(h - x) at plus = h + x and minus = h - x, both at least
    _ASYMPTOTIC_CUTOFF, from the sines and cosines of x and h.

    With Si(y) = pi/2 - S(y) and S(y) = f(y) cos y + g(y) sin y, it is
    S(h - x) - S(h + x), from one _auxiliary_pair. No pi/2 enters, so the
    O(1/(h - x)) difference keeps its own precision: against frozen mpmath
    values for x from 1e-3 to 1e5 and h - x from 40 to 1e11 it is within
    4.3e-16 of 1/(h - x), where the difference of two sine_integral values,
    each rounded near pi/2, is off by up to 1.8e-5 of it.
    """
    f_aux, g_aux, sin_y, cos_y = _auxiliary_pair(plus, minus, sin_h, cos_h, sin_x, cos_x)
    s = f_aux * cos_y + g_aux * sin_y
    return s[1] - s[0]


def sine_integral(x):
    """Evaluate Si(x), elementwise for array input.

    Parameters
    ----------
    x : float or array_like
        Finite real argument(s).

    Returns
    -------
    float or ndarray
        Si(x) with relative error <= 1e-10 for |x| <= 1e12. Odd in x and
        approaching +-pi/2 for large |x|.

    Raises
    ------
    ValueError
        If any input is NaN or infinite.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("sine_integral requires finite input")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    mag = np.abs(arr)

    small = mag <= _SERIES_CUTOFF
    large = mag >= _ASYMPTOTIC_CUTOFF
    if small.all():  # one branch: no gather and scatter
        out = _si_series(arr)  # odd already
    elif large.all():
        out = np.sign(arr) * _si_asymptotic(mag)
    else:
        out = np.empty_like(arr)
        mid = ~small & ~large
        if small.any():
            out[small] = _si_series(arr[small])
        if mid.any():
            out[mid] = np.sign(arr[mid]) * _si_continued_fraction(mag[mid])
        if large.any():
            out[large] = np.sign(arr[large]) * _si_asymptotic(mag[large])

    if scalar:
        return float(out[0])
    return out
