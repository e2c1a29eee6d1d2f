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
  even-contracted Lentz evaluation of E1. A two-branch series/asymptotic
  scheme cannot bridge this window at 1e-10 in double precision: the
  asymptotic tail's optimal truncation error at x = 18 is ~9e-9.
* Asymptotic auxiliary functions for |x| >= 40,
  Si(x) = pi/2 - f(x) cos x - g(x) sin x. Their sums stop, element by
  element, at the first term below 2^-56, half an ulp of a sum in [1/2, 1]:
  after 4 terms from x = 634.2 on and 14 below, where the first dropped term
  is < 1e-17 relative. Far out the oscillating part is of order 1/x, so
  rounding in cos x and sin x moves Si by far less than the target; frozen
  mpmath values up to 1e12 agree to about 1.4e-16.

Cin(x) = int_0^x (1 - cos u)/u du = gamma + ln x - Ci(x), private to the
zero-temperature off-diagonal f, shares the continued fraction (Ci(x) =
-Re E1(ix)) and the auxiliary functions (Ci = f sin x - g cos x), and is
row -1 of the moment series below x = 3. f's Cin(x + h) - Cin(|x - h|) is
one Cin call on both arguments or, 40 or more apart, log1p of their ratio -
Ci(x + h) + Ci(|x - h|), from one auxiliary call and angle addition. The
auxiliary functions take x^2 past 1.34e154 as inf: g is 0, with no warning.

The moment series are every small-argument expansion of the kernels: rows of
C_k(y) = int_0^1 s^k (cos ys - 1) ds and S_k(y) = int_0^1 s^k sin(ys) ds,
k = -1 .. 15, from one coefficient table. Cin = -C_(-1), x - sin x = -x C_0,
G'' = -S_2 for G(y) = (1 - cos y)/y, j1(y)/y = S_1(y)/y, and W's moments
int_0^1 s^(2k+1) (1 - cos sh) ds = -C_(2k+1). All branches are vectorized;
scalars in, scalar out.
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
_LOG_CUTOFF = 40.0  # Cin differences of arguments this far apart take the log route

# Below this many elements a term-by-term loop is bound by numpy's per-call
# overhead, and ufunc accumulate along a term axis is faster; above it
# accumulate's sequential inner loops cost more per element than the loop
_ACCUMULATE_MAX = 256
# _auxiliary's sums stop before term k = _FAR_TERMS from x = _FAR_EDGE on,
# where g's term k, (2k + 1)! / x^(2k), is below 2^-56 (from x = 634.13)
_FAR_EDGE = 634.2
_FAR_TERMS = 4

_HALF_PI = np.pi / 2.0
_EULER_GAMMA = 0.57721566490153286


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

    which Si and Ci share: Si(x) = pi/2 + Im E1(ix), Ci(x) = -Re E1(ix).
    About 87 iterations at x = 2, fewer further out.
    """
    x = np.asarray(x, dtype=float)
    z = 1j * x
    tiny = 1e-290
    b = z + 1.0
    f = np.where(b == 0, tiny, b)
    c = f.copy()
    d = np.zeros_like(f)
    converged = np.zeros(x.shape, dtype=bool)
    for n in range(1, _CF_MAX_ITER + 1):
        a = -float(n * n)
        b = b + 2.0
        d = b + a * d
        d = np.where(d == 0, tiny, d)
        c = b + a / c
        c = np.where(c == 0, tiny, c)
        d = 1.0 / d
        delta = c * d
        f = np.where(converged, f, f * delta)
        converged |= np.abs(delta - 1.0) < 1e-16
        if converged.all():
            break
    return np.exp(-z) / f


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


def _ci(x: np.ndarray) -> np.ndarray:
    """Ci(x) = -Re E1(ix) = f(x) sin x - g(x) cos x for x > _CIN_SERIES_CUTOFF:
    the continued fraction below x = 40, the auxiliary functions beyond. Its
    absolute error stays near 1e-16 / x far out, where Ci itself is O(1/x)."""
    out = np.empty_like(x)
    large = x >= _ASYMPTOTIC_CUTOFF
    if (~large).any():
        out[~large] = -_e1_imaginary(x[~large]).real
    if large.any():
        f_aux, g_aux = _auxiliary(x[large])
        out[large] = f_aux * np.sin(x[large]) - g_aux * np.cos(x[large])
    return out


def _cin(x) -> np.ndarray:
    """Cin(x) = int_0^x (1 - cos u)/u du = gamma + ln|x| - Ci(|x|), even and
    entire with Cin(0) = 0.

    -C_(-1)(x), the moment series' row -1, for |x| <= 3, where its terms stay
    below 2.25; beyond, gamma - Ci(x) is summed before ln x is added. Against
    mpmath: absolute error below 1e-15 up to x = 40 (the continued fraction
    loses more just above 2), relative error about 2e-16 above.
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
    """Cin(x + h) - Cin(|x - h|) for x, h > 0: one _auxiliary or _cin call.

    Where |x - h| >= _LOG_CUTOFF it is, with Cin(y) = gamma + ln y - Ci(y)
    and Ci = f_aux sin - g_aux cos, log1p(2 min(x, h)/|x - h|) - Ci(x + h)
    + Ci(|x - h|): no loss to Cin's ln growth, and the sines and cosines of
    x +- h come from angle addition, so that h/2 times their O(1/h)
    oscillation cancels sin x (1 - cos h) in B at the phase of h itself.
    """
    plus, minus = x + h, np.abs(x - h)
    out = np.empty_like(plus)
    far = minus >= _LOG_CUTOFF
    if far.any():
        xf, hf = x[far], h[far]
        sin_x, cos_x, sin_h, cos_h = np.sin(xf), np.cos(xf), np.sin(hf), np.cos(hf)
        sc, cs, cc, ss = sin_x * cos_h, cos_x * sin_h, cos_x * cos_h, sin_x * sin_h
        sin_y = np.concatenate([sc + cs, np.sign(xf - hf) * (sc - cs)])
        cos_y = np.concatenate([cc - ss, cc + ss])
        f_aux, g_aux = _auxiliary(np.concatenate([plus[far], minus[far]]))
        ci = np.split(f_aux * sin_y - g_aux * cos_y, 2)
        out[far] = np.log1p(2.0 * np.minimum(xf, hf) / minus[far]) - ci[0] + ci[1]
    near = ~far
    if near.any():
        cin = np.split(_cin(np.concatenate([plus[near], minus[near]])), 2)
        out[near] = cin[0] - cin[1]
    return out


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
