"""Bath-induced kernel functions f and phi.

Both kernels are continuum limits of black-body mode sums over a hard UV
cutoff kappa (all lengths in units of the reduced dipole wavelength d, times
in units of d/c, so mode frequency and radial wavenumber coincide as the
dimensionless q in (0, kappa]):

    f(t, r, theta)   = (alpha/pi) int_0^kappa q W(q r, theta) (1 - cos qt)
                       coth(beta q / 2) dq
    phi(t, r, theta) = (alpha/pi) int_0^kappa q W(q r, theta) 2 (qt - sin qt) dq

W is the polarization-and-direction averaged geometric weight

    W(x, theta) = (1 - cos^2 theta) j0(x) + (3 cos^2 theta - 1) j1(x)/x,

derived from the transverse completeness identity sum_pol (u.eps)^2 =
1 - (u.khat)^2; W(0) = 2/3 so the r = 0 F-kernel integral reproduces the
coincident-point closed form exactly, which pins the (alpha/pi) prefactor.

At zero temperature f is one closed form for every pair, the diagonal r = 0
included (in Si's sibling Cin, with short Gauss-Legendre integrals and a
series in W's moments where its differences cancel; at r = 0 that series is
the coincident-point form), and so is phi in its Si-based form, whose
bracket past the light cone takes Si's asymptotic series once, by angle
addition, rather than two Si values near pi/2. A warm f has no closed form
here: it goes through an oscillation-aware composite Gauss-Legendre
quadrature over arrays of keys on a panel grid shared within
each key block, one call per time over every key, with a panel budget that
it exceeds past kappa (t + r) of about 8.2e5; reduced_quadrature is its
one-key form and the oracle of every closed form. The closed phi form drops
cutoff-edge oscillatory terms (sin kr, cos kr, kr cos kr); the quadrature
keeps them, so the two agree only up to that known envelope. phi_exact adds
them back: it is the closed form of the full radial integral, which the phi
quadrature is checked against. _phi maps each KernelPolicy to its phi
formula, for the scalar phis, the metric engine and the gas Monte Carlo
alike, and _f a bath to its f formulas over the metric engine's key table.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import specfun as _specfun
from .specfun import _x_minus_sin, sine_integral

__all__ = [
    "BathParams",
    "KernelPolicy",
    "PairGeometry",
    "TimeKernel",
    "KernelDomainError",
    "QuadratureError",
    "f_diag",
    "phi_closed",
    "phi_exact",
    "phi_farfield",
    "reduced_quadrature",
]

_TINY = np.finfo(float).tiny  # the smallest normal float


class KernelDomainError(ValueError):
    """Input outside the kernel's domain (negative time, r = 0 where forbidden...)."""


class QuadratureError(RuntimeError):
    """Quadrature failed to converge within budget.

    Attributes
    ----------
    achieved_error : float
        Best absolute error estimate reached (inf if the panel budget was
        exceeded before any evaluation).
    """

    def __init__(self, message: str, achieved_error: float):
        super().__init__(message)
        self.achieved_error = float(achieved_error)


@dataclass(frozen=True)
class BathParams:
    """Black-body bath parameters.

    Parameters
    ----------
    alpha : float
        Dimensionless atom-field coupling strength, > 0.
    kappa : float
        Dimensionless UV cutoff (max wavenumber times dipole length), > 0, kappa**4 finite.
        The bound keeps kappa**2, a Python float power in the zero-temperature
        f (_f_closed_rt) that raises OverflowError past about 1.34e154, finite.
    inv_temperature : float or None
        Inverse temperature beta entering coth(beta q / 2); None means zero
        temperature (coth = 1). When given, beta kappa must not underflow
        below the smallest normal float, and 4 kappa / beta must be finite,
        so that q coth(beta q / 2) <= 2/beta + q stays finite over (0, kappa].
    """

    alpha: float
    kappa: float
    inv_temperature: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise KernelDomainError("alpha must be finite and > 0")
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise KernelDomainError("kappa must be finite and > 0")
        try:
            # guards kappa**2 in _f_closed_rt, a Python float power that raises
            # OverflowError past about 1.34e154, by the stricter kappa**4
            float(self.kappa) ** 4
        except OverflowError:
            raise KernelDomainError(f"kappa**4 overflows at kappa = {self.kappa:g}") from None
        if self.inv_temperature is not None:
            if not (math.isfinite(self.inv_temperature) and self.inv_temperature > 0):
                raise KernelDomainError("inv_temperature must be finite and > 0 when given")
            at = f"at inv_temperature = {self.inv_temperature:g}, kappa = {self.kappa:g}"
            if self.inv_temperature * self.kappa < _TINY:
                raise KernelDomainError(f"inv_temperature * kappa underflows {at}")
            if 4.0 * self.kappa / self.inv_temperature == math.inf:
                raise KernelDomainError(f"4 kappa / inv_temperature overflows {at}")

    @property
    def dipole_advisory(self) -> bool:
        """True when kappa >= 1, where the dipole-coupling picture degrades.

        Advisory only; nothing is rejected.
        """
        return self.kappa >= 1.0


@dataclass(frozen=True)
class PairGeometry:
    """Separation r >= 0 (dipole-length units) and angle theta in [0, pi]
    between the common dipole direction and the separation vector."""

    r: float
    theta: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r >= 0):
            raise KernelDomainError("pair separation r must be finite and >= 0")
        if not (math.isfinite(self.theta) and 0.0 <= self.theta <= math.pi):
            raise KernelDomainError("theta must lie in [0, pi]")


class TimeKernel(enum.Enum):
    """Time factor selecting which mode-sum kernel the quadrature evaluates."""

    F_KERNEL = "f"
    PHI_KERNEL = "phi"


class KernelPolicy(enum.Enum):
    """Which phi formula _phi evaluates: CLOSED_FORM is phi_closed's Si form
    without the cutoff-edge terms, FAR_FIELD its sharp light-cone limit
    (phi_farfield), QUADRATURE the full radial integral in closed form
    (phi_exact), which reduced_quadrature is checked against."""

    CLOSED_FORM = "closed"
    FAR_FIELD = "farfield"
    QUADRATURE = "quadrature"


# -- closed forms ------------------------------------------------------------


def f_diag(t, bath: BathParams):
    """Self-kernel f(t) of one atom, zero temperature, closed form.

    Parameters
    ----------
    t : float or array_like
        Dimensionless time(s), >= 0.
    bath : BathParams
        Must have inv_temperature None; the finite-temperature diagonal has
        no closed form here (use reduced_quadrature with r = 0).

    Returns
    -------
    float or ndarray
        (2 alpha/3 pi)(kappa^2/2 + (1 - cos kt - kt sin kt)/t^2), as
        _f_closed_rt at r = 0, whose moment series is this form there: 0 at
        t = 0, and the late-time limit (2 alpha/3 pi) kappa^2/2 where kappa t
        overflows.
    """
    if bath.inv_temperature is not None:
        raise KernelDomainError(
            "closed-form f_diag is zero-temperature only; use reduced_quadrature"
        )
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise KernelDomainError("time must be finite")
    if np.any(arr < 0):
        raise KernelDomainError("time must be >= 0")
    out = _f_closed_rt(arr, 0.0, 1.0, bath.alpha, bath.kappa)
    if arr.ndim == 0:
        return float(out)
    return out


# -- f at zero temperature ---------------------------------------------------
#
# With x = kappa r, h = kappa t and G(y) = (1 - cos y)/y, whose antiderivative
# is Cin, integrating q W(qr) (1 - cos qt) over (0, kappa] (the j1 part by
# parts, since (sin qr - qr cos qr)/q^2 = d/dq[-sin(qr)/q]) gives
#
#     f = (alpha kappa^2 / pi) [(1 - c2) D/(2x) + (3 c2 - 1) B/x^3],
#     D = 2 G(x) - G(x + h) - G(x - h),
#     B = -sin x (1 - cos h) + (h/2) [Cin(x + h) - Cin(|x - h|)].
#
# D is a second difference and the Cin bracket a first difference, so both
# cancel where h or x is small; _second_difference turns them into short
# integrals of G'' = -S_2 instead, and up to x = _MOMENT_CUTOFF a series in
# W's moments takes over; at x = 0, the diagonal, only its first term is
# left. Where they cancel, S_2, x - sin x and the moments are specfun's.

_GL_SHORT = np.polynomial.legendre.leggauss(12)
_SHORT = 2.0  # widths up to which _second_difference integrates
_MOMENT_CUTOFF = 0.5  # kappa r below which f is W's moment series
_MOMENT_TERMS = 8  # powers x^0 .. x^14 of W: x^16/17! < 1e-19 at x = 0.5
_CHUNK = 1024  # centers per _second_difference chunk


def _g(y: np.ndarray) -> np.ndarray:
    """G(y) = (1 - cos y)/y = 2 sin^2(y/2)/y, with G(0) = 0."""
    y = np.asarray(y, dtype=float)
    return np.divide(2.0 * np.sin(0.5 * y) ** 2, y, out=np.zeros_like(y), where=y != 0)


def _second_difference(row: int, c, w, order: int) -> np.ndarray:
    """int_0^w (w - u)^order / order! [S_row(c + u) + S_row(c - u)] du over
    arrays of centers c and widths 0 <= w <= _SHORT, by 12-point
    Gauss-Legendre, with S_k(y) = int_0^1 s^k sin(ys) ds (row 2 is -G'', row
    3 j0'''). For S_row = F'', order 1 is F(c + w) + F(c - w) - 2 F(c) and
    order 2 is P(c + w) - P(c - w) - 2 w F(c) for P' = F: Taylor remainders
    that the direct differences lose to cancellation when w is small.

    S_row is specfun._sine_moment, with sin and cos of c +- u by specfun's
    angle addition: a large center keeps the phase of c, so its O(1)
    oscillations in f's B cancel those of sin x (1 - cos h) exactly. The
    integrand is entire, of period 2 pi in u, so 12 nodes over a width of 2
    leave truncation near 1e-20.

    The centers run in chunks of _CHUNK: the (2, chunk, 12) node arrays hold
    about 1.5 KB per center, and every value is elementwise or summed node
    by node, so a chunk's bits are those of any other split.
    """
    c, w = np.asarray(c, dtype=float), np.asarray(w, dtype=float)
    out = np.empty_like(w)
    for s in range(0, c.size, _CHUNK):
        chunk = slice(s, s + _CHUNK)
        out[chunk] = _second_difference_chunk(row, c[chunk], w[chunk], order)
    return out


def _second_difference_chunk(row: int, c, w, order: int) -> np.ndarray:
    """_second_difference over one chunk of 1-D centers c and widths w."""
    c = c[:, None]
    xi, weight = _GL_SHORT
    u = 0.5 * w[:, None] * (1.0 + xi)
    sign = np.array([1.0, -1.0])[:, None, None]  # c + u and c - u along a leading axis
    sin_y, cos_y = _specfun._angle_sum(np.sin(c), np.cos(c), np.sin(u), np.cos(u), sign)
    m = _specfun._sine_moment(row, c + sign * u, sin_y, cos_y)
    values = (w[:, None] - u) ** order / math.factorial(order) * (m[0] + m[1])
    total = np.zeros_like(w)
    for term in values.T * weight[:, None]:  # node by node: the same bits at any length
        total += term
    return 0.5 * w * total


def _moment_series(x: np.ndarray, h: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """f pi / (alpha kappa^2) for x = kappa r <= _MOMENT_CUTOFF and
    0 <= h <= inf as sum_k w_k x^(2k) M_k(h), with W(y) = sum_k w_k y^(2k)
    and the moments M_k(h) = int_0^1 s^(2k+1) (1 - cos sh) ds. At x = 0
    only w_0 M_0(h) = (2/3)(1/2 + (1 - cos h - h sin h)/h^2) is left: the
    diagonal.

    M_k = -C_(2k+1)(h) up to h = 2, specfun's moment series for all k at once,
    and 1/(2k+2) - K_(2k+1)(h) beyond, K_n(h) = int_0^1 s^n cos(sh) ds from
    one walk up specfun._moment_chain from S_0, which amplifies rounding by at
    most n!/h^n in the n-th moment: 4e7 at n = 15, h = 2, against a weight
    x^14/15! of 5e-17. At h = inf the integral averages out and M_k is 1/(2k+2).

    Where every x is 0 only M_0 is evaluated, by the same calls: each later
    Horner step adds a term times x^2 = 0, a signed zero that leaves
    w_0 M_0 >= +0 as it is, so the bits are those of all eight rows.
    """
    rows = _MOMENT_TERMS if x.any() else 1
    denominators = 2 * np.arange(rows)[:, None] + 2  # 2k + 2
    moments = np.empty((rows,) + x.shape)
    low = h <= 2.0
    if low.any():
        moments[:, low] = -_specfun._moments(h[low], range(1, 2 * rows, 2), 12)
    late = np.isinf(h)
    moments[:, late] = 1.0 / denominators
    high = ~low & ~late
    if high.any():
        hh = h[high]
        chain = _specfun._moment_chain(hh, np.sin(hh), np.cos(hh), False, 2 * rows - 1)
        for n, m in enumerate(chain):  # S_0, K_1, S_2, K_3, ...
            if n % 2:
                moments[n // 2, high] = 1.0 / (n + 1) - m
    total, x2 = np.zeros_like(x), x * x
    for k in reversed(range(rows)):  # Horner's rule in x^2
        w_k = (-1) ** k * (
            (1.0 - c2) / math.factorial(2 * k + 1)
            + (3.0 * c2 - 1.0) * (2 * k + 2) / math.factorial(2 * k + 3)
        )
        total = total * x2 + w_k * moments[k]
    return total


def _f_shape(x: np.ndarray, h: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """f pi / (alpha kappa^2) at x = kappa r >= 0 and h = kappa t >= 0 over
    flat arrays, from the closed form above; h = inf is the late limit.

    Routes: W's moment series for every x <= _MOMENT_CUTOFF, the diagonal
    x = 0 and h = inf included. Beyond it, h = inf is
    (1 - c2) G(x)/x + (3 c2 - 1)(x - sin x)/x^3; otherwise D is
    _second_difference(2, x, h, 1) for h <= _SHORT and direct beyond. B,
    writing E for the Cin bracket and T(c, w) = -_second_difference(2, c, w,
    2), the order-2 remainder of G'', so that E = 2 w G(c) + T(c, w), is
    one route where w = min(x, h) <= _SHORT: a prefix plus (h/2) T(c, w) at
    c = max(x, h), the prefix h^2 G(x) - sin x (1 - cos h) where h <= x and
    (x - sin x)(1 - cos h) where x < h (no cancellation left there); beyond,
    -sin x (1 - cos h) + (h/2) E with E from specfun._cin_difference.
    """
    out = np.empty_like(x)
    small = x <= _MOMENT_CUTOFF
    if small.any():
        out[small] = _moment_series(x[small], h[small], c2[small])
    late = ~small & np.isinf(h)
    if late.any():
        xl, cl = x[late], c2[late]
        out[late] = (1.0 - cl) * _g(xl) / xl + (3.0 * cl - 1.0) * (_x_minus_sin(xl) / xl) / xl / xl
    main = ~small & ~late
    if main.any():
        x, h, c2 = x[main], h[main], c2[main]
        one_minus_cos = 2.0 * np.sin(0.5 * h) ** 2
        d = np.empty_like(x)
        short = h <= _SHORT
        if short.any():
            d[short] = _second_difference(2, x[short], h[short], 1)
        if (~short).any():
            xs, hs = x[~short], h[~short]
            d[~short] = 2.0 * _g(xs) - _g(xs + hs) - _g(xs - hs)
        b = np.empty_like(x)
        width = np.minimum(x, h)
        bracket = width <= _SHORT
        brief = bracket & (h <= x)  # width h about center x
        if brief.any():
            b[brief] = h[brief] ** 2 * _g(x[brief]) - np.sin(x[brief]) * one_minus_cos[brief]
        near = bracket & ~brief  # width x about center h
        if near.any():
            b[near] = _x_minus_sin(x[near]) * one_minus_cos[near]
        if bracket.any():
            c = np.maximum(x[bracket], h[bracket])
            b[bracket] -= 0.5 * h[bracket] * _second_difference(2, c, width[bracket], 2)
        wide = ~bracket
        if wide.any():
            xw, hw = x[wide], h[wide]
            cin = _specfun._cin_difference(xw, hw)
            b[wide] = -np.sin(xw) * one_minus_cos[wide] + 0.5 * hw * cin
        out[main] = (1.0 - c2) * d / (2.0 * x) + (3.0 * c2 - 1.0) * (b / x) / x / x
    return out


def _f_closed_rt(t, r, c2, alpha: float, kappa: float) -> np.ndarray:
    """Zero-temperature f over broadcastable arrays of t >= 0 and (r >= 0,
    c2 = cos^2 theta), the diagonal r = 0 included: alpha/pi times (kappa^2
    times _f_shape), in that order so that only an f past the float range
    overflows. Where kappa t overflows, f takes its late limit."""
    t, r, c2 = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (t, r, c2)))
    with np.errstate(over="ignore"):  # kappa t = inf is the late limit
        h = kappa * t
    shape = _f_shape((kappa * r).ravel(), h.ravel(), c2.ravel())
    with np.errstate(over="ignore"):  # only an f past the float range
        return alpha / math.pi * (kappa**2 * shape).reshape(t.shape)


def _phi_closed_rt(t, r, c2, alpha: float, kappa: float):
    """Vectorized Si-based closed phi over broadcastable arrays of t and (r,
    c2 = cos^2 theta).

    phi = (alpha (3 c2 - 1) t / (pi r^3))
          [2 Si(kappa r) - Si(kappa (r + t)) - Si(kappa (r - t))],
    algebraically identical to the two-bracket angular form. Cutoff-edge
    oscillatory terms are omitted by construction.

    Past the light cone, where kappa (t - r) >= 40 (specfun's asymptotic
    edge) and kappa (r + t) is finite, nothing in the bracket cancels, and
    Si(kappa (r + t)) - Si(kappa (t - r)) is specfun._si_difference: one
    auxiliary-series call on both arguments, with sin and cos of the exact
    products kappa t, once per time, and kappa r, once per key, combined by
    angle addition. No pi/2 enters that difference, which is within 4.3e-16
    of 1/(kappa (t - r)) of frozen mpmath values, where two sine_integral
    values near pi/2 are off by up to 1.8e-5 of it. Si(kappa r) and every
    other Si(kappa (r +- t)) go through one sine_integral call on their
    concatenation, which leaves each value's bits as separate calls would;
    where kappa (r +- t) overflows, Si takes its limit +-pi/2. The route is
    decided per element, so no element's bits depend on the block it sits in.
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):  # kappa (r +- t) = +-inf is Si's limit
        x_r, x_plus, x_minus = kappa * r, np.asarray(kappa * (r + t)), np.asarray(kappa * (r - t))
    far = (x_minus <= -_specfun._ASYMPTOTIC_CUTOFF) & (x_plus < math.inf)
    near = ~far
    x = np.concatenate([x_r.ravel(), x_plus[near], x_minus[near]])
    overflow = np.isinf(x)
    if overflow.any():
        si = np.copysign(np.pi / 2, x)
        si[~overflow] = sine_integral(x[~overflow])
    else:
        si = sine_integral(x)
    # the bracket subtracts Si(kappa (r + t)) and Si(kappa (r - t)); on the
    # far route, their sum Si(kappa (r + t)) - Si(kappa (t - r)) and 0
    si_plus, si_minus = np.empty(far.shape), np.zeros(far.shape)
    si_plus[near], si_minus[near] = si[x_r.size :].reshape(2, -1)
    if far.any():
        # sin and cos of kappa r per key and kappa t per time, in one call;
        # nan where kappa r or kappa t overflows, which no far element reads
        with np.errstate(over="ignore", invalid="ignore"):
            sin_y, cos_y = _specfun._sin_cos_of_product(kappa, np.append(r, t))
        trig = [v[: r.size].reshape(r.shape) for v in (sin_y, cos_y)]
        trig += [v[r.size :].reshape(np.shape(t)) for v in (sin_y, cos_y)]
        trig = (np.broadcast_to(v, far.shape)[far] for v in trig)
        si_plus[far] = _specfun._si_difference(x_plus[far], -x_minus[far], *trig)
    bracket = 2.0 * si[: x_r.size].reshape(x_r.shape) - si_plus - si_minus
    return _over_cube(alpha * (3.0 * c2 - 1.0) * t, r, math.pi) * bracket


def _over_cube(value, r, factor: float = 1.0):
    """value / (factor r^3), or value / factor / r / r / r where factor r^3
    overflows: 0 there only where the quotient itself underflows."""
    with np.errstate(over="ignore"):  # an infinite cube divides by r three times
        cube = factor * r**3
        out, huge = value / cube, np.isinf(cube)
        if huge.any():
            out = np.where(huge, value / factor / r / r / r, out)
    return out


def _phi_edge_rt(t, r, c2, alpha: float, kappa: float):
    """Vectorized cutoff-edge terms that _phi_closed_rt omits, over arrays of
    (r, c2 = cos^2 theta). With k = kappa, x = kr, h = kt and j0(y) = sin(y)/y,

        i0    = (k/2r) [j0(x + h) - j0(x - h) - 2 h j0'(x)],
        aniso = [(cos(k (t - r)) - cos(k (t + r)))/(2k) - t sin(kr)] / r^3
              = -sin(kr) (h - sin h) / (k r^3),
        edge  = (2 alpha/pi) [(1 - c2) i0 + (3 c2 - 1) aniso],

    from integrating q (qt - sin qt) W(qr, theta) term by term up to q = k.
    Both vanish at t = 0, like h^3 and h, where the differences cancel:
    aniso takes its product form (through _over_cube), and i0 is (k/2r)
    _second_difference(3, x, h, 2) (j0''' = S_3) up to h = _SHORT and the
    difference beyond, with j0'(x) = -S_1(x) from specfun._sine_moment,
    whose series below x = 1 keeps what cos x - sin(x)/x cancels. Below x = 1
    the j0 difference, which would cancel to about one ulp over x, is the
    quotient 2 (h cos h sin x - x sin h cos x) / (h^2 - x^2), with h^2 - x^2
    > 3 there.
    """
    t, r = np.asarray(t, dtype=float), np.asarray(r, dtype=float)
    h, x = kappa * t, kappa * r
    aniso = _over_cube(-np.sin(x) * _x_minus_sin(h), r, kappa)
    r, h, x = np.broadcast_arrays(r, h, x)
    i0 = np.empty(r.shape)
    short = h <= _SHORT
    if short.any():
        i0[short] = _second_difference(3, x[short], h[short], 2)
    if not short.all():
        x, h = x[~short], h[~short]
        sin_x, cos_x = np.sin(x), np.cos(x)
        j0_minus = np.divide(np.sin(x - h), x - h, out=np.ones_like(x), where=x != h)
        j0_difference = np.sin(x + h) / (x + h) - j0_minus
        low = x < 1.0  # there h^2 - x^2 > 3
        xl, hl = x[low], h[low]
        j0_difference[low] = 2.0 * (hl * np.cos(hl) * sin_x[low] - xl * np.sin(hl) * cos_x[low])
        j0_difference[low] /= hl * hl - xl * xl
        i0[~short] = j0_difference + 2.0 * h * _specfun._sine_moment(1, x, sin_x, cos_x)
    i0 *= 0.5 * kappa / r
    return 2.0 * alpha / math.pi * ((1.0 - c2) * i0 + (3.0 * c2 - 1.0) * aniso)


def _phi_farfield_rt(t, r, c2, alpha: float):
    """Vectorized far-field phi over arrays of (r, c2 = cos^2 theta):
    alpha (t/r^3)(3 c2 - 1) Theta(t/r - 1), with Theta(0) = 1."""
    r = np.asarray(r, dtype=float)
    lightcone = (t >= r).astype(float)
    return _over_cube(alpha * t, r) * (3.0 * c2 - 1.0) * lightcone


def _phi_reach(t, policy: KernelPolicy) -> float:
    """The largest r at which phi(t, r, .) can be nonzero: t for the far
    field's sharp light cone, inf for the two forms nonzero outside it."""
    return t if policy is KernelPolicy.FAR_FIELD else math.inf


def _phi(t, r, c2, bath: BathParams, policy: KernelPolicy):
    """phi over broadcastable arrays of t and (r, c2 = cos^2 theta) under a
    KernelPolicy member; QUADRATURE is the closed part plus the cutoff-edge
    terms, exact at every temperature since phi has no thermal factor."""
    if policy is KernelPolicy.FAR_FIELD:
        return _phi_farfield_rt(t, r, c2, bath.alpha)
    phi = _phi_closed_rt(t, r, c2, bath.alpha, bath.kappa)
    if policy is KernelPolicy.QUADRATURE:
        phi = phi + _phi_edge_rt(t, r, c2, bath.alpha, bath.kappa)
    return phi


def _scalar_phi(t: float, geom: PairGeometry, bath: BathParams, policy: KernelPolicy) -> float:
    """_phi at one time and pair, after checking t >= 0 and r > 0, under the
    metric engine's contract: phi is 0 at t = 0 for every r, its terms in
    t / r^3 divide by r three times where r^3 overflows (0 only where they
    underflow), and a phi that is not finite (past the float range, or where
    r^3 underflows to 0) raises KernelDomainError."""
    if not (math.isfinite(t) and t >= 0):
        raise KernelDomainError("time must be finite and >= 0")
    if geom.r == 0:
        raise KernelDomainError("phi requires r > 0; the diagonal has no phi")
    if t == 0.0:
        return 0.0
    with np.errstate(all="ignore"):  # a non-finite phi raises below
        phi = float(_phi(t, geom.r, math.cos(geom.theta) ** 2, bath, policy))
    if not math.isfinite(phi):
        raise KernelDomainError(f"phi at t = {t:g}, r = {geom.r:g} is not finite")
    return phi


def phi_closed(t: float, geom: PairGeometry, bath: BathParams) -> float:
    """Pair kernel phi in the Si-based closed form (oscillatory terms dropped).

    Requires t >= 0 and geom.r > 0; the diagonal has no phi. As in the metric
    engine, phi_closed(0) = 0 at every r, phi divides by r three times where
    r^3 overflows, and a phi that is not finite raises KernelDomainError
    (where r^3 underflows, for one). phi_exact keeps the dropped cutoff-edge
    terms and gives the full radial integral. Radial jitter averages those
    terms out of phi but not out of the metric's
    Phi = sum phi^2: with Gaussian jitter sigma = 10/kappa at kappa r = 100,
    t = 3r, theta = 0.7, the mean of phi_exact is within 2% of the mean of
    phi_closed, while the mean of phi_exact^2 is about 540x the mean of
    phi_closed^2 (about 610x at sigma = 3/kappa). Which cutoff the curves
    should trust is ROADMAP item 5.
    """
    return _scalar_phi(t, geom, bath, KernelPolicy.CLOSED_FORM)


def phi_exact(t: float, geom: PairGeometry, bath: BathParams) -> float:
    """Pair kernel phi as the closed form of the full radial integral.

    phi_closed plus the cutoff-edge terms it drops, so it equals what
    reduced_quadrature(..., TimeKernel.PHI_KERNEL) computes, to quadrature
    accuracy. Those terms are O(1) relative to phi for a single rigid pair
    and grow like kappa r for in-plane pairs; they do not vanish at the magic
    angle. Requires t >= 0 and geom.r > 0; phi_exact(0) = 0 at every r, its
    terms in 1/r^3 keep phi_closed's contract where r^3 overflows, and a
    value that is not finite raises KernelDomainError.
    """
    return _scalar_phi(t, geom, bath, KernelPolicy.QUADRATURE)


def phi_farfield(t: float, geom: PairGeometry, bath: BathParams) -> float:
    """Far-field pair kernel with a sharp light cone at t = r.

    Valid for kappa |r - t| >> 1 and kappa (r + t) >> 1; the caller owns the
    regime check. Requires t >= 0 and geom.r > 0, with phi_closed's division
    by r three times where r^3 overflows and its refusal of a value that is
    not finite.
    """
    return _scalar_phi(t, geom, bath, KernelPolicy.FAR_FIELD)


# -- quadrature --------------------------------------------------------------

_GL_HI = np.polynomial.legendre.leggauss(15)
_GL_LO = np.polynomial.legendre.leggauss(7)
_MAX_PANELS = 262144  # ~5.8e6 integrand evaluations at the two orders

# (key, panel, node) integrand values per quadrature block. The block decides
# which keys share a panel grid, and so sets the bits of a warm f; the metric
# engine sizes its kernel calls by its own budget (metric._KERNEL_BLOCK).
_BLOCK = 4096


def _geometric_weight(x: np.ndarray, cos2) -> np.ndarray:
    """W(x) = (1 - c^2) j0(x) + (3 c^2 - 1) j1(x)/x, cos2 = c^2 broadcasting
    against x, with j0 = sin(x)/x and j1(x)/x = S_1(x)/x, the moment
    int_0^1 s sin(xs) ds from specfun._sine_moment (1/3 at x = 0), whose
    series below |x| = 1 keeps the digits that sin x - x cos x cancels."""
    x = np.asarray(x, dtype=float)
    sin_x, nonzero = np.sin(x), x != 0.0
    j0 = np.divide(sin_x, x, out=np.ones_like(x), where=nonzero)
    s_1 = _specfun._sine_moment(1, x, sin_x, np.cos(x))
    j1x = np.divide(s_1, x, out=np.full_like(x, 1 / 3), where=nonzero)
    return (1.0 - cos2) * j0 + (3.0 * cos2 - 1.0) * j1x


def _time_factor(q: np.ndarray, t: float, kernel: TimeKernel, beta) -> np.ndarray:
    """q times half the time factor: q (qt - sin qt), or q sin^2(qt/2) times
    coth(beta q/2) when warm, with q coth(beta q/2) in [2/beta, 2/beta + q]
    formed first (2/beta where beta q/2 is subnormal or 0)."""
    if kernel is TimeKernel.PHI_KERNEL:
        return q * _x_minus_sin(q * t)
    val = np.sin(0.5 * q * t) ** 2
    if beta is None:
        return q * val
    with np.errstate(over="ignore"):  # tanh(inf) = 1, the cold limit
        x = 0.5 * beta * q
    q_coth = np.divide(q, np.tanh(x), out=np.full_like(q, 2.0 / beta), where=x >= _TINY)
    return q_coth * val


def _quadrature_rt(t: float, r, cos2, bath, time_kernel, tol, pairs=None, relative=False):
    """Radial quadrature over arrays of (r, cos^2 theta) keys at one t, each
    to absolute error tol, or, when relative, to tol times key 0's value as
    the passes refine it (at least 1e-300; key 0 leads the first block).

    Composite Gauss-Legendre with panels no wider than half the period of the
    fastest oscillation (cos qt and the trig terms of W(qr) beat at t + r),
    shared by consecutive keys in blocks of about _BLOCK integrand values.
    Each pass evaluates 15- and 7-point rules per panel; a key's summed rule
    difference is its error estimate, and keys still above tol rerun on
    doubled panels. The first key that misses tol within _MAX_PANELS panels
    raises QuadratureError with its smallest estimate (inf if its oscillation
    count alone exceeds the budget), prefixed with its atom pair when
    pairs[:, k] names key k's pair and r > 0.
    """
    r, cos2 = np.asarray(r, dtype=float), np.asarray(cos2, dtype=float)
    values, errors = np.zeros(r.size), np.full(r.size, math.inf)
    with np.errstate(over="ignore"):  # an infinite count is over budget below
        need = np.maximum(8.0, np.ceil(bath.kappa * (t + r) / math.pi))
    # any count past the budget fails alike; capping it keeps the block
    # widths below from overflowing
    need = np.minimum(need, 2.0 * _MAX_PANELS)
    prefactor = 2.0 * bath.alpha / math.pi  # _time_factor's halves
    start = 0
    while start < r.size:
        width = np.maximum.accumulate(need[start:]) * 15.0 * np.arange(1, r.size - start + 1)
        stop = start + max(1, int(np.searchsorted(width, _BLOCK, side="right")))
        active = np.arange(start, stop)
        n_panels = need[start:stop].max()
        while active.size and n_panels <= _MAX_PANELS:
            edges = np.linspace(0.0, bath.kappa, int(n_panels) + 1)
            mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
            rule = []
            for xi, w in (_GL_HI, _GL_LO):
                q = mid[:, None] + half[:, None] * xi
                weight = _geometric_weight(q * r[active, None, None], cos2[active, None, None])
                integrand = weight * _time_factor(q, t, time_kernel, bath.inv_temperature)
                rule.append(np.sum(integrand * w, axis=2) * half)
            hi, lo = rule
            with np.errstate(over="ignore"):  # _assemble reports a non-finite M
                err = prefactor * np.sum(np.abs(hi - lo), axis=1)
                values[active] = prefactor * np.sum(hi, axis=1)
            errors[active] = np.minimum(errors[active], err)
            bound = max(tol * float(values[0]), 1e-300) if relative else tol
            active = active[err > bound]
            n_panels *= 2
        if active.size:  # the keys that missed tol, ascending
            k = active[0]
            error = float(errors[k])
            named = pairs is not None and r[k] > 0  # key 0 at r = 0 is the diagonal
            where = f"direct pair ({pairs[0, k]},{pairs[1, k]}): " if named else ""
            if math.isinf(error):
                why = f"oscillation count exceeds {_MAX_PANELS} panels"
            else:
                why = f"quadrature stalled at error estimate {error:.3e} (tol {bound:.3e})"
            raise QuadratureError(where + why, error)
        start = stop
    return values


def _f(times, r, c2, bath: BathParams, pairs) -> np.ndarray:
    """f at each positive time over a key table of (r, c2 = cos^2 theta),
    shape (T, K); key 0 is r = 0 and pairs[:, k] names key k's atom pair.

    At zero temperature f is closed throughout: _f_closed_rt over the whole
    table at once, key 0 included, with no quadrature. A warm bath has no
    closed f here: the whole table takes one quadrature per time, every key
    to 1e-11 of the diagonal f(t, 0) as key 0's passes refine it, so
    quadrature noise cannot drown the block's positive semidefiniteness.
    """
    if bath.inv_temperature is None:
        return _f_closed_rt(times[:, None], r, c2, bath.alpha, bath.kappa)
    f = np.empty((times.size, r.size))
    for row, t in enumerate(times):
        f[row] = _quadrature_rt(t, r, c2, bath, TimeKernel.F_KERNEL, 1e-11, pairs, relative=True)
    return f


def reduced_quadrature(
    t: float,
    geom: PairGeometry,
    bath: BathParams,
    time_kernel: TimeKernel,
    tol: float = 1e-10,
) -> float:
    """Radial quadrature of the continuum mode sum, absolute error <= tol.

    One key of the shared-grid quadrature core that the metric engine runs
    over all its pair keys at once: composite 15/7-point Gauss-Legendre,
    panels doubling until the error estimate meets tol.

    Raises
    ------
    QuadratureError
        If the error estimate cannot reach tol within the panel budget, or
        the oscillation count alone exceeds the budget. Carries the achieved
        estimate (inf in the second case) in ``achieved_error``.
    """
    if not (math.isfinite(t) and t >= 0):
        raise KernelDomainError("time must be finite and >= 0")
    if not (math.isfinite(tol) and tol > 0):
        raise KernelDomainError("tol must be finite and > 0")
    if not isinstance(time_kernel, TimeKernel):
        raise KernelDomainError("time_kernel must be a TimeKernel member")
    if t == 0.0:
        return 0.0  # both time factors vanish identically at t = 0
    (value,) = _quadrature_rt(t, [geom.r], [math.cos(geom.theta) ** 2], bath, time_kernel, tol)
    return float(value)
