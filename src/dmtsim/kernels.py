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

The diagonal f and the Si-based phi have closed forms; everything else goes
through an oscillation-aware composite Gauss-Legendre quadrature. The closed
phi form drops cutoff-edge oscillatory terms (sin kr, cos kr, kr cos kr);
the quadrature keeps them, so the two agree only up to that known envelope.
phi_exact adds those terms back and is the closed form of the full radial
integral, the one the phi quadrature is checked against; the metric's
QUADRATURE kernel policy evaluates phi this way.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .specfun import sine_integral

__all__ = [
    "BathParams",
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
        Dimensionless UV cutoff (max wavenumber times dipole length), > 0.
    inv_temperature : float or None
        Inverse temperature beta entering coth(beta q / 2); None means zero
        temperature (coth = 1).
    """

    alpha: float
    kappa: float
    inv_temperature: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise KernelDomainError("alpha must be finite and > 0")
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise KernelDomainError("kappa must be finite and > 0")
        if self.inv_temperature is not None:
            if not (math.isfinite(self.inv_temperature) and self.inv_temperature > 0):
                raise KernelDomainError("inv_temperature must be finite and > 0 when given")

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


# -- closed forms ------------------------------------------------------------


def _f_diag_array(t: np.ndarray, alpha: float, kappa: float) -> np.ndarray:
    """Coincident-point f at zero temperature, series-switched near t = 0.

    f(t) = (2 alpha / 3 pi) (kappa^2/2 + (1 - cos kt - kt sin kt)/t^2).
    The parenthesis cancels to O((kt)^2 kappa^2) as t -> 0; below kt = 0.5 the
    expansion (2 alpha/3 pi) kappa^2 sum_{k>=2} (-1)^k (2k-1) (kt)^(2k-2)/(2k)!
    avoids the cancellation.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        x = kappa * t
    pref = 2.0 * alpha / (3.0 * math.pi)
    out = np.zeros_like(t)

    small = (x < 0.5) & (x > 0)
    if small.any():
        xs2 = x[small] ** 2
        series = np.zeros_like(xs2)
        power = xs2.copy()  # x^(2k-2) entering iteration k
        for k in range(2, 10):
            series += ((-1) ** k) * (2 * k - 1) / math.factorial(2 * k) * power
            power *= xs2
        out[small] = pref * kappa**2 * series
    big = x >= 0.5
    if big.any():
        tb = t[big]
        xb = x[big]
        # the oscillating term is bounded by (2 + x)/t^2, so where kappa t or
        # t^2 overflows only the kappa^2/2 limit is left
        with np.errstate(over="ignore", invalid="ignore"):
            osc = (1.0 - np.cos(xb) - xb * np.sin(xb)) / tb**2
        out[big] = pref * (kappa**2 / 2.0 + np.where(np.isfinite(xb), osc, 0.0))
    return out


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
        (2 alpha/3 pi)(kappa^2/2 + (1 - cos kt - kt sin kt)/t^2), with the
        t -> 0 limit (0) taken analytically, and the late-time limit
        (2 alpha/3 pi) kappa^2/2 where kappa t overflows.
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
    out = _f_diag_array(np.atleast_1d(arr), bath.alpha, bath.kappa)
    if arr.ndim == 0:
        return float(out[0])
    return out


def _phi_closed_rt(t, r, theta, alpha: float, kappa: float):
    """Vectorized Si-based closed phi over arrays of (r, theta) at common t.

    phi = (alpha (3 cos^2 theta - 1) t / (pi r^3))
          [2 Si(kappa r) - Si(kappa (r + t)) - Si(kappa (r - t))],
    algebraically identical to the two-bracket angular form. Cutoff-edge
    oscillatory terms are omitted by construction.
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    c2 = np.cos(theta) ** 2
    bracket = (
        2.0 * sine_integral(kappa * r)
        - sine_integral(kappa * (r + t))
        - sine_integral(kappa * (r - t))
    )
    return alpha * (3.0 * c2 - 1.0) * t / (math.pi * r**3) * bracket


def phi_closed(t: float, geom: PairGeometry, bath: BathParams) -> float:
    """Pair kernel phi in the Si-based closed form (oscillatory terms dropped).

    Requires t >= 0 and geom.r > 0; the diagonal has no phi. The dropped
    cutoff-edge terms are what jitter and ensemble averaging suppress in a
    real array; phi_exact keeps them and gives the full radial integral.
    """
    if not (math.isfinite(t) and t >= 0):
        raise KernelDomainError("time must be finite and >= 0")
    if geom.r == 0:
        raise KernelDomainError("phi_closed requires r > 0")
    return float(_phi_closed_rt(t, geom.r, geom.theta, bath.alpha, bath.kappa))


def _phi_edge_rt(t, r, theta, alpha: float, kappa: float):
    """Vectorized cutoff-edge terms that _phi_closed_rt omits.

    With k = kappa, c2 = cos^2 theta, and sinc_-(t) = sin(k (t - r))/(t - r),
    whose removable singularity at t = r has the limit k,

        i0    = [t sin(kr)/r^2 - t k cos(kr)/r - sinc_-/2
                 + sin(k (t + r))/(2 (t + r))] / r
        aniso = [(cos(k (t - r)) - cos(k (t + r)))/(2k) - t sin(kr)] / r^3
        edge  = (2 alpha/pi) [(1 - c2) i0 + (3 c2 - 1) aniso],

    from integrating q (qt - sin qt) W(qr, theta) term by term up to q = k.
    Both brackets vanish at t = 0.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    c2 = np.cos(np.asarray(theta, dtype=float)) ** 2
    minus = t - r
    plus = t + r
    with np.errstate(invalid="ignore"):
        sinc_minus = np.where(minus == 0.0, kappa, np.sin(kappa * minus) / minus)
    sinc_plus = np.sin(kappa * plus) / plus  # t + r > 0 since r > 0
    sin_kr = np.sin(kappa * r)
    i0 = (
        t * sin_kr / r**2
        - t * kappa * np.cos(kappa * r) / r
        - 0.5 * sinc_minus
        + 0.5 * sinc_plus
    ) / r
    aniso = (
        (np.cos(kappa * minus) - np.cos(kappa * plus)) / (2.0 * kappa) - t * sin_kr
    ) / r**3
    return 2.0 * alpha / math.pi * ((1.0 - c2) * i0 + (3.0 * c2 - 1.0) * aniso)


def phi_exact(t: float, geom: PairGeometry, bath: BathParams) -> float:
    """Pair kernel phi as the closed form of the full radial integral.

    phi_closed plus the cutoff-edge terms it drops, so it equals what
    reduced_quadrature(..., TimeKernel.PHI_KERNEL) computes, to quadrature
    accuracy. Those terms are O(1) relative to phi for a single rigid pair
    and grow like kappa r for in-plane pairs; they do not vanish at the magic
    angle. Requires t >= 0 and geom.r > 0; phi_exact(0) = 0.
    """
    if not (math.isfinite(t) and t >= 0):
        raise KernelDomainError("time must be finite and >= 0")
    if geom.r == 0:
        raise KernelDomainError("phi_exact requires r > 0")
    args = (t, geom.r, geom.theta, bath.alpha, bath.kappa)
    return float(_phi_closed_rt(*args) + _phi_edge_rt(*args))


def _phi_farfield_rt(t, r, theta, alpha: float):
    """Vectorized far-field phi: alpha (t/r^3)(3 cos^2 theta - 1) Theta(t/r - 1),
    with Theta(0) = 1."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    c2 = np.cos(theta) ** 2
    lightcone = (t >= r).astype(float)
    return alpha * t / r**3 * (3.0 * c2 - 1.0) * lightcone


def phi_farfield(t: float, geom: PairGeometry, bath: BathParams) -> float:
    """Far-field pair kernel with a sharp light cone at t = r.

    Valid for kappa |r - t| >> 1 and kappa (r + t) >> 1; the caller owns the
    regime check.
    """
    if not (math.isfinite(t) and t >= 0):
        raise KernelDomainError("time must be finite and >= 0")
    if geom.r == 0:
        raise KernelDomainError("phi_farfield requires r > 0")
    return float(_phi_farfield_rt(t, geom.r, geom.theta, bath.alpha))


# -- quadrature --------------------------------------------------------------

_GL_HI = np.polynomial.legendre.leggauss(15)
_GL_LO = np.polynomial.legendre.leggauss(7)
_MAX_PANELS = 262144  # ~5.8e6 integrand evaluations at the two orders
_W_SERIES_CUTOFF = 0.05


def _geometric_weight(x: np.ndarray, cos2: float) -> np.ndarray:
    """W(x) = (1 - c^2) j0(x) + (3 c^2 - 1) j1(x)/x with a small-x series.

    Below |x| = 0.05 the trig forms lose ~3 digits to cancellation, so a
    four-term even series (truncation < 1e-16 relative) takes over.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    ax = np.abs(x)
    small = ax < _W_SERIES_CUTOFF
    if small.any():
        x2 = x[small] ** 2
        j0 = 1.0 - x2 / 6.0 + x2**2 / 120.0 - x2**3 / 5040.0
        j1x = 1.0 / 3.0 - x2 / 30.0 + x2**2 / 840.0 - x2**3 / 45360.0
        out[small] = (1.0 - cos2) * j0 + (3.0 * cos2 - 1.0) * j1x
    big = ~small
    if big.any():
        xb = x[big]
        s, c = np.sin(xb), np.cos(xb)
        j0 = s / xb
        j1x = (s - xb * c) / xb**3
        out[big] = (1.0 - cos2) * j0 + (3.0 * cos2 - 1.0) * j1x
    return out


def _time_factor(q: np.ndarray, t: float, kernel: TimeKernel, beta) -> np.ndarray:
    if kernel is TimeKernel.F_KERNEL:
        # 1 - cos(qt) = 2 sin^2(qt/2), cancellation-free at small qt
        val = 2.0 * np.sin(0.5 * q * t) ** 2
        if beta is not None:
            val = val / np.tanh(0.5 * beta * q)
        return val
    # PHI: 2 (qt - sin qt); series below x = 0.1 where the difference is
    # cubically small and the direct form loses digits
    x = q * t
    out = np.empty_like(x)
    small = np.abs(x) < 0.1
    if small.any():
        xs = x[small]
        x2 = xs * xs
        out[small] = xs * x2 / 6.0 * (1.0 - x2 / 20.0 + x2**2 / 840.0 - x2**3 / 60480.0)
    big = ~small
    if big.any():
        out[big] = x[big] - np.sin(x[big])
    return 2.0 * out


def reduced_quadrature(
    t: float,
    geom: PairGeometry,
    bath: BathParams,
    time_kernel: TimeKernel,
    tol: float = 1e-10,
) -> float:
    """Radial quadrature of the continuum mode sum, absolute error <= tol.

    Composite Gauss-Legendre with panels no wider than half the period of the
    fastest oscillation (cos qt and the trig terms of W(qr) beat at t + r).
    Each pass evaluates 15- and 7-point rules per panel; the summed rule
    difference is the error estimate, and panels double until it meets tol.

    Raises
    ------
    QuadratureError
        If the error estimate cannot reach tol within the panel budget, or
        the oscillation count alone exceeds the budget. Carries the achieved
        estimate in ``achieved_error``.
    """
    if not (math.isfinite(t) and t >= 0):
        raise KernelDomainError("time must be finite and >= 0")
    if not (math.isfinite(tol) and tol > 0):
        raise KernelDomainError("tol must be finite and > 0")
    if not isinstance(time_kernel, TimeKernel):
        raise KernelDomainError("time_kernel must be a TimeKernel member")
    if t == 0.0:
        return 0.0  # both time factors vanish identically at t = 0

    kappa = bath.kappa
    cos2 = math.cos(geom.theta) ** 2
    beta = bath.inv_temperature
    prefactor = bath.alpha / math.pi

    n_panels = max(8, int(math.ceil(kappa * (t + geom.r) / math.pi)))
    if n_panels > _MAX_PANELS:
        raise QuadratureError(
            f"oscillation count needs {n_panels} panels, budget is {_MAX_PANELS}",
            achieved_error=math.inf,
        )

    xi_hi, w_hi = _GL_HI
    xi_lo, w_lo = _GL_LO

    def _integrand(q: np.ndarray) -> np.ndarray:
        return q * _geometric_weight(q * geom.r, cos2) * _time_factor(q, t, time_kernel, beta)

    best = math.inf
    value = 0.0
    while n_panels <= _MAX_PANELS:
        edges = np.linspace(0.0, kappa, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        hi = np.sum(_integrand(mid + half * xi_hi) * w_hi, axis=1) * half[:, 0]
        lo = np.sum(_integrand(mid + half * xi_lo) * w_lo, axis=1) * half[:, 0]
        err = prefactor * float(np.sum(np.abs(hi - lo)))
        value = prefactor * float(np.sum(hi))
        best = min(best, err)
        if err <= tol:
            return value
        n_panels *= 2
    raise QuadratureError(
        f"quadrature stalled at error estimate {best:.3e} (tol {tol:.3e})",
        achieved_error=best,
    )

