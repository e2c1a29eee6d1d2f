"""Shared oracles for the kernel tests, plus acceptance-suite reporting.

pair_geometry is the scalar, one-pair-at-a-time oracle for the vectorized
geometry.pair_arrays.

The closed form of the pair kernel phi drops rapidly oscillating cutoff-edge
terms. The full radial integral evaluates, in closed form, to
phi_closed + phi_osc_correction with the correction below, so quadrature
results can be checked to quadrature accuracy instead of only to the size of
the omitted terms. Derived by elementary integration of
q (qt - sin qt) W(qr, theta) term by term; validated against adaptive
quadrature to ~1e-15 relative before being frozen here.
"""

import math

import numpy as np

# verdict lines collected by tests/test_acceptance.py; echoed after the run
# (terminal-summary output is not swallowed by capture, unlike test stdout)
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def pair_geometry(config, i: int, j: int):
    """PairGeometry (r, theta) between atoms i and j at distinct positions;
    theta measured from the dipole direction, folded into [0, pi]."""
    from dmtsim.kernels import PairGeometry

    delta = config.positions[i] - config.positions[j]
    r = float(np.linalg.norm(delta))
    if r == 0.0:
        raise ValueError(f"atoms {i} and {j} coincide")
    cos_t = float(np.clip(np.dot(config.dipole_direction, delta) / r, -1.0, 1.0))
    return PairGeometry(r=r, theta=math.acos(cos_t))


def _sin_over(x_num: float, x_den: float) -> float:
    # sin(x_num)/x_den with the x_den -> 0 limit handled (x_num = c*x_den)
    if x_den == 0.0:
        return 0.0
    return math.sin(x_num) / x_den


def phi_osc_correction(t: float, r: float, theta: float, alpha: float, kappa: float) -> float:
    """The oscillatory part omitted by the closed-form pair kernel.

    phi_quadrature = phi_closed + phi_osc_correction, exactly. The t = r
    point of sin(kappa (t - r))/(t - r) is the removable singularity with
    limit kappa.
    """
    c2 = math.cos(theta) ** 2
    if t == r:
        sinc_minus = kappa
    else:
        sinc_minus = _sin_over(kappa * (t - r), t - r)
    sinc_plus = _sin_over(kappa * (t + r), t + r)
    i0 = (
        t * math.sin(kappa * r) / r**2
        - t * kappa * math.cos(kappa * r) / r
        - 0.5 * sinc_minus
        + 0.5 * sinc_plus
    ) / r
    aniso = (
        (math.cos(kappa * (t - r)) - math.cos(kappa * (t + r))) / (2.0 * kappa)
        - t * math.sin(kappa * r)
    ) / r**3
    return 2.0 * alpha / math.pi * ((1.0 - c2) * i0 + (3.0 * c2 - 1.0) * aniso)


def phi_reference(t: float, r: float, theta: float, alpha: float, kappa: float) -> float:
    """Full pair kernel: closed form plus the oscillatory correction."""
    from dmtsim.kernels import BathParams, PairGeometry, phi_closed

    bath = BathParams(alpha=alpha, kappa=kappa)
    geom = PairGeometry(r=r, theta=theta)
    return phi_closed(t, geom, bath) + phi_osc_correction(t, r, theta, alpha, kappa)


def scipy_radial_integral(t, r, theta, bath, kernel: str):
    """Second-route oracle: the same radial integral via scipy's adaptive
    quadrature, subdivided at the fastest oscillation period."""
    import scipy.integrate

    c2 = math.cos(theta) ** 2

    def weight(q):
        x = q * r
        if abs(x) < 1e-8:
            j0, j1x = 1.0 - x * x / 6.0, 1.0 / 3.0 - x * x / 30.0
        else:
            j0 = math.sin(x) / x
            j1x = (math.sin(x) / x - math.cos(x)) / x**2
        return (1.0 - c2) * j0 + (3.0 * c2 - 1.0) * j1x

    def integrand(q):
        if kernel == "f":
            time_part = 2.0 * math.sin(0.5 * q * t) ** 2
            if bath.inv_temperature is not None:
                time_part /= math.tanh(0.5 * bath.inv_temperature * q)
        else:
            time_part = 2.0 * (q * t - math.sin(q * t))
        return q * weight(q) * time_part

    periods = max(50, int(bath.kappa * (t + r) / math.pi) + 1)
    edges = np.linspace(0.0, bath.kappa, periods + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, _ = scipy.integrate.quad(integrand, lo, hi, limit=200)
        total += val
    return bath.alpha / math.pi * total


def warm_bounds(t: float, bath):
    """(B, H), two closed lower bounds of the warm diagonal f(t, 0) > 0:
    B = f(t, 0) of the cold bath over tanh(beta kappa / 2), since
    coth(beta q / 2) >= coth(beta kappa / 2) on (0, kappa], and
    H = (4 alpha / 3 pi beta)(kappa - sin(kappa t) / t), since
    q coth(beta q / 2) >= 2 / beta. As q coth(beta q / 2) <= 2 / beta + q,
    f(t, 0) <= H + B tanh(beta kappa / 2)."""
    from dmtsim.kernels import BathParams, _x_minus_sin, f_diag

    beta, kappa = bath.inv_temperature, bath.kappa
    cold = f_diag(t, BathParams(bath.alpha, kappa)) / math.tanh(0.5 * beta * kappa)
    hot = 4.0 * bath.alpha / (3.0 * math.pi * beta) * float(_x_minus_sin(np.array(kappa * t))) / t
    return cold, hot


def cold_f_quadrature(t: float, geom, bath, diag: float) -> float:
    """Zero-temperature f at a pair by reduced_quadrature at tol 1e-14 x diag,
    the diagonal f(t, 0): the oracle of the closed off-diagonal form.

    The quadrature's error estimate has a rounding floor: W's trig form
    cancels at small q r (about 1.2e-14 of f near kappa r = 0.1 with
    cos^2 theta = 1), and the rounding of q t grows with kappa t (8.5e-14
    at kappa t = 1e4, 6e-13 at 1e5). Where the floor lies above the tol but
    below 1e-13 x diag the value is taken at that floor; above it the oracle
    does not run and None is returned. The panel budget is 2^14 here: these
    integrands converge within a doubling of their oscillation count (at
    most 6,400 panels wherever the tests call this), so a stall that doubled
    on to the library's 262,144 panels would only repeat the noise.
    """
    from dmtsim import kernels
    from dmtsim.kernels import QuadratureError, TimeKernel, reduced_quadrature

    budget, kernels._MAX_PANELS = kernels._MAX_PANELS, 2**14
    try:
        try:
            return reduced_quadrature(
                t, geom, bath, TimeKernel.F_KERNEL, tol=max(1e-14 * diag, 1e-300)
            )
        except QuadratureError as err:
            if not err.achieved_error <= 1e-13 * diag:
                return None
            return reduced_quadrature(t, geom, bath, TimeKernel.F_KERNEL, tol=err.achieved_error)
    finally:
        kernels._MAX_PANELS = budget
