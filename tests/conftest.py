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
