"""Closed-form crossover scales and limits for lattices and gases.

Everything here is an order-of-magnitude (tilde) relation implemented with
its displayed prefactor; cross-checks against computed curves should use
factor 2-3 tolerances, never tight ones. Each scale is one _power_product:
0 or inf only past the float range, and at random ordinary inputs within
5.3e-16 of mpmath (the direct formulas: 7.2e-16). The core quantities stay
dimensionless; unit restoration (eV, Angstrom, atoms/m^3) lives only in the
reporting helpers at the bottom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as _geometry
from .geometry import AtomConfig, GeometryError, SelectionMask
from .kernels import BathParams

__all__ = [
    "LatticeScales",
    "GasScales",
    "effective_neighbors",
    "lattice_scales",
    "gas_scales",
    "HBARC_EV_ANGSTROM",
    "kappa_from_photon_energy",
    "atoms_per_m3",
]

# hbar * c, the conversion between photon energy and inverse length
HBARC_EV_ANGSTROM = 1973.269804


@dataclass(frozen=True)
class LatticeScales:
    """n_nn: effective neighbor count; t1: direct/indirect crossover time;
    a_c: spacing below which indirect decoherence always dominates; gamma:
    short-time direct rate."""

    n_nn: float
    t1: float
    a_c: float
    gamma: float

    def __post_init__(self):
        for name in ("n_nn", "t1", "a_c", "gamma"):
            if not (getattr(self, name) >= 0):
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class GasScales:
    """gamma_g: indirect rate; t2: crossover time; rho_crit: density above
    which indirect decoherence dominates (atoms per cubic dipole length)."""

    gamma_g: float
    t2: float
    rho_crit: float

    def __post_init__(self):
        for name in ("gamma_g", "t2", "rho_crit"):
            if not (getattr(self, name) >= 0):
                raise ValueError(f"{name} must be non-negative")


def effective_neighbors(config: AtomConfig, mask: SelectionMask) -> float:
    """Effective number of nearest neighbors seen by a single selected atom.

    N_nn = sum_k (a / r_k)^6 (3 cos^2 theta_k - 1)^2 over unobserved atoms,
    with a the nearest unobserved distance. Normalization: the far-field
    indirect decoherence of the selected atom is then exactly
    d_indirect = 2 N_nn (alpha t / a^3)^2 once all atoms sit inside the
    light cone, i.e. Phi_00 = N_nn (alpha t / a^3)^2. A single neighbor at
    distance a and theta = pi/2 gives N_nn = 1.
    """
    if mask.n_selected != 1:
        raise GeometryError("effective_neighbors is defined for exactly one selected atom")
    if mask.n_atoms != len(config):
        raise GeometryError(f"mask covers {mask.n_atoms} atoms, the configuration {len(config)}")
    if mask.unobserved.size == 0:
        return 0.0
    r, cos_t = _geometry.pair_arrays(config, mask.selected, mask.unobserved)
    if np.any(r == 0.0):
        raise GeometryError("selected atom coincides with an unobserved atom")
    a = float(r.min())
    weight = (3.0 * cos_t**2 - 1.0) ** 2
    return float(np.sum((a / r) ** 6 * weight))


def lattice_scales(a: float, bath: BathParams, n_nn: float) -> LatticeScales:
    """Crossover scales for a lattice of spacing a.

    t1 = kappa a^3 / sqrt(3 pi alpha N_nn)   (infinite when N_nn = 0: no
    crossover exists), a_c = (12 pi alpha N_nn)^(1/6) kappa^(-2/3),
    gamma = sqrt(alpha / 12 pi) kappa^2, each one _power_product.
    """
    if not (math.isfinite(a) and a > 0):
        raise ValueError("spacing a must be finite and > 0")
    if not (math.isfinite(n_nn) and n_nn >= 0):
        raise ValueError("n_nn must be finite and >= 0")
    alpha, kappa = bath.alpha, bath.kappa
    gamma = _power_product((alpha, 1, 2), (12.0 * math.pi, -1, 2), (kappa, 2, 1))
    if n_nn == 0.0:
        return LatticeScales(n_nn=0.0, t1=math.inf, a_c=0.0, gamma=gamma)
    t1 = _power_product(
        (kappa, 1, 1), (a, 3, 1), (3.0 * math.pi, -1, 2), (alpha, -1, 2), (n_nn, -1, 2)
    )
    a_c = _power_product((12.0 * math.pi, 1, 6), (alpha, 1, 6), (n_nn, 1, 6), (kappa, -2, 3))
    return LatticeScales(n_nn=float(n_nn), t1=t1, a_c=a_c, gamma=gamma)


def gas_scales(density: float, exclusion_radius: float, bath: BathParams) -> GasScales:
    """Crossover scales for a uniform gas.

    gamma_g = alpha sqrt(16 pi density / (15 l^3)), t2 = kappa
    sqrt(l^3 / density) (infinite at zero density), rho_crit = kappa^4 l^3,
    each one _power_product.
    """
    if not (math.isfinite(density) and density >= 0):
        raise ValueError("density must be finite and >= 0")
    if not (math.isfinite(exclusion_radius) and exclusion_radius > 0):
        raise ValueError("exclusion_radius must be finite and > 0")
    alpha, kappa, l = bath.alpha, bath.kappa, exclusion_radius
    rho_crit = _power_product((kappa, 4, 1), (l, 3, 1))
    if density == 0.0:
        return GasScales(gamma_g=0.0, t2=math.inf, rho_crit=rho_crit)
    gamma_g = _power_product(
        (alpha, 1, 1), (16.0 * math.pi / 15.0, 1, 2), (density, 1, 2), (l, -3, 2)
    )
    t2 = _power_product((kappa, 1, 1), (l, 3, 2), (density, -1, 2))
    return GasScales(gamma_g=gamma_g, t2=t2, rho_crit=rho_crit)


def _power_product(*factors) -> float:
    """The product of x^(num / den) over factors (x, num, den) of positive
    finite x, with mantissas and binary exponents kept apart until the end:
    0 or inf only where the product itself leaves the float range."""
    mantissa, exponent = 1.0, 0
    for x, num, den in factors:
        m, e = math.frexp(x)
        whole, rest = divmod(e * num, den)
        mantissa *= m ** (num / den) * 2.0 ** (rest / den)
        exponent += whole
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf


def kappa_from_photon_energy(energy_ev: float, d_angstrom: float) -> float:
    """Dimensionless UV cutoff kappa = (E / hbar c) d for a photon energy E (eV)
    and dipole length d (Angstrom); ValueError where it leaves the float range."""
    if not (0 < energy_ev < math.inf and 0 < d_angstrom < math.inf):
        raise ValueError("energy and dipole length must be finite and > 0")
    return _in_range(energy_ev * d_angstrom / HBARC_EV_ANGSTROM, "kappa", energy_ev, d_angstrom)


def atoms_per_m3(rho_dimensionless: float, d_angstrom: float) -> float:
    """Restore a density per cubic dipole length to atoms/m^3; ValueError past the float range."""
    if not (0 < d_angstrom < math.inf and 0 <= rho_dimensionless < math.inf):
        raise ValueError("dipole length must be finite and > 0, density finite and >= 0")
    length = d_angstrom * 1e-10  # cubed by products: ** raises OverflowError
    volume = _in_range(length * length * length, "(d 1e-10 m)^3", d_angstrom)
    return _in_range(rho_dimensionless / volume, "atoms/m^3", rho_dimensionless, d_angstrom)


def _in_range(value: float, name: str, *inputs: float) -> float:
    """value, or a ValueError naming its overflow or, from nonzero inputs, underflow."""
    if math.isinf(value) or (value == 0.0 and all(inputs)):
        raise ValueError(f"{name} {'overflows' if value else 'underflows'} at inputs {inputs}")
    return value
