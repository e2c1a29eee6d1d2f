"""Decoherence metric tensor simulations for dipole-coupled two-level atoms.

The package computes the time-dependent metric M(t) = 4 f(t) + 2 Phi(t) on
codeword space for atoms sharing a common black-body bath, covering direct
(observed-observed) and indirect (mediated by unobserved atoms) channels,
plus the lattice and gas coarse-grained scales and a Monte Carlo gas average.
"""

from .asymptotics import (
    GasScales,
    HBARC_EV_ANGSTROM,
    LatticeScales,
    atoms_per_m3,
    effective_neighbors,
    f_diag_limit,
    gas_scales,
    kappa_from_photon_energy,
    lattice_scales,
)
from .cli import Scenario, ScenarioError, crossover_detect, parse_scenario, run
from .ensemble import (
    EnsembleError,
    MCResult,
    analytic_phi00_avg,
    average_phi00,
    mc_csv_row,
)
from .geometry import (
    AtomConfig,
    GasSpec,
    GeometryError,
    SelectionMask,
    apply_jitter,
    chain_1d,
    pair_geometry,
    sample_gas,
    square_lattice_2d,
)
from .kernels import (
    BathParams,
    KernelDomainError,
    PairGeometry,
    QuadratureError,
    TimeKernel,
    f_diag,
    phi_closed,
    phi_exact,
    phi_farfield,
    reduced_quadrature,
)
from .metric import (
    Codeword,
    DecoherenceResult,
    KernelPolicy,
    MetricError,
    MetricTensor,
    NonNegativityReport,
    TriangleReport,
    build_metric,
    check_nonnegative,
    check_triangle,
    decoherence,
    distance,
    find_null_pairs,
)
from .specfun import sine_integral

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "sine_integral",
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
    "AtomConfig",
    "SelectionMask",
    "GasSpec",
    "GeometryError",
    "square_lattice_2d",
    "chain_1d",
    "sample_gas",
    "pair_geometry",
    "apply_jitter",
    "KernelPolicy",
    "MetricTensor",
    "MetricError",
    "Codeword",
    "DecoherenceResult",
    "build_metric",
    "distance",
    "decoherence",
    "check_nonnegative",
    "check_triangle",
    "find_null_pairs",
    "NonNegativityReport",
    "TriangleReport",
    "LatticeScales",
    "GasScales",
    "HBARC_EV_ANGSTROM",
    "effective_neighbors",
    "lattice_scales",
    "gas_scales",
    "f_diag_limit",
    "kappa_from_photon_energy",
    "atoms_per_m3",
    "EnsembleError",
    "MCResult",
    "average_phi00",
    "analytic_phi00_avg",
    "mc_csv_row",
    "Scenario",
    "ScenarioError",
    "parse_scenario",
    "crossover_detect",
    "run",
]
