import math

import pytest

import dmtsim

EXPORTS = {
    "__version__",
    # specfun
    "sine_integral",
    # kernels
    "BathParams",
    "KernelDomainError",
    "KernelPolicy",
    "PairGeometry",
    "QuadratureError",
    "TimeKernel",
    "f_diag",
    "phi_closed",
    "phi_exact",
    "phi_farfield",
    "reduced_quadrature",
    # geometry
    "AtomConfig",
    "GasSpec",
    "GeometryError",
    "SelectionMask",
    "chain_1d",
    "pair_arrays",
    "sample_gas",
    "square_lattice_2d",
    # metric
    "MetricError",
    "MetricTensor",
    "NonNegativityReport",
    "TriangleReport",
    "build_metric",
    "check_nonnegative",
    "check_triangle",
    "decoherence",
    "distance",
    # asymptotics
    "GasScales",
    "HBARC_EV_ANGSTROM",
    "LatticeScales",
    "atoms_per_m3",
    "effective_neighbors",
    "gas_scales",
    "kappa_from_photon_energy",
    "lattice_scales",
    # ensemble
    "EnsembleError",
    "MCResult",
    "RNG_ALGORITHM",
    "analytic_phi00_avg",
    "average_phi00",
    # cli
    "CSV_HEADER",
    "Scenario",
    "ScenarioError",
    "Sweep",
    "TimeGrid",
    "crossover_detect",
    "parse_scenario",
    "run",
}


def test_public_names_are_pinned_and_resolve():
    assert sorted(dmtsim.__all__) == sorted(EXPORTS)
    for name in dmtsim.__all__:
        assert getattr(dmtsim, name) is not None
    submodules = (
        dmtsim.specfun,
        dmtsim.kernels,
        dmtsim.geometry,
        dmtsim.metric,
        dmtsim.asymptotics,
        dmtsim.ensemble,
        dmtsim.cli,
    )
    for module in submodules:
        for name in module.__all__:
            assert getattr(dmtsim, name) is getattr(module, name)


def test_kernel_policy_is_still_reached_through_metric():
    # KernelPolicy lives in kernels; metric keeps the name, which callers
    # such as the benchmark worker and the output digest import from there
    assert dmtsim.metric.KernelPolicy is dmtsim.kernels.KernelPolicy


@pytest.mark.parametrize(
    "result, fields",
    [
        (dmtsim.MCResult, {"mean": 0.0, "std_error": 0.0, "n_samples": 2, "seed": 0}),
        (dmtsim.LatticeScales, {"n_nn": 1.0, "t1": 1.0, "a_c": 1.0, "gamma": 1.0}),
        (dmtsim.GasScales, {"gamma_g": 1.0, "t2": 1.0, "rho_crit": 1.0}),
    ],
)
def test_result_fields_promised_nonnegative_refuse_nan(result, fields):
    result(**fields)
    promised = ["std_error"] if result is dmtsim.MCResult else list(fields)
    for name in promised:
        with pytest.raises(ValueError, match=name):
            result(**{**fields, name: math.nan})
