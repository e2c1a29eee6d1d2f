import math

import numpy as np
import pytest
from conftest import pair_geometry

from dmtsim.asymptotics import (
    HBARC_EV_ANGSTROM,
    GasScales,
    LatticeScales,
    atoms_per_m3,
    effective_neighbors,
    gas_scales,
    kappa_from_photon_energy,
    lattice_scales,
)
from dmtsim.geometry import (
    AtomConfig,
    GeometryError,
    SelectionMask,
    chain_1d,
    square_lattice_2d,
)
from dmtsim.kernels import BathParams, f_diag

ALPHA = 1.0 / 137.036
MAGIC_ANGLE = math.acos(1.0 / math.sqrt(3.0))


def bath(kappa=0.1):
    return BathParams(alpha=ALPHA, kappa=kappa)


def close_in_ulps(got, want, ulps=4):
    """True where got is within a few ulps of want: each scale is one
    _power_product, and its direct formula rounds differently."""
    return abs(got - want) <= ulps * math.ulp(want)


def plateau(b):
    """Long-time plateau of the self-kernel f, alpha kappa^2 / (3 pi)."""
    return b.alpha * b.kappa**2 / (3.0 * math.pi)


class TestEffectiveNeighbors:
    def test_single_perpendicular_neighbor_is_one(self):
        config = AtomConfig(
            positions=[[0, 0, 0], [2.5, 0, 0]],
            dipole_direction=(0, 0, 1),
            label="pair",
        )
        mask = SelectionMask.from_selected(2, (0,))
        assert effective_neighbors(config, mask) == 1.0

    def test_empty_unobserved_gives_zero(self):
        config, mask = chain_1d(1, 1.0, 0.2)
        assert effective_neighbors(config, mask) == 0.0

    def test_magic_chain_kills_the_sum(self):
        # every pair axis sits at the magic angle, so each weight is
        # (3 cos^2 theta - 1)^2 ~ 5e-32 in float64
        config, mask = chain_1d(9, 3.0, MAGIC_ANGLE)
        assert effective_neighbors(config, mask) < 1e-29

    def test_matches_per_pair_loop_on_lattice(self):
        config, mask = square_lattice_2d(31, 7.0, (0, 0, 1))
        (center,) = mask.selected
        total = 0.0
        a = min(
            pair_geometry(config, center, k).r for k in mask.unobserved
        )
        for k in mask.unobserved:
            g = pair_geometry(config, center, k)
            c2 = math.cos(g.theta) ** 2
            total += (a / g.r) ** 6 * (3.0 * c2 - 1.0) ** 2
        assert effective_neighbors(config, mask) == pytest.approx(total, rel=1e-12)

    def test_requires_exactly_one_selected(self):
        config, _ = chain_1d(3, 1.0, 0.2)
        mask = SelectionMask.from_selected(3, (0, 1))
        with pytest.raises(GeometryError):
            effective_neighbors(config, mask)

    def test_coincident_neighbor_rejected(self):
        config = AtomConfig(
            positions=[[0, 0, 0], [0, 0, 0]],
            dipole_direction=(0, 0, 1),
            label="bad",
        )
        mask = SelectionMask.from_selected(2, (0,))
        with pytest.raises(GeometryError):
            effective_neighbors(config, mask)

    @pytest.mark.parametrize("n_atoms", [3, 27])
    def test_mask_for_another_atom_count_rejected(self, n_atoms):
        # a mask over 3 of the 25 atoms would trace out 2 of the 24 neighbors
        config, _ = square_lattice_2d(5, 7.0, (0, 0, 1))
        mask = SelectionMask.from_selected(n_atoms, (0,))
        with pytest.raises(GeometryError, match=f"mask covers {n_atoms} atoms"):
            effective_neighbors(config, mask)


class TestLatticeScales:
    def test_zero_neighbors_means_no_crossover(self):
        s = lattice_scales(5.0, bath(), 0.0)
        assert s.t1 == math.inf
        assert s.a_c == 0.0
        assert s.gamma > 0.0

    def test_crossover_time_is_consistent_with_the_plateau(self):
        # the far-field indirect decoherence evaluated at t1 should land on
        # the direct plateau: 2 N_nn (alpha t1 / a^3)^2 = 2 alpha kappa^2 /
        # (3 pi), i.e. exactly half of 4 f_infinity by construction
        b = bath(0.1)
        for a, n_nn in [(1000.0, 4.634), (50.0, 1.0), (3.0, 12.7)]:
            s = lattice_scales(a, b, n_nn)
            d_ind_at_t1 = 2.0 * n_nn * (b.alpha * s.t1 / a**3) ** 2
            ratio = 4.0 * plateau(b) / d_ind_at_t1
            assert ratio == pytest.approx(2.0, rel=1e-12)
            assert ratio <= 2.0 * (1.0 + 1e-12)

    def test_critical_spacing_pins_t1_to_the_plateau_onset(self):
        # at a = a_c the crossover time collapses to 2 / kappa, the time the
        # self-kernel saturates; below a_c indirect decoherence wins before
        # the direct channel ever plateaus
        b = bath(0.1)
        s = lattice_scales(1.0, b, 10.0)
        t1_at_ac = lattice_scales(s.a_c, b, 10.0).t1
        assert t1_at_ac * b.kappa / 2.0 == pytest.approx(1.0, rel=1e-12)

    def test_short_time_rate_prefactor(self):
        b = bath(0.3)
        s = lattice_scales(2.0, b, 1.0)
        assert s.gamma == pytest.approx(
            math.sqrt(b.alpha / (12.0 * math.pi)) * b.kappa**2, rel=1e-15
        )

    def test_homogeneity_in_spacing_and_cutoff(self):
        b1, b2 = bath(0.1), bath(0.2)
        s1 = lattice_scales(4.0, b1, 3.0)
        assert lattice_scales(8.0, b1, 3.0).t1 == pytest.approx(8.0 * s1.t1, rel=1e-12)
        s2 = lattice_scales(4.0, b2, 3.0)
        assert s2.a_c == pytest.approx(s1.a_c / 2.0 ** (2.0 / 3.0), rel=1e-12)
        assert s2.gamma == pytest.approx(4.0 * s1.gamma, rel=1e-12)

    def test_crossover_time_survives_under_and_overflow(self):
        # 3 pi alpha N_nn underflows to 0 at alpha = 5e-324, and a^3 overflows
        # past a = 5.6e102: t1 is then the same ratio in logs, inf past the
        # float range, never a ZeroDivisionError or OverflowError
        tiny = BathParams(alpha=5e-324, kappa=0.1)
        exact = 0.1 * 1e3 / (math.sqrt(3.0 * math.pi * 0.0507) * math.sqrt(5e-324))
        assert lattice_scales(10.0, tiny, 0.0507).t1 == pytest.approx(exact, rel=1e-12)
        b = bath(0.1)
        a = 6e102
        exact = 0.1 * a * a * a / math.sqrt(3.0 * math.pi * b.alpha * 4.5)
        assert math.isfinite(exact)
        assert lattice_scales(a, b, 4.5).t1 == pytest.approx(exact, rel=1e-12)
        assert lattice_scales(1e120, b, 4.5).t1 == math.inf
        # an ordinary spacing is within a few ulps of the direct formula
        direct = 0.1 * 1000.0**3 / math.sqrt(3.0 * math.pi * b.alpha * 4.634)
        assert close_in_ulps(lattice_scales(1000.0, b, 4.634).t1, direct)

    def test_critical_spacing_and_rate_survive_subnormal_couplings(self):
        # on the alpha = 5e-324 chain 12 pi alpha N_nn is subnormal and
        # alpha / 12 pi underflows to 0; both scales match their logs
        config, mask = chain_1d(3, 10.0, 0.9)
        n_nn = effective_neighbors(config, mask)
        tiny = BathParams(alpha=5e-324, kappa=0.1)
        s = lattice_scales(10.0, tiny, n_nn)
        logs = math.log(12.0 * math.pi) + math.log(5e-324) + math.log(n_nn)
        a_c = math.exp(logs / 6.0 - 2.0 / 3.0 * math.log(0.1))
        assert s.a_c == pytest.approx(a_c, rel=1e-12, abs=0.0)
        logs = 0.5 * (math.log(5e-324) - math.log(12.0 * math.pi)) + 2.0 * math.log(0.1)
        assert s.gamma == pytest.approx(math.exp(logs), rel=1e-12, abs=0.0)
        # an ordinary coupling is within a few ulps of the direct formulas
        b = bath(0.1)
        s = lattice_scales(1000.0, b, 4.634)
        a_c = (12.0 * math.pi * b.alpha * 4.634) ** (1.0 / 6.0) / 0.1 ** (2.0 / 3.0)
        assert close_in_ulps(s.a_c, a_c)
        assert close_in_ulps(s.gamma, math.sqrt(b.alpha / (12.0 * math.pi)) * 0.1**2)

    def test_scales_leave_the_float_range_only_with_their_values(self):
        # a^3 overflows and kappa / sqrt(alpha) underflows, yet t1 = 3.26e99;
        # kappa^2 underflows, yet gamma = 1.63e-191; each matches its logs,
        # and only a value past the float range is inf or 0
        b = BathParams(alpha=1e100, kappa=1e-300)
        s = lattice_scales(1e150, b, 1.0)
        logs = math.log(1e-300) + 3.0 * math.log(1e150) - 0.5 * math.log(3.0 * math.pi * 1e100)
        assert s.t1 == pytest.approx(math.exp(logs), rel=1e-13)
        logs = (math.log(12.0 * math.pi) + math.log(1e100)) / 6.0 + 200.0 * math.log(10.0)
        assert s.a_c == pytest.approx(math.exp(logs), rel=1e-13)
        s = lattice_scales(1.0, BathParams(alpha=1e300, kappa=1e-170), 1.0)
        logs = 0.5 * (math.log(1e300) - math.log(12.0 * math.pi)) - 340.0 * math.log(10.0)
        assert s.gamma == pytest.approx(math.exp(logs), rel=1e-13)
        assert lattice_scales(1e150, BathParams(alpha=1e-300, kappa=1e77), 1.0).t1 == math.inf
        assert lattice_scales(1e-150, BathParams(alpha=1e300, kappa=1e-300), 1.0).t1 == 0.0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            lattice_scales(0.0, bath(), 1.0)
        with pytest.raises(ValueError):
            lattice_scales(1.0, bath(), -1.0)
        with pytest.raises(ValueError):
            lattice_scales(math.nan, bath(), 1.0)
        with pytest.raises(ValueError):
            LatticeScales(n_nn=1.0, t1=-1.0, a_c=1.0, gamma=1.0)


class TestGasScales:
    def test_zero_density_means_no_crossover(self):
        s = gas_scales(0.0, 10.0, bath())
        assert s.gamma_g == 0.0
        assert s.t2 == math.inf
        assert s.rho_crit == pytest.approx(0.1**4 * 1000.0, rel=1e-15)

    def test_crossover_lands_within_decade_of_plateau(self):
        # (gamma_g t2)^2 is density- and l-independent, so the indirect
        # decoherence at t2, 2 (gamma_g t2)^2, sits a fixed factor
        # 8 pi^2 alpha / 5 ~ 0.115 below the plateau 4 f_infinity: same
        # decade, as an order-of-magnitude crossover estimate should
        b = bath(0.07)
        for rho, l in [(1e-3, 10.0), (0.5, 2.0), (1e-8, 300.0)]:
            s = gas_scales(rho, l, b)
            ratio = 2.0 * (s.gamma_g * s.t2) ** 2 / (4.0 * plateau(b))
            assert ratio == pytest.approx(8.0 * math.pi**2 * ALPHA / 5.0, rel=1e-12)
            assert 0.1 <= ratio <= 10.0

    def test_homogeneity_in_density_and_exclusion(self):
        b = bath()
        s1 = gas_scales(1e-4, 5.0, b)
        s4 = gas_scales(4e-4, 5.0, b)
        assert s4.gamma_g == pytest.approx(2.0 * s1.gamma_g, rel=1e-12)
        assert s4.t2 == pytest.approx(s1.t2 / 2.0, rel=1e-12)
        sl = gas_scales(1e-4, 20.0, b)
        assert sl.t2 == pytest.approx(8.0 * s1.t2, rel=1e-12)
        assert sl.rho_crit == pytest.approx(64.0 * s1.rho_crit, rel=1e-12)

    def test_scales_leave_the_float_range_only_with_their_values(self):
        # alpha 1e-300, density 1e300 and l^3 = 1e-300 give gamma_g = 1.83
        # and t2 = 1e-301, where density / l^3 overflows and l^3 / density
        # underflows; l^3 past the float range gives rho_crit = inf
        s = gas_scales(1e300, 1e-100, BathParams(alpha=1e-300, kappa=0.1))
        gamma_g = 1e-300 * math.sqrt(16.0 * math.pi / 15.0) * 1e300
        assert s.gamma_g == pytest.approx(gamma_g, rel=1e-13)
        assert s.t2 == pytest.approx(1e-301, rel=1e-13)
        assert s.rho_crit == pytest.approx(1e-304, rel=1e-13)
        s = gas_scales(1e-300, 1e200, BathParams(alpha=1e-300, kappa=0.1))
        assert s.rho_crit == math.inf and s.gamma_g == 0.0 and s.t2 == math.inf
        # ordinary inputs are within a few ulps of the direct formulas
        s = gas_scales(1e-3, 10.0, BathParams(alpha=ALPHA, kappa=0.1))
        gamma_g = ALPHA * math.sqrt(16.0 * math.pi * 1e-3 / (15.0 * 10.0**3))
        assert close_in_ulps(s.gamma_g, gamma_g)
        assert close_in_ulps(s.t2, 0.1 * math.sqrt(10.0**3 / 1e-3))
        assert close_in_ulps(s.rho_crit, 0.1**4 * 10.0**3)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            gas_scales(-1.0, 1.0, bath())
        with pytest.raises(ValueError):
            gas_scales(1.0, 0.0, bath())
        with pytest.raises(ValueError):
            GasScales(gamma_g=1.0, t2=1.0, rho_crit=-1.0)


class TestFDiagLimit:
    def test_matches_late_time_self_kernel(self):
        for kappa in (0.03, 0.1, 1.0):
            b = bath(kappa)
            # ringing decays as 2 sin(x)/x, so at x = 1e7 the curve sits
            # within 2e-7 of the plateau
            assert f_diag(1e7 / kappa, b) == pytest.approx(plateau(b), rel=1e-6)

    def test_quadratic_in_cutoff(self):
        # f = kappa^2 F(kappa t): at equal kappa t, doubling the cutoff
        # quadruples the self-kernel, its plateau included
        for x in (1e-2, 1.0, 30.0, 1e7):
            assert f_diag(x / 0.2, bath(0.2)) == pytest.approx(
                4.0 * f_diag(x / 0.1, bath(0.1)), rel=1e-12
            )


class TestUnitRestoration:
    def test_cutoff_from_photon_energy(self):
        # 1 eV cutoff, 1 Angstrom dipole
        assert kappa_from_photon_energy(1.0, 1.0) == pytest.approx(
            1.0 / HBARC_EV_ANGSTROM, rel=1e-15
        )
        assert kappa_from_photon_energy(1.0, 1.0) == pytest.approx(5.0677e-4, rel=1e-4)

    def test_density_round_trip(self):
        rho = 3.7e-11
        assert atoms_per_m3(rho, 2.0) * (2.0e-10) ** 3 == pytest.approx(
            rho, rel=1e-15
        )

    def test_critical_density_worked_point(self):
        # 1 eV cutoff, 1 Angstrom dipole, 10 Angstrom exclusion radius: the
        # critical density restores to ~6.6e19 atoms per cubic meter
        kappa = kappa_from_photon_energy(1.0, 1.0)
        s = gas_scales(1e-3, 10.0, BathParams(alpha=ALPHA, kappa=kappa))
        rho_si = atoms_per_m3(s.rho_crit, 1.0)
        assert rho_si == pytest.approx(6.594e19, rel=1e-3)
        assert 1e20 / 3.0 <= rho_si <= 3e20

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            kappa_from_photon_energy(0.0, 1.0)
        with pytest.raises(ValueError):
            kappa_from_photon_energy(1.0, -2.0)
        with pytest.raises(ValueError):
            atoms_per_m3(1.0, 0.0)

    @pytest.mark.parametrize("energy", [math.nan, math.inf])
    def test_cutoff_needs_a_finite_energy(self, energy):
        with pytest.raises(ValueError, match="finite"):
            kappa_from_photon_energy(energy, 1.0)

    @pytest.mark.parametrize("rho, d", [(-1.0, 1.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_density_needs_finite_inputs_and_a_nonnegative_density(self, rho, d):
        with pytest.raises(ValueError, match="finite"):
            atoms_per_m3(rho, d)

    @pytest.mark.parametrize(
        "rho, d, match",
        [
            (1.0, 1e-105, r"\(d 1e-10 m\)\^3 underflows"),  # was a bare ZeroDivisionError
            (1e300, 1e-30, "atoms/m\\^3 overflows"),  # was inf
            (1.0, 1e120, r"\(d 1e-10 m\)\^3 overflows"),  # ** would raise OverflowError
            (5e-324, 1e12, "atoms/m\\^3 underflows"),
        ],
    )
    def test_density_outside_the_float_range_is_refused(self, rho, d, match):
        with pytest.raises(ValueError, match=match):
            atoms_per_m3(rho, d)

    @pytest.mark.parametrize(
        "energy, d, match",
        [(1e308, 1e308, "kappa overflows"), (5e-324, 1e-10, "kappa underflows")],
    )
    def test_cutoff_outside_the_float_range_is_refused(self, energy, d, match):
        # a kappa of inf or 0 is one that BathParams refuses
        with pytest.raises(ValueError, match=match):
            kappa_from_photon_energy(energy, d)

    def test_zero_density_stays_zero(self):
        assert atoms_per_m3(0.0, 1e-30) == 0.0
        assert atoms_per_m3(0.0, 1e100) == 0.0
