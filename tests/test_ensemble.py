import math

import numpy as np
import pytest
from conftest import phi_reference
from scipy import integrate

from dmtsim.asymptotics import gas_scales
from dmtsim.ensemble import (
    MC_CSV_HEADER,
    EnsembleError,
    MCResult,
    RNG_ALGORITHM,
    _sample_rng,
    analytic_phi00_avg,
    average_phi00,
    mc_csv_row,
)
from dmtsim.geometry import GasSpec, GeometryError, pair_arrays, sample_gas
from dmtsim.kernels import BathParams
from dmtsim.metric import KernelPolicy

ALPHA = 1.0 / 137.036


def bath(kappa=0.1):
    return BathParams(alpha=ALPHA, kappa=kappa)


def spec(density=1.7053e-3, l=10.0, horizon=25.0, seed=7):
    return GasSpec(
        density=density, exclusion_radius=l, horizon=horizon, seed=seed
    )


class TestAnalyticAverage:
    def test_vanishes_when_cone_fits_in_exclusion_ball(self):
        assert analytic_phi00_avg(spec(), bath(), 10.0) == 0.0

    def test_matches_numerical_shell_integral(self):
        # independent route: rho integral over the shell l <= r <= t of
        # 2 pi r^2 (alpha t / r^3)^2 (3u^2 - 1)^2 dr du
        rho, l, t = 3.7e-4, 6.0, 14.0
        s = spec(rho, l, 20.0)
        b = bath()

        def integrand(u, r):
            return rho * 2.0 * math.pi * r**2 * (ALPHA * t / r**3) ** 2 * (
                3.0 * u**2 - 1.0
            ) ** 2

        oracle, _ = integrate.dblquad(
            integrand, l, t, -1.0, 1.0, epsabs=1e-18, epsrel=1e-12
        )
        assert analytic_phi00_avg(s, b, t) == pytest.approx(oracle, rel=1e-10)

    def test_reduces_to_gas_rate_form(self):
        # gamma_g from the crossover scales is the same object:
        # <Phi_00> = gamma_g^2 t^2 (1 - (l/t)^3)
        rho, l, t = 3.7e-4, 6.0, 14.0
        s = spec(rho, l, 20.0)
        b = bath(0.4)
        g = gas_scales(rho, l, b)
        assert analytic_phi00_avg(s, b, t) == pytest.approx(
            g.gamma_g**2 * t**2 * (1.0 - (l / t) ** 3), rel=1e-13
        )

    def test_domain_errors(self):
        s = spec()
        with pytest.raises(EnsembleError):
            analytic_phi00_avg(s, bath(), 5.0)
        with pytest.raises(EnsembleError):
            analytic_phi00_avg(s, bath(), 30.0)
        with pytest.raises(EnsembleError):
            analytic_phi00_avg(s, bath(), math.inf)


class TestMonteCarlo:
    def test_mean_consistent_with_analytic_average(self):
        # ~100 light-cone atoms per sample; the sample mean over 1000 draws
        # should land within 3 standard errors of the exact shell average
        s = spec()
        b = bath()
        res = average_phi00(s, b, 20.0, 1000)
        target = analytic_phi00_avg(s, b, 20.0)
        assert abs(res.mean - target) <= 3.0 * res.std_error
        assert res.n_samples == 1000
        assert res.seed == 7
        assert res.algorithm == RNG_ALGORITHM

    def test_error_bar_shrinks_like_root_n(self):
        s = spec()
        b = bath()
        ses = [average_phi00(s, b, 20.0, n).std_error for n in (50, 200, 800)]
        assert 1.3 <= ses[0] / ses[1] <= 2.8
        assert 1.3 <= ses[1] / ses[2] <= 2.8

    def test_before_light_cone_far_field_is_exactly_zero(self):
        res = average_phi00(spec(), bath(), 5.0, 50)
        assert res.mean == 0.0
        assert res.std_error == 0.0

    def test_seed_determinism(self):
        a = average_phi00(spec(seed=42), bath(), 20.0, 64)
        b_ = average_phi00(spec(seed=42), bath(), 20.0, 64)
        c = average_phi00(spec(seed=43), bath(), 20.0, 64)
        assert a.mean == b_.mean and a.std_error == b_.std_error
        assert a.mean != c.mean

    def test_closed_form_policy_agrees_in_far_field_regime(self):
        # kappa l = 50: the closed kernel and its far-field limit differ per
        # pair by O(1 / kappa r), so paired means agree to well under 1%
        b5 = bath(5.0)
        s = spec(seed=11)
        ff = average_phi00(s, b5, 20.0, 200, kernel_policy=KernelPolicy.FAR_FIELD)
        cl = average_phi00(s, b5, 20.0, 200, kernel_policy=KernelPolicy.CLOSED_FORM)
        assert cl.mean == pytest.approx(ff.mean, rel=1e-2)

    def test_quadrature_policy_matches_analytic_reference(self):
        # replay the exact substreams the averager uses and evaluate the
        # closed + oscillatory reference on every sampled atom: the two
        # routes must agree to quadrature accuracy, not statistically
        s = spec(seed=5)
        b = bath(0.5)
        t, n = 20.0, 8
        qu = average_phi00(
            s, b, t, n, kernel_policy=KernelPolicy.QUADRATURE,
            count_mode="fixed", fixed_count=6,
        )
        totals = []
        for i in range(n):
            config, mask = sample_gas(
                s, count_mode="fixed", fixed_count=6, rng=_sample_rng(s.seed, i)
            )
            r, cos_t = pair_arrays(config, mask.selected, mask.unobserved)
            totals.append(
                sum(
                    phi_reference(t, rv, math.acos(cv), b.alpha, b.kappa) ** 2
                    for rv, cv in zip(r.ravel(), cos_t.ravel())
                )
            )
        assert qu.mean == pytest.approx(float(np.mean(totals)), rel=1e-6)
        assert qu.mean > 0.0

    def test_fixed_count_mode(self):
        res = average_phi00(
            spec(), bath(), 20.0, 16, count_mode="fixed", fixed_count=57
        )
        assert res.mean > 0.0
        with pytest.raises(GeometryError):
            average_phi00(spec(), bath(), 20.0, 4, count_mode="fixed")
        with pytest.raises(GeometryError):
            average_phi00(spec(), bath(), 20.0, 4, count_mode="typo")

    def test_domain_errors(self):
        with pytest.raises(EnsembleError):
            average_phi00(spec(), bath(), 30.0, 100)
        with pytest.raises(EnsembleError):
            average_phi00(spec(), bath(), 20.0, 1)
        with pytest.raises(EnsembleError):
            average_phi00(spec(), bath(), -1.0, 100)


class TestCsv:
    def test_header_and_row_round_trip(self):
        res = MCResult(mean=1.0 / 3.0, std_error=1e-9 / 7.0, n_samples=1000, seed=7)
        row = mc_csv_row(20.0, res)
        names = MC_CSV_HEADER.split(",")
        fields = row.split(",")
        assert names == ["t", "mean", "std_error", "n_samples", "seed"]
        assert len(fields) == len(names)
        assert float(fields[0]) == 20.0
        assert float(fields[1]) == res.mean
        assert float(fields[2]) == res.std_error
        assert int(fields[3]) == 1000 and int(fields[4]) == 7

    def test_negative_error_bar_rejected(self):
        with pytest.raises(EnsembleError):
            MCResult(mean=0.0, std_error=-1.0, n_samples=2, seed=0)
