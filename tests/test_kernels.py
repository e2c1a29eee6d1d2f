import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    cold_f_quadrature,
    phi_osc_correction,
    phi_reference,
    scipy_radial_integral,
    warm_bounds,
)
from data.cin_reference import F_REFERENCE
from dmtsim.kernels import (
    _f_closed_rt,
    _second_difference,
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

ALPHA = 1.0 / 137.036
MAGIC = math.acos(1.0 / math.sqrt(3.0))


def bath(kappa=0.1, beta=None):
    return BathParams(alpha=ALPHA, kappa=kappa, inv_temperature=beta)


class TestParams:
    def test_rejects_bad_bath(self):
        with pytest.raises(KernelDomainError):
            BathParams(alpha=0.0, kappa=1.0)
        with pytest.raises(KernelDomainError):
            BathParams(alpha=ALPHA, kappa=-1.0)
        with pytest.raises(KernelDomainError):
            BathParams(alpha=ALPHA, kappa=1.0, inv_temperature=0.0)
        with pytest.raises(KernelDomainError, match="inv_temperature \\* kappa underflows"):
            BathParams(alpha=ALPHA, kappa=1e-10, inv_temperature=1e-300)

    @pytest.mark.parametrize("kappa, beta", [(1.0, 2.2250738585072014e-308), (10.0, 3e-308)])
    def test_rejects_a_bath_whose_hot_limit_overflows(self, kappa, beta):
        # q coth(beta q / 2) tends to 2 / beta; its integral over (0, kappa]
        # is about 2 kappa / beta
        assert beta * kappa >= np.finfo(float).tiny
        with pytest.raises(KernelDomainError, match="4 kappa / inv_temperature overflows"):
            BathParams(alpha=ALPHA, kappa=kappa, inv_temperature=beta)
        BathParams(alpha=ALPHA, kappa=kappa, inv_temperature=16.0 * beta)

    def test_dipole_advisory(self):
        assert BathParams(alpha=ALPHA, kappa=1.0).dipole_advisory
        assert BathParams(alpha=ALPHA, kappa=3.0).dipole_advisory
        assert not BathParams(alpha=ALPHA, kappa=0.5).dipole_advisory

    def test_rejects_bad_geometry(self):
        with pytest.raises(KernelDomainError):
            PairGeometry(r=-1.0, theta=0.0)
        with pytest.raises(KernelDomainError):
            PairGeometry(r=1.0, theta=-0.1)
        with pytest.raises(KernelDomainError):
            PairGeometry(r=1.0, theta=math.pi + 0.1)


class TestFDiag:
    def test_zero_time(self):
        assert f_diag(0.0, bath()) == 0.0

    def test_quadratic_rise(self):
        b = bath(kappa=0.1)
        gamma2 = ALPHA / (12.0 * math.pi) * b.kappa**4
        t = 1e-3 / b.kappa
        assert f_diag(t, b) == pytest.approx(gamma2 * t * t, rel=1e-6)

    def test_plateau_value(self):
        b = bath(kappa=0.1)
        plateau = ALPHA * b.kappa**2 / (3.0 * math.pi)
        assert f_diag(1e6 / b.kappa, b) == pytest.approx(plateau, rel=1e-6)

    def test_bounds_on_log_grid(self):
        b = bath(kappa=0.3)
        t = np.geomspace(1e-3, 1e3, 400) / b.kappa
        vals = f_diag(t, b)
        assert np.all(vals >= 0.0)
        assert np.all(vals <= ALPHA * b.kappa**2 / math.pi)

    def test_not_monotone_because_of_ringing(self):
        # the cutoff produces overshoot near kappa t ~ pi, so f is not
        # monotone; the overshoot peaks ~40% above the plateau
        b = bath(kappa=1.0)
        plateau = ALPHA * b.kappa**2 / (3.0 * math.pi)
        peak = f_diag(math.pi, b)
        assert peak > 1.35 * plateau
        assert f_diag(2 * math.pi, b) < peak

    def test_series_branch_joins_closed_form(self):
        # kappa t = 2 is where the moment series hands M_0 over from its
        # h-series to its recurrence; the displayed closed form has no
        # cancellation there, so both sides meet it to rounding
        b = bath(kappa=1.0)
        for t in (2.0, np.nextafter(2.0, 3.0)):
            bracket = 0.5 + (1.0 - math.cos(t) - t * math.sin(t)) / t**2
            closed = 2.0 * ALPHA / (3.0 * math.pi) * bracket
            assert f_diag(t, b) == pytest.approx(closed, rel=2e-15, abs=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_kappa_t_gives_the_plateau(self):
        # kappa t = 1e309 overflows and t^2 = 1e400 does too; the oscillating
        # term, bounded by (2 + kappa t)/t^2, is far below rounding there
        b = bath(kappa=10.0)
        plateau = ALPHA * b.kappa**2 / (3.0 * math.pi)
        assert f_diag(1e308, b) == pytest.approx(plateau, rel=1e-15)
        out = f_diag(np.array([1.0, 1e200, 1e308]), b)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[1:], plateau, rtol=1e-15)

    def test_finite_temperature_unsupported_in_closed_form(self):
        with pytest.raises(KernelDomainError):
            f_diag(1.0, bath(beta=2.0))

    def test_array_input(self):
        out = f_diag(np.array([0.0, 1.0, 10.0]), bath())
        assert out.shape == (3,)
        assert out[0] == 0.0

    def test_rejects_negative_time(self):
        with pytest.raises(KernelDomainError):
            f_diag(-1.0, bath())


class TestPhiClosed:
    def test_magic_angle_vanishes(self):
        b = bath(kappa=0.7)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            r = 10.0 ** rng.uniform(0, 4)
            t = 10.0 ** rng.uniform(-1, 5)
            val = phi_closed(t, PairGeometry(r=r, theta=MAGIC), b)
            scale = abs(phi_closed(t, PairGeometry(r=r, theta=0.0), b))
            assert abs(val) <= 1e-12 * scale + 1e-300

    def test_zero_time_exact(self):
        assert phi_closed(0.0, PairGeometry(r=5.0, theta=0.3), bath()) == 0.0

    def test_theta_reflection_symmetry(self):
        b = bath()
        for theta in (0.2, 0.9, 1.4):
            a = phi_closed(7.0, PairGeometry(r=3.0, theta=theta), b)
            c = phi_closed(7.0, PairGeometry(r=3.0, theta=math.pi - theta), b)
            assert a == pytest.approx(c, rel=1e-12)

    def test_rejects_coincident(self):
        with pytest.raises(KernelDomainError):
            phi_closed(1.0, PairGeometry(r=0.0, theta=0.0), bath())

    def test_longitudinal_lightcone_value(self):
        # t = 2r deep in the far zone: phi -> alpha (t/r^3)(3cos^2 0 - 1)
        b = bath(kappa=1.0)
        r = 1e3
        got = phi_closed(2 * r, PairGeometry(r=r, theta=0.0), b)
        assert got == pytest.approx(4.0 * ALPHA / r**2, rel=5e-3)

    def test_farfield_agreement_in_regime(self):
        # |closed - farfield| / |farfield| <= 5% when both kappa|r - t| and
        # kappa(r + t) are >= 50 and the angular factor is not near magic
        b = bath(kappa=1.0)
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 200:
            r = 10.0 ** rng.uniform(1.8, 4)
            t = r * 10.0 ** rng.uniform(0.02, 1)
            theta = rng.uniform(0, math.pi)
            if min(abs(r - t), r + t) * b.kappa < 50:
                continue
            if abs(3 * math.cos(theta) ** 2 - 1) < 0.2:
                continue
            far = phi_farfield(t, PairGeometry(r=r, theta=theta), b)
            close = phi_closed(t, PairGeometry(r=r, theta=theta), b)
            assert abs(close - far) <= 0.05 * abs(far)
            checked += 1

    def test_before_lightcone_suppressed(self):
        # for t < r (far zone) the closed kernel is tiny against the
        # post-lightcone scale alpha t/r^3 |3cos^2 theta - 1|
        b = bath(kappa=1.0)
        for t_over_r in (0.2, 0.5, 0.9):
            r = 2e3
            t = t_over_r * r
            val = phi_closed(t, PairGeometry(r=r, theta=0.0), b)
            assert abs(val) <= 0.05 * (2.0 * ALPHA * t / r**3)


class TestPhiExact:
    def test_matches_scalar_reference(self):
        # the conftest oracle is an independent scalar transcription of the
        # cutoff-edge terms; t < r, t = r and t > r hit every sinc branch
        for kappa in (0.1, 1.0):
            b = bath(kappa=kappa)
            for kr in (1.0, 10.0, 100.0):
                r = kr / kappa
                for t_over_r in (0.5, 1.0, 2.0, 10.0):
                    for theta in (0.0, MAGIC, math.pi / 2):
                        t = t_over_r * r
                        got = phi_exact(t, PairGeometry(r=r, theta=theta), b)
                        ref = phi_reference(t, r, theta, b.alpha, b.kappa)
                        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_continuous_across_lightcone(self):
        b = bath(kappa=1.0)
        for r, theta in ((10.0, 0.0), (100.0, MAGIC), (30.0, math.pi / 2)):
            g = PairGeometry(r=r, theta=theta)
            at = phi_exact(r, g, b)
            for t in (r * (1.0 - 1e-9), r * (1.0 + 1e-9)):
                assert phi_exact(t, g, b) == pytest.approx(at, rel=1e-6, abs=0.0)

    def test_zero_time_exact(self):
        for theta in (0.0, MAGIC, 1.2):
            assert phi_exact(0.0, PairGeometry(r=5.0, theta=theta), bath()) == 0.0

    def test_rejects_outside_domain(self):
        with pytest.raises(KernelDomainError):
            phi_exact(1.0, PairGeometry(r=0.0, theta=0.0), bath())
        with pytest.raises(KernelDomainError):
            phi_exact(-1.0, PairGeometry(r=1.0, theta=0.0), bath())
        with pytest.raises(KernelDomainError):
            phi_exact(float("nan"), PairGeometry(r=1.0, theta=0.0), bath())


class TestPhiFarfield:
    def test_strictly_zero_before_lightcone(self):
        b = bath()
        assert phi_farfield(4.999, PairGeometry(r=5.0, theta=0.4), b) == 0.0

    def test_lightcone_edge_included(self):
        b = bath()
        r = 5.0
        got = phi_farfield(r, PairGeometry(r=r, theta=0.0), b)
        assert got == pytest.approx(2.0 * ALPHA / r**2, rel=1e-14)

    def test_sign_flips_across_magic(self):
        b = bath()
        g_lo = PairGeometry(r=3.0, theta=0.0)
        g_hi = PairGeometry(r=3.0, theta=math.pi / 2)
        assert phi_farfield(10.0, g_lo, b) > 0
        assert phi_farfield(10.0, g_hi, b) < 0

    def test_rejects_coincident(self):
        with pytest.raises(KernelDomainError):
            phi_farfield(1.0, PairGeometry(r=0.0, theta=0.0), bath())


class TestQuadrature:
    def test_f_at_origin_reduces_to_diagonal(self):
        b = bath(kappa=0.1)
        for t in (0.5, 10.0, 300.0, 5e4):
            got = reduced_quadrature(
                t, PairGeometry(r=0.0, theta=0.9), b, TimeKernel.F_KERNEL, tol=1e-12
            )
            assert got == pytest.approx(f_diag(t, b), abs=5e-12, rel=1e-9)

    def test_zero_time_both_kernels(self):
        b = bath()
        g = PairGeometry(r=3.0, theta=0.3)
        assert reduced_quadrature(0.0, g, b, TimeKernel.F_KERNEL, tol=1e-10) == 0.0
        assert reduced_quadrature(0.0, g, b, TimeKernel.PHI_KERNEL, tol=1e-10) == 0.0

    def test_phi_matches_full_reference(self):
        # quadrature against closed form plus the oscillatory correction:
        # agreement at quadrature accuracy pins the geometric weight W
        b = BathParams(alpha=ALPHA, kappa=1.0)
        for kr in (10.0, 100.0):
            r = kr / b.kappa
            for t_over_r in (0.5, 1.0, 2.0, 10.0):
                t = t_over_r * r
                got = reduced_quadrature(
                    t, PairGeometry(r=r, theta=0.7), b, TimeKernel.PHI_KERNEL, tol=1e-15
                )
                ref = phi_reference(t, r, 0.7, b.alpha, b.kappa)
                assert got == pytest.approx(ref, abs=2e-14, rel=1e-9)

    def test_phi_closed_form_omission_is_the_oscillatory_term(self):
        # |quadrature - closed| equals the omitted oscillatory term, so the
        # closed form is exact once that term is added back
        b = BathParams(alpha=ALPHA, kappa=1.0)
        for kr, t_over_r, theta in ((10.0, 0.5, 0.7), (100.0, 2.0, 1.2), (30.0, 10.0, 0.0)):
            r = kr / b.kappa
            t = t_over_r * r
            quad = reduced_quadrature(
                t, PairGeometry(r=r, theta=theta), b, TimeKernel.PHI_KERNEL, tol=1e-15
            )
            closed = phi_closed(t, PairGeometry(r=r, theta=theta), b)
            osc = phi_osc_correction(t, r, theta, b.alpha, b.kappa)
            assert abs(quad - closed) <= abs(osc) * (1 + 1e-6) + 1e-13
            assert quad - closed == pytest.approx(osc, rel=1e-6, abs=1e-13)

    def test_scipy_second_route(self):
        b = bath(kappa=0.5)
        cases = [
            (3.0, 10.0, 0.4, TimeKernel.F_KERNEL),
            (40.0, 10.0, 1.1, TimeKernel.F_KERNEL),
            (15.0, 20.0, 0.0, TimeKernel.PHI_KERNEL),
            (90.0, 20.0, 2.0, TimeKernel.PHI_KERNEL),
        ]
        for t, r, theta, kernel in cases:
            mine = reduced_quadrature(t, PairGeometry(r=r, theta=theta), b, kernel, tol=1e-13)
            other = scipy_radial_integral(
                t, r, theta, b, "f" if kernel is TimeKernel.F_KERNEL else "phi"
            )
            assert mine == pytest.approx(other, rel=1e-8, abs=1e-15)

    def test_theta_reflection_symmetry(self):
        b = bath()
        a = reduced_quadrature(
            9.0, PairGeometry(r=4.0, theta=0.5), b, TimeKernel.F_KERNEL, tol=1e-12
        )
        c = reduced_quadrature(
            9.0, PairGeometry(r=4.0, theta=math.pi - 0.5), b, TimeKernel.F_KERNEL, tol=1e-12
        )
        assert a == pytest.approx(c, rel=1e-10)

    def test_finite_temperature_raises_f(self):
        # coth(beta q / 2) > 1 strictly, so thermal occupation can only help
        b_cold = bath(kappa=0.5)
        b_warm = bath(kappa=0.5, beta=1.0)
        g = PairGeometry(r=0.0, theta=0.0)
        cold = reduced_quadrature(5.0, g, b_cold, TimeKernel.F_KERNEL, tol=1e-13)
        warm = reduced_quadrature(5.0, g, b_warm, TimeKernel.F_KERNEL, tol=1e-13)
        assert warm > cold

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        kappa=st.floats(min_value=0.1, max_value=1.0),
        log_beta_kappa=st.floats(min_value=math.log10(0.2), max_value=4.0),
        log_kappa_t=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_warm_diagonal_is_at_least_its_closed_floors(
        self, kappa, log_beta_kappa, log_kappa_t
    ):
        # the integrand is non-negative at r = 0, so f(t, 0) >= max(B, H) of
        # conftest.warm_bounds. The oracle runs at 1e-14 of that floor, which
        # the error estimate's rounding floor stays under up to kappa t = 1e3
        beta_kappa, kappa_t = 10.0**log_beta_kappa, 10.0**log_kappa_t
        b = bath(kappa=kappa, beta=beta_kappa / kappa)
        t = kappa_t / kappa
        floor = max(warm_bounds(t, b))
        f = reduced_quadrature(t, PairGeometry(0.0, 0.0), b, TimeKernel.F_KERNEL, tol=1e-14 * floor)
        assert floor <= f * (1.0 + 1e-12)

    @pytest.mark.parametrize("beta_kappa", [0.2, 1.0, 10.0, 1e4])
    @pytest.mark.parametrize("kappa_t", [1e4, 1e5])
    def test_warm_diagonal_floors_at_late_times(self, kappa_t, beta_kappa):
        # past kappa t = 1e3 the rounding floor rises above 1e-14 of f (to
        # 6.5e-14 at kappa t = 1e4 and 8e-13 at 1e5), so the oracle runs at
        # 1e-12 of the floor and the bound allows that tol on top
        b = bath(kappa=0.5, beta=2.0 * beta_kappa)
        t = 2.0 * kappa_t
        floor = max(warm_bounds(t, b))
        tol = 1e-12 * floor
        f = reduced_quadrature(t, PairGeometry(0.0, 0.0), b, TimeKernel.F_KERNEL, tol=tol)
        assert floor <= f * (1.0 + 1e-12) + tol

    def test_low_temperature_limit_recovers_zero_t(self):
        b_cold = bath(kappa=0.5)
        b_nearly = bath(kappa=0.5, beta=1e6)
        g = PairGeometry(r=2.0, theta=0.4)
        a = reduced_quadrature(5.0, g, b_cold, TimeKernel.F_KERNEL, tol=1e-14)
        c = reduced_quadrature(5.0, g, b_nearly, TimeKernel.F_KERNEL, tol=1e-14)
        assert a == pytest.approx(c, rel=1e-6)

    def test_validates_inputs(self):
        b = bath()
        g = PairGeometry(r=1.0, theta=0.0)
        with pytest.raises(KernelDomainError):
            reduced_quadrature(1.0, g, b, TimeKernel.F_KERNEL, tol=0.0)
        with pytest.raises(KernelDomainError):
            reduced_quadrature(-1.0, g, b, TimeKernel.F_KERNEL, tol=1e-10)
        with pytest.raises(KernelDomainError):
            reduced_quadrature(float("nan"), g, b, TimeKernel.F_KERNEL, tol=1e-10)

    def test_budget_exhaustion_reports_achieved_error(self):
        b = BathParams(alpha=ALPHA, kappa=1.0)
        g = PairGeometry(r=1e7, theta=0.3)
        with pytest.raises(QuadratureError) as exc_info:
            reduced_quadrature(1e7, g, b, TimeKernel.PHI_KERNEL, tol=1e-14)
        err = exc_info.value
        assert hasattr(err, "achieved_error")
        assert err.achieved_error > 1e-14 or math.isinf(err.achieved_error)


class TestFOffdiag:
    def test_origin_matches_diagonal(self):
        b = bath(kappa=0.1)
        t = 25.0
        got = reduced_quadrature(
            t, PairGeometry(r=0.0, theta=1.0), b, TimeKernel.F_KERNEL, tol=1e-13
        )
        assert got == pytest.approx(f_diag(t, b), abs=5e-13, rel=1e-9)

    def test_large_separation_suppression(self):
        # kappa r = 1e4: the off-diagonal f is below 1% of the diagonal
        # for times up to 1/kappa
        b = bath(kappa=0.1)
        r = 1e5
        for t in (1e-3 / b.kappa, 0.3 / b.kappa, 1.0 / b.kappa):
            off = reduced_quadrature(
                t, PairGeometry(r=r, theta=0.8), b, TimeKernel.F_KERNEL, tol=1e-16
            )
            assert abs(off) <= 1e-2 * f_diag(t, b)

    def test_theta_reflection_symmetry(self):
        b = bath()
        a = reduced_quadrature(
            12.0, PairGeometry(r=30.0, theta=0.3), b, TimeKernel.F_KERNEL, tol=1e-13
        )
        c = reduced_quadrature(
            12.0, PairGeometry(r=30.0, theta=math.pi - 0.3), b, TimeKernel.F_KERNEL, tol=1e-13
        )
        assert a == pytest.approx(c, rel=1e-9)


def _cos2(theta):
    return math.cos(theta) ** 2


class TestFClosed:
    """The zero-temperature f off the diagonal in closed form, against the
    radial quadrature (conftest.cold_f_quadrature, tol 1e-14 of f(t, 0))
    wherever that runs, and against frozen mpmath values beyond."""

    B = BathParams(alpha=ALPHA, kappa=1.0)  # so kappa r = r and kappa t = t

    def closed(self, t, r, c2, b=B):
        return float(_f_closed_rt(t, r, c2, b.alpha, b.kappa))

    def test_matches_quadrature_on_grid(self):
        # the quadrature's floor grows with kappa t (the rounding of q t): it
        # is 8.5e-14 of f(t, 0) at 1e4 and 6e-13 at 1e5, past the oracle's
        # reach, so the grid stops at 1e4; F_REFERENCE goes on to 1e11
        compared = 0
        for r in (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4):
            for t in (1e-6, 1e-4, 1e-2, 1.0, 2.0, 10.0, 100.0, 1e3, 1e4, r):
                diag = f_diag(t, self.B)
                for theta in (math.pi / 2, MAGIC, math.pi / 4, 0.0):
                    want = cold_f_quadrature(t, PairGeometry(r, theta), self.B, diag)
                    if want is None:
                        continue
                    got = self.closed(t, r, _cos2(theta))
                    assert abs(got - want) <= 1e-12 * diag, (r, t, theta)
                    compared += 1
        assert compared == 8 * 10 * 4

    def test_matches_frozen_mpmath_values(self):
        # F = f pi / (alpha kappa^2): alpha = pi and kappa = 1 give F itself;
        # the rows at x = 0 are the diagonal's closed form
        for x, h, c2, want in F_REFERENCE:
            got = float(_f_closed_rt(h, x, c2, math.pi, 1.0))
            scale = f_diag(h, BathParams(alpha=math.pi, kappa=1.0))
            assert abs(got - want) <= 1e-13 * scale, (x, h, c2)

    @settings(max_examples=60, deadline=None)
    @given(
        log_r=st.floats(-3.0, 4.0),
        gap=st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6), st.floats(-0.5, 2.0)),
        theta=st.one_of(st.just(MAGIC), st.floats(0.0, math.pi)),
        kappa=st.floats(0.05, 1.0),
    )
    def test_near_the_light_cone_and_far_out(self, log_r, gap, theta, kappa):
        # t = r (1 + gap): t = r exactly, t ~ r, and a spread around it; r up
        # to 1e4 / kappa; the magic angle, where only the j0 part is left
        b = BathParams(alpha=ALPHA, kappa=kappa)
        r = 10.0**log_r / kappa
        t = r * (1.0 + gap)
        assume(t > 0.0 and kappa * t <= 1e3)
        diag = f_diag(t, b)
        want = cold_f_quadrature(t, PairGeometry(r, theta), b, diag)
        assume(want is not None)
        assert abs(self.closed(t, r, _cos2(theta), b) - want) <= 1e-12 * diag

    def test_tends_to_the_diagonal(self):
        t = np.geomspace(1e-6, 1e11, 35)
        for theta in (0.0, MAGIC, 1.2):
            got = _f_closed_rt(t, 1e-9, _cos2(theta), ALPHA, 1.0)
            np.testing.assert_allclose(got, f_diag(t, self.B), rtol=1e-15, atol=0.0)

    def test_late_limit_where_kappa_t_overflows(self):
        # f -> (alpha/pi) int_0^kappa q W(q r) dq, the cos qt part averaging
        # out; a 40-point Gauss-Legendre rule per radian of q r is a second
        # route to that smooth integral. At r = 1e-110, x^3 underflows to 0,
        # so the oracle's trig form is taken only where x > 0.05.
        b = BathParams(alpha=ALPHA, kappa=10.0)
        xi, weight = np.polynomial.legendre.leggauss(40)
        cases = ((0.03, 0.4), (0.7, 0.0), (5.0, MAGIC), (300.0, 1.3))
        for r, theta in cases + ((1e-110, 0.0), (1e-110, 1.5)):
            c2 = _cos2(theta)
            edges = np.linspace(0.0, b.kappa, int(b.kappa * r) + 2)
            mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
            q = (mid[:, None] + half[:, None] * xi).ravel()
            x = q * r
            j0 = np.sin(x) / x
            j1x = 1 / 3 - x**2 / 30 + x**4 / 840 - x**6 / 45360 + x**8 / 3991680
            trig = x > 0.05
            xt = x[trig]
            j1x[trig] = (np.sin(xt) - xt * np.cos(xt)) / xt**3
            integrand = (q * ((1.0 - c2) * j0 + (3.0 * c2 - 1.0) * j1x)).reshape(-1, xi.size)
            want = ALPHA / math.pi * float(np.sum((integrand @ weight) * half))
            late = self.closed(1e308, r, c2, b)  # kappa t = 1e309 overflows
            assert late == pytest.approx(want, rel=1e-12, abs=1e-13 * f_diag(1e308, b))
            # a finite kappa t far out joins the limit
            assert self.closed(1e300, r, c2, b) == pytest.approx(late, rel=1e-12)

    def test_second_difference_helper(self):
        # F = sin, F'' = -sin: F(c + w) + F(c - w) - 2 F(c) = -2 sin c (1 - cos w)
        # = -4 sin c sin^2(w/2), to full relative accuracy at small w
        def pair(c, u):
            return -np.sin(c + u) - np.sin(c - u)

        c = np.array([0.3, 2.0, 1e4, 7.0, 0.01])
        w = np.array([1e-7, 1e-3, 0.5, 2.0, 1.3])
        got = _second_difference(pair, c, w, 1)
        np.testing.assert_allclose(got, -4.0 * np.sin(c) * np.sin(0.5 * w) ** 2, rtol=1e-14)
        # order 2 with P' = F = sin, P = -cos: P(c + w) - P(c - w) - 2 w P'(c)
        # = -2 sin c (w - sin w), the bracket summed as its Maclaurin series
        w_minus_sin = sum(
            (-1) ** (k + 1) * w ** (2 * k + 1) / math.factorial(2 * k + 1) for k in range(1, 20)
        )
        got = _second_difference(pair, c, w, 2)
        np.testing.assert_allclose(got, -2.0 * np.sin(c) * w_minus_sin, rtol=1e-14)
