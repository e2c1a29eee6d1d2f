import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    cold_f_quadrature,
    phi_osc_correction,
    phi_reference,
    same_bits,
    scipy_radial_integral,
    ulp_neighbours,
    warm_bounds,
)
from data.cin_reference import EDGE_REFERENCE, F_REFERENCE, I0_REFERENCE
from data.moment_reference import SECOND_DIFFERENCE_REFERENCE, W_REFERENCE
from data.si_reference import FAR_BRACKET_REFERENCE
from dmtsim import kernels, specfun
from dmtsim.kernels import (
    _f_closed_rt,
    _f_shape,
    _g,
    _geometric_weight,
    _moment_series,
    _phi_closed_rt,
    _phi_edge_rt,
    _phi_farfield_rt,
    _second_difference,
    _x_minus_sin,
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

    @pytest.mark.bitwise
    @given(
        st.lists(st.floats(1e-3, 1e11), min_size=1, max_size=8),
        st.lists(st.tuples(st.floats(0.5, 1e5), st.floats(0.0, 1.0)), min_size=1, max_size=30),
        st.sampled_from([0.01, 0.1, 1.0, 10.0]),
    )
    def test_block_bits_match_its_rows(self, times, keys, kappa):
        # one sine_integral call on the whole (T, K) block's arguments gives
        # each row the bits of its own call
        t = np.array(times)[:, None]
        r, c2 = (np.array(column) for column in zip(*keys))
        block = _phi_closed_rt(t, r, c2, ALPHA, kappa)
        assert block.shape == (t.size, r.size)
        for i, row in enumerate(block):
            np.testing.assert_array_equal(
                row.view(np.int64), _phi_closed_rt(t[i, 0], r, c2, ALPHA, kappa).view(np.int64)
            )

    @pytest.mark.bitwise
    def test_late_limit_where_kappa_r_plus_t_overflows(self):
        # kappa (r +- t) = +-inf: Si's limits +-pi/2 make the bracket pi and
        # phi its far-field value; the finite rows keep their own bits
        t = np.array([[1e300], [1.7e308]])
        r = np.array([1e51, 3e51])
        c2 = np.array([0.0, 0.2])
        block = _phi_closed_rt(t, r, c2, ALPHA, 10.0)
        row = _phi_closed_rt(1e300, r, c2, ALPHA, 10.0)
        np.testing.assert_array_equal(block[0].view(np.int64), row.view(np.int64))
        np.testing.assert_allclose(block[1], _phi_farfield_rt(1.7e308, r, c2, ALPHA), rtol=1e-15)


def phi_closed_one_si_call(t, r, c2, alpha, kappa):
    """_phi_closed_rt with every Si through one sine_integral call, as it was
    before the far route: the reference for the elements off that route."""
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        x_r, x_plus, x_minus = kappa * r, kappa * (r + t), kappa * (r - t)
    x = np.concatenate([x_r.ravel(), x_plus.ravel(), x_minus.ravel()])
    overflow = np.isinf(x)
    if overflow.any():
        si = np.copysign(np.pi / 2, x)
        si[~overflow] = specfun.sine_integral(x[~overflow])
    else:
        si = specfun.sine_integral(x)
    si_plus, si_minus = si[x_r.size :].reshape((2,) + x_plus.shape)
    bracket = 2.0 * si[: x_r.size].reshape(x_r.shape) - si_plus - si_minus
    return alpha * (3.0 * c2 - 1.0) * t / (math.pi * r**3) * bracket


class TestPhiClosedFarRoute:
    @pytest.mark.bitwise
    @given(
        st.lists(st.tuples(st.floats(0.5, 1e5), st.floats(0.0, 1.0)), min_size=1, max_size=12),
        st.lists(st.tuples(st.integers(0, 11), st.floats(0.0, 80.0)), min_size=1, max_size=8),
        st.sampled_from([0.01, 0.1, 1.0, 10.0]),
        st.booleans(),
    )
    def test_elements_off_the_far_route_keep_their_bits(self, keys, offsets, kappa, late):
        # rows at kappa (t - r_j) in [0, 80] for some key j straddle the far
        # route's edge at 40, and t = 1.7e308 overflows kappa (r + t) from
        # kappa = 10 on: every element off the route keeps the bits of the
        # one-call form, and the far ones move from it by no more than a few
        # ulp of phi and of pi/2 in the bracket's unit
        r, c2 = (np.array(column) for column in zip(*keys))
        times = [r[j % r.size] + gap / kappa for j, gap in offsets] + [1.7e308] * late
        t = np.array(times)[:, None]
        got = _phi_closed_rt(t, r, c2, ALPHA, kappa)
        want = phi_closed_one_si_call(t, r, c2, ALPHA, kappa)
        with np.errstate(over="ignore"):
            far = (kappa * (t - r) >= 40.0) & np.isfinite(kappa * (r + t))
        np.testing.assert_array_equal(got[~far].view(np.int64), want[~far].view(np.int64))
        scale = np.broadcast_to(ALPHA * np.abs(3.0 * c2 - 1.0) * t / (math.pi * r**3), far.shape)
        assert np.all(np.abs(got - want)[far] <= 2e-15 * (np.abs(want) + scale)[far])

    def test_far_bracket_matches_mpmath(self):
        # past the light cone at float (kappa, r, t), where kappa r and kappa t
        # round: within 4e-15 of the bracket's unit t / (pi r^3), a bound
        # fixed before measuring. Angles from the rounded kappa t miss it by
        # ulp(kappa t) / (kappa (t - r)) near the cone
        for kappa, r, t, want in FAR_BRACKET_REFERENCE:
            unit = t / (math.pi * r**3)
            got = _phi_closed_rt(t, r, 0.0, 1.0, kappa)  # 3 c2 - 1 = -1
            assert abs(got + unit * want) <= 4e-15 * unit, f"kappa {kappa}, r {r}, t {t}"


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

    def test_edge_terms_match_frozen_mpmath_values(self):
        # the cutoff-edge brackets at 150 digits, kappa t from 1e-16 up, where
        # they vanish like (kappa t)^3 and kappa t: c2 = 1/3 leaves i0 alone,
        # 1 aniso alone, 0 their difference; each row alone and all at once
        kappa, r, t, i0, aniso = (np.array(column) for column in zip(*EDGE_REFERENCE))
        prefactor = 2.0 * ALPHA / math.pi
        bound = 1e-12 * prefactor * (np.abs(i0) + np.abs(aniso))
        for kappa_value in np.unique(kappa):
            rows = kappa == kappa_value
            for c2 in (0.0, 1.0 / 3.0, 1.0):
                want = prefactor * ((1.0 - c2) * i0[rows] + (3.0 * c2 - 1.0) * aniso[rows])
                got = _phi_edge_rt(t[rows], r[rows], c2, ALPHA, kappa_value)
                assert np.all(np.abs(got - want) <= bound[rows]), (kappa_value, c2)
                for k, (tk, rk) in enumerate(zip(t[rows], r[rows])):
                    got = float(_phi_edge_rt(tk, rk, c2, ALPHA, kappa_value))
                    assert abs(got - want[k]) <= bound[rows][k], (kappa_value, rk, tk, c2)

    def test_i0_below_kappa_r_1_matches_frozen_mpmath_values(self):
        # c2 = 1/3 makes 3 c2 - 1 exactly 0 and leaves i0 alone, past kappa t
        # = 2, where j0'(kappa r) in its trig form cancels to about one ulp
        # over (kappa r)^2, and j0(kappa (t + r)) - j0(kappa (t - r)) in its
        # difference form to about one ulp over kappa r: within 1e-12
        # relative, a bound fixed before measuring
        c2 = 1.0 / 3.0
        assert 3.0 * c2 - 1.0 == 0.0
        for kappa, r, t, i0 in I0_REFERENCE:
            want = 2.0 * ALPHA / math.pi * (1.0 - c2) * i0
            got = float(_phi_edge_rt(t, r, c2, ALPHA, kappa))
            assert abs(got - want) <= 1e-12 * abs(want), (kappa, r, t, got, want)

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


SCALAR_PHIS = [phi_closed, phi_exact, phi_farfield]


class TestScalarPhiAtTheFloatRange:
    # The metric engine's contract at separations whose cube leaves the float
    # range: exact zeros at t = 0, the t / r^3 terms divided by r three times
    # where r^3 overflows, and a refusal of any phi that is not finite. The
    # suite turns numpy's RuntimeWarnings into errors, so none may be raised
    # on the way.

    @pytest.mark.parametrize("phi", SCALAR_PHIS)
    @pytest.mark.parametrize("r", [1e-200, 1e-110, 1e-60, 1e120])
    def test_zero_time_is_zero_at_every_separation(self, phi, r):
        assert phi(0.0, PairGeometry(r=r, theta=0.3), bath()) == 0.0

    @pytest.mark.parametrize("phi", SCALAR_PHIS)
    @pytest.mark.parametrize("r", [1e-200, 1e-110])
    @pytest.mark.parametrize("t", [1.0, 1e300])
    def test_a_cube_that_underflows_is_refused(self, phi, r, t):
        with pytest.raises(KernelDomainError, match="not finite"):
            phi(t, PairGeometry(r=r, theta=0.3), bath())

    # (t, r, alpha, phi) at theta = 0.3 and kappa = 0.1, where r^3 overflows:
    # alpha (3 c2 - 1) t / r^3 times a bracket pi / pi, the closed and the
    # far-field phi alike, from mpmath at 50 digits; at t = 1 it underflows
    @pytest.mark.parametrize(
        "t, r, alpha, want",
        [
            (1.0, 1e120, ALPHA, 0.0),
            (1e300, 1e120, ALPHA, 1.2682823654839002e-62),
            (1e300, 1e103, 1.0 / 137.0, 1.2686156367624214e-11),
        ],
    )
    def test_a_cube_that_overflows_divides_by_r_three_times(self, t, r, alpha, want):
        # within 1e-15 relative, a bound fixed before measuring
        g, b = PairGeometry(r=r, theta=0.3), BathParams(alpha=alpha, kappa=0.1)
        assert phi_closed(t, g, b) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert phi_farfield(t, g, b) == pytest.approx(want, rel=1e-15, abs=0.0)
        # phi_exact is the closed phi plus its finite cutoff-edge terms
        edge = float(_phi_edge_rt(t, g.r, math.cos(g.theta) ** 2, alpha, 0.1))
        assert math.isfinite(edge)
        assert phi_exact(t, g, b) == phi_closed(t, g, b) + edge


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

    def test_geometric_weight_matches_frozen_mpmath_values(self):
        # across the series edge at x = 1 and just above 0.05, where the trig
        # form of j1(x)/x loses about 1/x^2 ulps
        for x, c2, want in W_REFERENCE:
            for arg in (x, -x):  # W is even
                got = float(_geometric_weight(np.array([arg]), c2)[0])
                assert abs(got - want) <= 1e-15 * abs(want), (arg, c2)

    @pytest.mark.parametrize("r", [0.06, 0.08])
    @pytest.mark.parametrize("t", [1.0, 10.0])
    def test_f_reaches_3e_15_of_the_diagonal_at_small_kappa_r(self, r, t):
        # W's rounding no longer floors the error estimate above this tol
        b = BathParams(alpha=ALPHA, kappa=1.0)
        diag = f_diag(t, b)
        got = reduced_quadrature(t, PairGeometry(r, 0.0), b, TimeKernel.F_KERNEL, 3e-15 * diag)
        assert abs(got - float(_f_closed_rt(t, r, 1.0, b.alpha, b.kappa))) <= 1e-14 * diag


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
        # rows 2 (f's G'' = -S_2) and 3 (phi's j0''' = S_3) at orders 1 and 2,
        # against their direct forms at 100 digits: centers 0.01 to 1e4, below
        # the width too, widths 1e-7 to 2; each row alone and all at once
        for row in (2, 3):
            for order in (1, 2):
                table = [ref for ref in SECOND_DIFFERENCE_REFERENCE if ref[:2] == (row, order)]
                c, w, want = (np.array(column) for column in list(zip(*table))[2:])
                got = _second_difference(row, c, w, order)
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
                for k in range(c.size):
                    alone = _second_difference(row, c[k : k + 1], w[k : k + 1], order)
                    same_bits(alone, got[k : k + 1])


@pytest.mark.bitwise
@pytest.mark.parametrize("row, order", [(2, 1), (2, 2), (3, 2)])
def test_second_difference_chunks_keep_the_bits_of_single_centers(row, order):
    # 6,000 seeded centers from 1e-3 to 1e4 with widths from 1e-7 to 2, so
    # nodes fall both inside |y| < 1 and beyond: the whole call must give
    # each center the bits of a call on that center alone, while its traced
    # peak stays below 16 node arrays of a 1,024-center chunk, each (2, 1024,
    # 12) doubles. Unchunked, each of the call's node arrays holds 1.15 MB
    # at 6,000 centers.
    rng = np.random.default_rng(6000)
    c = 10.0 ** rng.uniform(-3.0, 4.0, 6000)
    w = np.minimum(10.0 ** rng.uniform(-7.0, 0.5, 6000), 2.0)
    tracemalloc.start()
    try:
        got = _second_difference(row, c, w, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 * 1024 * 12 * 8
    alone = np.concatenate(
        [_second_difference(row, c[k : k + 1], w[k : k + 1], order) for k in range(c.size)]
    )
    same_bits(got, alone)


# -- the closed f's calls -----------------------------------------------------
# B's Cin bracket is one _second_difference call over both of its short
# routes, T(max(x, h), min(x, h)), which must leave every value's bits as
# the two calls below give them.


def two_route_f_shape(x, h, c2):
    """_f_shape with the bracket as T(x, h) where h <= min(x, 2) and as
    T(h, x) where x <= 2 and x < h, one _second_difference call each."""
    out = np.empty_like(x)
    small = x <= 0.5
    out[small] = _moment_series(x[small], h[small], c2[small])
    late = ~small & np.isinf(h)
    xl, cl = x[late], c2[late]
    out[late] = (1.0 - cl) * _g(xl) / xl + (3.0 * cl - 1.0) * (_x_minus_sin(xl) / xl) / xl / xl
    main = ~small & ~late
    x, h, c2 = x[main], h[main], c2[main]
    one_minus_cos = 2.0 * np.sin(0.5 * h) ** 2
    short = h <= 2.0
    d = np.empty_like(x)
    d[short] = _second_difference(2, x[short], h[short], 1)
    xs, hs = x[~short], h[~short]
    d[~short] = 2.0 * _g(xs) - _g(xs + hs) - _g(xs - hs)
    b = np.empty_like(x)
    brief = short & (h <= x)
    xb, hb = x[brief], h[brief]
    b[brief] = (
        hb * hb * _g(xb)
        - np.sin(xb) * one_minus_cos[brief]
        - 0.5 * hb * _second_difference(2, xb, hb, 2)
    )
    near = ~brief & (x <= 2.0)
    xn, hn = x[near], h[near]
    b[near] = _x_minus_sin(xn) * one_minus_cos[near] - 0.5 * hn * _second_difference(2, hn, xn, 2)
    wide = ~brief & ~near
    xw, hw = x[wide], h[wide]
    b[wide] = -np.sin(xw) * one_minus_cos[wide] + 0.5 * hw * specfun._cin_difference(xw, hw)
    out[main] = (1.0 - c2) * d / (2.0 * x) + (3.0 * c2 - 1.0) * (b / x) / x / x
    return out


def same_f_shape(x, h, c2):
    same_bits(_f_shape(x, h, c2), two_route_f_shape(x, h, c2))


@pytest.mark.bitwise
@given(
    st.lists(
        st.tuples(
            st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 1e5)),
            st.one_of(st.floats(0.0, 3.0), st.floats(0.0, 1e5), st.just(math.inf)),
            st.floats(0.0, 1.0),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_f_shape_bits_match_two_bracket_routes(keys):
    same_f_shape(*(np.array(column) for column in zip(*keys)))


@pytest.mark.bitwise
def test_f_shape_bits_on_seam_grids():
    # one ulp either side of |x - h| = 40, min(x, h) = 2, x = h and x = 0.5,
    # with x - h of both signs
    centers = np.geomspace(1e-2, 1e5, 601)
    others = np.concatenate([centers, [0.0, math.inf]])
    pairs = [
        (np.tile(centers, 3), ulp_neighbours(centers + 40.0)),
        (np.tile(centers, 3), ulp_neighbours(centers)),
        (np.repeat(ulp_neighbours([2.0, 0.5]), others.size), np.tile(others, 6)),
    ]
    x = np.concatenate([p for pair in pairs for p in pair])
    h = np.concatenate([q for pair in pairs for q in pair[::-1]])
    keep = np.isfinite(x)
    x, h = x[keep], h[keep]
    c2 = np.random.default_rng(5).uniform(0.0, 1.0, x.size)
    same_f_shape(x, h, c2)
    for part in np.array_split(np.arange(x.size), 5):
        same_f_shape(x[part], h[part], c2[part])


@pytest.mark.bitwise
def test_closed_f_calls_each_special_function_once(monkeypatch):
    # a codeword-like (time, key) table reaches every route of B and both
    # branches of the Cin difference: one Cin evaluation (one evaluation of
    # the fitted auxiliary functions, and no continued fraction) for the
    # block, and one _second_difference call each for D and for both short
    # routes of the Cin bracket
    calls = Counter()
    for module, name in (
        (specfun, "_cin"),
        (specfun, "_fitted_auxiliary"),
        (specfun, "_e1_imaginary"),
        (kernels, "_second_difference"),
    ):

        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    t = np.concatenate([[0.0], np.geomspace(1e-2, 1e4, 80)])[:, None]
    r = np.array([0.0, 0.3, 1.0, 1.5, 2.5, 4.0, 7.0, 12.0, 30.0, 90.0])
    f = _f_closed_rt(t, r, np.linspace(0.0, 1.0, r.size), ALPHA, 1.0)
    assert np.all(np.isfinite(f))
    assert calls == {"_cin": 1, "_fitted_auxiliary": 1, "_second_difference": 2}


# -- phi_exact's edge routes --------------------------------------------------
# _phi_edge_rt runs each route of i0 only where it has elements, which must
# leave every value's bits as running both routes on every block gives them.


def both_route_phi_edge(t, r, c2, alpha, kappa):
    """_phi_edge_rt with both routes of i0 run on every block, empty or not."""
    t, r = np.asarray(t, dtype=float), np.asarray(r, dtype=float)
    h, x = kappa * t, kappa * r
    aniso = -np.sin(x) * _x_minus_sin(h) / (kappa * r**3)
    r, h, x = np.broadcast_arrays(r, h, x)
    i0 = np.empty(r.shape)
    short = h <= 2.0
    i0[short] = _second_difference(3, x[short], h[short], 2)
    x, h = x[~short], h[~short]
    j0_minus = np.divide(np.sin(x - h), x - h, out=np.ones_like(x), where=x != h)
    j0_difference = np.sin(x + h) / (x + h) - j0_minus
    low = x < 1.0  # the quotient form of the j0 difference
    xl, hl = x[low], h[low]
    numerator = hl * np.cos(hl) * np.sin(xl) - xl * np.sin(hl) * np.cos(xl)
    j0_difference[low] = 2.0 * numerator / (hl * hl - xl * xl)
    s_1 = specfun._sine_moment(1, x, np.sin(x), np.cos(x))  # -j0'(x)
    i0[~short] = j0_difference + 2.0 * h * s_1
    i0 *= 0.5 * kappa / r
    return 2.0 * alpha / math.pi * ((1.0 - c2) * i0 + (3.0 * c2 - 1.0) * aniso)


EDGE_BLOCK_KEYS = np.geomspace(3e-3, 1e4, 25), np.linspace(0.0, 1.0, 25)


@pytest.mark.bitwise
@pytest.mark.parametrize("kappa", [0.1, 1.0])
def test_edge_terms_keep_their_bits_on_short_long_and_mixed_blocks(kappa):
    # kappa t from 1e-16 to 1e4, kt = 2 and one ulp either side of it as
    # float64 computes kappa t; every block shape and a scalar each
    h = np.concatenate([np.geomspace(1e-16, 1e4, 40), ulp_neighbours([2.0])])
    t = h / kappa
    r, c2 = EDGE_BLOCK_KEYS
    for times in (t[kappa * t <= 2.0], t[kappa * t > 2.0], t):
        assert times.size
        block = times[:, None]
        want = both_route_phi_edge(block, r, c2, ALPHA, kappa)
        same_bits(_phi_edge_rt(block, r, c2, ALPHA, kappa), want)
        same_bits(_phi_edge_rt(times, r[3], c2[3], ALPHA, kappa), want[:, 3])
        same_bits(_phi_edge_rt(times[-1], r[7], c2[7], ALPHA, kappa), want[-1, 7])


def test_edge_terms_call_second_difference_only_for_short_times(monkeypatch):
    calls = Counter()
    real = kernels._second_difference

    def counted(*args):
        calls["_second_difference"] += 1
        return real(*args)

    monkeypatch.setattr(kernels, "_second_difference", counted)
    r, c2 = EDGE_BLOCK_KEYS
    _phi_edge_rt(np.array([[2.5], [30.0], [1e4]]), r, c2, ALPHA, 1.0)  # every kappa t > 2
    _phi_edge_rt(5.0, 10.0, 0.5, ALPHA, 1.0)
    assert calls["_second_difference"] == 0
    _phi_edge_rt(np.array([[0.5], [30.0]]), r, c2, ALPHA, 1.0)
    assert calls["_second_difference"] == 1
