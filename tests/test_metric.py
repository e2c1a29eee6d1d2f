import math
import random

import numpy as np
import pytest
from conftest import cold_f_quadrature, pair_geometry, warm_bounds
from hypothesis import given, settings, strategies as st

from dmtsim import kernels
from dmtsim.asymptotics import effective_neighbors
from dmtsim.cli import (
    _CHECK_SEED_NONNEG,
    _CHECK_SEED_TRIANGLE,
    _CHECK_TRIALS,
    _CHECK_TRIPLES,
)
from dmtsim.geometry import (
    AtomConfig,
    GasSpec,
    GeometryError,
    SelectionMask,
    chain_1d,
    sample_gas,
    square_lattice_2d,
)
from dmtsim.kernels import (
    BathParams,
    PairGeometry,
    QuadratureError,
    TimeKernel,
    f_diag,
    phi_closed,
    phi_exact,
    phi_farfield,
    reduced_quadrature,
)
from dmtsim.metric import (
    KernelPolicy,
    MetricError,
    MetricTensor,
    _assemble,
    _forms,
    build_metric,
    check_nonnegative,
    check_triangle,
    decoherence,
    distance,
)

ALPHA = 1.0 / 137.036


def bath(kappa=0.1):
    return BathParams(alpha=ALPHA, kappa=kappa)


def synthetic(direct, indirect=None, t=1.0, valid=True):
    direct = np.asarray(direct, dtype=float)
    if indirect is None:
        indirect = np.zeros_like(direct)
    return MetricTensor(
        time=t, direct_part=direct, indirect_part=np.asarray(indirect, dtype=float),
        validity_flag=valid,
    )


class TestBuildMetric:
    def test_no_unobserved_reduces_to_diagonal(self):
        config, _ = chain_1d(2, 7.0, 0.4)
        mask = SelectionMask.from_selected(2, (0, 1))
        b = bath()
        M = build_metric(config, mask, b, 12.0)
        assert np.all(M.indirect_part == 0.0)
        assert M.direct_part[0, 0] == pytest.approx(4.0 * f_diag(12.0, b), rel=1e-12)
        assert M.direct_part[0, 0] == M.direct_part[1, 1]

    def test_zero_time(self):
        config, mask = square_lattice_2d(3, 5.0, (0, 0, 1))
        M = build_metric(config, mask, bath(), 0.0)
        assert np.all(M.matrix == 0.0)
        assert M.validity_flag

    def test_symmetry_exact(self):
        config, _ = square_lattice_2d(3, 4.0, (0, 0, 1))
        mask = SelectionMask.from_selected(9, (0, 4, 8))
        M = build_metric(config, mask, bath(0.3), 20.0)
        np.testing.assert_array_equal(M.direct_part, M.direct_part.T)
        np.testing.assert_array_equal(M.indirect_part, M.indirect_part.T)

    def test_indirect_is_gram_psd(self):
        config, _ = square_lattice_2d(5, 2.0, (0, 0, 1))
        mask = SelectionMask.from_selected(25, (6, 12, 18))
        M = build_metric(config, mask, bath(0.4), 30.0)
        eigs = np.linalg.eigvalsh(M.indirect_part)
        assert eigs.min() >= -1e-14 * max(eigs.max(), 1e-300)

    def test_farfield_lattice_matches_neighbor_sum(self):
        # far-field indirect equals 2 N_nn (alpha t / a^3)^2 once the light
        # cone covers the lattice; N_nn from the neighbor sum is the oracle
        a = 3.0
        config, mask = square_lattice_2d(5, a, (0, 0, 1))
        n_nn = effective_neighbors(config, mask)
        t = 50.0 * a
        M = build_metric(config, mask, bath(0.5), t, kernel_policy=KernelPolicy.FAR_FIELD)
        expected = 2.0 * n_nn * (ALPHA * t / a**3) ** 2
        assert M.indirect_part[0, 0] == pytest.approx(expected, rel=1e-12)
        assert M.indirect_part[0, 0] == pytest.approx(expected, rel=0.2)

    def test_farfield_policy_matches_manual_sum(self):
        config, _ = square_lattice_2d(3, 6.0, (0, 0, 1))
        mask = SelectionMask.from_selected(9, (4, 0))
        b = bath(0.7)
        t = 25.0
        M = build_metric(config, mask, b, t, kernel_policy=KernelPolicy.FAR_FIELD)
        phis = np.array(
            [
                [
                    phi_farfield(t, pair_geometry(config, i, k), b)
                    for k in mask.unobserved
                ]
                for i in mask.selected
            ]
        )
        np.testing.assert_allclose(M.indirect_part, 2.0 * phis @ phis.T, rtol=1e-13)

    def test_quadrature_policy_matches_manual_sum(self):
        config, _ = chain_1d(3, 4.0, 0.9)
        mask = SelectionMask.from_selected(3, (1,))
        b = bath(0.5)
        t = 6.0
        M = build_metric(config, mask, b, t, kernel_policy=KernelPolicy.QUADRATURE)
        phis = np.array(
            [
                reduced_quadrature(
                    t, pair_geometry(config, 1, k), b, TimeKernel.PHI_KERNEL, tol=1e-10
                )
                for k in mask.unobserved
            ]
        )
        assert M.indirect_part[0, 0] == pytest.approx(2.0 * phis @ phis, rel=1e-9)

    def test_quadrature_agrees_with_closed_form_while_direct_dominates(self):
        # kappa r >= 100 for every pair, and t small enough that the direct
        # part carries the matrix norm.  Past that window the in-plane
        # oscillatory contribution (~ t kappa cos(kappa r)/r^2) takes over and
        # the two policies model genuinely different physics.
        config, mask = square_lattice_2d(3, 1000.0, (0, 0, 1))
        b = bath(0.1)
        for t in (1e3, 1e4, 1e5):
            M_closed = build_metric(
                config, mask, b, t, kernel_policy=KernelPolicy.CLOSED_FORM
            )
            M_quad = build_metric(
                config, mask, b, t, kernel_policy=KernelPolicy.QUADRATURE
            )
            scale = np.abs(M_closed.matrix).max()
            diff = np.abs(M_quad.matrix - M_closed.matrix).max()
            assert diff <= 1e-3 * scale

    def test_validity_flag_flips_when_entries_grow(self):
        config, mask = chain_1d(2, 1.0, 0.0)
        b = BathParams(alpha=ALPHA, kappa=1.0)
        small = build_metric(config, mask, b, 3.0, kernel_policy=KernelPolicy.FAR_FIELD)
        big = build_metric(config, mask, b, 40.0, kernel_policy=KernelPolicy.FAR_FIELD)
        assert small.validity_flag
        assert not big.validity_flag
        assert np.abs(big.matrix).max() >= 0.1

    def test_selected_unobserved_coincidence_rejected(self):
        config = AtomConfig(
            positions=[[0, 0, 0], [0, 0, 0], [1, 0, 0]],
            dipole_direction=(0, 0, 1),
            label="bad",
        )
        mask = SelectionMask.from_selected(3, (0,))
        with pytest.raises(GeometryError) as exc_info:
            build_metric(config, mask, bath(), 1.0)
        assert "0" in str(exc_info.value) and "1" in str(exc_info.value)

    def test_mask_out_of_range_rejected(self):
        config, _ = chain_1d(3, 1.0, 0.0)
        mask = SelectionMask.from_selected(6, (5,))
        with pytest.raises(MetricError):
            build_metric(config, mask, bath(), 1.0)

    def test_mask_for_fewer_atoms_rejected(self):
        # a mask over 3 of the 25 atoms would trace out 2 of the 24 spectators
        config, _ = square_lattice_2d(5, 1.0, (0, 0, 1))
        mask = SelectionMask.from_selected(3, (0,))
        with pytest.raises(MetricError, match="mask covers 3 atoms"):
            build_metric(config, mask, bath(), 50.0)

    @pytest.mark.parametrize("side, t", [(3, 1.0), (1, 0.0)])
    def test_string_policy_rejected(self, side, t):
        # also with no unobserved atom or at t = 0, where no phi is evaluated
        config, mask = square_lattice_2d(side, 5.0, (0, 0, 1))
        with pytest.raises(MetricError, match="KernelPolicy member"):
            build_metric(config, mask, bath(), t, kernel_policy="closed")


_PHI_ORACLE = {
    KernelPolicy.CLOSED_FORM: phi_closed,
    KernelPolicy.FAR_FIELD: phi_farfield,
    KernelPolicy.QUADRATURE: phi_exact,
}


def _f_oracle(t, geom, b, tol):
    return reduced_quadrature(t, geom, b, TimeKernel.F_KERNEL, tol=tol)


def oracle_metric(config, mask, b, t, policy):
    """(direct, indirect, valid) at one t from scalar kernels, pair by pair:
    a warm f by the quadrature at 1e-11 of max(conftest.warm_bounds), closed
    lower bounds of the diagonal, so at least as strict as build_metric's
    1e-11 of the diagonal itself, a cold off-diagonal f by the quadrature at
    1e-14 of the diagonal
    (conftest.cold_f_quadrature; every pair here is within its reach)."""
    sel, unobs = list(mask.selected), list(mask.unobserved)
    n = len(sel)
    if t == 0.0:
        return np.zeros((n, n)), np.zeros((n, n)), True
    if b.inv_temperature is None:
        diag = f_diag(t, b)
    else:
        tol = max(1e-11 * max(warm_bounds(t, b)), 1e-300)
        diag = _f_oracle(t, PairGeometry(0.0, 0.0), b, tol)
    f = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if i == j or np.array_equal(config.positions[sel[i]], config.positions[sel[j]]):
                f[i, j] = diag
            else:
                geom = pair_geometry(config, sel[i], sel[j])
                if b.inv_temperature is None:
                    f[i, j] = cold_f_quadrature(t, geom, b, diag)
                else:
                    f[i, j] = _f_oracle(t, geom, b, tol)
    phi = np.array(
        [[_PHI_ORACLE[policy](t, pair_geometry(config, i, k), b) for k in unobs] for i in sel]
    ).reshape(n, len(unobs))
    direct, indirect = 4.0 * f, 2.0 * phi @ phi.T
    return direct, indirect, bool(np.abs(direct + indirect).max() < 0.1)


@st.composite
def engine_scenes(draw):
    """Small chain, lattice or gas; 1-4 selected atoms, perhaps with a
    selected atom doubled onto the same site."""
    kind = draw(st.sampled_from(["chain", "lattice", "gas"]))
    spacing = draw(st.floats(min_value=0.5, max_value=20.0))
    if kind == "chain":
        config, _ = chain_1d(draw(st.integers(2, 6)), spacing, draw(st.floats(0.0, math.pi)))
    elif kind == "lattice":
        tilt = draw(st.floats(0.0, 1.5))
        config, _ = square_lattice_2d(3, spacing, (math.sin(tilt), 0.0, math.cos(tilt)))
    else:
        seed, count = draw(st.integers(0, 2**16)), draw(st.integers(1, 6))
        spec = GasSpec(1e-2, spacing, 3.0 * spacing, seed=seed, fixed_count=count)
        config, _ = sample_gas(spec)
    chosen = draw(
        st.lists(st.integers(0, len(config) - 1), min_size=1, max_size=4, unique=True)
    )
    if len(chosen) < 4 and draw(st.booleans()):
        positions = np.vstack([config.positions, config.positions[chosen[0]]])
        chosen = chosen + [len(config)]
        config = AtomConfig(positions, config.dipole_direction, label="doubled")
    return config, SelectionMask.from_selected(len(config), chosen)


def engine_times(kappa, top):
    """Grids holding 0 and a repeated time."""
    return st.lists(st.floats(0.0, top / kappa), min_size=1, max_size=4).map(
        lambda ts: [0.0] + ts + ts[:1]
    )


def assert_engine_matches_oracle(config, mask, b, times, policy):
    direct, indirect, valid = _assemble(config, mask, b, times, policy)
    assert direct.shape == indirect.shape == (len(times), mask.n_selected, mask.n_selected)
    for k, t in enumerate(times):
        want_d, want_i, want_valid = oracle_metric(config, mask, b, t, policy)
        scale = max(np.abs(want_d).max(), np.abs(want_i).max(), 1e-300)
        np.testing.assert_allclose(direct[k], want_d, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(indirect[k], want_i, rtol=1e-12, atol=1e-12 * scale)
        assert bool(valid[k]) == want_valid
        M = build_metric(config, mask, b, t, kernel_policy=policy)
        np.testing.assert_array_equal(M.direct_part, direct[k])
        np.testing.assert_array_equal(M.indirect_part, indirect[k])
        assert M.validity_flag == bool(valid[k]) and M.time == t


class TestCurveEngine:
    @settings(max_examples=40, deadline=None)
    @given(
        scene=engine_scenes(),
        policy=st.sampled_from(list(KernelPolicy)),
        kappa=st.floats(min_value=0.05, max_value=1.0),
        data=st.data(),
    )
    def test_matches_per_pair_oracle_at_zero_temperature(self, scene, policy, kappa, data):
        config, mask = scene
        times = data.draw(engine_times(kappa, 40.0))
        b = BathParams(alpha=ALPHA, kappa=kappa)
        assert_engine_matches_oracle(config, mask, b, times, policy)

    @settings(max_examples=10, deadline=None)
    @given(
        scene=engine_scenes(),
        policy=st.sampled_from(list(KernelPolicy)),
        kappa=st.floats(min_value=0.1, max_value=1.0),
        data=st.data(),
    )
    def test_matches_per_pair_oracle_at_finite_temperature(self, scene, policy, kappa, data):
        config, mask = scene
        times = data.draw(engine_times(kappa, 3.0))
        b = BathParams(alpha=ALPHA, kappa=kappa, inv_temperature=2.0)
        assert_engine_matches_oracle(config, mask, b, times, policy)

    @pytest.mark.parametrize("inv_temperature", [None, 2.0])
    def test_matches_per_pair_oracle_over_several_key_blocks(self, inv_temperature):
        # 25 atoms under a tilted dipole: 75 distinct pair keys, which fill
        # 3 quadrature blocks at t = 0.1 and 81 at t = 3e3 (the far field
        # keeps the scalar phi oracle cheap; f does not depend on the policy)
        config, _ = square_lattice_2d(9, 10.0, (math.sin(0.7), 0.0, math.cos(0.7)))
        mask = SelectionMask.from_selected(81, sorted(random.Random(1).sample(range(81), 25)))
        b = BathParams(alpha=ALPHA, kappa=0.3, inv_temperature=inv_temperature)
        assert_engine_matches_oracle(config, mask, b, [0.1, 30.0, 3e3], KernelPolicy.FAR_FIELD)

    @pytest.mark.parametrize("policy", list(KernelPolicy))
    def test_flipping_the_dipole_leaves_the_metric_bit_identical(self, policy):
        # u and -u give every pair the same cos^2 theta, so the same keys
        u = np.array([math.sin(0.7), 0.0, math.cos(0.7)])
        b = BathParams(alpha=ALPHA, kappa=0.3)
        times = np.logspace(-1, 4, 9)
        stacks = []
        for direction in (u, -u):
            config, _ = square_lattice_2d(7, 10.0, direction)
            mask = SelectionMask.from_selected(len(config), [3, 10, 24, 30])
            stacks.append(_assemble(config, mask, b, times, policy))
        (d_up, i_up, _), (d_down, i_down, _) = stacks
        assert np.array_equal(d_up, d_down)
        assert np.array_equal(i_up, i_down)

    def test_quadrature_error_names_first_pair_of_its_key(self):
        # (2,1) and (1,0) share a key; under a warm bath both keys exceed the
        # panel budget at t = 1, where the diagonal fits
        config, _ = chain_1d(3, 1e7, 0.3)
        mask = SelectionMask.from_selected(3, [2, 1, 0])
        b = BathParams(alpha=ALPHA, kappa=1.0, inv_temperature=2.0)
        with pytest.raises(QuadratureError, match=r"direct pair \(2,1\)"):
            _assemble(config, mask, b, [0.0, 1.0])

    def test_warm_diagonal_over_budget_names_no_pair(self):
        # kappa t / pi = 3.2e6 panels at r = 0: the diagonal has no pair
        config, mask = chain_1d(1, 1e7, 0.3)
        b = BathParams(alpha=ALPHA, kappa=1.0, inv_temperature=2.0)
        with pytest.raises(QuadratureError, match=r"^oscillation count exceeds 262144 panels$"):
            build_metric(config, mask, b, 1e7)

    @pytest.mark.parametrize(
        "selected, pair, policy",
        [
            ([0, 1], "(0,1)", KernelPolicy.CLOSED_FORM),
            ([1, 0], "(1,0)", KernelPolicy.CLOSED_FORM),
            # the phi policy does not reach the f route
            ([0, 1], "(0,1)", KernelPolicy.QUADRATURE),
        ],
        ids=["selected0-(0,1)", "selected1-(1,0)", "quadrature_policy"],
    )
    def test_warm_off_diagonal_over_budget_names_its_pair(self, selected, pair, policy):
        config, _ = chain_1d(2, 1e7, 0.3)
        mask = SelectionMask.from_selected(2, selected)
        b = BathParams(alpha=ALPHA, kappa=1.0, inv_temperature=2.0)
        with pytest.raises(QuadratureError) as info:
            build_metric(config, mask, b, 1.0, kernel_policy=policy)
        assert str(info.value).startswith(f"direct pair {pair}: oscillation count exceeds")
        assert info.value.achieved_error == math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_warm_panel_count_past_the_float_range_is_over_budget(self):
        # kappa t / pi = 5.4e307 panels for the diagonal: the block widths
        # (15 nodes per panel) would overflow, but the count is over budget
        config, mask = chain_1d(1, 10.0, 0.3)
        b = BathParams(alpha=ALPHA, kappa=1.0, inv_temperature=2.0)
        with pytest.raises(QuadratureError, match=r"^oscillation count exceeds 262144 panels$"):
            build_metric(config, mask, b, 1.7e308)

    @pytest.mark.parametrize("beta, t", [(1.0, 7.5e5), (4.0, 6.2e5)])
    def test_warm_diagonal_near_the_panel_wall(self, beta, t):
        # the error estimate's rounding floor grows with kappa t and nears
        # 1e-11 of f here, so 1e-11 of a closed lower bound of the diagonal
        # stalls (B at beta kappa = 1, even max(B, H) at 4), while 1e-11 of
        # key 0's own value converges
        config, mask = chain_1d(1, 10.0, 0.3)
        b = BathParams(1.0, 1.0, inv_temperature=beta)
        f = build_metric(config, mask, b, t).direct_part[0, 0] / 4.0
        cold, hot = warm_bounds(t, b)
        assert max(cold, hot) <= f <= hot + cold * math.tanh(0.5 * beta)

    def test_warm_diagonal_tolerance_scales_with_the_bath(self):
        # an absolute tol of 1e-10 would be a stall at alpha = 1e300; the
        # tolerance, 1e-11 of the diagonal, scales with alpha, as f does
        config, mask = chain_1d(1, 10.0, 0.3)
        huge = build_metric(config, mask, BathParams(1e300, 0.1, inv_temperature=2.0), 1.0)
        unit = build_metric(config, mask, BathParams(1.0, 0.1, inv_temperature=2.0), 1.0)
        assert huge.direct_part[0, 0] == pytest.approx(1e300 * unit.direct_part[0, 0], rel=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "kappa, beta, t", [(1e3, 1e306, 1e-3), (1e30, 1.7e308, 1e-30)], ids=["1e306", "1.7e308"]
    )
    def test_warm_factor_where_beta_q_overflows_is_the_cold_limit(self, kappa, beta, t):
        # beta q / 2 overflows at the top nodes and exceeds 1e305 at the
        # rest, so coth = 1: f is the zero-temperature diagonal to the
        # quadrature's 1e-11 of it
        config, mask = chain_1d(1, 10.0, 0.3)
        warm = build_metric(config, mask, BathParams(ALPHA, kappa, inv_temperature=beta), t)
        cold = f_diag(t, BathParams(ALPHA, kappa))
        assert warm.direct_part[0, 0] == pytest.approx(4.0 * cold, rel=1e-10)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_warm_factor_at_nodes_rounded_to_zero(self):
        # a subnormal kappa rounds quadrature nodes to q = 0, where the
        # factor q sin^2(qt/2) / tanh(beta q / 2) has the limit 0
        config, mask = chain_1d(1, 10.0, 0.3)
        b = BathParams(ALPHA, 5e-324, inv_temperature=1e16)
        assert build_metric(config, mask, b, 1.0).direct_part[0, 0] == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_warm_f_where_two_over_beta_nears_the_float_range(self):
        # 2 sin^2(qt/2) / tanh(beta q / 2) alone overflows at beta = 3e-308;
        # q times it, and f, do not. With beta kappa that small,
        # q coth(beta q / 2) = 2 / beta to rounding, so
        # 4 f = (16 alpha / 3 pi beta)(kappa - sin(kappa t) / t)
        alpha, kappa, beta, t = 1e-20, 1.0, 3e-308, 10.0
        config, mask = chain_1d(1, 10.0, 0.3)
        M = build_metric(config, mask, BathParams(alpha, kappa, inv_temperature=beta), t)
        hot = 16.0 * alpha / (3.0 * math.pi * beta) * (kappa - math.sin(kappa * t) / t)
        assert M.direct_part[0, 0] == pytest.approx(hot, rel=1e-12)

    def test_warm_f_is_one_quadrature_call_per_positive_time(self, monkeypatch):
        # the whole key table, diagonal included, in one call per time
        calls = []
        quadrature = kernels._quadrature_rt

        def spy(t, r, *args, **kwargs):
            calls.append((t, r.size))
            return quadrature(t, r, *args, **kwargs)

        monkeypatch.setattr(kernels, "_quadrature_rt", spy)
        config, _ = chain_1d(5, 10.0, 0.3)
        mask = SelectionMask.from_selected(5, [0, 1, 3])  # keys at r = 0, 10, 20, 30
        times = [0.0, 0.5, 3.0, 40.0]
        _assemble(config, mask, BathParams(ALPHA, 0.3, inv_temperature=2.0), times)
        assert calls == [(t, 4) for t in times[1:]]

    def test_cold_f_runs_no_quadrature(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("the quadrature ran")

        monkeypatch.setattr(kernels, "_quadrature_rt", no_quadrature)
        config, _ = square_lattice_2d(5, 10.0, (math.sin(0.7), 0.0, math.cos(0.7)))
        mask = SelectionMask.from_selected(25, [0, 6, 12, 13, 24])
        times = np.logspace(-6, 11, 18)
        direct, indirect, _ = _assemble(config, mask, BathParams(ALPHA, 0.3), times)
        assert np.all(np.isfinite(direct)) and np.all(direct.diagonal(axis1=1, axis2=2) > 0)
        with pytest.raises(AssertionError, match="the quadrature ran"):
            _assemble(config, mask, BathParams(ALPHA, 0.3, inv_temperature=2.0), times[:1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kappa", [1.0, 10.0])
    def test_extreme_alpha_at_tiny_times_gives_finite_f(self, kappa):
        # alpha kappa^2 / pi overflows at alpha = 1.7e308 and kappa 10, while
        # f's shape at t = 1e-200 underflows to 0
        config, _ = chain_1d(2, 3.0, 0.4)
        mask = SelectionMask.from_selected(2, [0, 1])
        b = BathParams(alpha=1.7e308, kappa=kappa)
        M = build_metric(config, mask, b, 1e-200)
        assert np.all(M.direct_part == 0.0)
        assert f_diag(1e-200, b) == 0.0
        # where f is representable it is kept: 1e-150 leaves (kappa t)^2/8 = 1e-301
        direct, _, _ = _assemble(config, mask, BathParams(1.0, kappa), [1e-150])
        scaled = build_metric(config, mask, b, 1e-150).direct_part
        np.testing.assert_allclose(scaled, 1.7e308 * direct[0], rtol=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_f_past_the_float_range_is_a_non_finite_metric(self):
        # alpha kappa^2 / pi = 5e309: f itself overflows, without a warning
        config, _ = chain_1d(2, 3.0, 0.4)
        mask = SelectionMask.from_selected(2, [0, 1])
        with pytest.raises(MetricError, match=r"not finite at t = 1$"):
            build_metric(config, mask, BathParams(alpha=1.7e308, kappa=10.0), 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_entries_summing_past_the_float_range_are_a_metric_error(self):
        # two selected atoms, each with 4 f = 1.3e308: every entry of M is
        # finite, but its trace, and the CLI's d_direct, are not
        config, _ = chain_1d(2, 10.0, 0.3)
        mask = SelectionMask.from_selected(2, [0, 1])
        with pytest.raises(MetricError, match=r"^direct or indirect part of M is not finite at t = 1$"):
            _assemble(config, mask, BathParams(alpha=3e306, kappa=10.0), [0.0, 1.0, 1e3])

    def test_overflowing_gram_product_is_a_metric_error(self):
        # phi ~ alpha = 1e300 squares past the float range in the Gram product
        config, _ = chain_1d(3, 10.0, 0.3)
        mask = SelectionMask.from_selected(3, [0, 1])
        b = BathParams(alpha=1e300, kappa=0.1)
        with pytest.raises(MetricError, match=r"not finite at t = 1$"):
            _assemble(config, mask, b, [0.0, 1.0, 10.0])

    def test_times_validated(self):
        config, mask = chain_1d(2, 1.0, 0.0)
        for times in ([1.0, -1.0], [float("nan")], [0.0, float("inf")]):
            with pytest.raises(MetricError):
                _assemble(config, mask, bath(), times)


class TestDistance:
    def test_same_codeword_is_zero(self):
        M = synthetic(np.eye(4))
        s = (1, -1, 1, 1)
        assert distance(M, s, s) == 0.0

    def test_identity_gives_sqrt_hamming(self):
        M = synthetic(np.eye(5))
        s = (1, 1, 1, 1, 1)
        s2 = (-1, 1, -1, 1, -1)
        assert distance(M, s, s2) == pytest.approx(math.sqrt(3), rel=1e-14)
        differing = sum(a != b for a, b in zip(s, s2))
        assert distance(M, s, s2) ** 2 == pytest.approx(differing, rel=1e-14)

    def test_dimension_mismatch(self):
        M = synthetic(np.eye(3))
        with pytest.raises(MetricError):
            distance(M, (1, 1, 1), (1, 1))

    def test_bad_entries_rejected(self):
        M = synthetic(np.eye(2))
        with pytest.raises(MetricError):
            distance(M, (1, 0), (1, 1))
        # an entry is never truncated to -1 or +1
        with pytest.raises(MetricError, match=r"-1 or \+1"):
            distance(M, (1.5, 1), (1, 1))

    def test_offdiagonal_distinguishes_global_flip_from_partial(self):
        # three close atoms: flipping all three differs from flipping two,
        # which only happens because off-diagonal entries are nonzero
        config, _ = chain_1d(3, 1.0, 0.2)
        mask = SelectionMask.from_selected(3, (0, 1, 2))
        M = build_metric(config, mask, BathParams(alpha=ALPHA, kappa=1.0), 2.0)
        d_all = distance(M, (1, 1, 1), (-1, -1, -1))
        d_two = distance(M, (1, 1, -1), (-1, -1, 1))
        assert abs(d_all - d_two) > 1e-3 * d_all


class TestDecoherence:
    def test_single_flip_reads_diagonal(self):
        config, mask = square_lattice_2d(3, 2.0, (0, 0, 1))
        M = build_metric(config, mask, bath(0.6), 8.0)
        result = decoherence(M, (1,), (-1,))
        assert result.value == pytest.approx(M.matrix[0, 0], rel=1e-14)
        assert result.valid == M.validity_flag

    def test_hamming_limit_of_two_flips(self):
        # kappa r = 1e4 and early times: the metric is effectively diagonal,
        # so a two-bit flip decoheres exactly twice as fast as one bit
        config, _ = chain_1d(2, 1e5, 0.5)
        mask = SelectionMask.from_selected(2, (0, 1))
        b = bath(0.1)
        t = 1.0 / b.kappa
        M = build_metric(config, mask, b, t)
        assert abs(M.matrix[0, 1]) <= 1e-3 * M.matrix[0, 0]
        d_two = decoherence(M, (1, 1), (-1, -1)).value
        d_one = decoherence(M, (1, 1), (-1, 1)).value
        assert d_two == pytest.approx(2.0 * d_one, rel=1e-2)


class TestChecks:
    def test_nonnegative_identity(self):
        report = check_nonnegative(synthetic(np.eye(3)), trials=500, seed=1)
        assert report.passed
        assert report.min_form >= 0.0

    def test_nonnegative_built_tensor(self):
        config, _ = square_lattice_2d(3, 2.0, (0, 0, 1))
        mask = SelectionMask.from_selected(9, (0, 4, 8))
        M = build_metric(config, mask, bath(0.4), 15.0)
        report = check_nonnegative(M, trials=1000, seed=2)
        assert report.passed
        assert report.indirect_min_eigenvalue >= -report.tolerance

    def test_triangle_identity_is_sqrt_hamming(self):
        report = check_triangle(synthetic(np.eye(6)), triples=2000, seed=3)
        assert report.passed
        assert report.max_violation <= report.tolerance

    def test_triangle_zero_tensor(self):
        report = check_triangle(synthetic(np.zeros((4, 4))), triples=500, seed=4)
        assert report.passed

    def test_triangle_built_tensor(self):
        config, _ = chain_1d(5, 2.0, 0.3)
        mask = SelectionMask.from_selected(5, (0, 2, 4))
        M = build_metric(config, mask, bath(0.5), 10.0)
        report = check_triangle(M, triples=5000, seed=5)
        assert report.passed

    def test_negative_forms_fail_or_raise(self):
        # trace 0 makes epsilon 0, so every negative form is beyond tolerance
        M = synthetic(np.diag([1.0, -1.0]))
        report = check_nonnegative(M, trials=200, seed=1)
        assert not report.passed and report.min_form < 0.0
        with pytest.raises(MetricError, match="below -epsilon"):
            distance(M, (1, 1), (1, -1))
        with pytest.raises(MetricError, match="below -epsilon"):
            check_triangle(M, triples=200, seed=2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_forms_past_the_float_range_raise(self):
        # M and its trace are finite, but a difference of codewords
        # (entries +-2) or a normal vector takes x^T M x past the float range
        M = synthetic(np.eye(2) * 5e307)
        with pytest.raises(MetricError, match="quadratic form of M is not finite"):
            distance(M, (1, 1), (-1, -1))
        with pytest.raises(MetricError, match="quadratic form of M is not finite"):
            check_triangle(M, triples=10, seed=2)
        with pytest.raises(MetricError, match="quadratic form of M is not finite"):
            check_nonnegative(M, trials=200, seed=1)

    def test_triangle_random_gram_tensors(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n))
            direct = a @ a.T * 1e-4
            g = rng.standard_normal((n, n + 2))
            indirect = g @ g.T * 1e-4
            M = synthetic(direct, indirect)
            assert check_triangle(M, triples=1000, seed=7).passed
            assert check_nonnegative(M, trials=1000, seed=7).passed


def _einsum_forms(matrix, x):
    """x^T matrix x through the einsum contraction, the oracle of _forms."""
    return np.einsum("...i,...i->...", x, np.einsum("ij,...j->...i", matrix, x))


def _einsum_report(M, trials, seed_nonneg, triples, seed_triangle):
    """The CLI's two check lines at %.6g, from float64 codewords and einsum
    forms, as check_nonnegative and check_triangle computed them before they
    went through BLAS and int32 draws."""
    x = np.random.Generator(np.random.Philox(key=seed_nonneg)).standard_normal((trials, M.n))
    total, direct = _einsum_forms(M.matrix, x), _einsum_forms(M.direct_part, x)
    eigs = np.linalg.eigvalsh(M.indirect_part)
    nn_passed = (
        float(total.min()) >= -M.epsilon
        and float(direct.min()) >= -1e-10 * abs(float(np.trace(M.direct_part)))
        and float(eigs[0]) >= -1e-12 * max(float(eigs[-1]), 0.0)
    )
    rng = np.random.Generator(np.random.Philox(key=seed_triangle))
    s = rng.integers(0, 2, size=(3, triples, M.n)).astype(float) * 2.0 - 1.0

    def d(a, b):
        q = _einsum_forms(M.matrix, s[a] - s[b])
        assert q.min() >= -M.epsilon
        return 0.5 * np.sqrt(np.where(q < 0.0, 0.0, q))

    worst = float((d(0, 2) - d(0, 1) - d(1, 2)).max())
    trace = max(M.trace, 0.0)
    tri_passed = worst <= 1e-10 * max(trace, M.n * math.sqrt(trace))
    return _report_lines(nn_passed, float(total.min()), tri_passed, worst)


def _report_lines(nn_passed, min_form, tri_passed, max_violation):
    return [
        ("PASS" if nn_passed else "FAIL") + f" (min quadratic form = {min_form:.6g})",
        ("PASS" if tri_passed else "FAIL") + f" (max violation = {max_violation:.6g})",
    ]


def _codeword_tensor():
    """M at the last time of the 40-atom codeword curve: 40 of the 81 atoms
    of a 9 x 9 lattice at spacing 10, picked by random.Random(0), kappa 0.1,
    quadrature policy, t = 1e4."""
    config, _ = square_lattice_2d(9, 10.0, (0, 0, 1))
    mask = SelectionMask.from_selected(81, sorted(random.Random(0).sample(range(81), 40)))
    b = BathParams(alpha=0.0072973525693, kappa=0.1)
    return build_metric(config, mask, b, 1e4, KernelPolicy.QUADRATURE)


class TestCheckPath:
    def test_forms_match_the_einsum_oracle(self):
        # a 1-D x as distance passes it, (k, n) stacks (3000 rows of 40 span
        # several BLAS blocks), and a non-symmetric M
        rng = np.random.default_rng(12)
        for n in (1, 3, 40):
            a = rng.standard_normal((n, n))
            skew = rng.standard_normal((n, n))
            for matrix in (a @ a.T + n * np.eye(n), a @ a.T + n * np.eye(n) + skew - skew.T):
                for shape in ((n,), (1, n), (7, n), (3000, n)):
                    x = rng.standard_normal(shape)
                    got = _forms(matrix, x)
                    assert got.shape == shape[:-1]
                    np.testing.assert_allclose(got, _einsum_forms(matrix, x), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("seed", [0, 1, 20240812, 2**127 + 3])
    def test_int32_codeword_draw_equals_the_int64_draw(self, seed):
        # a numpy change to Generator.integers would move every triangle report
        for shape in ((3, 1, 1), (3, 1000, 40), (3, 7, 81), (3, 0, 5)):
            wide = np.random.Generator(np.random.Philox(key=seed)).integers(0, 2, size=shape)
            rng = np.random.Generator(np.random.Philox(key=seed))
            narrow = rng.integers(0, 2, size=shape, dtype=np.int32)
            assert narrow.dtype == np.int32 and np.array_equal(narrow, wide)

    def test_codeword_reports_match_the_einsum_path(self):
        M = _codeword_tensor()
        for seed_nonneg, seed_triangle in ((_CHECK_SEED_NONNEG, _CHECK_SEED_TRIANGLE), (0, 0)):
            nn = check_nonnegative(M, trials=_CHECK_TRIALS, seed=seed_nonneg)
            tri = check_triangle(M, triples=_CHECK_TRIPLES, seed=seed_triangle)
            got = _report_lines(nn.passed, nn.min_form, tri.passed, tri.max_violation)
            assert nn.passed and tri.passed
            assert got == _einsum_report(
                M, _CHECK_TRIALS, seed_nonneg, _CHECK_TRIPLES, seed_triangle
            )

    @pytest.mark.parametrize(
        "count, seed, match",
        [
            (50, 1.5, "seed"),
            (50, -1, "seed"),
            (50, 2**128, "seed"),
            (50, True, "seed"),
            (50, np.float64(3.0), "seed"),
            (2.5, 1, "must be an integer >= 1"),
            (True, 1, "must be an integer >= 1"),
            (0, 1, "must be an integer >= 1"),
            (np.int64(-3), 1, "must be an integer >= 1"),
        ],
    )
    def test_bad_counts_and_seeds_raise_before_drawing(self, count, seed, match):
        M = synthetic(np.eye(3))
        with pytest.raises(MetricError, match=match):
            check_nonnegative(M, trials=count, seed=seed)
        with pytest.raises(MetricError, match=match):
            check_triangle(M, triples=count, seed=seed)

    def test_numpy_integers_and_the_whole_key_range_are_seeds(self):
        M = synthetic(np.diag([1.0, 2.0, 3.0]))
        assert check_triangle(M, np.int32(40), np.uint64(7)) == check_triangle(M, 40, 7)
        assert check_nonnegative(M, np.int64(40), np.int16(7)) == check_nonnegative(M, 40, 7)
        assert check_triangle(M, 5, 2**128 - 1).passed
        assert check_nonnegative(M, 5, 2**128 - 1).passed


class TestNullPairs:
    def test_coincident_selected_pair_gives_null_direction(self):
        self._check_null_direction(None)

    def test_coincident_selected_pair_gives_null_direction_warm(self):
        self._check_null_direction(2.0)

    @staticmethod
    def _check_null_direction(beta):
        # two selected atoms at the same site see identical kernels, rows of
        # M coincide, and (1,-1) vs (-1,1) becomes a zero-distance direction;
        # their pair shares the diagonal's r = 0 key on both f routes
        # (zero temperature for beta None, the thermal route otherwise)
        config = AtomConfig(
            positions=[[0, 0, 0], [0, 0, 0], [4, 0, 0], [0, 5, 0]],
            dipole_direction=(0, 0, 1),
            label="degenerate",
        )
        mask = SelectionMask.from_selected(4, (0, 1))
        M = build_metric(config, mask, BathParams(ALPHA, 0.5, inv_temperature=beta), 9.0)
        assert np.all(M.direct_part == M.direct_part[0, 0]) and M.direct_part[0, 0] > 0
        np.testing.assert_array_equal(M.matrix[0], M.matrix[1])
        assert distance(M, (1, -1), (-1, 1)) == 0.0
        # eigen-decomposition oracle: null eigenvector along (1, -1)
        eigvals, eigvecs = np.linalg.eigh(M.matrix)
        null_vec = eigvecs[:, np.argmin(np.abs(eigvals))]
        assert abs(eigvals).min() <= 1e-14 * max(M.trace, 1e-300)
        assert abs(null_vec @ np.array([1.0, -1.0]) / math.sqrt(2)) == pytest.approx(
            1.0, abs=1e-10
        )


class TestMonotonicity:
    def test_direct_decoherence_growth_with_ringing_allowance(self):
        # d(t) = 4 f(t) rings around the plateau with envelope ~6/(kappa t),
        # so successive samples may dip by at most that fraction; before the
        # plateau (kappa t < 1) growth is strictly monotone
        b = BathParams(alpha=ALPHA, kappa=1.0)
        t = np.geomspace(1e-2, 1e3, 81)
        d = 4.0 * f_diag(t, b)
        x = b.kappa * t
        for i in range(len(t) - 1):
            if x[i + 1] < 1.0:
                assert d[i + 1] > d[i]
            else:
                assert d[i + 1] >= d[i] * (1.0 - 6.0 / x[i])


@settings(max_examples=25, deadline=None)
@given(
    side=st.sampled_from([1, 3]),
    spacing=st.floats(min_value=1.0, max_value=50.0),
    kappa=st.floats(min_value=0.05, max_value=1.0),
    t_scale=st.floats(min_value=0.01, max_value=100.0),
)
def test_metric_properties_hold_for_random_lattices(side, spacing, kappa, t_scale):
    config, mask = square_lattice_2d(side, spacing, (0, 0, 1))
    b = BathParams(alpha=ALPHA, kappa=kappa)
    M = build_metric(config, mask, b, t_scale / kappa)
    assert check_nonnegative(M, trials=200, seed=10).passed
    assert check_triangle(M, triples=200, seed=11).passed
