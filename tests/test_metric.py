import math
import random

import numpy as np
import pytest
from conftest import pair_geometry
from hypothesis import given, settings, strategies as st

from dmtsim.asymptotics import effective_neighbors
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

    def test_kernel_error_carries_pair_indices(self):
        config, _ = chain_1d(2, 1e7, 0.3)
        mask = SelectionMask.from_selected(2, [0, 1])
        b = BathParams(alpha=ALPHA, kappa=1.0)
        with pytest.raises(QuadratureError) as exc_info:
            build_metric(config, mask, b, 1e7, kernel_policy=KernelPolicy.QUADRATURE)
        assert "pair" in str(exc_info.value)

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
    """(direct, indirect, valid) at one t from scalar kernels, pair by pair,
    with build_metric's documented quadrature tolerances."""
    sel, unobs = list(mask.selected), list(mask.unobserved)
    n = len(sel)
    if t == 0.0:
        return np.zeros((n, n)), np.zeros((n, n)), True
    if b.inv_temperature is None:
        diag = f_diag(t, b)
    else:
        diag = _f_oracle(t, PairGeometry(0.0, 0.0), b, 1e-10)
        if diag > 0:
            diag = _f_oracle(t, PairGeometry(0.0, 0.0), b, max(1e-11 * diag, 1e-18))
    f = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if i == j or np.array_equal(config.positions[sel[i]], config.positions[sel[j]]):
                f[i, j] = diag
            else:
                geom = pair_geometry(config, sel[i], sel[j])
                f[i, j] = _f_oracle(t, geom, b, max(1e-11 * diag, 1e-300))
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
        # (2,1) and (1,0) share a key; both keys exceed the panel budget
        config, _ = chain_1d(3, 1e7, 0.3)
        mask = SelectionMask.from_selected(3, [2, 1, 0])
        b = BathParams(alpha=ALPHA, kappa=1.0)
        with pytest.raises(QuadratureError, match=r"direct pair \(2,1\)"):
            _assemble(config, mask, b, [0.0, 1e7])

    def test_warm_diagonal_over_budget_names_no_pair(self):
        # kappa t / pi = 3.2e6 panels at r = 0: the diagonal has no pair
        config, mask = chain_1d(1, 1e7, 0.3)
        b = BathParams(alpha=ALPHA, kappa=1.0, inv_temperature=2.0)
        with pytest.raises(QuadratureError, match=r"^oscillation count exceeds 262144 panels$"):
            build_metric(config, mask, b, 1e7)

    @pytest.mark.parametrize("selected, pair", [([0, 1], "(0,1)"), ([1, 0], "(1,0)")])
    def test_warm_off_diagonal_over_budget_names_its_pair(self, selected, pair):
        config, _ = chain_1d(2, 1e7, 0.3)
        mask = SelectionMask.from_selected(2, selected)
        b = BathParams(alpha=ALPHA, kappa=1.0, inv_temperature=2.0)
        with pytest.raises(QuadratureError) as info:
            build_metric(config, mask, b, 1.0)
        assert str(info.value).startswith(f"direct pair {pair}: oscillation count exceeds")
        assert info.value.achieved_error == math.inf

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
