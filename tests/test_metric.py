import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmtsim.asymptotics import effective_neighbors
from dmtsim.geometry import (
    AtomConfig,
    GeometryError,
    SelectionMask,
    chain_1d,
    pair_geometry,
    square_lattice_2d,
)
from dmtsim.kernels import (
    BathParams,
    QuadratureError,
    TimeKernel,
    f_diag,
    phi_farfield,
    reduced_quadrature,
)
from dmtsim.metric import (
    Codeword,
    KernelPolicy,
    MetricError,
    MetricTensor,
    build_metric,
    check_nonnegative,
    check_triangle,
    decoherence,
    distance,
    find_null_pairs,
    hamming,
    metric_from_csv,
    metric_to_csv,
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
        assert np.abs(big.matrix).max() >= big.validity_threshold

    def test_selected_unobserved_coincidence_rejected(self):
        config = AtomConfig(
            positions=[[0, 0, 0], [0, 0, 0], [1, 0, 0]],
            dipole_direction=(0, 0, 1),
            label="bad",
        )
        mask = SelectionMask(selected=(0,), unobserved=(1, 2))
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
        mask = SelectionMask(selected=(5,), unobserved=())
        with pytest.raises(MetricError):
            build_metric(config, mask, bath(), 1.0)


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
        assert distance(M, s, s2) ** 2 == pytest.approx(hamming(s, s2), rel=1e-14)

    def test_dimension_mismatch(self):
        M = synthetic(np.eye(3))
        with pytest.raises(MetricError):
            distance(M, (1, 1, 1), (1, 1))

    def test_bad_entries_rejected(self):
        M = synthetic(np.eye(2))
        with pytest.raises(MetricError):
            distance(M, (1, 0), (1, 1))

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


class TestHamming:
    def test_trivial(self):
        assert hamming((1, 1, 1), (1, 1, 1)) == 0
        assert hamming((1, -1), (-1, 1)) == 2

    def test_random_recount(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = rng.integers(1, 12)
            s = rng.choice([-1, 1], size=n)
            s2 = rng.choice([-1, 1], size=n)
            assert hamming(tuple(s), tuple(s2)) == int(np.sum(s != s2))


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
    def test_identity_has_none(self):
        assert find_null_pairs(synthetic(np.eye(3))) == []

    def test_coincident_selected_pair_gives_null_direction(self):
        # two selected atoms at the same site see identical kernels, rows of
        # M coincide, and (1,-1) vs (-1,1) becomes a zero-distance direction
        config = AtomConfig(
            positions=[[0, 0, 0], [0, 0, 0], [4, 0, 0], [0, 5, 0]],
            dipole_direction=(0, 0, 1),
            label="degenerate",
        )
        mask = SelectionMask(selected=(0, 1), unobserved=(2, 3))
        M = build_metric(config, mask, bath(0.5), 9.0)
        np.testing.assert_array_equal(M.matrix[0], M.matrix[1])
        pairs = find_null_pairs(M)
        assert (Codeword((1, -1)), Codeword((-1, 1))) in pairs
        assert distance(M, (1, -1), (-1, 1)) == 0.0
        # eigen-decomposition oracle: null eigenvector along (1, -1)
        eigvals, eigvecs = np.linalg.eigh(M.matrix)
        null_vec = eigvecs[:, np.argmin(np.abs(eigvals))]
        assert abs(eigvals).min() <= 1e-14 * max(M.trace, 1e-300)
        assert abs(null_vec @ np.array([1.0, -1.0]) / math.sqrt(2)) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_refuses_large_n(self):
        M = synthetic(np.eye(13))
        with pytest.raises(MetricError):
            find_null_pairs(M, max_n=12)


class TestSerialization:
    def test_csv_round_trip(self):
        config, mask = square_lattice_2d(3, 2.0, (0, 0, 1))
        M = build_metric(config, mask, bath(0.8), 17.0)
        t, valid, matrix = metric_from_csv(metric_to_csv(M))
        assert t == M.time
        assert valid == M.validity_flag
        np.testing.assert_array_equal(matrix, M.matrix)


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
