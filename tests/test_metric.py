import math
import random
import tracemalloc

import numpy as np
import pytest
from conftest import cold_f_quadrature, pair_geometry, warm_bounds
from hypothesis import given, settings, strategies as st

from dmtsim import kernels, metric
from dmtsim.asymptotics import effective_neighbors
from dmtsim.cli import (
    _CHECK_SEED_NONNEG,
    _CHECK_SEED_TRIANGLE,
    _CHECK_TRIALS,
    _CHECK_TRIPLES,
    run,
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


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def assert_curve_is_build_metric(config, mask, b, times, policy):
    """The curve's contract with build_metric. Bit for bit: the engine's
    d_direct, d_indirect and valid at every time are those of a one-time
    engine run at that time, and its final tensor is build_metric at the
    last time. Within rounding: each sum is within 1e-13 times the sum of
    the one-time tensor's |entries| of that tensor's entry sum, since the
    engine sums Phi as ||P^T 1||^2, not over the Gram product's entries.
    Returns the one-time tensors."""
    d_direct, d_indirect, valid, final = _assemble(config, mask, b, times, policy)
    assert d_direct.shape == d_indirect.shape == valid.shape == (len(times),)
    singles = [_assemble(config, mask, b, [t], policy) for t in times]
    np.testing.assert_array_equal(_bits(d_direct), _bits([one[0][0] for one in singles]))
    np.testing.assert_array_equal(_bits(d_indirect), _bits([one[1][0] for one in singles]))
    assert valid.tolist() == [bool(one[2][0]) for one in singles]
    tensors = [one[3] for one in singles]
    assert [M.time for M in tensors] == [float(t) for t in times]
    last = build_metric(config, mask, b, times[-1], kernel_policy=policy)
    np.testing.assert_array_equal(_bits(final.direct_part), _bits(last.direct_part))
    np.testing.assert_array_equal(_bits(final.indirect_part), _bits(last.indirect_part))
    assert (final.time, final.validity_flag) == (last.time, last.validity_flag)
    for column, name in ((d_direct, "direct_part"), (d_indirect, "indirect_part")):
        parts = [getattr(M, name) for M in tensors]
        sizes = np.array([np.abs(part).sum() for part in parts])
        assert np.all(np.abs(column - [part.sum() for part in parts]) <= 1e-13 * sizes)
    return tensors


def assert_engine_matches_oracle(config, mask, b, times, policy):
    tensors = assert_curve_is_build_metric(config, mask, b, times, policy)
    for t, M in zip(times, tensors):
        want_d, want_i, want_valid = oracle_metric(config, mask, b, t, policy)
        scale = max(np.abs(want_d).max(), np.abs(want_i).max(), 1e-300)
        np.testing.assert_allclose(M.direct_part, want_d, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(M.indirect_part, want_i, rtol=1e-12, atol=1e-12 * scale)
        assert M.validity_flag == want_valid


def block_scene(scene):
    """(config, mask, times) of a curve that spans several kernel blocks.
    lattice: 12 selected of 49 under a tilted dipole, 46 phi keys; gas: 28
    selected of 30 random atoms, 379 f keys. The grid holds zeros and a
    repeated time."""
    if scene == "lattice":
        config, _ = square_lattice_2d(7, 10.0, (math.sin(0.7), 0.0, math.cos(0.7)))
        mask = SelectionMask.from_selected(49, [0, 3, 8, 10, 17, 24, 25, 31, 38, 40, 45, 48])
    else:
        positions = np.random.default_rng(7).uniform(0.0, 40.0, size=(30, 3))
        config = AtomConfig(positions, np.array([0.0, 0.6, 0.8]))
        mask = SelectionMask.from_selected(30, range(28))
    times = np.geomspace(1e-2, 1e5, 200)
    times[[0, 95, 150]] = 0.0
    times[120] = times[119]
    return config, mask, times


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

    def test_matches_per_pair_oracle_where_the_edge_terms_vanish(self):
        # a two-atom scene under QUADRATURE at kappa t = 2^-52, where phi's
        # cutoff-edge terms are of order (kappa t)^3 and phi itself about
        # 1e-51: the engine's arrays and the oracle's scalars must agree to
        # 1e-12 there, which needs edge terms free of cancellation; 100
        # seeded separations with |r| in [0.5, 2] in random directions
        rng = np.random.default_rng(2**52)
        b = BathParams(alpha=ALPHA, kappa=1.0)
        mask = SelectionMask.from_selected(2, [0])
        times = [0.0, 2.0**-52, 2.0**-52]
        for _ in range(100):
            direction = rng.normal(size=3)
            r = rng.uniform(0.5, 2.0) * direction / np.linalg.norm(direction)
            start = rng.uniform(-5.0, 5.0, size=3)
            config = AtomConfig(np.array([start, start + r]), np.array([0.0, 0.0, 1.0]))
            assert_engine_matches_oracle(config, mask, b, times, KernelPolicy.QUADRATURE)

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
        curves, tensors = [], []
        for direction in (u, -u):
            config, _ = square_lattice_2d(7, 10.0, direction)
            mask = SelectionMask.from_selected(len(config), [3, 10, 24, 30])
            curves.append(_assemble(config, mask, b, times, policy)[:3])
            tensors.append([build_metric(config, mask, b, t, policy) for t in times])
        for up, down in zip(*curves):
            np.testing.assert_array_equal(_bits(up), _bits(down))
        for up, down in zip(*tensors):
            np.testing.assert_array_equal(_bits(up.direct_part), _bits(down.direct_part))
            np.testing.assert_array_equal(_bits(up.indirect_part), _bits(down.indirect_part))

    @pytest.mark.bitwise
    @pytest.mark.parametrize("policy", list(KernelPolicy))
    @pytest.mark.parametrize("scene", ["lattice", "gas"])
    def test_curve_columns_are_build_metric_at_every_time(self, scene, policy):
        config, mask, times = block_scene(scene)
        assert_curve_is_build_metric(config, mask, BathParams(ALPHA, 0.3), times, policy)

    def test_engine_memory_does_not_grow_with_the_time_grid(self):
        # 40 selected of 81 atoms, whose n x n parts the engine holds for 51
        # times at once: three times the times must not raise the traced
        # peak by half. Holding whole (T, n, n) stacks of the parts traced
        # 26 MB at 400 times and 77 MB at 1200; one held block, 8.8 MB at both.
        config, _ = square_lattice_2d(9, 10.0, (math.sin(0.7), 0.0, math.cos(0.7)))
        mask = SelectionMask.from_selected(81, sorted(random.Random(2).sample(range(81), 40)))
        peaks = []
        for points in (400, 1200):
            times = np.geomspace(0.1, 1e6, points)
            tracemalloc.start()
            try:
                _assemble(config, mask, BathParams(ALPHA, 0.3), times)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_engine_makes_no_gram_block_per_time(self, monkeypatch):
        # Every atom of a 9x9 lattice but the centre selected, with the part
        # budget lifted so nothing is cut into sub-blocks: the engine reduces
        # each time from its gathered 80 x 1 phi block and f's key table, so
        # the traced peak over 400 times must stay below half of one
        # (400, 80, 80) stack of n x n parts, 10.2 MB. Forming the Gram
        # product and the scattered f at every time traced 21.1 MB here, and
        # the engine traces about 6.3 MB, most of it kernel temporaries.
        monkeypatch.setattr(metric, "_PART_BLOCK", 2**40)
        config, _ = square_lattice_2d(9, 10.0, (math.sin(0.7), 0.0, math.cos(0.7)))
        mask = SelectionMask.from_selected(81, [i for i in range(81) if i != 40])
        times = np.geomspace(0.1, 1e6, 400)
        tracemalloc.start()
        try:
            _assemble(config, mask, BathParams(ALPHA, 0.3), times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < times.size * mask.n_selected**2 * 8 / 2

    def test_engine_peak_is_bounded_by_the_two_budgets(self):
        # 120 selected of an 11x11 lattice around its unobserved centre, under
        # a dipole normal to the plane: 19 phi keys, so one kernel block spans
        # every time. The traced peak over 225 times must stay below three
        # part arrays of _PART_BLOCK values (the gathered phi, its square, and
        # a margin for the key tables and the final tensor) plus sixteen
        # kernel temporaries of _KERNEL_BLOCK values. One count of 4,096
        # (time, key) values for every block traced 25.4 MB here.
        config, _ = square_lattice_2d(11, 10.0, (0.0, 0.0, 1.0))
        mask = SelectionMask.from_selected(121, [i for i in range(121) if i != 60])
        bound = (3 * metric._PART_BLOCK + 16 * metric._KERNEL_BLOCK) * 8
        tracemalloc.start()
        try:
            _assemble(config, mask, BathParams(ALPHA, 0.1), np.geomspace(0.1, 1e6, 225))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_a_figure_curve_makes_at_most_two_phi_calls(self, monkeypatch, tmp_path):
        # The figure's kappa = 0.01 curve: 225 times over the 119 phi keys of
        # the 31x31 lattice's centre atom. Blocks of 4,096 (time, key) values
        # made 7 calls.
        calls, real = [], metric._phi

        def counted(t, *args):
            calls.append(np.shape(t))
            return real(t, *args)

        monkeypatch.setattr(metric, "_phi", counted)
        scenario = tmp_path / "figure.ini"
        scenario.write_text(
            "[bath]\nalpha = 0.0072973525693\nkappa = 0.01\n"
            "[geometry]\nkind = lattice\nside = 31\nspacing = 1000\n"
            "[time]\nstart = 1e-3\nend = 1e11\npoints = 225\n"
            "[output]\nprefix = figure\n"
        )
        assert run(str(scenario), out_dir=str(tmp_path / "out")) == 0
        assert 1 <= len(calls) <= 2

    @pytest.mark.bitwise
    @pytest.mark.parametrize("budgets", [(1, 1), (500, 1000)])
    @pytest.mark.parametrize("policy", list(KernelPolicy))
    @pytest.mark.parametrize("scene", ["lattice", "gas"])
    def test_block_budgets_leave_every_bit(self, monkeypatch, scene, policy, budgets):
        # The default budgets run every kernel over the whole grid in one
        # block but the gas's f, in blocks of 43 times. Budgets of one value
        # each run one time per kernel call and per sub-block; (500, 1000)
        # cuts the lattice's phi blocks of 10 times into sub-blocks of 2 and
        # the gas's phi blocks of 8 into single times. The curve columns,
        # flags and final tensor must keep every bit.
        config, mask, times = block_scene(scene)
        b = BathParams(ALPHA, 0.3)
        want = _assemble(config, mask, b, times, policy)
        monkeypatch.setattr(metric, "_KERNEL_BLOCK", budgets[0])
        monkeypatch.setattr(metric, "_PART_BLOCK", budgets[1])
        got = _assemble(config, mask, b, times, policy)
        for column in range(3):
            np.testing.assert_array_equal(_bits(got[column]), _bits(want[column]))
        np.testing.assert_array_equal(_bits(got[3].direct_part), _bits(want[3].direct_part))
        np.testing.assert_array_equal(_bits(got[3].indirect_part), _bits(want[3].indirect_part))
        assert (got[3].time, got[3].validity_flag) == (want[3].time, want[3].validity_flag)

    @pytest.mark.bitwise
    @pytest.mark.parametrize("policy", list(KernelPolicy))
    @pytest.mark.parametrize("scene", ["lattice", "gas", "all selected"])
    def test_shared_pair_tables_leave_every_bit(self, scene, policy):
        # The CLI builds a geometry's _pair_tables once and hands them to
        # every curve on it, as to a kappa sweep's: each curve, cold or warm,
        # must keep the bits of _assemble building its own tables
        if scene == "all selected":  # no unobserved atom: no phi columns
            config, _ = chain_1d(4, 10.0, 0.3)
            mask, times = SelectionMask.from_selected(4, range(4)), np.geomspace(1e-2, 1e5, 50)
        else:
            config, mask, times = block_scene(scene)
        tables = metric._pair_tables(config, mask)
        baths = [BathParams(ALPHA, kappa) for kappa in (0.01, 0.3, 1.0)]
        if scene != "gas":  # one quadrature per time over 379 f keys is slow
            baths.append(BathParams(ALPHA, 0.3, inv_temperature=2.0))
        for b in baths:
            grid = times if b.inv_temperature is None else times[:30]
            want = _assemble(config, mask, b, grid, policy)
            got = _assemble(config, mask, b, grid, policy, tables)
            for column in range(3):
                np.testing.assert_array_equal(_bits(got[column]), _bits(want[column]))
            for part in ("direct_part", "indirect_part"):
                np.testing.assert_array_equal(
                    _bits(getattr(got[3], part)), _bits(getattr(want[3], part))
                )
            assert (got[3].time, got[3].validity_flag) == (want[3].time, want[3].validity_flag)

    def test_pair_tables_are_built_after_the_input_checks(self, monkeypatch):
        # bad times and policies raise before any key table; f's selected x
        # selected table is built only for a positive time, and given
        # tables none at all
        tables, real = [], metric._key_table

        def counted(config, rows, cols):
            tables.append((rows.size, cols.size))
            return real(config, rows, cols)

        monkeypatch.setattr(metric, "_key_table", counted)
        config, _ = chain_1d(5, 10.0, 0.3)
        mask = SelectionMask.from_selected(5, [0, 1, 3])
        for times, policy in (([1.0, -1.0], KernelPolicy.CLOSED_FORM), ([1.0], "closed")):
            with pytest.raises(MetricError):
                _assemble(config, mask, bath(), times, policy)
        assert tables == []
        _assemble(config, mask, bath(), [0.0, 0.0])
        assert tables == [(3, 2)]
        shared = metric._pair_tables(config, mask)
        assert tables == [(3, 2), (3, 2), (3, 3)]
        _assemble(config, mask, bath(), [0.0, 1.0], tables=shared)
        assert len(tables) == 3

    @pytest.mark.parametrize("beta", [None, 2.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_valid_flag_is_the_largest_entry_below_threshold(self, seed, beta):
        # The engine reads the flag from M's diagonal; here it comes from
        # every entry of build_metric's tensor. Random scenes hold a selected
        # atom doubled onto another, and their flags flip inside the grid.
        rng = np.random.default_rng(seed)
        count = int(rng.integers(3, 9))
        positions = rng.uniform(0.0, 6.0, (count, 3))
        u = rng.normal(size=3)
        chosen = [int(i) for i in rng.choice(count, int(rng.integers(1, count)), replace=False)]
        config = AtomConfig(np.vstack([positions, positions[chosen[0]]]), u / np.linalg.norm(u))
        mask = SelectionMask.from_selected(count + 1, sorted(chosen + [count]))
        b = BathParams(alpha=0.1, kappa=1.0, inv_temperature=beta)
        times = np.geomspace(0.01, 1e3, 40)
        for policy in KernelPolicy:
            valid = _assemble(config, mask, b, times, policy)[2]
            tensors = [build_metric(config, mask, b, t, kernel_policy=policy) for t in times]
            assert valid.tolist() == [np.abs(M.matrix).max() < 0.1 for M in tensors]
            assert 0 < valid.sum() < times.size

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
        d_direct, _, _, _ = _assemble(config, mask, BathParams(ALPHA, 0.3), times)
        assert np.all(np.isfinite(d_direct))
        for t in times:
            direct = build_metric(config, mask, BathParams(ALPHA, 0.3), t).direct_part
            assert np.all(np.isfinite(direct)) and np.all(direct.diagonal() > 0)
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
        direct = build_metric(config, mask, BathParams(1.0, kappa), 1e-150).direct_part
        scaled = build_metric(config, mask, b, 1e-150).direct_part
        np.testing.assert_allclose(scaled, 1.7e308 * direct, rtol=1e-12)

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
        for times in ([1.0, -1.0], [float("nan")], [0.0, float("inf")], []):
            with pytest.raises(MetricError):
                _assemble(config, mask, bath(), times)


class TestMetricTensor:
    @pytest.mark.parametrize("shape", [(0, 0), (2, 2, 2)])
    def test_rejects_an_empty_or_stacked_tensor(self, shape):
        # check_nonnegative would end in a bare IndexError on a 0 x 0 tensor,
        # and in numpy's ValueError on a stack of 2 x 2 parts
        with pytest.raises(MetricError, match="nonempty square"):
            synthetic(np.zeros(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        # every check would blame the float range, and numpy would warn
        with pytest.raises(MetricError, match="finite"):
            synthetic(np.eye(2), np.array([[0.0, bad], [bad, 0.0]]))
        with pytest.raises(MetricError, match="finite"):
            synthetic(np.array([[bad, 0.0], [0.0, 1.0]]))


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

    def test_bool_entries_rejected(self):
        # numpy takes True for 1, and np.asarray turns a mixed (True, 1)
        # into ints; a bool is not a codeword entry
        M = synthetic(np.eye(2))
        for word in ((True, True), (True, 1), (np.True_, 1.0), np.array([True, False])):
            with pytest.raises(MetricError, match=r"-1 or \+1"):
                distance(M, word, (-1, -1))
            with pytest.raises(MetricError, match=r"-1 or \+1"):
                decoherence(M, (-1, -1), word)

    def test_non_sequence_codewords_raise_metric_error(self):
        M = synthetic(np.eye(2))
        with pytest.raises(MetricError, match="two sequences of length n = 2"):
            distance(M, 5, 5)
        with pytest.raises(MetricError, match="two sequences of length n = 2"):
            decoherence(M, (1, (1, 1)), (1, 1))  # a nested entry

    def test_string_entries_raise_metric_error(self):
        # numbers only: not even "1" is taken for 1
        M = synthetic(np.eye(2))
        for word in (("a", 1), ("1", "-1")):
            with pytest.raises(MetricError, match=r"-1 or \+1"):
                distance(M, word, (1, 1))
        with pytest.raises(MetricError, match=r"-1 or \+1"):
            decoherence(M, (1, 1), (1, "x"))

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

    @pytest.mark.bitwise
    @pytest.mark.parametrize("seed", [0, 1, 20240812, 2**127 + 3])
    def test_raw_codeword_bits_equal_the_integers_draw(self, seed):
        # a numpy change to Generator.integers or to Philox's word layout
        # would move every triangle report; odd counts leave half a word
        for shape in ((3, 1, 1), (3, 1000, 40), (3, 7, 81), (3, 333, 13), (3, 0, 5)):
            wide = np.random.Generator(np.random.Philox(key=seed)).integers(0, 2, size=shape)
            rng = np.random.Generator(np.random.Philox(key=seed))
            narrow = rng.integers(0, 2, size=shape, dtype=np.int32)
            bits = metric._random_bits(np.random.Generator(np.random.Philox(key=seed)), shape)
            assert bits.dtype == np.int32 and bits.shape == shape
            assert np.array_equal(bits, narrow) and np.array_equal(bits, wide)

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
