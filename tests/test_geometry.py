import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from dmtsim.geometry import (
    AtomConfig,
    GasSpec,
    GeometryError,
    SelectionMask,
    apply_jitter,
    chain_1d,
    from_text,
    pair_geometry,
    sample_gas,
    square_lattice_2d,
    to_text,
)
from dmtsim.kernels import BathParams, PairGeometry, TimeKernel, phi_closed, reduced_quadrature

ALPHA = 1.0 / 137.036
MAGIC = math.acos(1.0 / math.sqrt(3.0))


class TestTypes:
    def test_dipole_must_be_unit(self):
        with pytest.raises(GeometryError):
            AtomConfig(positions=[[0, 0, 0]], dipole_direction=(0, 0, 2), label="x")

    def test_positions_must_be_finite(self):
        with pytest.raises(GeometryError):
            AtomConfig(
                positions=[[0, 0, float("nan")]], dipole_direction=(0, 0, 1), label="x"
            )

    def test_mask_must_be_disjoint(self):
        with pytest.raises(GeometryError):
            SelectionMask(selected=(0, 1), unobserved=(1, 2))

    def test_mask_needs_selection(self):
        with pytest.raises(GeometryError):
            SelectionMask(selected=(), unobserved=(0,))

    def test_from_selected(self):
        mask = SelectionMask.from_selected(5, (2, 0))
        assert mask.selected.tolist() == [2, 0]
        assert set(mask.unobserved) == {1, 3, 4}

    def test_non_integer_index_rejected(self):
        with pytest.raises(GeometryError, match="integers"):
            SelectionMask.from_selected(5, [1.5])

    def test_negative_index_rejected(self):
        with pytest.raises(GeometryError, match="non-negative"):
            SelectionMask(selected=(-1,), unobserved=(0,))

    @pytest.mark.parametrize(
        "selected, unobserved, message",
        [
            ((0, 10**12), (10**12,), "overlap"),
            ((10**12, 10**12), (), "duplicate"),
            ((10**12,), (5, 3), None),
        ],
    )
    def test_sparse_large_indices(self, selected, unobserved, message):
        # indices far above the mask size take the sorting path, not a count
        # array as long as the largest index
        if message is None:
            mask = SelectionMask(selected=selected, unobserved=unobserved)
            assert mask.unobserved.tolist() == list(unobserved)
        else:
            with pytest.raises(GeometryError, match=message):
                SelectionMask(selected=selected, unobserved=unobserved)

    def test_gas_spec_validation(self):
        with pytest.raises(GeometryError):
            GasSpec(density=0.0, exclusion_radius=1.0, horizon=10.0)
        with pytest.raises(GeometryError):
            GasSpec(density=1e-6, exclusion_radius=10.0, horizon=5.0)


_CONTAINERS = (list, tuple, np.array, lambda v: np.array(v, dtype=np.int32))


@st.composite
def _ordered_subsets(draw):
    """(n, a random-order subset of range(n), a container to pass it in)."""
    n = draw(st.integers(min_value=1, max_value=60))
    selected = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n, unique=True)
    )
    return n, selected, draw(st.sampled_from(_CONTAINERS))


@settings(max_examples=200, deadline=None)
@given(_ordered_subsets())
def test_from_selected_matches_set_oracle(case):
    n, selected, container = case
    given_indices = container(selected)
    mask = SelectionMask.from_selected(n, given_indices)
    assert mask.selected.tolist() == selected
    assert mask.unobserved.tolist() == sorted(set(range(n)) - set(selected))
    for field in (mask.selected, mask.unobserved):
        assert field.dtype == np.int64 and field.ndim == 1
        assert not field.flags.writeable
    if isinstance(given_indices, np.ndarray):
        assert given_indices.flags.writeable  # the mask holds its own copy
    assert mask == mask and mask != SelectionMask.from_selected(n, selected)


@settings(max_examples=200, deadline=None)
@given(
    _ordered_subsets(),
    st.sampled_from(["empty", "duplicate", "out_of_range", "negative", "non_integer"]),
    st.integers(min_value=0, max_value=10**6),
)
def test_from_selected_rejects_bad_indices(case, fault, offset):
    n, selected, container = case
    bad = {
        "empty": [],
        "duplicate": selected + [selected[offset % len(selected)]],
        "out_of_range": selected + [n + offset],
        "negative": selected + [-1 - offset],
        "non_integer": selected + [selected[0] + 0.5],
    }[fault]
    if fault == "non_integer" and container is _CONTAINERS[3]:
        container = list  # building an int32 array would truncate the bad entry
    with pytest.raises(GeometryError):
        SelectionMask.from_selected(n, container(bad))


class TestLattice:
    def test_counts_and_center(self):
        config, mask = square_lattice_2d(3, 1.0, (0, 0, 1))
        assert len(config) == 9
        assert mask.selected == (4,)
        assert len(mask.unobserved) == 8
        center = config.positions[4]
        others = np.delete(config.positions, 4, axis=0)
        dists = np.linalg.norm(others - center, axis=1)
        assert sorted(set(np.round(dists, 12))) == [1.0, pytest.approx(math.sqrt(2))]

    def test_single_site(self):
        config, mask = square_lattice_2d(1, 5.0, (0, 0, 1))
        assert len(config) == 1
        assert mask.unobserved.tolist() == []

    def test_large_lattice_spacing(self):
        config, mask = square_lattice_2d(31, 1000.0, (0, 0, 1))
        assert len(config) == 961
        center = config.positions[mask.selected[0]]
        others = np.delete(config.positions, mask.selected[0], axis=0)
        assert np.linalg.norm(others - center, axis=1).min() == pytest.approx(1000.0)

    def test_even_side_rejected(self):
        with pytest.raises(GeometryError):
            square_lattice_2d(4, 1.0, (0, 0, 1))

    def test_planar(self):
        config, _ = square_lattice_2d(5, 2.0, (0, 0, 1))
        assert np.all(config.positions[:, 2] == 0.0)

    def test_fourfold_symmetry_of_indirect_sum(self):
        # quadrant sum x 4 reproduces the full sum: use the half-open
        # quadrant (x > 0, y >= 0) whose four rotations tile the lattice
        # minus the center exactly
        b = BathParams(alpha=ALPHA, kappa=0.2)
        config, mask = square_lattice_2d(5, 3.0, (0, 0, 1))
        center = config.positions[mask.selected[0]]
        t = 40.0
        full = 0.0
        quadrant = 0.0
        for k in mask.unobserved:
            geom = pair_geometry(config, mask.selected[0], k)
            val = phi_closed(t, geom, b) ** 2
            full += val
            dx, dy = config.positions[k][:2] - center[:2]
            if dx > 0 and dy >= 0:
                quadrant += val
        assert 4.0 * quadrant == pytest.approx(full, rel=1e-12)


class TestChain:
    def test_positions_and_center(self):
        config, mask = chain_1d(4, 2.0, 0.3)
        assert len(config) == 4
        assert mask.selected == (2,)
        xs = config.positions[:, 0]
        assert np.allclose(np.diff(xs), 2.0)

    def test_single_atom(self):
        config, mask = chain_1d(1, 1.0, 0.0)
        assert len(config) == 1
        assert mask.unobserved.tolist() == []

    def test_pair_angles_equal_dipole_angle(self):
        psi = 0.77
        config, mask = chain_1d(5, 1.5, psi)
        for k in mask.unobserved:
            geom = pair_geometry(config, mask.selected[0], k)
            assert geom.theta == pytest.approx(psi, abs=1e-12) or geom.theta == pytest.approx(
                math.pi - psi, abs=1e-12
            )

    def test_magic_angle_chain(self):
        # float asin/acos round-trips leave 3cos^2 - 1 at the ~1e-16 level,
        # so the kernel is suppressed ~16 orders below a generic angle
        config, mask = chain_1d(7, 2.0, MAGIC)
        b = BathParams(alpha=ALPHA, kappa=0.5)
        for k in mask.unobserved:
            geom = pair_geometry(config, mask.selected[0], k)
            assert abs(3 * math.cos(geom.theta) ** 2 - 1) < 1e-14
            reference = abs(phi_closed(10.0, PairGeometry(r=geom.r, theta=0.0), b))
            assert abs(phi_closed(10.0, geom, b)) < 1e-12 * reference

    def test_perpendicular_chain_matches_lattice_row(self):
        # a chain with the dipole normal to its axis sees the same (r, theta)
        # per neighbor as the central row of a lattice with perpendicular
        # dipoles, so the kernel values must coincide
        a = 2.5
        b = BathParams(alpha=ALPHA, kappa=0.3)
        chain_cfg, chain_mask = chain_1d(7, a, math.pi / 2)
        lat_cfg, lat_mask = square_lattice_2d(7, a, (0, 0, 1))
        center = lat_cfg.positions[lat_mask.selected[0]]
        row = [
            k
            for k in lat_mask.unobserved
            if lat_cfg.positions[k][1] == center[1] and lat_cfg.positions[k][2] == center[2]
        ]
        chain_vals = sorted(
            phi_closed(9.0, pair_geometry(chain_cfg, chain_mask.selected[0], k), b)
            for k in chain_mask.unobserved
        )
        row_vals = sorted(
            phi_closed(9.0, pair_geometry(lat_cfg, lat_mask.selected[0], k), b) for k in row
        )
        assert len(row_vals) == len(chain_vals) == 6
        assert np.allclose(chain_vals, row_vals, rtol=1e-13)


class TestGas:
    def test_selected_at_origin(self):
        spec = GasSpec(density=1e-6, exclusion_radius=10.0, horizon=100.0, seed=1)
        config, mask = sample_gas(spec)
        assert mask.selected == (0,)
        assert np.all(config.positions[0] == 0.0)

    def test_radii_within_shell(self):
        spec = GasSpec(density=1e-9, exclusion_radius=10.0, horizon=1e4, seed=5)
        config, mask = sample_gas(spec)
        r = np.linalg.norm(config.positions[list(mask.unobserved)], axis=1)
        assert r.min() >= 10.0
        assert r.max() <= 1e4

    def test_seed_determinism(self):
        spec = GasSpec(density=1e-6, exclusion_radius=5.0, horizon=200.0, seed=123)
        a, _ = sample_gas(spec)
        b, _ = sample_gas(spec)
        np.testing.assert_array_equal(a.positions, b.positions)
        c, _ = sample_gas(GasSpec(density=1e-6, exclusion_radius=5.0, horizon=200.0, seed=124))
        assert a.positions.shape != c.positions.shape or not np.array_equal(
            a.positions, c.positions
        )

    def test_fixed_count_mode(self):
        spec = GasSpec(density=1e-6, exclusion_radius=5.0, horizon=200.0, seed=9)
        config, mask = sample_gas(spec, count_mode="fixed", fixed_count=57)
        assert len(config) == 58
        assert len(mask.unobserved) == 57

    def test_bad_count_mode(self):
        spec = GasSpec(density=1e-6, exclusion_radius=5.0, horizon=200.0, seed=9)
        with pytest.raises(GeometryError):
            sample_gas(spec, count_mode="exact")

    def test_radial_volume_uniformity(self):
        # r^3 should be uniform between l^3 and horizon^3
        spec = GasSpec(density=1e-6, exclusion_radius=10.0, horizon=100.0, seed=77)
        config, mask = sample_gas(spec, count_mode="fixed", fixed_count=1_000_000)
        r = np.linalg.norm(config.positions[list(mask.unobserved)], axis=1)
        u = (r**3 - 10.0**3) / (100.0**3 - 10.0**3)
        counts, _ = np.histogram(u, bins=50, range=(0.0, 1.0))
        _, p = scipy.stats.chisquare(counts)
        assert p > 0.01

    def test_angular_uniformity(self):
        spec = GasSpec(density=1e-6, exclusion_radius=10.0, horizon=100.0, seed=78)
        config, mask = sample_gas(spec, count_mode="fixed", fixed_count=1_000_000)
        pos = config.positions[list(mask.unobserved)]
        cos_t = pos[:, 2] / np.linalg.norm(pos, axis=1)
        counts, _ = np.histogram(cos_t, bins=50, range=(-1.0, 1.0))
        _, p = scipy.stats.chisquare(counts)
        assert p > 0.01


class TestPairGeometry:
    def test_perpendicular(self):
        config = AtomConfig(
            positions=[[0, 0, 0], [3, 0, 0]], dipole_direction=(0, 0, 1), label="pair"
        )
        geom = pair_geometry(config, 0, 1)
        assert geom.r == pytest.approx(3.0)
        assert geom.theta == pytest.approx(math.pi / 2)

    def test_parallel(self):
        config = AtomConfig(
            positions=[[0, 0, 0], [0, 0, 4]], dipole_direction=(0, 0, 1), label="pair"
        )
        geom = pair_geometry(config, 0, 1)
        assert geom.theta == pytest.approx(0.0, abs=1e-12) or geom.theta == pytest.approx(
            math.pi, abs=1e-12
        )

    def test_cos2_symmetric_in_order(self):
        config = AtomConfig(
            positions=[[0, 0, 0], [1, 2, 3]], dipole_direction=(0, 0, 1), label="pair"
        )
        a = pair_geometry(config, 0, 1)
        b = pair_geometry(config, 1, 0)
        assert math.cos(a.theta) ** 2 == pytest.approx(math.cos(b.theta) ** 2, rel=1e-12)

    def test_same_index_rejected(self):
        config = AtomConfig(
            positions=[[0, 0, 0], [1, 0, 0]], dipole_direction=(0, 0, 1), label="pair"
        )
        with pytest.raises(GeometryError):
            pair_geometry(config, 1, 1)

    def test_coincident_rejected(self):
        config = AtomConfig(
            positions=[[1, 1, 1], [1, 1, 1]], dipole_direction=(0, 0, 1), label="pair"
        )
        with pytest.raises(GeometryError):
            pair_geometry(config, 0, 1)


class TestJitter:
    def test_zero_sigma_identity(self):
        config, _ = square_lattice_2d(3, 1.0, (0, 0, 1))
        out = apply_jitter(config, 0.0, seed=3)
        np.testing.assert_array_equal(out.positions, config.positions)

    def test_deterministic(self):
        config, _ = square_lattice_2d(3, 1.0, (0, 0, 1))
        a = apply_jitter(config, 0.1, seed=3)
        b = apply_jitter(config, 0.1, seed=3)
        np.testing.assert_array_equal(a.positions, b.positions)
        c = apply_jitter(config, 0.1, seed=4)
        assert not np.array_equal(a.positions, c.positions)

    def test_displacement_scale(self):
        config, _ = square_lattice_2d(31, 10.0, (0, 0, 1))
        out = apply_jitter(config, 0.5, seed=11)
        disp = out.positions - config.positions
        assert disp.std() == pytest.approx(0.5, rel=0.05)

    def test_jitter_average_recovers_closed_form(self):
        # kappa sigma = 100: position jitter washes out the oscillatory
        # cutoff-edge terms, so the jitter-averaged exact (quadrature) kernel
        # lands on the oscillation-free closed form within 2 standard errors
        kappa, sigma, r = 0.1, 1e3, 5e4
        t = 2 * r
        b = BathParams(alpha=ALPHA, kappa=kappa)
        base = AtomConfig(
            positions=[[0.0, 0.0, 0.0], [r, 0.0, 0.0]],
            dipole_direction=(1.0, 0.0, 0.0),
            label="pair",
        )
        target = phi_closed(t, pair_geometry(base, 0, 1), b)
        vals = np.empty(100)
        for i in range(100):
            jit = apply_jitter(base, sigma, seed=1000 + i)
            geom = pair_geometry(jit, 0, 1)
            vals[i] = reduced_quadrature(t, geom, b, TimeKernel.PHI_KERNEL, tol=1e-16)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - target) <= 2.0 * se
        # individual exact evaluations scatter by more than the signal
        # itself; only the jitter average pins the closed form down
        assert vals.std(ddof=1) > 0.5 * abs(target)


class TestSerialization:
    def test_round_trip(self):
        config, _ = chain_1d(4, 1.7, 0.3)
        text = to_text(config)
        back = from_text(text)
        np.testing.assert_array_equal(back.positions, config.positions)
        np.testing.assert_array_equal(back.dipole_direction, config.dipole_direction)
        assert back.label == config.label

    def test_round_trip_jittered(self):
        config, _ = square_lattice_2d(3, 2.0, (0, 0, 1))
        jit = apply_jitter(config, 0.25, seed=5)
        back = from_text(to_text(jit))
        np.testing.assert_array_equal(back.positions, jit.positions)
