import math

import numpy as np
import pytest
import scipy.stats
from conftest import pair_geometry, same_bits, ulp_neighbours
from hypothesis import given, settings, strategies as st

from dmtsim.asymptotics import effective_neighbors
from dmtsim.geometry import (
    AtomConfig,
    GasSpec,
    GeometryError,
    SelectionMask,
    _sample_rng,
    _shell_draws,
    _word_uniforms,
    _words_at_most,
    chain_1d,
    pair_arrays,
    sample_gas,
    square_lattice_2d,
)
from dmtsim.kernels import BathParams, PairGeometry, TimeKernel, phi_closed, reduced_quadrature

ALPHA = 1.0 / 137.036
MAGIC = math.acos(1.0 / math.sqrt(3.0))


class TestTypes:
    def test_dipole_must_be_unit(self):
        with pytest.raises(GeometryError):
            AtomConfig(positions=[[0, 0, 0]], dipole_direction=(0, 0, 2), label="x")

    @pytest.mark.parametrize(
        "direction, flow",
        [((1e300, 0, 0), "overflows"), ((1e-200, 0, 0), "underflows")],
        ids=["overflow", "underflow"],
    )
    def test_dipole_length_that_over_or_underflows_is_named(self, direction, flow):
        # the squared length leaves the float range: named, with no numpy warning
        with pytest.raises(GeometryError, match=f"dipole direction length {flow} when squared"):
            square_lattice_2d(3, 10.0, direction)
        with pytest.raises(GeometryError, match=f"dipole direction length {flow} when squared"):
            AtomConfig(positions=[[0, 0, 0]], dipole_direction=direction)

    def test_ordinary_dipole_direction_keeps_its_bits(self):
        u = np.array([3.0, 1e-170, 4.0])
        config, _ = square_lattice_2d(1, 1.0, u)
        assert np.array_equal(config.dipole_direction, u / np.linalg.norm(u))
        with pytest.raises(GeometryError, match="finite nonzero"):
            square_lattice_2d(1, 1.0, (0, 0, 0))
        with pytest.raises(GeometryError, match="unit length"):
            AtomConfig(positions=[[0, 0, 0]], dipole_direction=(0, 0, 0))

    def test_positions_must_be_finite(self):
        with pytest.raises(GeometryError):
            AtomConfig(
                positions=[[0, 0, float("nan")]], dipole_direction=(0, 0, 1), label="x"
            )

    def test_mask_must_be_disjoint(self):
        # an atom selected twice would also be missing from the unobserved
        with pytest.raises(GeometryError, match="duplicate"):
            SelectionMask.from_selected(3, (0, 1, 1))

    def test_mask_needs_selection(self):
        with pytest.raises(GeometryError):
            SelectionMask.from_selected(1, ())

    def test_from_selected(self):
        mask = SelectionMask.from_selected(5, (2, 0))
        assert mask.n_atoms == 5
        assert mask.selected.tolist() == [2, 0]
        assert mask.unobserved.tolist() == [1, 3, 4]
        assert mask.unobserved.dtype == np.int64 and not mask.unobserved.flags.writeable

    def test_unobserved_is_never_passed_in(self):
        with pytest.raises(TypeError):
            SelectionMask(3, (0,), (1,))
        with pytest.raises(TypeError):
            SelectionMask(n_atoms=3, selected=(0,), unobserved=(1,))
        assert SelectionMask(3, (2,)).unobserved.tolist() == [0, 1]

    def test_non_integer_atom_count_rejected(self):
        # a float or bool count is refused by name, not by numpy's TypeError
        with pytest.raises(GeometryError, match="n_atoms must be an integer, got 5.0"):
            SelectionMask.from_selected(5.0, [0])
        with pytest.raises(GeometryError, match="n_atoms must be an integer, got True"):
            SelectionMask(True, [0])
        assert SelectionMask(np.int64(3), [0]).unobserved.tolist() == [1, 2]

    @pytest.mark.parametrize("count", [5.0, True])
    @pytest.mark.parametrize("build", [chain_1d, square_lattice_2d], ids=["chain", "lattice"])
    def test_builder_count_must_be_an_integer(self, build, count):
        # a float reached numpy's TypeError, and True built a one-atom lattice
        rest = (1.0, 0.0) if build is chain_1d else (1.0, (0.0, 0.0, 1.0))
        with pytest.raises(GeometryError, match=f"integer.*, got {count!r}$"):
            build(count, *rest)
        assert len(build(np.int64(3), *rest)[0]) == (3 if build is chain_1d else 9)

    def test_non_integer_index_rejected(self):
        with pytest.raises(GeometryError, match="integers"):
            SelectionMask.from_selected(5, [1.5])

    def test_negative_index_rejected(self):
        with pytest.raises(GeometryError, match=r"out of range: \[-1\]"):
            SelectionMask.from_selected(3, (-1,))
        with pytest.raises(GeometryError, match=r"out of range: \[3\]"):
            SelectionMask.from_selected(3, (0, 3))

    def test_gas_spec_validation(self):
        with pytest.raises(GeometryError):
            GasSpec(density=0.0, exclusion_radius=1.0, horizon=10.0)
        with pytest.raises(GeometryError):
            GasSpec(density=1e-6, exclusion_radius=10.0, horizon=5.0)

    @pytest.mark.parametrize(
        "seed",
        [-1, 2**64, 2**64 + 3, 3.0, "3"],
        ids=["negative", "2**64", "2**64+3", "float", "string"],
    )
    def test_gas_seed_outside_philox_key_range_rejected(self, seed):
        # a masked or wrapped seed would replay another seed's samples
        with pytest.raises(GeometryError, match="seed"):
            GasSpec(density=1e-6, exclusion_radius=1.0, horizon=10.0, seed=seed)

    def test_gas_exclusion_radius_whose_cube_is_subnormal_rejected(self):
        # gas_scales divides by l^3; a cube below the smallest normal float
        # (l below about 2.8e-103) is refused where the spec is built
        for radius in (1e-300, 2.8e-103):
            with pytest.raises(GeometryError, match=r"exclusion_radius\*\*3 underflows"):
                GasSpec(density=1e-3, exclusion_radius=radius, horizon=10.0)
        GasSpec(density=1e-3, exclusion_radius=2.9e-103, horizon=10.0)

    def test_gas_seed_range_ends_accepted(self):
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7)):
            GasSpec(density=1e-6, exclusion_radius=1.0, horizon=10.0, seed=seed)


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

    def test_positions_past_the_float_range_rejected(self):
        # 2 x 1.7e308 overflows where the coordinates are made
        with pytest.raises(GeometryError, match="positions must be finite"):
            square_lattice_2d(5, 1.7e308, (0, 0, 1))

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

    def test_positions_past_the_float_range_rejected(self):
        with pytest.raises(GeometryError, match="positions must be finite"):
            chain_1d(5, 1.7e308, 0.6)

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


def _float_shell_draws(spec, rng, reach):
    """_shell_draws with the loose cut taken on Generator.random's doubles."""
    l3, h3 = spec.exclusion_radius**3, spec.horizon**3
    if spec.fixed_count is None:
        n = int(rng.poisson(spec.density * 4.0 * math.pi / 3.0 * (h3 - l3)))
    else:
        n = int(spec.fixed_count)
    u = rng.random(n)
    kept = np.flatnonzero(u <= (reach**3 * (1.0 + 1e-9) - l3) / (h3 - l3))
    r = (l3 + u[kept] * (h3 - l3)) ** (1.0 / 3.0)
    inside = r <= reach
    return r[inside], kept[inside], n


def _state(rng):
    s = rng.bit_generator.state
    return (
        s["state"]["counter"].tolist(), s["state"]["key"].tolist(), s["buffer"].tolist(),
        s["buffer_pos"], s["has_uint32"], s["uinteger"],
    )


class TestGas:
    @pytest.mark.bitwise
    @pytest.mark.parametrize(
        "seed, fixed_count", [(0, None), (3, None), (5, 2000), (2**64 - 1, 1), (7, 0)]
    )
    def test_radius_words_give_the_float_draws(self, seed, fixed_count):
        # every reach past the shell keeps all atoms, one below l keeps none;
        # the r bits, the atoms kept and the generator's state are those of
        # the cut on Generator.random's doubles
        spec = GasSpec(
            density=1e-5, exclusion_radius=10.0, horizon=125.0, seed=seed,
            fixed_count=fixed_count,
        )
        for reach in (math.inf, spec.horizon, 60.0, 20.0, 10.0, 5.0):
            got_rng, want_rng = _sample_rng(seed, 0), _sample_rng(seed, 0)
            r, kept, n = _shell_draws(spec, got_rng, reach)
            want_r, want_kept, want_n = _float_shell_draws(spec, want_rng, reach)
            same_bits(r, want_r)
            assert np.array_equal(kept, want_kept) and n == want_n
            assert _state(got_rng) == _state(want_rng)
            if reach >= spec.horizon:
                assert np.array_equal(kept, np.arange(n))
            if reach < spec.exclusion_radius:
                assert kept.size == 0

    @pytest.mark.bitwise
    def test_integer_cut_keeps_the_uniforms_at_most_c(self):
        # at a drawn uniform c (c 2**53 an integer) and its ulp neighbours the
        # integer cut keeps, drops and keeps that word as u <= c does; words
        # with low 11 bits 0, 1 and 2047 sit on each side of every edge
        words = np.random.Philox(key=11).random_raw(5000)
        drawn = np.random.Generator(np.random.Philox(key=11)).random(5000)
        same_bits(_word_uniforms(words), drawn)
        c = float(drawn[drawn >= 0.5][0])
        edges = [c, 0.3, 2.0**-60, 0.0]
        near = {int(x * 2.0**53) + d for x in edges for d in (-1, 0, 1)} - {-1}
        boundary = [k << 11 | low for k in sorted(near) for low in (0, 1, 2047)]
        words = np.concatenate([words, np.array(boundary + [2**64 - 1], dtype=np.uint64)])
        u = _word_uniforms(words)
        cuts = list(ulp_neighbours(edges)) + [5e-324, 1.0, 2.0, -1e-300]
        for cut in cuts + [-math.inf, math.inf, math.nan]:
            assert np.array_equal(_words_at_most(words, cut), np.flatnonzero(u <= cut))
        assert u[-1] == 1.0 - 2.0**-53

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

    @pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1])
    def test_default_generator_is_substream_zero(self, seed):
        # Philox(key=seed) has key words [seed, 0]: sample 0 of the seed
        assert np.array_equal(np.random.Philox(key=seed).state["state"]["key"], [seed, 0])
        spec = GasSpec(density=1e-6, exclusion_radius=5.0, horizon=200.0, seed=seed)
        a, _ = sample_gas(spec)
        b, _ = sample_gas(spec, rng=_sample_rng(seed, 0))
        assert len(a) > 1 and np.array_equal(a.positions, b.positions)

    def test_fixed_count_mode(self):
        spec = GasSpec(density=1e-6, exclusion_radius=5.0, horizon=200.0, seed=9, fixed_count=57)
        config, mask = sample_gas(spec)
        assert len(config) == 58
        assert len(mask.unobserved) == 57

    def test_bad_count_mode(self):
        # the count rule is checked when the spec is built
        with pytest.raises(GeometryError, match="fixed_count"):
            GasSpec(density=1e-6, exclusion_radius=5.0, horizon=200.0, seed=9, fixed_count="57")

    def test_radial_volume_uniformity(self):
        # r^3 should be uniform between l^3 and horizon^3
        spec = GasSpec(
            density=1e-6, exclusion_radius=10.0, horizon=100.0, seed=77, fixed_count=1_000_000
        )
        config, mask = sample_gas(spec)
        r = np.linalg.norm(config.positions[list(mask.unobserved)], axis=1)
        u = (r**3 - 10.0**3) / (100.0**3 - 10.0**3)
        counts, _ = np.histogram(u, bins=50, range=(0.0, 1.0))
        _, p = scipy.stats.chisquare(counts)
        assert p > 0.01

    def test_angular_uniformity(self):
        spec = GasSpec(
            density=1e-6, exclusion_radius=10.0, horizon=100.0, seed=78, fixed_count=1_000_000
        )
        config, mask = sample_gas(spec)
        pos = config.positions[list(mask.unobserved)]
        cos_t = pos[:, 2] / np.linalg.norm(pos, axis=1)
        counts, _ = np.histogram(cos_t, bins=50, range=(-1.0, 1.0))
        _, p = scipy.stats.chisquare(counts)
        assert p > 0.01


class TestPairGeometry:
    """geometry.pair_arrays against the scalar pair_geometry oracle."""

    def test_perpendicular(self):
        config = AtomConfig(
            positions=[[0, 0, 0], [3, 0, 0]], dipole_direction=(0, 0, 1), label="pair"
        )
        r, cos_t = pair_arrays(config, [0], [1])
        assert r.shape == cos_t.shape == (1, 1)
        assert r[0, 0] == pytest.approx(3.0)
        assert math.acos(cos_t[0, 0]) == pytest.approx(math.pi / 2)
        assert math.acos(cos_t[0, 0]) == pair_geometry(config, 0, 1).theta

    def test_parallel(self):
        config = AtomConfig(
            positions=[[0, 0, 0], [0, 0, 4]], dipole_direction=(0, 0, 1), label="pair"
        )
        r, cos_t = pair_arrays(config, [0], [1])
        assert r[0, 0] == pytest.approx(4.0)
        assert abs(cos_t[0, 0]) == pytest.approx(1.0, abs=1e-15)
        assert math.acos(cos_t[0, 0]) == pair_geometry(config, 0, 1).theta

    def test_cos2_symmetric_in_order(self):
        config = AtomConfig(
            positions=[[0, 0, 0], [1, 2, 3]], dipole_direction=(0, 0, 1), label="pair"
        )
        r_ab, cos_ab = pair_arrays(config, [0], [1])
        r_ba, cos_ba = pair_arrays(config, [1], [0])
        assert r_ab[0, 0] == r_ba[0, 0]
        assert cos_ab[0, 0] == -cos_ba[0, 0]
        assert cos_ab[0, 0] ** 2 == pytest.approx(cos_ba[0, 0] ** 2, rel=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        config = AtomConfig(rng.normal(0.0, 5.0, (6, 3)), (0.6, 0.0, 0.8), label="cloud")
        rows, cols = [0, 3], [1, 2, 4, 5, 3]
        r, cos_t = pair_arrays(config, rows, cols)
        assert r.shape == cos_t.shape == (2, 5)
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                if i == j:
                    continue
                geom = pair_geometry(config, i, j)
                assert r[a, b] == pytest.approx(geom.r, rel=1e-15)
                assert math.acos(cos_t[a, b]) == pytest.approx(geom.theta, abs=1e-14)

    def test_same_index_is_coincident(self):
        # the documented coincident contract: r = 0 and cos theta = 1
        config = AtomConfig(
            positions=[[0, 0, 0], [1, 0, 0]], dipole_direction=(0, 0, 1), label="pair"
        )
        r, cos_t = pair_arrays(config, [0, 1], [1])
        assert r[1, 0] == 0.0 and cos_t[1, 0] == 1.0
        assert r[0, 0] == 1.0

    @pytest.mark.parametrize("gap", [1e-300, 1e-160])
    def test_separation_that_underflows_when_squared_is_named(self, gap):
        # r^2 underflows to 0 or to a subnormal: distinct atoms must not pass
        # for coincident ones
        config = AtomConfig(
            positions=[[0, 0, 0], [1, 1, 1], [0, 0, gap]], dipole_direction=(0, 0, 1), label="c"
        )
        with pytest.raises(GeometryError, match="separation of atoms 2 and 0 underflows"):
            pair_arrays(config, [1, 2], [0, 1])
        r, _ = pair_arrays(config, [0, 1], [0, 1])
        assert r[0, 0] == 0.0 and r[0, 1] == np.linalg.norm([1.0, 1.0, 1.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("far", [1e155, 1e200, 1e308])
    def test_separation_that_overflows_when_squared_is_named(self, far):
        # past about 1.34e154 r^2 overflows (at 1e308 the difference of
        # atoms 0 and 2 itself does): no inf r and +-0 cos theta leave
        # pair_arrays
        config = AtomConfig(
            positions=[[far, 0, 0], [1, 1, 1], [-far, 0, 0]], dipole_direction=(0, 0, 1), label="c"
        )
        with pytest.raises(GeometryError, match="atoms 1 and 2 overflows when squared"):
            pair_arrays(config, [1, 0], [1, 2])
        with pytest.raises(GeometryError, match="separation of atoms 0 and 2 overflows"):
            pair_arrays(config, [0], [2])
        r, _ = pair_arrays(config, [1], [1])
        assert r[0, 0] == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_effective_neighbors_refuses_an_overflowing_separation(self):
        # it used to return nan from r = inf
        config, mask = chain_1d(3, 1e200, 0.3)
        with pytest.raises(GeometryError, match="separation of atoms 1 and 0 overflows"):
            effective_neighbors(config, mask)

    def test_coincident_pair_gives_zero_r_and_unit_cos(self):
        config = AtomConfig(
            positions=[[1, 1, 1], [1, 1, 1]], dipole_direction=(0, 0, 1), label="pair"
        )
        r, cos_t = pair_arrays(config, [0], [1])
        assert r[0, 0] == 0.0 and cos_t[0, 0] == 1.0


class TestJitter:
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
            # isotropic Gaussian displacement, sigma per axis, of both atoms
            rng = np.random.Generator(np.random.Philox(key=1000 + i))
            moved = base.positions + rng.normal(0.0, sigma, base.positions.shape)
            geom = pair_geometry(AtomConfig(moved, base.dipole_direction), 0, 1)
            vals[i] = reduced_quadrature(t, geom, b, TimeKernel.PHI_KERNEL, tol=1e-16)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - target) <= 2.0 * se
        # individual exact evaluations scatter by more than the signal
        # itself; only the jitter average pins the closed form down
        assert vals.std(ddof=1) > 0.5 * abs(target)

