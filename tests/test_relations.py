"""Relations the curve engine's outputs keep when a scene is transformed.

Each scene is about 9 atoms in jittered cells of a cube, 3 of them selected,
a shared dipole direction, kappa from 0.01 to 1, cold or warm, and 40 log
times, run through metric._assemble under every kernel policy.

* Scaling: dividing positions and t by s, multiplying kappa by s and
  dividing inv_temperature by s leaves kappa r, kappa t and beta q as they
  are, so f takes a factor s^2 and phi, t / r^3 times a bracket in kappa r
  and kappa t, a factor s^2 too: d_direct is multiplied by s^2 and
  d_indirect by s^4. For s a power of 2 each step is an exact scaling, and
  so is the products kappa r and kappa t that the closed phi's far route
  takes its angles from; the relation holds bit for bit.
* Reflection: reflecting one axis in both the positions and the dipole
  changes the sign of one term of each dot product and of its partner, so
  every separation and cos^2 theta keeps its bits, and so does every output.
* Relabeling: permuting the atoms permutes the rows and columns of M, so its
  sums are those of the same entries in another order: each column moves by
  at most 1e-13 of its largest value, a bound fixed before measuring.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmtsim.geometry import AtomConfig, SelectionMask
from dmtsim.kernels import BathParams, KernelPolicy
from dmtsim.metric import _assemble
from conftest import same_bits

ALPHA = 0.0072973525693
N_ATOMS, N_SELECTED, N_TIMES = 9, 3, 40
SCALES = (2.0**-3, 2.0**5)


def log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


@st.composite
def scenes(draw):
    """(positions, dipole, selected, kappa, inv_temperature, times): atoms in
    distinct cells of a 5^3 cube, each jittered inside its own cell."""
    cells = draw(
        st.lists(
            st.tuples(*[st.integers(-2, 2)] * 3), min_size=N_ATOMS, max_size=N_ATOMS, unique=True
        )
    )
    jitter = draw(st.lists(st.floats(-0.4, 0.4), min_size=3 * N_ATOMS, max_size=3 * N_ATOMS))
    spacing = draw(log_uniform(1.0, 1e3))
    positions = spacing * (np.array(cells, dtype=float) + np.reshape(jitter, (N_ATOMS, 3)))
    polar, azimuth = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 2.0 * math.pi))
    dipole = np.array(
        [math.sin(polar) * math.cos(azimuth), math.sin(polar) * math.sin(azimuth), math.cos(polar)]
    )
    selected = draw(st.permutations(range(N_ATOMS)))[:N_SELECTED]
    kappa = draw(log_uniform(0.01, 1.0))
    inv_temperature = draw(st.none() | log_uniform(1.0, 100.0))
    times = np.geomspace(1e-2, draw(log_uniform(1e2, 1e4)), N_TIMES)
    return positions, dipole, selected, kappa, inv_temperature, times


def curves(positions, dipole, selected, kappa, inv_temperature, times):
    """(d_direct, d_indirect) of the scene under each kernel policy."""
    config = AtomConfig(positions, dipole)
    mask = SelectionMask.from_selected(len(config), selected)
    bath = BathParams(ALPHA, kappa, inv_temperature)
    return [_assemble(config, mask, bath, times, policy)[:2] for policy in KernelPolicy]


@pytest.mark.bitwise
@settings(max_examples=20, deadline=None)
@given(scenes())
def test_scaling_multiplies_direct_by_s2_and_indirect_by_s4(scene):
    positions, dipole, selected, kappa, inv_temperature, times = scene
    want = curves(*scene)
    for s in SCALES:
        beta = None if inv_temperature is None else inv_temperature / s
        got = curves(positions / s, dipole, selected, kappa * s, beta, times / s)
        for (direct, indirect), (want_direct, want_indirect) in zip(got, want):
            same_bits(direct, s**2 * want_direct)
            same_bits(indirect, s**4 * want_indirect)


@pytest.mark.bitwise
@settings(max_examples=20, deadline=None)
@given(scenes(), st.integers(0, 2))
def test_reflecting_one_axis_keeps_every_bit(scene, axis):
    positions, dipole, *rest = scene
    flip = np.ones(3)
    flip[axis] = -1.0
    for got, want in zip(curves(positions * flip, dipole * flip, *rest), curves(*scene)):
        same_bits(got, want)


@settings(max_examples=20, deadline=None)
@given(scenes(), st.permutations(range(N_ATOMS)))
def test_relabeling_the_atoms_moves_each_column_by_rounding_only(scene, order):
    positions, dipole, selected, *rest = scene
    label = np.argsort(order)  # atom order[k] is atom k of the relabeled scene
    relabeled = curves(positions[order], dipole, [label[i] for i in selected], *rest)
    for got, want in zip(relabeled, curves(*scene)):
        for column, want_column in zip(got, want):
            scale = np.abs(want_column).max()
            assert np.all(np.abs(column - want_column) <= 1e-13 * scale)
