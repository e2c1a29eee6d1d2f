"""Atom configurations: lattices, chains, gas samples, and pair geometry.

Positions are 3-vectors in dipole-length units. Every configuration shares a
single unit dipole direction. Builders normalize the direction they are
given; a directly constructed AtomConfig must already be normalized to
1e-12.

A SelectionMask splits atom indices into the selected (observed) atoms and
the unobserved ones. Both fields are read-only 1-D int64 arrays, checked once
with vectorized numpy when the mask is built, so code that consumes a mask
indexes positions with them directly and loops over no atom in Python. Masks
compare by identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class GeometryError(ValueError):
    """Invalid geometry input (even lattice side, coincident pair, ...)."""


def _as_readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AtomConfig:
    """Positions (N, 3) plus the shared unit dipole direction.

    Unobserved atoms may coincide with each other; selected-unobserved
    coincidence is rejected where pair kernels are evaluated, not here.
    """

    positions: np.ndarray
    dipole_direction: np.ndarray
    label: str = ""

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise GeometryError("positions must be an (N, 3) array")
        if not np.all(np.isfinite(pos)):
            raise GeometryError("positions must be finite")
        u = np.asarray(self.dipole_direction, dtype=float)
        if u.shape != (3,) or not np.all(np.isfinite(u)):
            raise GeometryError("dipole_direction must be a finite 3-vector")
        if abs(np.linalg.norm(u) - 1.0) > 1e-12:
            raise GeometryError("dipole_direction must be unit length to 1e-12")
        object.__setattr__(self, "positions", _as_readonly(pos))
        object.__setattr__(self, "dipole_direction", _as_readonly(u))

    def __len__(self) -> int:
        return self.positions.shape[0]


def _index_array(values) -> np.ndarray:
    """A read-only 1-D int64 copy of an index sequence; entries must be
    integers (a float such as 1.5 is rejected, never truncated)."""
    a = np.asarray(values)
    if a.ndim != 1:
        raise GeometryError("mask indices must be a 1-D sequence")
    if a.size and a.dtype.kind not in "iu":
        raise GeometryError(f"mask indices must be integers, got {a.dtype} entries")
    return _as_readonly(a, np.int64)


def _has_repeats(idx: np.ndarray) -> bool:
    """Whether a non-negative index array holds some value twice."""
    if idx.size < 2:
        return False
    if idx.max() < 4 * idx.size:
        # dense indices, as every builder makes: one O(N) count, no sort
        return bool(np.bincount(idx).max() > 1)
    # sparse indices: a count array would be as long as the largest index
    s = np.sort(idx)
    return bool(np.any(s[1:] == s[:-1]))


@dataclass(frozen=True, eq=False)
class SelectionMask:
    """Ordered selected indices (the observed atoms) and the unobserved ones.

    Both fields are read-only 1-D int64 arrays, validated once here: at least
    one atom is selected, every index is a non-negative integer, and no index
    appears twice across the two fields. Masks compare by identity.
    """

    selected: np.ndarray
    unobserved: np.ndarray

    def __post_init__(self):
        sel = _index_array(self.selected)
        uno = _index_array(self.unobserved)
        if sel.size < 1:
            raise GeometryError("at least one atom must be selected")
        both = np.concatenate([sel, uno])
        if both.min() < 0:
            raise GeometryError(f"mask indices must be non-negative: {both[both < 0].tolist()}")
        if _has_repeats(both):
            overlap = np.intersect1d(sel, uno)
            if overlap.size:
                raise GeometryError(f"selected and unobserved overlap: {overlap.tolist()}")
            raise GeometryError("duplicate indices in selection mask")
        object.__setattr__(self, "selected", sel)
        object.__setattr__(self, "unobserved", uno)

    @classmethod
    def from_selected(cls, n_atoms: int, selected) -> "SelectionMask":
        """Mask over atoms 0..n_atoms-1: selected in the caller's order, the
        rest unobserved in ascending order."""
        sel = _index_array(selected)
        bad = sel[(sel < 0) | (sel >= n_atoms)]
        if bad.size:
            raise GeometryError(f"selected indices out of range: {bad.tolist()}")
        keep = np.ones(n_atoms, dtype=bool)
        keep[sel] = False
        return cls(selected=sel, unobserved=np.flatnonzero(keep))

    @property
    def n_selected(self) -> int:
        return int(self.selected.size)


@dataclass(frozen=True)
class GasSpec:
    """Uniform gas in a spherical shell around the selected atom.

    density is atoms per cubic dipole length; exclusion_radius is the
    scattering length l (closest approach); horizon bounds the sampling ball.
    """

    density: float
    exclusion_radius: float
    horizon: float
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.density) and self.density > 0):
            raise GeometryError("density must be finite and > 0")
        if not (math.isfinite(self.exclusion_radius) and self.exclusion_radius > 0):
            raise GeometryError("exclusion_radius must be finite and > 0")
        if not (math.isfinite(self.horizon) and self.horizon > self.exclusion_radius):
            raise GeometryError("horizon must exceed exclusion_radius")


def _normalized(direction) -> np.ndarray:
    u = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(u)
    if u.shape != (3,) or not np.all(np.isfinite(u)) or norm == 0:
        raise GeometryError("dipole direction must be a finite nonzero 3-vector")
    return u / norm


def square_lattice_2d(side: int, spacing: float, dipole_direction) -> tuple:
    """Odd side x side lattice in the z = 0 plane, center atom selected.

    Grid indices run row-major from -(side-1)/2 to +(side-1)/2 in x and y.
    """
    if side % 2 == 0 or side < 1:
        raise GeometryError("lattice side must be odd (a center atom must exist)")
    if not (math.isfinite(spacing) and spacing > 0):
        raise GeometryError("spacing must be finite and > 0")
    half = (side - 1) // 2
    coords = np.arange(-half, half + 1, dtype=float) * spacing
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    pos = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(side * side)])
    center = (side * side - 1) // 2  # row-major index of (0, 0)
    config = AtomConfig(pos, _normalized(dipole_direction), label=f"lattice{side}x{side}")
    return config, SelectionMask.from_selected(len(config), [center])


def chain_1d(count: int, spacing: float, dipole_angle: float) -> tuple:
    """Collinear atoms along x with the dipole tilted dipole_angle (radians)
    from the chain axis, so every pair shares the same cos^2 theta.

    The center atom (index count//2; the lower median for even counts) is
    selected.
    """
    if count < 1:
        raise GeometryError("chain needs count >= 1")
    if not (math.isfinite(spacing) and spacing > 0):
        raise GeometryError("spacing must be finite and > 0")
    if not math.isfinite(dipole_angle):
        raise GeometryError("dipole_angle must be finite")
    center = count // 2
    xs = (np.arange(count, dtype=float) - center) * spacing
    pos = np.column_stack([xs, np.zeros(count), np.zeros(count)])
    u = np.array([math.cos(dipole_angle), math.sin(dipole_angle), 0.0])
    config = AtomConfig(pos, _normalized(u), label=f"chain{count}")
    return config, SelectionMask.from_selected(count, [center])


def sample_gas(
    spec: GasSpec,
    count_mode: str = "poisson",
    fixed_count: int | None = None,
    dipole_direction=(0.0, 0.0, 1.0),
    rng: np.random.Generator | None = None,
) -> tuple:
    """Selected atom at the origin, unobserved atoms uniform in the shell
    exclusion_radius <= r <= horizon.

    Sampling is exact (r^3 uniform in [l^3, H^3], direction uniform on the
    sphere), so no rejection loop exists. count_mode "poisson" draws the atom
    number from the shell-volume mean density * (4 pi / 3)(H^3 - l^3);
    "fixed" uses fixed_count. Deterministic for a given seed; an explicit rng
    overrides the seed for substream use.
    """
    if count_mode not in ("poisson", "fixed"):
        raise GeometryError("count_mode must be 'poisson' or 'fixed'")
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=spec.seed))
    l3 = spec.exclusion_radius**3
    h3 = spec.horizon**3
    if count_mode == "poisson":
        mean = spec.density * 4.0 * math.pi / 3.0 * (h3 - l3)
        n = int(rng.poisson(mean))
    else:
        if fixed_count is None or fixed_count < 0:
            raise GeometryError("fixed count_mode needs fixed_count >= 0")
        n = int(fixed_count)
    r = (l3 + rng.random(n) * (h3 - l3)) ** (1.0 / 3.0)
    cos_t = rng.uniform(-1.0, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t**2))
    pos = np.empty((n + 1, 3))
    pos[0] = 0.0
    pos[1:, 0] = r * sin_t * np.cos(phi)
    pos[1:, 1] = r * sin_t * np.sin(phi)
    pos[1:, 2] = r * cos_t
    config = AtomConfig(pos, _normalized(dipole_direction), label="gas")
    return config, SelectionMask.from_selected(n + 1, [0])


def pair_geometry(config: AtomConfig, i: int, j: int):
    """Pair (r, theta) between atoms i and j; theta measured from the dipole
    direction, folded into [0, pi]. Coincident atoms are a domain error."""
    from .kernels import PairGeometry

    if i == j:
        raise GeometryError("pair_geometry needs two distinct atoms")
    delta = config.positions[i] - config.positions[j]
    r = float(np.linalg.norm(delta))
    if r == 0.0:
        raise GeometryError(f"atoms {i} and {j} coincide")
    cos_t = float(np.clip(np.dot(config.dipole_direction, delta) / r, -1.0, 1.0))
    return PairGeometry(r=r, theta=math.acos(cos_t))


def pair_arrays(config: AtomConfig, indices_a, indices_b):
    """Vectorized (r, cos theta) between every atom of indices_a and of
    indices_b; shape (len(a), len(b)). Coincident pairs come out as r = 0 and
    cos theta = 1; callers decide whether that is an error."""
    pa = config.positions[np.asarray(indices_a, dtype=int)]
    pb = config.positions[np.asarray(indices_b, dtype=int)]
    delta = pa[:, None, :] - pb[None, :, :]
    r = np.linalg.norm(delta, axis=2)
    dot = np.tensordot(delta, config.dipole_direction, axes=([2], [0]))
    cos_t = np.where(r > 0, dot / np.where(r > 0, r, 1.0), 1.0)
    return r, np.clip(cos_t, -1.0, 1.0)


def apply_jitter(config: AtomConfig, sigma: float, seed: int) -> AtomConfig:
    """Displace every atom by an isotropic Gaussian of std sigma per axis."""
    if not (math.isfinite(sigma) and sigma >= 0):
        raise GeometryError("sigma must be finite and >= 0")
    if sigma == 0:
        return config
    rng = np.random.Generator(np.random.Philox(key=seed))
    pos = config.positions + rng.normal(0.0, sigma, config.positions.shape)
    label = config.label + "+jitter" if config.label else "jitter"
    return AtomConfig(pos, config.dipole_direction, label=label)


def to_text(config: AtomConfig) -> str:
    """Serialize: comment header (dipole direction, units, label), then one
    atom per line as x y z with round-trip precision."""
    u = config.dipole_direction
    lines = [
        f"# dipole_direction: {u[0]:.17g} {u[1]:.17g} {u[2]:.17g}",
        "# units: dipole length d",
        f"# label: {config.label}",
    ]
    for p in config.positions:
        lines.append(f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> AtomConfig:
    """Parse the to_text format back into an AtomConfig."""
    direction = None
    label = ""
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("dipole_direction:"):
                direction = [float(v) for v in body.split(":", 1)[1].split()]
            elif body.startswith("label:"):
                label = body.split(":", 1)[1].strip()
            continue
        parts = line.split()
        if len(parts) != 3:
            raise GeometryError(f"atom line needs three coordinates: {line!r}")
        rows.append([float(v) for v in parts])
    if direction is None:
        raise GeometryError("missing dipole_direction header")
    if not rows:
        raise GeometryError("no atom lines found")
    return AtomConfig(np.array(rows), np.asarray(direction, dtype=float), label=label)
