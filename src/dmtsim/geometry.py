"""Atom configurations: lattices, chains, gas samples, and pair geometry.

Positions are 3-vectors in dipole-length units. Every configuration shares a
single unit dipole direction. Builders normalize the direction they are
given; a directly constructed AtomConfig must already be normalized to
1e-12.

A SelectionMask selects observed atoms out of a configuration's n_atoms and
leaves every other atom unobserved, so it covers its whole configuration.
Its read-only int64 index arrays are checked once with vectorized numpy when
it is built; consumers index positions with them directly and loop over no
atom in Python. A GasSpec likewise carries and checks its own count rule.

Gas samples draw from counter-based Philox4x64-10 substreams: sample i of a
spec uses the stream keyed (seed, i), and sample_gas's default generator is
sample 0's. A stream holds, in this order, the atom count n (Poisson unless
the spec fixes it), then n uniforms for r, with r^3 uniform in [l^3, H^3],
then n for cos theta, uniform in [-1, 1) with theta from the z axis, then
(sample_gas only) n for the azimuth. The Monte Carlo estimator reads its
(r, cos theta) from the same streams, in batches of samples, and needs only
the atoms within a reach: a sample with few of them leaves its cosines in
the stream, and a numpy evaluation of Philox computes just the kept ones at
their offsets, with the generator's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AtomConfig",
    "SelectionMask",
    "GasSpec",
    "GeometryError",
    "square_lattice_2d",
    "chain_1d",
    "sample_gas",
    "pair_arrays",
]


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
        if abs(_length(u) - 1.0) > 1e-12:
            raise GeometryError("dipole_direction must be unit length to 1e-12")
        object.__setattr__(self, "positions", _as_readonly(pos))
        object.__setattr__(self, "dipole_direction", _as_readonly(u))

    def __len__(self) -> int:
        return self.positions.shape[0]


def _is_integer(x) -> bool:
    """An int or numpy integer, not a bool (bool is an int subclass)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _index_array(values) -> np.ndarray:
    """A read-only 1-D int64 copy of an index sequence; entries must be
    integers (a float such as 1.5 is rejected, never truncated)."""
    a = np.asarray(values)
    if a.ndim != 1:
        raise GeometryError("mask indices must be a 1-D sequence")
    if a.size and a.dtype.kind not in "iu":
        raise GeometryError(f"mask indices must be integers, got {a.dtype} entries")
    return _as_readonly(a, np.int64)


@dataclass(frozen=True, eq=False)
class SelectionMask:
    """A selection out of n_atoms atoms: the selected (observed) indices in
    the caller's order, and every other atom unobserved.

    n_atoms must be an integer, never a bool or a float. selected is checked
    once here: at least one entry, each an integer in [0, n_atoms) and none
    repeated. unobserved is derived, never passed in: the ascending
    complement of selected in range(n_atoms). Both are read-only 1-D int64
    arrays. Masks compare by identity.
    """

    n_atoms: int
    selected: np.ndarray
    unobserved: np.ndarray = field(init=False)

    def __post_init__(self):
        if not _is_integer(self.n_atoms):
            raise GeometryError(f"n_atoms must be an integer, got {self.n_atoms!r}")
        sel = _index_array(self.selected)
        if sel.size < 1:
            raise GeometryError("at least one atom must be selected")
        bad = sel[(sel < 0) | (sel >= self.n_atoms)]
        if bad.size:
            raise GeometryError(f"selected indices out of range: {bad.tolist()}")
        keep = np.ones(self.n_atoms, dtype=bool)
        keep[sel] = False
        uno = np.flatnonzero(keep)
        if uno.size + sel.size != self.n_atoms:
            raise GeometryError("duplicate indices in selection mask")
        object.__setattr__(self, "selected", sel)
        object.__setattr__(self, "unobserved", _as_readonly(uno, np.int64))

    @classmethod
    def from_selected(cls, n_atoms: int, selected) -> "SelectionMask":
        """Mask over atoms 0..n_atoms-1 with selected in the caller's order."""
        return cls(n_atoms, selected)

    @property
    def n_selected(self) -> int:
        return int(self.selected.size)


# The largest Poisson mean numpy's Generator.poisson accepts ("lam value too
# large" above it): int64 max minus ten of its square roots.
_POISSON_MEAN_MAX = float(np.iinfo(np.int64).max - 10.0 * math.sqrt(np.iinfo(np.int64).max))


@dataclass(frozen=True)
class GasSpec:
    """Uniform gas in a spherical shell around the selected atom.

    density is atoms per cubic dipole length; exclusion_radius is the
    scattering length l (closest approach); horizon bounds the sampling ball.
    seed is the Philox key, an integer in [0, 2**64). fixed_count is the
    count rule: an integer >= 0 fixes the atom number, None draws it from a
    Poisson law of mean density * (4 pi / 3)(H^3 - l^3), at most numpy's
    limit (about 9.2e18). A bool is refused as either integer. Every check
    runs here; H^3 must be finite and l^3 normal under both.
    """

    density: float
    exclusion_radius: float
    horizon: float
    seed: int = 0
    fixed_count: int | None = None

    def __post_init__(self):
        if not (_is_integer(self.seed) and 0 <= int(self.seed) < 2**64):
            raise GeometryError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if not (math.isfinite(self.density) and self.density > 0):
            raise GeometryError("density must be finite and > 0")
        if not (math.isfinite(self.exclusion_radius) and self.exclusion_radius > 0):
            raise GeometryError("exclusion_radius must be finite and > 0")
        if not (math.isfinite(self.horizon) and self.horizon > self.exclusion_radius):
            raise GeometryError("horizon must exceed exclusion_radius")
        count = self.fixed_count
        if count is not None and not (_is_integer(count) and count >= 0):
            raise GeometryError(f"fixed_count must be an integer >= 0, got {count!r}")
        try:
            l3, h3 = float(self.exclusion_radius) ** 3, float(self.horizon) ** 3
        except OverflowError:
            raise GeometryError(f"horizon**3 overflows at horizon = {self.horizon:g}") from None
        if l3 < np.finfo(float).tiny:  # subnormal or 0: gas_scales divides by l^3
            raise GeometryError(
                f"exclusion_radius**3 underflows at exclusion_radius = {self.exclusion_radius:g}"
            )
        mean = self.density * 4.0 * math.pi / 3.0 * (h3 - l3)
        if count is None and not mean <= _POISSON_MEAN_MAX:
            raise GeometryError(
                f"Poisson mean atom count {mean:g} exceeds numpy's largest lam, "
                f"{_POISSON_MEAN_MAX:g}"
            )


# below this length a vector's squared length is subnormal or 0
_LENGTH_MIN = math.sqrt(np.finfo(float).tiny)


def _length(u: np.ndarray) -> float:
    """|u| of a finite 3-vector; a nonzero u whose squared length over- or
    underflows the float range raises instead of warning."""
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(u))
    if np.any(u) and not _LENGTH_MIN <= norm < math.inf:
        flow = "overflows" if norm == math.inf else "underflows"
        raise GeometryError(f"dipole direction length {flow} when squared; scale it toward 1")
    return norm


def _normalized(direction) -> np.ndarray:
    u = np.asarray(direction, dtype=float)
    if u.shape != (3,) or not np.all(np.isfinite(u)) or not np.any(u):
        raise GeometryError("dipole direction must be a finite nonzero 3-vector")
    return u / _length(u)


def square_lattice_2d(side: int, spacing: float, dipole_direction) -> tuple:
    """Odd side x side lattice in the z = 0 plane, center atom selected.

    Grid indices run row-major from -(side-1)/2 to +(side-1)/2 in x and y.
    """
    if not (_is_integer(side) and side >= 1 and side % 2 == 1):
        raise GeometryError(
            f"lattice side must be an odd integer (a center atom must exist), got {side!r}"
        )
    if not (math.isfinite(spacing) and spacing > 0):
        raise GeometryError("spacing must be finite and > 0")
    half = (side - 1) // 2
    with np.errstate(over="ignore"):  # AtomConfig refuses positions that overflow
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
    if not (_is_integer(count) and count >= 1):
        raise GeometryError(f"chain needs an integer count >= 1, got {count!r}")
    if not (math.isfinite(spacing) and spacing > 0):
        raise GeometryError("spacing must be finite and > 0")
    if not math.isfinite(dipole_angle):
        raise GeometryError("dipole_angle must be finite")
    center = count // 2
    with np.errstate(over="ignore"):  # AtomConfig refuses positions that overflow
        xs = (np.arange(count, dtype=float) - center) * spacing
    pos = np.column_stack([xs, np.zeros(count), np.zeros(count)])
    u = np.array([math.cos(dipole_angle), math.sin(dipole_angle), 0.0])
    config = AtomConfig(pos, _normalized(u), label=f"chain{count}")
    return config, SelectionMask.from_selected(count, [center])


def _sample_rng(seed: int, index: int, rng: np.random.Generator | None = None):
    """The generator at the start of substream (seed, index). A given rng has
    its Philox bit generator rekeyed in place: building a Philox reads OS
    entropy, about 20 us, even when it is given a key."""
    key = np.array([seed, index], dtype=np.uint64)
    if rng is None:
        return np.random.Generator(np.random.Philox(key=key))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _word_uniforms(words: np.ndarray) -> np.ndarray:
    """The doubles numpy's Generator.random makes of raw uint64 words w:
    u = (w >> 11) 2**-53."""
    return (words >> np.uint64(11)) * 2.0**-53


def _words_at_most(words: np.ndarray, c: float) -> np.ndarray:
    """Indices of the words whose uniform u = (w >> 11) 2**-53 is <= c, cut
    on the integers: u <= c exactly when w <= (floor(c 2**53) << 11) | 2047,
    since c 2**53 is exact and w >> 11 is an integer."""
    if c >= 1.0:  # every u < 1 passes
        return np.arange(words.size)
    if not c >= 0.0:  # no u >= 0 passes, nor does any against a NaN
        return np.arange(0)
    return np.flatnonzero(words <= np.uint64((int(c * 2.0**53) << 11) | 2047))


def _shell_draws(spec: GasSpec, rng: np.random.Generator, reach: float = math.inf) -> tuple:
    """(r, kept, n) of a gas sample: its atom count n, and the radius r and
    draw index kept of each atom with r <= reach.

    rng draws the count (Poisson unless spec.fixed_count is set), then the n
    radius uniforms, r^3 uniform in [l^3, H^3], and is left after them. A
    loose cut on the r uniform picks the candidates before the cube root,
    and an exact cut on r follows. A caller passes a reach below the horizon
    only where every atom beyond it contributes exactly 0.

    The uniforms are read as raw Philox words, cut as integers
    (_words_at_most), and only the kept words become doubles: the bits of
    Generator.random, which leaves the generator in the same state.
    """
    l3 = spec.exclusion_radius**3
    h3 = spec.horizon**3
    if spec.fixed_count is None:
        n = int(rng.poisson(spec.density * 4.0 * math.pi / 3.0 * (h3 - l3)))
    else:
        n = int(spec.fixed_count)
    words = rng.bit_generator.random_raw(n)
    # the slack on reach^3 covers rounding in r and in this threshold
    kept = _words_at_most(words, (reach**3 * (1.0 + 1e-9) - l3) / (h3 - l3))
    r = (l3 + _word_uniforms(words[kept]) * (h3 - l3)) ** (1.0 / 3.0)
    inside = r <= reach
    return r[inside], kept[inside], n


# Evaluating one Philox output at its stream offset in numpy
# (_philox_uniforms) costs 28-44 generator draws: 330-510 ns against 11.6 ns
# per output, timed on 15k-100k outputs on a 2-core Xeon VM.
_COUNTER_DRAW_COST = 32

# Light-cone atoms whose cosines one _philox_uniforms call evaluates, however
# many samples there are: its temporaries stay near 1 MB. At 1 << 14 the
# 300-sample far-field estimate's peak RSS rose from 38.8 to 40.5 MB.
_DEFERRED_MAX = 1 << 12


def _shell_samples(spec: GasSpec, n_samples: int, reach: float):
    """Lazily, batches (indices, sizes, r, cos theta) of gas samples 0 ..
    n_samples - 1: each sample's atoms with r <= reach, in draw order, and
    sample indices[k] holding the sizes[k] atoms after those of the samples
    before it in the batch.

    One generator, rekeyed to (seed, i) for sample i, draws the count and the
    radii. It draws all n cosine uniforms too, and that sample is a batch of
    its own, where at least one atom in _COUNTER_DRAW_COST is kept. Otherwise
    the kept atoms' cosine uniforms are evaluated at their stream offsets, by
    one _philox_uniforms call for each batch of consecutive such samples
    holding about _DEFERRED_MAX atoms. The bits are the same either way.
    """
    rng, deferred, pending = None, [], 0
    for i in range(n_samples):
        rng = _sample_rng(spec.seed, i, rng)
        r, kept, n = _shell_draws(spec, rng, reach)
        batches = []
        if kept.size * _COUNTER_DRAW_COST >= n:
            batches.append(((i,), [r.size], r, rng.random(n)[kept]))
        else:
            # the buffered block is the one at the counter, buffer_pos of it used
            state = rng.bit_generator.state
            at = 4 * int(state["state"]["counter"][0]) - 4 + state["buffer_pos"] + kept
            deferred.append((i, r, at))
            pending += r.size
        if deferred and (pending >= _DEFERRED_MAX or i + 1 == n_samples):
            batches.append(_shell_batch(deferred, spec.seed))
            deferred, pending = [], 0
        for index, sizes, radii, u in batches:
            yield index, sizes, radii, -1.0 + 2.0 * u  # numpy's uniform(-1.0, 1.0)


def _shell_batch(deferred: list, seed: int) -> tuple:
    """(indices, sizes, r, u) of the deferred samples (i, r, at): u holds
    their kept atoms' cosine uniforms, evaluated at the stream offsets at."""
    index, r, at = zip(*deferred)
    sizes = [part.size for part in r]
    key1 = np.repeat(np.array(index, dtype=np.uint64), sizes)
    return index, sizes, np.concatenate(r), _philox_uniforms(seed, key1, np.concatenate(at))


_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(a: np.ndarray, m: np.uint64) -> tuple:
    """The high and low 64-bit words of each 128-bit product a * m, the high
    word summed from the products of 32-bit halves."""
    a_lo, a_hi = a & _LOW32, a >> _32
    m_lo, m_hi = m & _LOW32, m >> _32
    cross_a, cross_m = a_hi * m_lo, a_lo * m_hi
    carry = ((a_lo * m_lo) >> _32) + (cross_a & _LOW32) + (cross_m & _LOW32)
    return a_hi * m_hi + (cross_a >> _32) + (cross_m >> _32) + (carry >> _32), a * m


def _philox_raw(key0: int, key1: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The uint64 outputs at stream offsets at of the Philox4x64-10 streams
    keyed (key0, key1[k]), each from its start, as Philox(key).random_raw
    gives them.

    Output k of a stream is word k % 4 of the block at counter k // 4 + 1;
    counter words 1-3 stay 0 (a stream would need 2**66 outputs to reach
    them). Ten rounds, the key bumped by the Weyl constants before each round
    after the first (Salmon et al., SC'11).
    """
    at = np.asarray(at, dtype=np.uint64)
    x0 = (at >> np.uint64(2)) + np.uint64(1)
    x1 = x2 = x3 = np.zeros_like(x0)
    k0, k1 = int(key0), np.asarray(key1, dtype=np.uint64)
    for round_ in range(10):
        if round_:
            k0 = (k0 + _PHILOX_W[0]) % 2**64
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(x0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(x2, _PHILOX_M[1])
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ k1, lo0
    return np.choose((at & np.uint64(3)).astype(np.intp), (x0, x1, x2, x3))


def _philox_uniforms(key0: int, key1: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The doubles numpy's Generator.random draws at those offsets of those
    streams: _word_uniforms of the outputs of _philox_raw."""
    return _word_uniforms(_philox_raw(key0, key1, at))


def sample_gas(
    spec: GasSpec,
    dipole_direction=(0.0, 0.0, 1.0),
    rng: np.random.Generator | None = None,
) -> tuple:
    """Selected atom at the origin, unobserved atoms uniform in the shell
    exclusion_radius <= r <= horizon.

    Sampling is exact (r^3 uniform in [l^3, H^3], direction uniform on the
    sphere), so no rejection loop exists. The atom count follows the spec's
    count rule, checked when the GasSpec was built. Deterministic for a given
    seed; an explicit rng overrides the seed for substream use.
    """
    if rng is None:
        rng = _sample_rng(spec.seed, 0)
    r, _, n = _shell_draws(spec, rng)
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


def pair_arrays(config: AtomConfig, indices_a, indices_b):
    """Vectorized (r, cos theta) between every atom of indices_a and of
    indices_b; shape (len(a), len(b)). Coincident pairs come out as r = 0 and
    cos theta = 1; callers decide whether that is an error. An r^2 that
    overflows, or underflows for distinct atoms, raises (the dipole length's rule)."""
    indices_a = np.asarray(indices_a, dtype=int)
    indices_b = np.asarray(indices_b, dtype=int)
    with np.errstate(over="ignore"):  # r = inf raises below
        delta = config.positions[indices_a][:, None, :] - config.positions[indices_b][None, :, :]
        r = np.linalg.norm(delta, axis=2)
    bad = (r == math.inf) | ((r < _LENGTH_MIN) & np.any(delta, axis=2))
    if bad.any():
        a, b = np.argwhere(bad)[0]
        flow = "overflows" if r[a, b] == math.inf else "underflows"
        where = f"separation of atoms {indices_a[a]} and {indices_b[b]}"
        raise GeometryError(f"{where} {flow} when squared; scale the geometry toward 1")
    dot = np.tensordot(delta, config.dipole_direction, axes=([2], [0]))
    cos_t = np.where(r > 0, dot / np.where(r > 0, r, 1.0), 1.0)
    return r, np.clip(cos_t, -1.0, 1.0)
