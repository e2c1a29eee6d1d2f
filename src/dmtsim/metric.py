"""Decoherence metric tensor: assembly, codeword distances, property checks.

M(t) = 4 f + 2 Phi over the selected atoms. The direct part 4 f comes from
each selected atom's own bath coupling; the indirect part 2 Phi traces out
the unobserved atoms, Phi_ij = sum_k phi_ik phi_jk, assembled literally as a
Gram product so it is positive semidefinite by construction. Squared metric
distance between codewords approximates their mutual decoherence while every
entry of M stays small; the validity flag tracks that regime.

One engine assembles M over a whole time grid. A kernel value depends on a
pair only through its (r, cos^2 theta), so the engine reduces each pair
block to one key table: the block's sorted distinct keys, each key's first
atom pair, and every pair's key index. _pair_tables builds both tables, f's
key counts and P's distinct columns from the geometry alone, once per
geometry, so the curves of a kappa sweep share them. phi runs on
(time, key) blocks of the selected x unobserved table, where a key at r = 0
is a rejected coincidence, through the formula kernels maps the kernel
policy to. f runs through kernels' f route on the n x n selected table,
whose key 0 (r = 0) is the diagonal and every coincident selected pair.
Each kernel call covers up to _KERNEL_BLOCK (time, key) values. A curve
row needs two sums and M's diagonal maximum, which each time gives in
O(n m), with no n x n array: f's entry sum is sum_k count_k f_k over its
keys, its diagonal f at key 0; with P the (n, m) phi block, Phi's entry sum
is ||P^T 1||^2 and Phi_ii = sum_j P_ij^2, each a dot over P's distinct
columns with their counts. Only the last time's tensor is built, as a Gram
product. build_metric is that engine at a single t; the CLI runs it once
per curve, on the tables of the curve's geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as _geometry
from .geometry import AtomConfig, GeometryError, SelectionMask
from .kernels import BathParams, KernelPolicy
from .kernels import _f, _phi

__all__ = [
    "MetricTensor",
    "MetricError",
    "build_metric",
    "distance",
    "decoherence",
    "check_nonnegative",
    "check_triangle",
    "NonNegativityReport",
    "TriangleReport",
]

# max |M_ij| below which squared distance tracks decoherence (validity_flag)
_VALIDITY_THRESHOLD = 0.1

# (time, key) values per f or phi kernel call in _assemble. Each call has a
# fixed cost, and the kernels and Si hold several temporaries of a block's
# size: at 2^14 a figure curve (225 times x 119 keys) takes 2 phi calls, and
# 2^15 was no faster while holding more.
_KERNEL_BLOCK = 2**14
# Values per array in a sub-block of the gathered (times, n, U) phi block,
# U <= m its distinct columns, and of its square. A kernel block of K keys
# gathers n U / K times its own size, large for a symmetric lattice with many
# selected atoms; with both budgets the engine's memory is bounded whatever
# n, m and K are: 120 selected of 121 atoms (19 keys, 225 times) trace 3.5 MB.
_PART_BLOCK = 2**18


class MetricError(ValueError):
    """Bad codeword or tensor input, or a quadratic form negative beyond tolerance."""


@dataclass(frozen=True)
class MetricTensor:
    """Time slice of the metric: direct (4f) and indirect (2Phi) parts.

    validity_flag is True while max |M_ij| stays below 0.1, the
    small-coupling regime where squared distance tracks decoherence. M is
    positive semidefinite, so that maximum is its largest diagonal entry.
    """

    time: float
    direct_part: np.ndarray
    indirect_part: np.ndarray
    validity_flag: bool

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.direct_part, dtype=float))
        i = np.atleast_2d(np.asarray(self.indirect_part, dtype=float))
        square = d.ndim == 2 and d.shape == i.shape and d.shape[0] == d.shape[1] and d.size > 0
        if not (square and np.all(np.isfinite(d)) and np.all(np.isfinite(i))):
            raise MetricError("direct and indirect parts must be equal finite nonempty squares")
        object.__setattr__(self, "direct_part", _geometry._as_readonly(d))
        object.__setattr__(self, "indirect_part", _geometry._as_readonly(i))

    @property
    def n(self) -> int:
        return self.direct_part.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return self.direct_part + self.indirect_part

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    @property
    def epsilon(self) -> float:
        """Negativity tolerance for quadratic forms: 1e-10 x trace."""
        return 1e-10 * abs(self.trace)


def _key_table(config: AtomConfig, rows, cols):
    """The distinct (r, cos^2 theta) keys of a rows x cols pair block, sorted
    by r and then cos^2 theta: (r_keys, cos2_keys, pairs, inverse). pairs[:, k]
    is key k's first (row, col) atom pair in row-major order, and inverse,
    shaped like the block, holds each pair's key. Pairs at theta and
    pi - theta share a key; coincident atoms (r = 0, cos theta = 1) all share
    the first key."""
    r, cos_t = _geometry.pair_arrays(config, rows, cols)
    # complex keys r + i cos^2 theta sort by r, then cos^2 theta, in a 1-D
    # np.unique several times faster than one over the columns of a 2-row array
    keys, first, inverse = np.unique(
        r.ravel() + 1j * cos_t.ravel() ** 2, return_index=True, return_inverse=True
    )
    i, j = np.unravel_index(first, r.shape)
    pairs = np.stack([rows[i], cols[j]])
    # contiguous copies: numpy's SIMD sin and cos, and so the kernels' last
    # bits, may take another route on a strided view
    return keys.real.copy(), keys.imag.copy(), pairs, inverse.reshape(r.shape)


def _pair_tables(config: AtomConfig, mask: SelectionMask, direct: bool = True):
    """What the engine derives from a geometry alone, so that the curves of
    one geometry (a kappa sweep's) share it: (phi_keys, columns, weight,
    f_keys, count). phi_keys is the selected x unobserved key table, and
    columns and weight are P's distinct columns and their counts (None
    without unobserved atoms). f_keys is the selected x selected table and
    count each of its keys' pair count, built only if direct: only a positive
    time needs f. A mask built for another atom count than len(config), and
    a selected atom on an unobserved one, raise.
    """
    if mask.n_atoms != len(config):
        raise MetricError(f"mask covers {mask.n_atoms} atoms, the configuration {len(config)}")
    phi_keys = _key_table(config, mask.selected, mask.unobserved)
    r_k, _, pairs, inverse = phi_keys
    if r_k.size and r_k[0] == 0.0:
        raise GeometryError(
            f"selected atom {pairs[0, 0]} coincides with unobserved atom {pairs[1, 0]} (r = 0)"
        )
    columns = weight = f_keys = count = None
    if r_k.size:  # P's distinct columns and their counts w: the figure's 960 are 119
        ordered = inverse[:, np.lexsort(inverse)]
        start = np.flatnonzero(np.r_[True, np.any(ordered[:, 1:] != ordered[:, :-1], axis=0)])
        columns, weight = ordered[:, start], np.diff(start, append=inverse.shape[1]).astype(float)
    if direct:
        f_keys = _key_table(config, mask.selected, mask.selected)
        count = np.bincount(f_keys[3].ravel())
    return phi_keys, columns, weight, f_keys, count


def _assemble(
    config: AtomConfig,
    mask: SelectionMask,
    bath: BathParams,
    times,
    kernel_policy: KernelPolicy = KernelPolicy.CLOSED_FORM,
    tables=None,
):
    """(d_direct, d_indirect, valid, final) of M(t) over a nonempty time grid:
    the (T,) sums of the direct and of the indirect entries, the (T,)
    validity flags, and the MetricTensor at the last time; build_metric
    documents the assembly. Each pair block is reduced to its key table by
    _pair_tables, once per call unless tables holds that of (config, mask).
    The kernels run on blocks of _KERNEL_BLOCK // K times over
    the table's K keys, and phi is gathered over P's U distinct columns in
    sub-blocks of _PART_BLOCK // (n U) times. Each time is reduced on its
    own, by sums along fixed axes and one dot with the column counts per
    time and row, so no bit depends on the block lengths or the other times,
    and memory does not grow with T; t = 0 rows are exact zeros. The n x n
    parts are formed once, at the last time.
    """
    times = np.asarray(times, dtype=float)
    if not (times.size and np.all(np.isfinite(times) & (times >= 0))):
        raise MetricError("time must be finite and >= 0, in a nonempty grid")
    if not isinstance(kernel_policy, KernelPolicy):
        raise MetricError("kernel_policy must be a KernelPolicy member")
    live = np.flatnonzero(times > 0.0)
    if tables is None:
        tables = _pair_tables(config, mask, live.size > 0)
    (r_k, cos2_k, _, inverse), columns, weight, f_keys, count = tables
    n = mask.n_selected
    # per time: each part's entry sum, and M's diagonal maximum
    sums, peak, final = np.zeros((2, times.size)), np.zeros(times.size), np.zeros((2, n, n))
    if live.size:
        r_f, cos2_f, pairs_f, inverse_f = f_keys
        step = max(1, _KERNEL_BLOCK // r_f.size)
        for at in (live[s : s + step] for s in range(0, live.size, step)):
            with np.errstate(over="ignore"):  # a non-finite M raises below
                f = 4.0 * _f(times[at], r_f, cos2_f, bath, pairs_f)
            with np.errstate(over="ignore", invalid="ignore"):
                sums[0, at], peak[at] = (f * count).sum(axis=1), f[:, 0]
    if live.size and r_k.size:
        step, sub = max(1, _KERNEL_BLOCK // r_k.size), max(1, _PART_BLOCK // columns.size)
        for at in (live[s : s + step] for s in range(0, live.size, step)):
            # a non-finite M raises below; where r^3 overflows, phi divides by r thrice
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                phi = _phi(times[at, None], r_k, cos2_k, bath, kernel_policy)
                for j in range(0, at.size, sub):
                    rows, part = at[j : j + sub], np.take(phi[j : j + sub], columns, axis=1)
                    # Phi's entry sum ||P^T 1||^2 and Phi_ii = sum_j P_ij^2: one
                    # dot with w per time and row, whatever the block's length
                    sums[1, rows] = 2.0 * (np.square(part.sum(axis=1))[:, None] @ weight)[:, 0]
                    peak[rows] += 2.0 * (np.square(part) @ weight).max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite M raises below
        if times[-1] > 0.0:  # the one n x n product, at the last block's last time
            final[0] = f[-1][inverse_f]
            part = phi[-1][inverse] if r_k.size else np.zeros((n, 0))
            final[1] = 2.0 * (part @ part.T)
        # the CSV's columns are the two sums and their total; M is positive
        # semidefinite, so n times its diagonal maximum bounds its entries and trace
        bad = np.flatnonzero(~np.isfinite([*sums, sums[0] + sums[1], n * peak]).all(axis=0))
    if bad.size:
        raise MetricError(f"direct or indirect part of M is not finite at t = {times[bad[0]]:.6g}")
    valid = peak < _VALIDITY_THRESHOLD
    return sums[0], sums[1], valid, MetricTensor(float(times[-1]), *final, bool(valid[-1]))


def build_metric(
    config: AtomConfig,
    mask: SelectionMask,
    bath: BathParams,
    t: float,
    kernel_policy: KernelPolicy = KernelPolicy.CLOSED_FORM,
) -> MetricTensor:
    """Assemble M(t) = 4 f + 2 Phi for the selected atoms.

    kernel_policy selects only the phi evaluation: the Si closed form, its far
    field, or QUADRATURE, the full radial integral with the cutoff-edge terms
    kept, evaluated in closed form and checked against reduced_quadrature.
    Coincident selected atoms share key 0 and so get identical kernel rows.
    At zero temperature every f is closed, so no panel budget limits t; under
    a warm bath every key takes one quadrature per time (kernels._f), and one
    that misses its tolerance raises QuadratureError naming the key's atom
    pair. A selected-unobserved coincidence is rejected because phi diverges
    there, and so are a separation whose square over- or underflows, a mask
    built for another atom count than len(config), and an M whose entry
    sums, their total or n times its diagonal maximum are not finite (M is
    positive semidefinite, so that maximum bounds every entry and the trace).

    This is the curve engine at the one time t, the final tensor of a
    one-time grid. The CLI runs the engine over a whole grid: that curve's
    sums and flag at t are, bit for bit, those of the engine run at t alone,
    and its final tensor is build_metric at its last time, bit for bit. A
    curve sums Phi as ||P^T 1||^2, not over this tensor's entries, so each
    sum is within rounding of this tensor's entry sum, not its bits.
    """
    return _assemble(config, mask, bath, [t], kernel_policy)[3]


# Multiply-adds per BLAS product in _forms, half the size from which
# OpenBLAS 0.3.31 ran a product on two threads on a 2-core Xeon VM (1,024,000
# for n = 40; 960,000 was still serial). The second thread spins between
# products: one product over 1000 codeword rows doubled the process CPU time
# of the 40-atom codeword benchmark's passes and lowered no wall time.
_SERIAL_PRODUCT = 2**19


def _forms(matrix: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x^T matrix x over the last axis of x, a row or a (k, n) stack of rows.

    BLAS products x @ matrix over blocks of rows, each small enough to run
    on one thread, then a row dot: x^T M^T x = x^T M x for any square M,
    symmetric or not. For 3000 x 40 rows the products take 0.3 ms and the
    einsum contraction "ij,...j->...i" they replace 2.8 ms (medians, 2-core
    Xeon VM). check_triangle passes each difference set on its own: one
    stacked call over all three raised the 40-atom codeword benchmark's peak
    RSS from 41.0 to 43.5 MB.
    """
    rows = np.atleast_2d(x)
    xm = np.empty(rows.shape)
    step = max(1, _SERIAL_PRODUCT // max(matrix.size, 1))
    for start in range(0, rows.shape[0], step):
        np.matmul(rows[start : start + step], matrix, out=xm[start : start + step])
    q = np.einsum("...i,...i->...", x, xm.reshape(x.shape))
    if not np.all(np.isfinite(q)):
        raise MetricError("a quadratic form of M is not finite; M is too close to the float range")
    return q


def _clamped_forms(matrix: np.ndarray, x: np.ndarray, eps: float) -> np.ndarray:
    """_forms with negatives down to -eps clamped to zero; below -eps raises."""
    q = _forms(matrix, x)
    worst = float(q.min()) if q.size else 0.0
    if worst < -eps:
        raise MetricError(
            f"quadratic form {worst:.3e} below -epsilon ({-eps:.3e}); kernel bug upstream"
        )
    return np.where(q < 0.0, 0.0, q)


def distance(M: MetricTensor, s, s2) -> float:
    """Metric distance (1/2) sqrt((s - s2)^T M (s - s2)) between codewords,
    sequences of n entries that are each exactly the number -1 or +1, not a
    bool. A quadratic form below -epsilon raises; one in [-epsilon, 0)
    clamps to zero."""
    try:
        words = np.asarray([s, s2])
    except ValueError:  # sequences of unequal lengths or of nested entries
        words = np.empty(0)
    if words.shape != (2, M.n):
        raise MetricError(f"codewords must be two sequences of length n = {M.n}")
    # np.asarray takes True for 1, and turns a mixed (True, 1) into ints
    bools = any(isinstance(x, (bool, np.bool_)) for word in (s, s2) for x in word)
    if bools or words.dtype.kind not in "iuf" or not np.all(np.abs(words) == 1.0):
        raise MetricError("codeword entries must be -1 or +1")
    return 0.5 * math.sqrt(float(_clamped_forms(M.matrix, words[0] - words[1], M.epsilon)))


@dataclass(frozen=True)
class DecoherenceResult:
    value: float
    valid: bool


def decoherence(M: MetricTensor, s, s2) -> DecoherenceResult:
    """Squared metric distance, the small-M decoherence estimate, plus the
    tensor's validity flag."""
    d = distance(M, s, s2)
    return DecoherenceResult(value=d * d, valid=M.validity_flag)


def _check_rng(name: str, count, seed) -> np.random.Generator:
    """The Philox generator keyed seed for a property check of count draws.
    A count that is not an integer >= 1, or a seed outside Philox's key
    range [0, 2**128), raises MetricError before anything is drawn: Philox
    would truncate a float key, and a bool is not a count."""
    if not (_geometry._is_integer(count) and count >= 1):
        raise MetricError(f"{name} must be an integer >= 1, got {count!r}")
    if not (_geometry._is_integer(seed) and 0 <= int(seed) < 2**128):
        raise MetricError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=int(seed)))


@dataclass(frozen=True)
class NonNegativityReport:
    passed: bool
    trials: int
    min_form: float
    min_direct_form: float
    indirect_min_eigenvalue: float
    tolerance: float


def check_nonnegative(M: MetricTensor, trials: int, seed: int) -> NonNegativityReport:
    """Random-vector check x^T M x >= -epsilon, with the two summands probed
    separately: the direct part through its own quadratic forms, the indirect
    part through its smallest eigenvalue (it is a Gram matrix, so the
    eigenvalue floor is -1e-12 times the largest)."""
    rng = _check_rng("trials", trials, seed)
    x = rng.standard_normal((trials, M.n))
    total = _forms(M.matrix, x)
    direct = _forms(M.direct_part, x)
    eigs = np.linalg.eigvalsh(M.indirect_part)
    tol = M.epsilon
    tol_direct = 1e-10 * abs(float(np.trace(M.direct_part)))
    eig_floor = -1e-12 * max(float(eigs[-1]), 0.0)
    passed = (
        float(total.min()) >= -tol
        and float(direct.min()) >= -tol_direct
        and float(eigs[0]) >= eig_floor
    )
    return NonNegativityReport(
        passed=bool(passed),
        trials=trials,
        min_form=float(total.min()),
        min_direct_form=float(direct.min()),
        indirect_min_eigenvalue=float(eigs[0]),
        tolerance=tol,
    )


def _random_bits(rng: np.random.Generator, shape) -> np.ndarray:
    """rng.integers(0, 2, size=shape, dtype=np.int32) of a fresh Philox
    generator, read from its raw words: that draw's bit is the top bit of a
    32-bit half of the next word, low half first (Lemire's method with a
    range of 2 never rejects), and a shift of the halves takes about half the
    draw's time (tests/test_metric.py holds the two equal)."""
    count = math.prod(shape)
    words = rng.bit_generator.random_raw(-(-count // 2)).astype("<u8", copy=False)
    halves = words.view("<u4")  # low half first on any byte order
    np.right_shift(halves, 31, out=halves)  # in place, in the words' memory
    return halves[:count].view("<i4").reshape(shape)


@dataclass(frozen=True)
class TriangleReport:
    passed: bool
    triples: int
    max_violation: float
    tolerance: float


def check_triangle(M: MetricTensor, triples: int, seed: int) -> TriangleReport:
    """Random codeword triples (s, s', s''): d(s, s'') <= d(s, s') + d(s', s'')
    up to a slack covering both the epsilon clamp and sqrt-level roundoff.

    The codeword bits are _random_bits, those of numpy's
    rng.integers(0, 2, size=(3, triples, n)) in half the time."""
    rng = _check_rng("triples", triples, seed)
    b = _random_bits(rng, (3, triples, M.n))
    mat = M.matrix
    eps = M.epsilon
    # s - s' = 2 (b - b') exactly, for the codewords s = 2 b - 1
    d12 = 0.5 * np.sqrt(_clamped_forms(mat, 2.0 * (b[0] - b[1]), eps))
    d23 = 0.5 * np.sqrt(_clamped_forms(mat, 2.0 * (b[1] - b[2]), eps))
    d13 = 0.5 * np.sqrt(_clamped_forms(mat, 2.0 * (b[0] - b[2]), eps))
    violation = d13 - d12 - d23
    trace = max(M.trace, 0.0)
    slack = 1e-10 * max(trace, M.n * math.sqrt(trace))
    worst = float(violation.max()) if violation.size else 0.0
    return TriangleReport(
        passed=bool(worst <= slack),
        triples=triples,
        max_violation=worst,
        tolerance=slack,
    )

