"""Decoherence metric tensor: assembly, codeword distances, property checks.

M(t) = 4 f + 2 Phi over the selected atoms. The direct part 4 f comes from
each selected atom's own bath coupling; the indirect part 2 Phi traces out
the unobserved atoms, Phi_ij = sum_k phi_ik phi_jk, assembled literally as a
Gram product so it is positive semidefinite by construction. Squared metric
distance between codewords approximates their mutual decoherence while every
entry of M stays small; the validity flag tracks that regime.

One engine assembles M over a whole time grid. A kernel value depends on a
pair only through its (r, cos^2 theta), so the engine reduces each pair
block once per curve to one key table: the block's sorted distinct keys,
each key's first atom pair, and every pair's key index. phi runs on
(time, key) blocks of the selected x unobserved table, where a key at r = 0
is a rejected coincidence, through the formula kernels maps the kernel
policy to. f runs through kernels' f route on the n x n selected table,
whose key 0 (r = 0) is the diagonal and every coincident selected pair.
build_metric is that engine at a single t; the CLI runs it once per curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as _geometry
from .geometry import AtomConfig, GeometryError, SelectionMask
from .kernels import BathParams, KernelPolicy
from .kernels import _BLOCK, _f, _phi

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


class MetricError(ValueError):
    """Bad codeword or tensor input, or a quadratic form negative beyond tolerance."""


@dataclass(frozen=True)
class MetricTensor:
    """Time slice of the metric: direct (4f) and indirect (2Phi) parts.

    validity_flag is True while max |M_ij| stays below 0.1, the
    small-coupling regime where squared distance tracks decoherence.
    """

    time: float
    direct_part: np.ndarray
    indirect_part: np.ndarray
    validity_flag: bool

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.direct_part, dtype=float))
        i = np.atleast_2d(np.asarray(self.indirect_part, dtype=float))
        if d.shape != i.shape or d.shape[0] != d.shape[1]:
            raise MetricError("direct and indirect parts must be equal square matrices")
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


def _phi_gram(r_k, cos2_k, inverse, bath, times, policy) -> np.ndarray:
    """2 Phi_ij = 2 sum_k phi_ik phi_jk over the unobserved atoms at each
    positive time, shape (T, n, n), from phi on (time, key) blocks of the
    selected x unobserved key table."""
    n = inverse.shape[0]
    step = max(1, _BLOCK // r_k.size)
    out = np.empty((times.size, n, n))
    for start in range(0, times.size, step):
        block = times[start : start + step, None]
        # _assemble reports a non-finite M; where r^3 overflows, phi takes its limit 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            # np.take keeps the scatter C-ordered: the Gram product's BLAS route,
            # and so its last bits, then do not depend on the block's length
            phi = np.take(_phi(block, r_k, cos2_k, bath, policy), inverse, axis=1)
            out[start : start + step] = 2.0 * (phi @ phi.transpose(0, 2, 1))
    return out


def _assemble(
    config: AtomConfig,
    mask: SelectionMask,
    bath: BathParams,
    times,
    kernel_policy: KernelPolicy = KernelPolicy.CLOSED_FORM,
):
    """Direct and indirect (T, n, n) stacks and (T,) validity flags of M(t)
    over a time grid; build_metric documents the assembly.

    Every kernel value depends on a pair only through its (r, cos^2 theta), so
    each pair block is reduced once per curve to its key table (a lattice
    has 8-fold symmetry), and the kernels run on (time, key) blocks whose
    results are scattered back through the inverse index. Rows at t = 0 are
    exact zeros.
    """
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise MetricError("time must be finite and >= 0")
    if not isinstance(kernel_policy, KernelPolicy):
        raise MetricError("kernel_policy must be a KernelPolicy member")
    if mask.n_atoms != len(config):
        raise MetricError(f"mask covers {mask.n_atoms} atoms, the configuration {len(config)}")
    n = mask.n_selected

    r_k, cos2_k, pairs, inverse = _key_table(config, mask.selected, mask.unobserved)
    if r_k.size and r_k[0] == 0.0:
        raise GeometryError(
            f"selected atom {pairs[0, 0]} coincides with unobserved atom {pairs[1, 0]} (r = 0)"
        )

    direct = np.zeros((times.size, n, n))
    indirect = np.zeros((times.size, n, n))
    live = times > 0.0
    if live.any():
        r_f, cos2_f, pairs_f, inverse_f = _key_table(config, mask.selected, mask.selected)
        f = np.take(_f(times[live], r_f, cos2_f, bath, pairs_f), inverse_f, axis=1)
        with np.errstate(over="ignore"):  # a non-finite M is reported below
            direct[live] = 4.0 * f
        if r_k.size:
            indirect[live] = _phi_gram(r_k, cos2_k, inverse, bath, times[live], kernel_policy)
    # a finite sum of |entries| bounds M, its trace and the CSV's column sums
    with np.errstate(over="ignore"):  # a non-finite M raises below
        bad = ~np.isfinite(np.abs(direct).sum(axis=(1, 2)) + np.abs(indirect).sum(axis=(1, 2)))
    if bad.any():
        raise MetricError(f"direct or indirect part of M is not finite at t = {times[bad][0]:.6g}")
    valid = np.max(np.abs(direct + indirect), axis=(1, 2)) < _VALIDITY_THRESHOLD
    return direct, indirect, valid


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
    Both parts come from the key tables of their pair blocks. Key 0 of the
    selected block (r = 0) is the diagonal and every coincident selected
    pair, so coincident selected atoms get identical kernel rows. At zero
    temperature every f is closed, so no panel budget limits t; under a warm
    bath every key takes one quadrature per time, to 1e-11 of the diagonal
    that the same call computes first (kernels._f). A selected-unobserved
    coincidence is rejected because phi diverges there, and so are a
    separation whose square over- or underflows, a mask built for another
    atom count than len(config), and an M whose entries, or the sum of
    their sizes, are not finite.

    This is the one-time slice of the curve engine that the CLI runs over a
    whole time grid, so it equals that curve's row at t bit for bit. A warm
    quadrature that misses its tolerance raises QuadratureError naming the
    key's atom pair.
    """
    direct, indirect, valid = _assemble(config, mask, bath, [t], kernel_policy)
    return MetricTensor(float(t), direct[0], indirect[0], bool(valid[0]))


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
    sequences of n entries that are each exactly -1 or +1. A quadratic form
    below -epsilon raises; one in [-epsilon, 0) clamps to zero."""
    if len(s) != M.n or len(s2) != M.n:
        raise MetricError(f"codeword length must match n = {M.n}")
    words = np.asarray([s, s2], dtype=float)
    if not np.all(np.abs(words) == 1.0):
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


@dataclass(frozen=True)
class TriangleReport:
    passed: bool
    triples: int
    max_violation: float
    tolerance: float


def check_triangle(M: MetricTensor, triples: int, seed: int) -> TriangleReport:
    """Random codeword triples (s, s', s''): d(s, s'') <= d(s, s') + d(s', s'')
    up to a slack covering both the epsilon clamp and sqrt-level roundoff.

    The codeword bits are drawn as int32, which gives the same values as
    numpy's default int64 draw from the same generator in half the memory
    (tests/test_metric.py holds the two equal)."""
    rng = _check_rng("triples", triples, seed)
    b = rng.integers(0, 2, size=(3, triples, M.n), dtype=np.int32)
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

