"""Decoherence metric tensor: assembly, codeword distances, property checks.

M(t) = 4 f + 2 Phi over the selected atoms. The direct part 4 f comes from
each selected atom's own bath coupling; the indirect part 2 Phi traces out
the unobserved atoms, Phi_ij = sum_k phi_ik phi_jk, assembled literally as a
Gram product so it is positive semidefinite by construction. Squared metric
distance between codewords approximates their mutual decoherence while every
entry of M stays small; the validity flag tracks that regime.
"""

from __future__ import annotations

import enum
import io
import math
from dataclasses import dataclass

import numpy as np

from . import geometry as _geometry
from .geometry import AtomConfig, GeometryError, SelectionMask
from .kernels import (
    BathParams,
    KernelDomainError,
    PairGeometry,
    QuadratureError,
    TimeKernel,
    f_diag,
    reduced_quadrature,
)
from .kernels import _phi_closed_rt, _phi_edge_rt, _phi_farfield_rt

__all__ = [
    "KernelPolicy",
    "Codeword",
    "MetricTensor",
    "MetricError",
    "build_metric",
    "distance",
    "decoherence",
    "DecoherenceResult",
    "hamming",
    "check_nonnegative",
    "check_triangle",
    "find_null_pairs",
    "metric_to_csv",
    "metric_from_csv",
]


class MetricError(ValueError):
    """Codeword/tensor misuse, or a quadratic form negative beyond tolerance."""


class KernelPolicy(enum.Enum):
    """Which phi evaluation feeds the indirect part.

    CLOSED_FORM is the Si-based form without the cutoff-edge terms, FAR_FIELD
    its sharp light-cone limit. QUADRATURE is the full radial integral with
    the cutoff-edge terms kept, evaluated in closed form (the phi_exact
    formula) and checked against reduced_quadrature.
    """

    CLOSED_FORM = "closed"
    FAR_FIELD = "farfield"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class Codeword:
    """Pointer-basis label: entries are -1 or +1."""

    bits: tuple

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if not bits or any(b not in (-1, 1) for b in bits):
            raise MetricError("codeword entries must be -1 or +1")
        object.__setattr__(self, "bits", bits)

    def __len__(self) -> int:
        return len(self.bits)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.bits, dtype=float)


def _as_codeword(s) -> Codeword:
    return s if isinstance(s, Codeword) else Codeword(tuple(s))


@dataclass(frozen=True)
class MetricTensor:
    """Time slice of the metric: direct (4f) and indirect (2Phi) parts.

    validity_flag is True while max |M_ij| stays below validity_threshold
    (default 0.1), the small-coupling regime where squared distance tracks
    decoherence.
    """

    time: float
    direct_part: np.ndarray
    indirect_part: np.ndarray
    validity_flag: bool
    validity_threshold: float = 0.1

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


def _diag_f(t: float, bath: BathParams, quad_tol) -> float:
    """Coincident-point f: closed form at zero temperature, quadrature with a
    self-scaled tolerance otherwise."""
    if bath.inv_temperature is None:
        return float(f_diag(t, bath))
    geom = PairGeometry(r=0.0, theta=0.0)
    first = reduced_quadrature(t, geom, bath, TimeKernel.F_KERNEL, tol=quad_tol or 1e-10)
    if quad_tol is None and first > 0:
        return reduced_quadrature(
            t, geom, bath, TimeKernel.F_KERNEL, tol=max(1e-11 * first, 1e-18)
        )
    return first


def _phi_matrix(t, r, theta, bath: BathParams, policy: KernelPolicy) -> np.ndarray:
    """phi over arrays of (r, theta) at time t under a kernel policy.

    QUADRATURE is the full radial integral: the closed part plus the
    cutoff-edge terms, exact at every temperature since phi has no thermal
    factor.
    """
    if not np.all(np.isfinite(r)):
        raise KernelDomainError("pair separation r must be finite and >= 0")
    if policy is KernelPolicy.FAR_FIELD:
        return _phi_farfield_rt(t, r, theta, bath.alpha)
    closed = _phi_closed_rt(t, r, theta, bath.alpha, bath.kappa)
    if policy is KernelPolicy.CLOSED_FORM:
        return closed
    return closed + _phi_edge_rt(t, r, theta, bath.alpha, bath.kappa)


def build_metric(
    config: AtomConfig,
    mask: SelectionMask,
    bath: BathParams,
    t: float,
    kernel_policy: KernelPolicy = KernelPolicy.CLOSED_FORM,
    validity_threshold: float = 0.1,
    quad_tol: float | None = None,
) -> MetricTensor:
    """Assemble M(t) = 4 f + 2 Phi for the selected atoms.

    kernel_policy selects only the phi evaluation: the Si closed form, its far
    field, or QUADRATURE, the full radial integral with the cutoff-edge terms
    kept, evaluated in closed form and checked against reduced_quadrature.
    The direct part always uses the closed diagonal plus quadrature
    off-diagonals (quad_tol, when given, is their tolerance), with the
    off-diagonal tolerance otherwise tied to the diagonal magnitude so the
    direct part's positive semidefiniteness is not drowned by quadrature
    noise. Selected atoms may coincide (their kernel rows then agree
    exactly); a selected-unobserved coincidence is rejected because phi
    diverges there.

    Quadrature failures are re-raised with the offending pair attached.
    """
    if not (math.isfinite(t) and t >= 0):
        raise MetricError("time must be finite and >= 0")
    if not isinstance(kernel_policy, KernelPolicy):
        raise MetricError("kernel_policy must be a KernelPolicy member")
    n = mask.n_selected
    indices = np.concatenate([mask.selected, mask.unobserved])
    bad = indices[(indices < 0) | (indices >= len(config))]
    if bad.size:
        raise MetricError(f"mask indices out of range: {bad.tolist()}")

    r_su, cos_su = _geometry.pair_arrays(config, mask.selected, mask.unobserved)
    coincident = np.argwhere(r_su == 0.0)
    if coincident.size:
        i, k = coincident[0]
        raise GeometryError(
            f"selected atom {mask.selected[i]} coincides with unobserved atom "
            f"{mask.unobserved[k]} (r = 0)"
        )

    if t == 0.0:
        zeros = np.zeros((n, n))
        return MetricTensor(0.0, zeros, zeros.copy(), True, validity_threshold)

    # direct part
    diag_val = _diag_f(t, bath, quad_tol)
    f_mat = np.full((n, n), 0.0)
    np.fill_diagonal(f_mat, diag_val)
    if n > 1:
        r_ss, cos_ss = _geometry.pair_arrays(config, mask.selected, mask.selected)
        tol_off = quad_tol if quad_tol is not None else max(1e-11 * diag_val, 1e-300)
        for i in range(n):
            for j in range(i + 1, n):
                if r_ss[i, j] == 0.0:
                    val = diag_val  # coincident selected pair: exact reduction
                else:
                    geom = PairGeometry(r=float(r_ss[i, j]), theta=math.acos(cos_ss[i, j]))
                    try:
                        val = reduced_quadrature(
                            t, geom, bath, TimeKernel.F_KERNEL, tol=tol_off
                        )
                    except QuadratureError as exc:
                        raise QuadratureError(
                            f"direct pair ({mask.selected[i]},{mask.selected[j]}): {exc}",
                            achieved_error=exc.achieved_error,
                        ) from exc
                f_mat[i, j] = f_mat[j, i] = val

    # indirect part, Gram product over unobserved atoms
    if len(mask.unobserved):
        v = _phi_matrix(t, r_su, np.arccos(cos_su), bath, kernel_policy)
        phi_mat = v @ v.T
    else:
        phi_mat = np.zeros((n, n))

    direct = 4.0 * f_mat
    indirect = 2.0 * phi_mat
    valid = bool(np.max(np.abs(direct + indirect)) < validity_threshold)
    return MetricTensor(float(t), direct, indirect, valid, validity_threshold)


def _quadratic_forms(matrix: np.ndarray, deltas: np.ndarray, eps: float) -> np.ndarray:
    """Clamped quadratic forms of rows of deltas; hard error below -eps."""
    q = np.einsum("ti,ij,tj->t", deltas, matrix, deltas)
    worst = float(q.min()) if q.size else 0.0
    if worst < -eps:
        raise MetricError(
            f"quadratic form {worst:.3e} below -epsilon ({-eps:.3e}); kernel bug upstream"
        )
    return np.where(q < 0.0, 0.0, q)


def distance(M: MetricTensor, s, s2) -> float:
    """Metric distance (1/2) sqrt((s - s2)^T M (s - s2)) between codewords.

    Tiny negative quadratic forms (>= -epsilon) clamp to zero; anything more
    negative raises, because assembled tensors are PSD up to numerics.
    """
    a, b = _as_codeword(s), _as_codeword(s2)
    if len(a) != M.n or len(b) != M.n:
        raise MetricError(f"codeword length must match n = {M.n}")
    delta = (a.as_array() - b.as_array())[None, :]
    q = _quadratic_forms(M.matrix, delta, M.epsilon)
    return 0.5 * math.sqrt(float(q[0]))


@dataclass(frozen=True)
class DecoherenceResult:
    value: float
    valid: bool


def decoherence(M: MetricTensor, s, s2) -> DecoherenceResult:
    """Squared metric distance, the small-M decoherence estimate, plus the
    tensor's validity flag."""
    d = distance(M, s, s2)
    return DecoherenceResult(value=d * d, valid=M.validity_flag)


def hamming(s, s2) -> int:
    """Number of differing codeword entries."""
    a, b = _as_codeword(s), _as_codeword(s2)
    if len(a) != len(b):
        raise MetricError("codeword lengths differ")
    return int(sum(1 for x, y in zip(a.bits, b.bits) if x != y))


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
    if trials < 1:
        raise MetricError("trials must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = rng.standard_normal((trials, M.n))
    total = np.einsum("ti,ij,tj->t", x, M.matrix, x)
    direct = np.einsum("ti,ij,tj->t", x, M.direct_part, x)
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
    up to a slack covering both the epsilon clamp and sqrt-level roundoff."""
    if triples < 1:
        raise MetricError("triples must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    s = rng.integers(0, 2, size=(3, triples, M.n)).astype(float) * 2.0 - 1.0
    mat = M.matrix
    eps = M.epsilon
    d12 = 0.5 * np.sqrt(_quadratic_forms(mat, s[0] - s[1], eps))
    d23 = 0.5 * np.sqrt(_quadratic_forms(mat, s[1] - s[2], eps))
    d13 = 0.5 * np.sqrt(_quadratic_forms(mat, s[0] - s[2], eps))
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


def find_null_pairs(M: MetricTensor, max_n: int = 12, null_threshold: float | None = None):
    """All codeword pairs s != s' with distance <= null_threshold (default
    1e-8 sqrt(trace)), the candidate decoherence-free directions.

    Exhaustive over difference directions in {-1, 0, +1}^n (canonical sign:
    first nonzero entry +1), each null direction expanded over the 2^z
    assignments of its zero coordinates. Refuses n > max_n.
    """
    n = M.n
    if n > max_n:
        raise MetricError(f"n = {n} exceeds max_n = {max_n} (2^n codewords)")
    grids = np.meshgrid(*([np.array([-1.0, 0.0, 1.0])] * n), indexing="ij")
    vs = np.stack([g.ravel() for g in grids], axis=1)
    nonzero = vs != 0.0
    has_any = nonzero.any(axis=1)
    first = np.argmax(nonzero, axis=1)
    lead = vs[np.arange(len(vs)), first]
    vs = vs[has_any & (lead > 0)]
    # vs holds half-differences (s - s')/2, so distance = sqrt(v M v)
    q = np.einsum("ti,ij,tj->t", vs, M.matrix, vs)
    if null_threshold is None:
        thr = 1e-16 * max(M.trace, 0.0)
    else:
        thr = float(null_threshold) ** 2
    pairs = []
    for v in vs[q <= thr]:
        free = np.flatnonzero(v == 0.0)
        for assignment in range(1 << len(free)):
            s = v.copy()
            s2 = -v
            for bit, idx in enumerate(free):
                val = 1.0 if (assignment >> bit) & 1 else -1.0
                s[idx] = val
                s2[idx] = val
            pairs.append((Codeword(tuple(int(b) for b in s)), Codeword(tuple(int(b) for b in s2))))
    return pairs


def metric_to_csv(M: MetricTensor) -> str:
    """Row-major CSV of the total matrix, with t and the validity flag in the
    header comments. Full round-trip precision."""
    buf = io.StringIO()
    buf.write(f"# t={M.time:.17g}\n")
    buf.write(f"# valid={int(M.validity_flag)}\n")
    buf.write(f"# n={M.n}\n")
    for row in M.matrix:
        buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return buf.getvalue()


def metric_from_csv(text: str):
    """Parse metric_to_csv output: returns (t, valid, matrix)."""
    t = None
    valid = None
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("t="):
                t = float(body[2:])
            elif body.startswith("valid="):
                valid = bool(int(body[6:]))
            continue
        rows.append([float(v) for v in line.split(",")])
    if t is None or valid is None or not rows:
        raise MetricError("malformed metric CSV")
    return t, valid, np.array(rows)
