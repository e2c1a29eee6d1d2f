"""Monte Carlo average of the gas indirect kernel Phi_00 with error bars.

Gas samples are independent draws of the atom cloud; per-sample substreams
come from a counter-based Philox generator keyed by (seed, sample index), so
results are reproducible across platforms and trivially parallelizable. One
bit generator serves a whole estimate, rekeyed at each sample. The estimator
works on each sample's drawn (r, cos theta) directly, the first draws
sample_gas takes from the same substream in the same order (count, then n
radii, then n cosines), and evaluates phi on (r, cos^2 theta); it builds no
positions. Under the far field it evaluates only the atoms with r <= t:
every other atom sits outside the sharp light cone and contributes exactly
0. The count and the radii always come from the generator. Where fewer than
one atom in 32 lies inside the cone, the kept atoms' cosine uniforms are
not drawn: a numpy evaluation of Philox4x64-10 computes them at their
stream offsets, for a batch of samples at once, with the generator's bits.
The count rule is the GasSpec's own, checked when the spec is built; an
n_samples that is not an integer >= 2, or a kernel_policy that is not a
KernelPolicy member, is an EnsembleError raised before any draw, and so is a
sample whose Phi_00 is not finite, once drawn. The analytic finite-range
far-field average is the validation oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as _geometry
from .geometry import GasSpec
from .kernels import BathParams, KernelPolicy, _phi, _phi_reach

__all__ = [
    "EnsembleError",
    "MCResult",
    "RNG_ALGORITHM",
    "average_phi00",
    "analytic_phi00_avg",
]

RNG_ALGORITHM = "philox4x64-10 keyed (seed, sample_index)"


class EnsembleError(ValueError):
    """Invalid ensemble input (time outside the shell, too few samples, bad policy)."""


@dataclass(frozen=True)
class MCResult:
    """Sample mean and standard error of Phi_00 over gas realizations."""

    mean: float
    std_error: float
    n_samples: int
    seed: int
    algorithm: str = RNG_ALGORITHM

    def __post_init__(self):
        if self.std_error < 0:
            raise EnsembleError("std_error must be >= 0")


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


# Deferred light-cone atoms evaluated together, however many samples there
# are: the Philox evaluation's temporaries stay near 1 MB. At 1 << 14 the
# 300-sample far-field estimate's peak RSS rose from 38.8 to 40.5 MB.
_DEFERRED_MAX = 1 << 12


def _sum_deferred(totals, deferred, seed, t, bath, policy) -> None:
    """totals[i] for each deferred sample (i, r, at) of _shell_draws: the
    cos theta uniforms of them all from one _philox_uniforms call, phi from
    one _phi call, and each sample's np.sum over its own contiguous slice."""
    index, r, at = zip(*deferred)
    sizes = [part.size for part in r]
    keys = np.repeat(np.array(index, dtype=np.uint64), sizes)
    cos_t = -1.0 + 2.0 * _geometry._philox_uniforms(seed, keys, np.concatenate(at))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked by the caller
        phi2 = _phi(t, np.concatenate(r), cos_t**2, bath, policy) ** 2
    stop = 0
    for i, size in zip(index, sizes):
        totals[i] = np.sum(phi2[stop : stop + size])
        stop += size


def average_phi00(
    spec: GasSpec,
    bath: BathParams,
    t: float,
    n_samples: int,
    kernel_policy: KernelPolicy = KernelPolicy.FAR_FIELD,
) -> MCResult:
    """Mean and standard error of Phi_00(t) = sum_k phi(t, r_k, theta_k)^2
    over independent gas samples.

    Requires t <= spec.horizon so the light cone stays inside the sampled
    ball, an integer n_samples >= 2 for a standard error, and a KernelPolicy
    member, all checked before the first draw. The master seed is spec.seed
    and its count rule spec.fixed_count; sample i uses the (seed, i)
    substream, and phi is evaluated on its drawn (r, cos^2 theta) with theta
    from the z axis, the dipole of sample_gas's default configuration. The
    draws keep their order (count, then n radii, then n cosines), but
    FAR_FIELD evaluates phi only on the atoms with r <= t; every other atom
    contributes exactly 0 there. The closed form and the quadrature evaluate
    every atom, since their phi is nonzero outside the light cone.

    Each sample's count and radii come from one Philox generator, rekeyed to
    (seed, i) at the start of sample i. Its cosines come from the generator
    too, which draws all n, unless fewer than one atom in 32 is kept (as
    under FAR_FIELD at t well inside the horizon): then the generator is left
    after the radii, and the kept atoms' cosine uniforms are computed at
    their stream offsets by _philox_uniforms, in one call for each batch of
    consecutive such samples holding about _DEFERRED_MAX atoms. The bits are
    the same either way, and each sample's sum of phi^2 is np.sum over its
    own atoms alone.
    A sample whose Phi_00 is not finite raises EnsembleError naming the
    first such sample.
    """
    if not (math.isfinite(t) and t >= 0):
        raise EnsembleError("time must be finite and >= 0")
    if t > spec.horizon:
        raise EnsembleError(
            f"t = {t:g} exceeds the sampling horizon {spec.horizon:g}; atoms inside "
            "the light cone would be missing"
        )
    if not (isinstance(n_samples, (int, np.integer)) and n_samples >= 2):
        raise EnsembleError(f"n_samples must be an integer >= 2, got {n_samples!r}")
    if not isinstance(kernel_policy, KernelPolicy):
        raise EnsembleError("kernel_policy must be a KernelPolicy member")
    totals = np.empty(n_samples)
    reach = _phi_reach(t, kernel_policy)
    rng, deferred, pending = None, [], 0
    for i in range(n_samples):
        rng = _sample_rng(spec.seed, i, rng)
        r, cos_t, at = _geometry._shell_draws(spec, rng, reach)
        if cos_t is not None:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked below
                totals[i] = np.sum(_phi(t, r, cos_t**2, bath, kernel_policy) ** 2)
            continue
        deferred.append((i, r, at))
        pending += r.size
        if pending >= _DEFERRED_MAX:
            _sum_deferred(totals, deferred, spec.seed, t, bath, kernel_policy)
            deferred, pending = [], 0
    if deferred:
        _sum_deferred(totals, deferred, spec.seed, t, bath, kernel_policy)
    bad = np.flatnonzero(~np.isfinite(totals))
    if bad.size:
        raise EnsembleError(f"Phi_00 of sample {bad[0]} is not finite at t = {t:g}")
    mean = float(totals.mean())
    std_error = float(totals.std(ddof=1) / math.sqrt(n_samples))
    return MCResult(mean=mean, std_error=std_error, n_samples=n_samples, seed=spec.seed)


def analytic_phi00_avg(spec: GasSpec, bath: BathParams, t: float) -> float:
    """Exact far-field ensemble average over the shell,
    (16 pi / 15) density alpha^2 t^2 (l^-3 - t^-3).

    Defined for exclusion_radius <= t <= horizon: below l the light cone sits
    inside the exclusion ball (the average is identically 0 there, and the
    formula would go negative), above the horizon the sampled shell misses
    light-cone atoms. The angular factor integral_{-1}^{1} (3u^2 - 1)^2 du =
    8/5 is folded into the 16 pi / 15 prefactor.
    """
    if not (math.isfinite(t) and t >= 0):
        raise EnsembleError("time must be finite and >= 0")
    if t < spec.exclusion_radius:
        raise EnsembleError("t below the exclusion radius: light cone is empty")
    if t > spec.horizon:
        raise EnsembleError("t beyond the horizon: sampled shell misses the light cone")
    l = spec.exclusion_radius
    return (
        16.0
        * math.pi
        / 15.0
        * spec.density
        * bath.alpha**2
        * t**2
        * (l**-3 - t**-3)
    )

