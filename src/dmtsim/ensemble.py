"""Monte Carlo average of the gas indirect kernel Phi_00 with error bars.

Gas samples are independent draws of the atom cloud, each from its own
Philox substream keyed by (seed, sample index), so results are reproducible
across platforms; dmtsim.geometry draws them and owns the stream. The
estimator sums phi^2 over each sample's drawn (r, cos theta); under the far
field only the atoms with r <= t are drawn in full, since every other atom
sits outside the sharp light cone and contributes exactly 0. An n_samples
that is not an integer >= 2, or a kernel_policy that is not a KernelPolicy
member, is an EnsembleError raised before any draw, and so is a sample whose
Phi_00 is not finite, once drawn. The analytic finite-range far-field
average is the validation oracle.
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
        if not (self.std_error >= 0):
            raise EnsembleError("std_error must be >= 0")


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
    and its count rule spec.fixed_count; sample i is geometry's (seed, i)
    substream, and phi is evaluated on its drawn (r, cos^2 theta) with theta
    from the z axis, the dipole of sample_gas's default configuration.
    FAR_FIELD evaluates phi only on the atoms with r <= t; every other atom
    contributes exactly 0 there. The closed form and the quadrature evaluate
    every atom, since their phi is nonzero outside the light cone. Each
    sample's sum of phi^2 is np.sum over its own atoms alone.
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
    reach = _phi_reach(t, kernel_policy)
    totals = np.empty(n_samples)
    for index, sizes, r, cos_t in _geometry._shell_samples(spec, n_samples, reach):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked below
            phi2 = _phi(t, r, cos_t**2, bath, kernel_policy) ** 2
        stop = 0
        for i, size in zip(index, sizes):
            totals[i] = np.sum(phi2[stop : stop + size])
            stop += size
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

