"""Monte Carlo average of the gas indirect kernel Phi_00 with error bars.

Gas samples are independent draws of the atom cloud; per-sample substreams
come from a counter-based Philox generator keyed by (seed, sample index), so
results are reproducible across platforms and trivially parallelizable. The
analytic finite-range far-field average is the validation oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as _geometry
from .geometry import GasSpec
from .kernels import BathParams
from .metric import KernelPolicy, _phi_matrix

__all__ = [
    "EnsembleError",
    "MCResult",
    "RNG_ALGORITHM",
    "average_phi00",
    "analytic_phi00_avg",
    "MC_CSV_HEADER",
    "mc_csv_row",
]

RNG_ALGORITHM = "philox4x64-10 keyed (seed, sample_index)"

MC_CSV_HEADER = "t,mean,std_error,n_samples,seed"


class EnsembleError(ValueError):
    """Invalid ensemble input (time outside the sampled shell, too few samples)."""


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


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def average_phi00(
    spec: GasSpec,
    bath: BathParams,
    t: float,
    n_samples: int,
    kernel_policy: KernelPolicy = KernelPolicy.FAR_FIELD,
    count_mode: str = "poisson",
    fixed_count: int | None = None,
) -> MCResult:
    """Mean and standard error of Phi_00(t) = sum_k phi(t, r_k, theta_k)^2
    over independent gas samples.

    Requires t <= spec.horizon so the light cone stays inside the sampled
    ball, and n_samples >= 2 for a standard error. The master seed is
    spec.seed; sample i uses the (seed, i) substream.
    """
    if not (math.isfinite(t) and t >= 0):
        raise EnsembleError("time must be finite and >= 0")
    if t > spec.horizon:
        raise EnsembleError(
            f"t = {t:g} exceeds the sampling horizon {spec.horizon:g}; atoms inside "
            "the light cone would be missing"
        )
    if n_samples < 2:
        raise EnsembleError("n_samples must be >= 2")
    totals = np.empty(n_samples)
    for i in range(n_samples):
        config, mask = _geometry.sample_gas(
            spec, count_mode=count_mode, fixed_count=fixed_count, rng=_sample_rng(spec.seed, i)
        )
        if len(mask.unobserved) == 0:
            totals[i] = 0.0
            continue
        r, cos_t = _geometry.pair_arrays(config, mask.selected, mask.unobserved)
        phi = _phi_matrix(t, r, np.arccos(cos_t), bath, kernel_policy)
        totals[i] = float(np.sum(phi**2))
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


def mc_csv_row(t: float, result: MCResult) -> str:
    """One CSV row matching MC_CSV_HEADER, full round-trip precision."""
    return (
        f"{t:.17g},{result.mean:.17g},{result.std_error:.17g},"
        f"{result.n_samples},{result.seed}"
    )
