"""The three benchmark workloads and the inputs each one derives from a seed.

Every input is a pure function of (workload, seed), so the same seed always
gives the same inputs. `lattice_figure` ignores the seed by construction.
"""

from __future__ import annotations

import random

WORKLOADS = ("lattice_figure", "gas_mc", "codeword_quadrature")

# Frozen references under perfbench/references/ were generated at this seed.
DEFAULT_SEED = 0

ALPHA = 0.0072973525693

# lattice_figure: the acceptance fixture (tests/test_acceptance.py::lattice_figure)
FIGURE_KAPPAS = (0.01, 0.1, 1.0)
FIGURE_INI = """\
[bath]
alpha = {alpha!r}
kappa = 0.1

[geometry]
kind = lattice
side = 31
spacing = 1000

[time]
start = 1e-3
end = 1e11
points = 225

[sweep]
parameter = kappa
values = 0.01 0.1 1

[output]
prefix = figure
"""

# codeword_quadrature: 40 of the 81 atoms of a 9x9 lattice carry the codeword
CODEWORD_SIDE = 9
CODEWORD_SPACING = 10.0
CODEWORD_KAPPA = 0.1
CODEWORD_SELECTED = 40
CODEWORD_TIMES = (0.1, 1e4, 9)
CODEWORD_INI = """\
[bath]
alpha = {alpha!r}
kappa = {kappa!r}

[geometry]
kind = lattice
side = {side}
spacing = {spacing!r}

[selection]
indices = {indices}

[time]
start = {start!r}
end = {end!r}
points = {points}

[output]
prefix = codeword
"""

# gas_mc: far-field Monte Carlo of Phi_00; about 14k atoms per sample
GAS = {
    "density": 1.7053e-3,
    "exclusion_radius": 10.0,
    "horizon": 125.0,
    "kappa": 0.1,
    "t": 20.0,
    "n_samples": 300,
}

# CLI workloads: scenario file prefix, policy and the curves one pass writes
CLI_RUNS = {
    "lattice_figure": {
        "policy": "closed",
        "prefix": "figure",
        "curves": tuple(f"figure_kappa={k:g}" for k in FIGURE_KAPPAS),
    },
    "codeword_quadrature": {
        "policy": "quadrature",
        "prefix": "codeword",
        "curves": ("codeword",),
    },
}


def codeword_selection(seed: int) -> list:
    """The 40 selected atom indices (row-major lattice order) for a seed."""
    rng = random.Random(seed)
    return sorted(rng.sample(range(CODEWORD_SIDE * CODEWORD_SIDE), CODEWORD_SELECTED))


def scenario_text(workload: str, seed: int) -> str:
    """INI scenario for a CLI workload."""
    if workload == "lattice_figure":
        return FIGURE_INI.format(alpha=ALPHA)
    if workload == "codeword_quadrature":
        start, end, points = CODEWORD_TIMES
        return CODEWORD_INI.format(
            alpha=ALPHA,
            kappa=CODEWORD_KAPPA,
            side=CODEWORD_SIDE,
            spacing=CODEWORD_SPACING,
            indices=" ".join(str(i) for i in codeword_selection(seed)),
            start=start,
            end=end,
            points=points,
        )
    raise ValueError(f"{workload} is not a CLI workload")


def operations_per_pass(workload: str) -> int:
    """One operation is one curve (CLI workloads) or one MC estimate (gas_mc)."""
    if workload in CLI_RUNS:
        return len(CLI_RUNS[workload]["curves"])
    return 1
