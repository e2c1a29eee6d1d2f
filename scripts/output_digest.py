"""Print a digest of the scenario runner's outputs over a fixed scenario list,
and of the gas Monte Carlo.

Runs each scenario through `dmtsim.cli.run` into a temporary directory and
prints one `exit <name> <code>` line per run, then `sha256  <name>/<file>`
for every CSV and report it wrote. Then prints the mean and standard error
of `dmtsim.ensemble.average_phi00` at 12 significant digits for seeds 0-2
under each kernel policy. `dmtsim` is imported from PYTHONPATH, so the same
script digests any checkout; two checkouts give the same outputs (the
Monte Carlo to 12 digits) exactly when their digests diff clean:

    PYTHONPATH=src python scripts/output_digest.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python scripts/output_digest.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib
import random
import sys
import tempfile
from pathlib import Path

import dmtsim.cli
from dmtsim.ensemble import average_phi00
from dmtsim.geometry import GasSpec
from dmtsim.kernels import BathParams
from dmtsim.metric import KernelPolicy

FIGURE = """
[bath]
alpha = 0.0072973525693
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

CODEWORD = """
[bath]
alpha = 0.0072973525693
kappa = 0.1

[geometry]
kind = lattice
side = 9
spacing = 10.0

[selection]
indices = {indices}

[time]
start = 0.1
end = 1e4
points = 9

[output]
prefix = codeword
"""

GAS = """
[bath]
alpha = 0.0072973525693
kappa = 0.1

[geometry]
kind = gas
density = 1e-3
exclusion_radius = 10
horizon = 30
seed = 3
{extra}
[time]
start = 1
end = 1e3
points = 7

[output]
prefix = gas
"""

CHAIN_TILT = """
[bath]
alpha = 0.0072973525693
kappa = 0.1

[geometry]
kind = chain
count = 7
spacing = 50
dipole_angle = 0.0

[time]
start = 1
end = 1e4
points = 9

[sweep]
parameter = dipole_tilt
values = 0.3 0.9553166181245093 1.2

[output]
prefix = tilt
"""

LATTICE_SPACING = """
[bath]
alpha = 0.0072973525693
kappa = 0.1

[geometry]
kind = lattice
side = 5
spacing = 1000

[time]
start = 1e-3
end = 1e3
points = 13

[sweep]
parameter = spacing
values = 10 100 1000

[output]
prefix = spacing
"""

WARM_CHAIN = """
[bath]
alpha = 0.0072973525693
kappa = 0.1
inv_temperature = 2.0

[geometry]
kind = chain
count = 6
spacing = 20
dipole_angle = 0.4

[selection]
indices = 1 2 3 5

[time]
start = 0
end = 50
points = 6
spacing = linear

[output]
prefix = warm
"""

# three selected atoms to t = 1e11: the zero-temperature f off-diagonals at
# times where a panel budget once stopped the curve
LATE_CHAIN = """
[bath]
alpha = 0.0072973525693
kappa = 1.0

[geometry]
kind = chain
count = 6
spacing = 100
dipole_angle = 0.7

[selection]
indices = 1 2 3

[time]
start = 1e-3
end = 1e11
points = 57

[output]
prefix = late
"""

# two atoms 1e-110 apart at kappa t = 1e301 and past the float range: the
# late limit at a kappa r where the trig form's x^3 underflows
LATE_TINY_CHAIN = """
[bath]
alpha = 0.0072973525693
kappa = 10

[geometry]
kind = chain
count = 2
spacing = 1e-110
dipole_angle = 0

[selection]
indices = 0 1

[time]
start = 1e300
end = 1e308
points = 3

[output]
prefix = late_tiny
"""

# one atom in a bath so hot that 2 / beta nears the float range: the warm
# time factor must form q coth(beta q / 2) before anything overflows
WARM_HOT_CHAIN = """
[bath]
alpha = 1e-20
kappa = 1
inv_temperature = 3e-308

[geometry]
kind = chain
count = 1
spacing = 10
dipole_angle = 0

[time]
start = 1
end = 10
points = 10
spacing = linear

[output]
prefix = warm_hot
"""

CODEWORD_INDICES = " ".join(str(i) for i in sorted(random.Random(0).sample(range(81), 40)))
GAS_SWEEP = "\n[sweep]\nparameter = {}\nvalues = {}\n"
GAS_DENSITY_SWEEP = "\n[selection]\nindices = 0 1 2\n" + GAS_SWEEP.format(
    "density", "1e-4 1e-3 1e-2"
)
GAS_RADIUS_SWEEP = GAS_SWEEP.format("exclusion_radius", "5 10 15")
GAS_KAPPA_SWEEP = GAS_SWEEP.format("kappa", "0.05 0.1 0.2")

# (name, scenario text, policy, seed override)
SCENARIOS = (
    ("figure_closed", FIGURE, "closed", None),
    ("figure_farfield", FIGURE, "farfield", None),
    ("figure_quadrature", FIGURE, "quadrature", None),
    ("codeword_quadrature", CODEWORD.format(indices=CODEWORD_INDICES), "quadrature", None),
    ("gas_density_closed", GAS.format(extra=GAS_DENSITY_SWEEP), "closed", None),
    ("gas_density_quadrature", GAS.format(extra=GAS_DENSITY_SWEEP), "quadrature", None),
    ("chain_tilt", CHAIN_TILT, "closed", None),
    ("lattice_spacing", LATTICE_SPACING, "closed", None),
    ("gas_exclusion_radius", GAS.format(extra=GAS_RADIUS_SWEEP), "closed", None),
    ("gas_kappa", GAS.format(extra=GAS_KAPPA_SWEEP), "closed", None),
    ("warm_chain", WARM_CHAIN, "closed", None),
    ("gas_seed_override", GAS.format(extra=""), "closed", 7),
    ("late_chain", LATE_CHAIN, "closed", None),
    ("late_tiny_chain", LATE_TINY_CHAIN, "closed", None),
    ("warm_hot_chain", WARM_HOT_CHAIN, "closed", None),
)

# Monte Carlo: about 110 atoms per sample, 29 of them inside the light cone
MC_BATH = BathParams(alpha=0.0072973525693, kappa=0.1)
MC_T = 20.0
MC_SAMPLES = 200
MC_SEEDS = (0, 1, 2)


def run_scenarios(root) -> list:
    """Run each scenario into root/<name>/; returns the (name, exit code) list."""
    root = Path(root)
    codes = []
    for name, text, policy, seed_override in SCENARIOS:
        path = root / f"{name}.ini"
        path.write_text(text)
        code = dmtsim.cli.run(
            str(path), out_dir=str(root / name), seed_override=seed_override, policy=policy
        )
        codes.append((name, code))
    return codes


def mc_lines() -> list:
    """One `mc <policy> seed <seed> <mean> <std error>` line per policy and seed."""
    lines = []
    for policy in KernelPolicy:
        for seed in MC_SEEDS:
            spec = GasSpec(density=1e-3, exclusion_radius=10.0, horizon=30.0, seed=seed)
            res = average_phi00(spec, MC_BATH, MC_T, MC_SAMPLES, kernel_policy=policy)
            lines.append(f"mc {policy.value} seed {seed} {res.mean:.12e} {res.std_error:.12e}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, code in run_scenarios(root):
            print(f"exit {name} {code}")
            for out in sorted((root / name).glob("*")):
                digest = hashlib.sha256(out.read_bytes()).hexdigest()
                print(f"{digest}  {name}/{out.name}")
    print("\n".join(mc_lines()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
