"""Regenerate the frozen outputs in perfbench/references/ from src/.

    python3 perfbench/make_references.py

Run this only at a commit whose outputs are known good: the benchmark fails
every later commit whose outputs leave these references.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import dmtsim  # noqa: E402
from checks import REFERENCE_DIR, read_curve_csv  # noqa: E402
from run import git_commit  # noqa: E402
from workloads import ALPHA, CLI_RUNS, DEFAULT_SEED, GAS, scenario_text  # noqa: E402


def cli_reference(workload: str) -> dict:
    spec = CLI_RUNS[workload]
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        scenario = Path(tmp) / "scenario.ini"
        scenario.write_text(scenario_text(workload, DEFAULT_SEED))
        code = dmtsim.cli.run(str(scenario), out_dir=tmp, policy=spec["policy"])
        if code != 0:
            raise SystemExit(f"{workload}: cli.run exited with {code}")
        return {label: read_curve_csv(Path(tmp) / f"{label}.csv") for label in spec["curves"]}


def main() -> int:
    common = {"commit": git_commit(), "seed": DEFAULT_SEED}
    for workload in CLI_RUNS:
        data = dict(common, curves=cli_reference(workload))
        (REFERENCE_DIR / f"{workload}.json").write_text(json.dumps(data) + "\n")
    spec = dmtsim.GasSpec(
        density=GAS["density"],
        exclusion_radius=GAS["exclusion_radius"],
        horizon=GAS["horizon"],
        seed=DEFAULT_SEED,
    )
    bath = dmtsim.BathParams(alpha=ALPHA, kappa=GAS["kappa"])
    mc = dmtsim.average_phi00(spec, bath, GAS["t"], GAS["n_samples"])
    data = dict(common, mean=mc.mean, std_error=mc.std_error, n_samples=mc.n_samples)
    (REFERENCE_DIR / "gas_mc.json").write_text(json.dumps(data) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
