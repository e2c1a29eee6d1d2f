"""Self-tests of the benchmark harness; about a minute.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run as bench  # noqa: E402
from workloads import CLI_RUNS, DEFAULT_SEED, codeword_selection, scenario_text  # noqa: E402


def worker_run(workload, seed, expect, name):
    """One warm-up and one timed pass through worker.py; returns its result."""
    work = ROOT / ".perfbench_work" / "selftest" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if workload in CLI_RUNS:
        (work / "scenario.ini").write_text(scenario_text(workload, seed))
    (work / "expect.json").write_text(json.dumps(expect))
    return bench.worker(["passes", workload, seed, work, 0, 0], timeout=300)


def expectations(workload, seed):
    if workload in CLI_RUNS:
        return checks.cli_expectations(workload, seed)
    return checks.gas_expectation(seed)


def perturbed(workload, expect, factor):
    """Scale every frozen reference value by factor; oracle values stay."""
    if workload not in CLI_RUNS:
        ref = expect["reference"]
        expect["reference"] = {k: v * factor for k, v in ref.items()}
        return expect
    for per_curve in expect.values():
        for exp in per_curve:
            if exp["source"] == "reference":
                for col in ("d_direct", "d_indirect"):
                    values = exp["columns"][col][0]
                    exp["columns"][col][0] = [v * factor for v in values]
    return expect


@pytest.mark.parametrize("workload", ["lattice_figure", "gas_mc", "codeword_quadrature"])
def test_reference_perturbed_by_1e9_fails(workload):
    expect = perturbed(workload, expectations(workload, DEFAULT_SEED), 1.0 + 1e-9)
    res = worker_run(workload, DEFAULT_SEED, expect, f"perturbed_{workload}")
    assert res["attempted"] >= 1
    assert res["failed"] > 0


@pytest.mark.parametrize("workload", ["gas_mc", "codeword_quadrature"])
def test_other_seed_changes_inputs_and_passes_oracles(workload):
    seed = DEFAULT_SEED + 1
    if workload == "codeword_quadrature":
        assert codeword_selection(seed) != codeword_selection(DEFAULT_SEED)
    own = worker_run(workload, seed, expectations(workload, seed), f"seed_{workload}")
    assert own["attempted"] >= 1 and own["failed"] == 0
    # the default seed's reference no longer fits, so the outputs did change
    other = worker_run(workload, seed, expectations(workload, DEFAULT_SEED), f"ref_{workload}")
    assert other["failed"] == other["attempted"]


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "lattice_figure",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared()[trace]


def test_without_sources_exits_nonzero_and_prints_no_result():
    bare = ROOT / ".perfbench_work" / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gas_mc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=bare,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
