"""dmtsim benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload lattice_figure --seed 0 --seconds 32 --trace 0

Run from a checkout of the repository; dmtsim is imported from src/. The
workloads are described in perfbench/WORKLOADS.md. With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced passes and reports the per-layer metrics. Every pass's output is
checked. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
from workloads import CLI_RUNS, WORKLOADS, scenario_text  # noqa: E402

# wall_s is the fastest pass of a run. Other tenants of the machine slow
# passes down, never speed them up, and for phases of 5 to 30 s, so the
# fastest pass is the steadiest estimate of the program's own cost (the
# median is printed too).
# fresh processes timed for setup_s, after one that writes the bytecode
# cache; half before the timed passes and half after, so one slow phase of
# the machine does not set the median
SETUP_PROCESSES = 11
# headroom over --seconds for a worker: one overrunning pass plus start-up
WORKER_SLACK_S = 100

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
PER_LAYER_UNITS = {
    "calls": "count",
    "elems": "count",
    "pairs": "count",
    "atoms": "count",
    "samples": "count",
    "min_panels": "count",
    "errors": "count",
    "calls_per_curve": "count",
    "bytes": "bytes",
    "self_s": "s",
    "cpu_s": "s",
    "call_p50_us": "us",
    "call_p99_us": "us",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "si_unique_frac": "frac",
    "overhead_frac": "frac",
    "failed_frac": "frac",
}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


class BenchError(RuntimeError):
    pass


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def worker(args, timeout):
    """Run worker.py to completion and return its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(WORKER), *map(str, args)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare(workload: str, seed: int, trace: bool) -> Path:
    """Fresh work directory holding the inputs and the expected outputs."""
    import checks

    work = ROOT / ".perfbench_work" / f"{workload}_seed{seed}_trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if workload in CLI_RUNS:
        (work / "scenario.ini").write_text(scenario_text(workload, seed))
        expect = checks.cli_expectations(workload, seed)
    else:
        expect = checks.gas_expectation(seed)
    (work / "expect.json").write_text(json.dumps(expect))
    return work


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment(seed)
    work = prepare(workload, seed, trace)
    timeout = seconds + WORKER_SLACK_S

    def setup_samples(count):
        return [worker(["setup", workload, seed, work], timeout)["setup_s"] for _ in range(count)]

    setups = []
    if not trace:
        worker(["setup", workload, seed, work], timeout)
        setups = setup_samples(SETUP_PROCESSES - SETUP_PROCESSES // 2)
    res = worker(["passes", workload, seed, work, seconds, int(trace)], timeout)
    if not trace:
        setups += setup_samples(SETUP_PROCESSES // 2)
    env.update(res["env"])
    print("ENV " + json.dumps(env, sort_keys=True))

    walls = res["walls"]
    q1, q2, q3 = quartiles(walls)
    print(
        f"passes: {len(walls)} untraced, wall time min {min(walls):.4f} s, "
        f"quartiles {q1:.4f} {q2:.4f} {q3:.4f} s; "
        f"operations attempted {res['attempted']}, failed {res['failed']}"
    )
    if trace:
        metrics = {k: (v, per_layer_unit(k)) for k, v in res["layers"].items()}
        print(f"traced passes: {len(res['traced_walls'])}")
        for hook in res["missing_hooks"]:
            print(f"trace: no attribute {hook} to wrap")
        print_layer_shares(res["layers"])
    else:
        values = {
            "wall_s": min(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["maxrss_mb"],
            "ok_frac": 1.0 - res["failed"] / res["attempted"],
        }
        metrics = {k: (v, END_TO_END[k]) for k, v in values.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    record = {
        "workload": workload,
        "env": env,
        "setup_samples_s": setups,
        "worker": res,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(work / "out", ignore_errors=True)
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def print_layer_shares(layers: dict):
    """Self time per layer, largest first, as a share of the traced pass."""
    names = [
        "specfun.self_s", "kernels.self_s", "geometry.self_s", "metric.self_s",
        "asymptotics.self_s", "ensemble.average_phi00.self_s", "cli.self_s",
    ]
    total = sum(layers[n] for n in names) or 1.0
    for n in sorted(names, key=lambda n: -layers[n]):
        print(f"layer {n[:-7]:<24} self {layers[n]:.4f} s  {100 * layers[n] / total:5.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated harness takes its worker down with it: the SystemExit
    # raised here makes subprocess.run kill and reap the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "dmtsim" / "__init__.py").is_file():
        print(f"error: no dmtsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"run took {time.perf_counter() - t0:.1f} s")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
