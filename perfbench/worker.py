"""One benchmark process: times set-up and passes of a workload, checks every
pass's output, and prints one JSON line. Started by run.py, one at a time.

    worker.py setup  <workload> <seed> <workdir>
    worker.py passes <workload> <seed> <workdir> <seconds> <trace>
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def setup(workload, seed, workdir):
    """Import dmtsim and build the workload's inputs.

    Returns (seconds from `import dmtsim` to built inputs, dmtsim, inputs).
    """
    from workloads import ALPHA, GAS

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import dmtsim
    import dmtsim.cli
    import dmtsim.ensemble

    if workload == "gas_mc":
        inputs = (
            dmtsim.GasSpec(
                density=GAS["density"],
                exclusion_radius=GAS["exclusion_radius"],
                horizon=GAS["horizon"],
                seed=seed,
            ),
            dmtsim.BathParams(alpha=ALPHA, kappa=GAS["kappa"]),
        )
    else:
        inputs = dmtsim.cli.parse_scenario(str(workdir / "scenario.ini"))
    return time.perf_counter() - t0, dmtsim, inputs


class Workload:
    """One pass through the user-facing call, and the checks of its output."""

    def __init__(self, name, dmtsim, inputs, workdir, expect):
        from workloads import CLI_RUNS, GAS, operations_per_pass

        self.dmtsim, self.inputs, self.expect = dmtsim, inputs, expect
        self.ops = operations_per_pass(name)
        self.scenario = str(workdir / "scenario.ini")
        self.out = workdir / "out"
        self.cli = CLI_RUNS.get(name)
        self.gas = GAS

    def run_pass(self):
        """Returns (wall seconds, cpu seconds, failed operations, problems)."""
        if self.cli is not None:
            for old in self.out.glob("*"):
                old.unlink()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if self.cli is not None:
                result = self.dmtsim.cli.run(
                    self.scenario, out_dir=str(self.out), policy=self.cli["policy"]
                )
            else:
                spec, bath = self.inputs
                mc = self.dmtsim.ensemble.average_phi00(
                    spec, bath, self.gas["t"], self.gas["n_samples"],
                    kernel_policy=self.dmtsim.metric.KernelPolicy.FAR_FIELD,
                )
                result = (mc.mean, mc.std_error)
        except Exception:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            return wall, cpu, self.ops, [traceback.format_exc()]
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        failed, problems = self.check(result)
        return wall, cpu, failed, problems

    def check(self, result):
        import checks  # imports numpy: only after setup() has been timed

        if self.cli is None:
            spec, bath = self.inputs
            analytic = self.dmtsim.ensemble.analytic_phi00_avg(spec, bath, self.gas["t"])
            problems = checks.gas_problems(*result, analytic, self.expect)
            return int(bool(problems)), problems
        if result != 0:
            return self.ops, [f"cli.run returned exit code {result}"]
        problems, failed = [], 0
        report = self.out / f"{self.cli['prefix']}_report.txt"
        for label in self.cli["curves"]:
            try:
                got = checks.read_curve_csv(self.out / f"{label}.csv")
                found = checks.curve_problems(label, got, self.expect[label])
                found += checks.report_problems(report, [label])
            except (OSError, ValueError) as exc:
                found = [f"{label}: {exc}"]
            failed += bool(found)
            problems += found
        return failed, problems


def report(problems):
    for line in problems[:5]:
        print(f"check failed: {line}", file=sys.stderr)


def numpy_record():
    import numpy as np

    record = {"numpy": np.__version__}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        record["blas"] = {
            k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
            for k in ("blas", "lapack")
            if k in deps
        }
    except (TypeError, KeyError):
        record["blas"] = "unavailable"
    return record


def passes(workload, seed, workdir, seconds, trace):
    _, dmtsim, inputs = setup(workload, seed, workdir)
    expect = json.loads((workdir / "expect.json").read_text())
    job = Workload(workload, dmtsim, inputs, workdir, expect)
    job.out.mkdir(exist_ok=True)
    walls = {False: [], True: []}
    cpus = []
    attempted = failed = 0
    if trace:
        from tracing import Tracer

        tracer = Tracer(dmtsim)
        # one untimed pass first, so lazy set-up is charged to neither the
        # traced nor the untraced side; its output is checked all the same
        _, _, failed, problems = job.run_pass()
        attempted = job.ops
        report(problems)
    start = time.perf_counter()
    traced = False
    while True:
        if traced:
            tracer.install()
        try:
            wall, cpu, bad, problems = job.run_pass()
        finally:
            if traced:
                tracer.uninstall()  # raises RestoreError if any attribute stayed wrapped
                tracer.end_pass()
        walls[traced].append(wall)
        if not traced:
            cpus.append(cpu)
        attempted += job.ops
        failed += bad
        report(problems)
        done = time.perf_counter() - start >= seconds
        if done and (not trace or walls[True]):
            break
        traced = trace and not traced
    out = {
        "walls": walls[False],
        "cpus": cpus,
        "attempted": attempted,
        "failed": failed,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": numpy_record(),
    }
    if trace:
        layers = tracer.summary(job.ops)
        untraced = statistics.median(walls[False])
        layers["trace.overhead_frac"] = (statistics.median(walls[True]) - untraced) / untraced
        layers["process.cpu_s"] = statistics.median(cpus)
        layers["failed_frac"] = failed / attempted
        tracer.write_spans(workdir / "spans.csv.gz")
        out.update(traced_walls=walls[True], layers=layers, missing_hooks=tracer.missing)
    print(json.dumps(out))


def main(argv):
    mode, workload, seed, workdir = argv[0], argv[1], int(argv[2]), Path(argv[3])
    if mode == "setup":
        print(json.dumps({"setup_s": setup(workload, seed, workdir)[0]}))
    else:
        passes(workload, seed, workdir, float(argv[4]), argv[5] == "1")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
