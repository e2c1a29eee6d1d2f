"""Print, per curve, what the metric engine's blocks cost in one source tree.

Runs a fixed list of curves through `dmtsim.metric._assemble` in a child
process with SRC on PYTHONPATH, and prints one line per curve: how many
times the engine called the f and the phi kernel, the peak memory
tracemalloc traced over one engine run, the best of REPEATS untraced
engine runs, and the minor page faults of this process per untraced run
(getrusage's ru_minflt, averaged over the REPEATS runs): heap that the
allocator returned to the system and the engine touches again. The curves
are the paper figure's three (a 31x31 lattice, spacing 1000, its centre
atom selected, 225 times), 40, 80 and 120 selected atoms of 9x9 and 11x11
lattices, and one selected atom among 3,000 gas atoms under each kernel
policy. Run it on two trees to compare them:

    python scripts/engine_profile.py /path/to/old/checkout/src
    python scripts/engine_profile.py src

It only informs: it exits 0 even where the child fails, after saying so.
"""

from __future__ import annotations

import math
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = "import engine_profile; engine_profile.profile_here()"
REPEATS = 5


def scenes():
    """(name, config, mask, bath, times, policy) for every profiled curve."""
    import numpy as np
    from dmtsim.geometry import GasSpec, SelectionMask, sample_gas, square_lattice_2d
    from dmtsim.kernels import BathParams, KernelPolicy

    alpha, tilt = 0.0072973525693, (math.sin(0.7), 0.0, math.cos(0.7))
    closed = KernelPolicy.CLOSED_FORM
    figure, centre = square_lattice_2d(31, 1000.0, (0.0, 0.0, 1.0))
    figure_times = np.geomspace(1e-3, 1e11, 225)
    for kappa in (0.01, 0.1, 1.0):
        bath = BathParams(alpha, kappa)
        yield f"figure kappa={kappa:g}", figure, centre, bath, figure_times, closed
    small, _ = square_lattice_2d(9, 10.0, tilt)
    forty = SelectionMask.from_selected(81, sorted(random.Random(2).sample(range(81), 40)))
    eighty = SelectionMask.from_selected(81, [i for i in range(81) if i != 40])
    late, later = np.geomspace(0.1, 1e6, 225), np.geomspace(0.1, 1e6, 400)
    yield "40 of 81 atoms", small, forty, BathParams(alpha, 0.3), later, closed
    yield "80 of 81 atoms", small, eighty, BathParams(alpha, 0.3), late, closed
    large, _ = square_lattice_2d(11, 10.0, (0.0, 0.0, 1.0))
    most = SelectionMask.from_selected(121, [i for i in range(121) if i != 60])
    yield "120 of 121 atoms", large, most, BathParams(alpha, 0.1), late, closed
    gas, one = sample_gas(GasSpec(1e-3, 10.0, 90.0, seed=0, fixed_count=2999))
    gas_times = np.geomspace(0.1, 1e5, 225)
    for policy in KernelPolicy:
        yield "1 of 3000 gas atoms", gas, one, BathParams(alpha, 0.1), gas_times, policy


def profile_here() -> None:
    """Profile every scene with dmtsim from this process's PYTHONPATH."""
    from dmtsim import metric

    head = ("curve", "policy", "f calls", "phi calls", "peak MB", "best ms", "faults")
    print("{:<22} {:<10} {:>7} {:>9} {:>8} {:>8} {:>7}".format(*head))
    real = {"_f": metric._f, "_phi": metric._phi}
    for name, config, mask, bath, times, policy in scenes():
        calls = dict.fromkeys(real, 0)

        def counted(kernel):
            def call(*args):
                calls[kernel] += 1
                return real[kernel](*args)

            return call

        for kernel in real:
            setattr(metric, kernel, counted(kernel))
        tracemalloc.start()
        try:
            metric._assemble(config, mask, bath, times, policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            for kernel, function in real.items():
                setattr(metric, kernel, function)
        best, faults = math.inf, resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(REPEATS):
            start = time.perf_counter()
            metric._assemble(config, mask, bath, times, policy)
            best = min(best, time.perf_counter() - start)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        print(
            f"{name:<22} {policy.value:<10} {calls['_f']:>7} {calls['_phi']:>9} "
            f"{peak / 1e6:>8.2f} {best * 1e3:>8.2f} {faults / REPEATS:>7.0f}"
        )


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    path = os.pathsep.join([str(Path(argv[0]).resolve()), str(HERE)])
    child = subprocess.run([sys.executable, "-c", CHILD], env={**os.environ, "PYTHONPATH": path})
    if child.returncode:
        print(f"the profile of {argv[0]} exited {child.returncode}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
