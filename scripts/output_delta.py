"""Print how far the scenario runner's CSVs move between two source trees.

Runs `output_digest.py`'s SCENARIOS once under each of OLD_SRC and NEW_SRC,
each in a child process with that tree on PYTHONPATH, then prints every CSV
whose bytes differ with the largest relative change of each column,
|new - old| / |old| (inf where old is 0 and new is not), and names any CSV
that only one tree wrote:

    python scripts/output_delta.py /path/to/old/checkout/src src
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CHILD = "import sys, output_digest; output_digest.run_scenarios(sys.argv[1])"


def write_outputs(src: str, root: Path) -> None:
    root.mkdir()
    path = os.pathsep.join([str(Path(src).resolve()), str(HERE)])
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", CHILD, str(root)], env=env, check=True)


def column_deltas(old: Path, new: Path) -> dict:
    """Largest relative change per column of two CSVs with the same header."""
    a, b = (np.genfromtxt(p, delimiter=",", names=True, ndmin=1) for p in (old, new))
    if a.dtype.names != b.dtype.names or a.shape != b.shape:
        raise SystemExit(f"{new.parent.name}/{new.name}: header or row count differs")
    out = {}
    for col in a.dtype.names:
        diff = np.abs(b[col] - a[col])
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(diff == 0.0, 0.0, diff / np.abs(a[col]))
        out[col] = float(rel.max()) if rel.size else 0.0
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp) / "old", Path(tmp) / "new"]
        for src, root in zip(argv, roots):
            write_outputs(src, root)
        old_csvs, new_csvs = ({p.relative_to(r) for p in r.glob("*/*.csv")} for r in roots)
        for rel in sorted(old_csvs ^ new_csvs):
            print(f"{rel}: only in {'old' if rel in old_csvs else 'new'}")
        changed = 0
        for rel in sorted(old_csvs & new_csvs):
            old, new = (r / rel for r in roots)
            if old.read_bytes() == new.read_bytes():
                continue
            changed += 1
            deltas = column_deltas(old, new)
            print(f"{rel}: " + ", ".join(f"{c} {d:.2e}" for c, d in deltas.items()))
        print(f"{changed} of {len(old_csvs & new_csvs)} common CSVs differ")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
