"""Print how far the scenario runner's outputs move between two source trees.

Runs `output_digest.py`'s SCENARIOS and Monte Carlo once under each of
OLD_SRC and NEW_SRC, each in a child process with that tree on PYTHONPATH.
Then prints every CSV whose bytes differ with the largest relative change of
each column, |new - old| / |old| (inf where old is 0 and new is not), and
the time t of the row where it is, and the column's largest change in ulps
of the old value, |new - old| / np.spacing(|old|); then how many rows moved
and the earliest t among them; the lines that moved in every report
whose bytes differ and every scenario exit code or Monte Carlo line that
differs (as unified diffs without context); and names any CSV or report
that only one tree wrote. The last line says whether every output is
byte-identical:

    python scripts/output_delta.py /path/to/old/checkout/src src
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CHILD = "import sys, output_delta; output_delta.write_outputs_here(sys.argv[1])"


def write_outputs_here(root) -> None:
    """Run the digest's scenarios into root, and write their exit lines and
    the Monte Carlo lines to root/lines.txt."""
    import output_digest  # imports dmtsim from this process's PYTHONPATH

    root = Path(root)
    lines = [f"exit {name} {code}" for name, code in output_digest.run_scenarios(root)]
    (root / "lines.txt").write_text("\n".join(lines + output_digest.mc_lines()) + "\n")


def write_outputs(src: str, root: Path) -> None:
    root.mkdir()
    path = os.pathsep.join([str(Path(src).resolve()), str(HERE)])
    env = {**os.environ, "PYTHONPATH": path}
    subprocess.run([sys.executable, "-c", CHILD, str(root)], env=env, check=True)


def csv_delta(old: Path, new: Path) -> str:
    """'col 1.23e-04 (2 ulp) at t 0.005' per column: its largest relative
    change, its largest change in ulps of the old value, and the old time of
    the row where the relative change is largest, left out where no value of
    the column moved; then how many rows moved and the earliest t of them."""
    a, b = (np.genfromtxt(p, delimiter=",", names=True, ndmin=1) for p in (old, new))
    if a.dtype.names != b.dtype.names or a.shape != b.shape:
        raise SystemExit(f"{new.parent.name}/{new.name}: header or row count differs")
    times = a[a.dtype.names[0]]
    parts, moved = [], np.zeros(a.shape, dtype=bool)
    for col in a.dtype.names:
        diff = np.abs(b[col] - a[col])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rel = np.where(diff == 0.0, 0.0, diff / np.abs(a[col]))
            ulps = np.where(diff == 0.0, 0.0, diff / np.spacing(np.abs(a[col])))
        moved |= rel != 0.0
        row = int(np.argmax(rel)) if rel.size else None
        at = "" if row is None or rel[row] == 0.0 else f" at t {times[row]:.3g}"
        most = f"{ulps.max():.3g}" if ulps.size else "0"
        parts.append(f"{col} {0.0 if row is None else rel[row]:.2e} ({most} ulp){at}")
    rows = f"{np.count_nonzero(moved)} of {moved.size} rows moved"
    if moved.any():
        rows += f", the earliest at t {times[moved].min():.6g}"
    return ", ".join(parts) + "; " + rows


def moved_lines(old_lines, new_lines) -> list:
    """The lines that differ, as a unified diff without context."""
    return list(difflib.unified_diff(old_lines, new_lines, "old", "new", n=0, lineterm=""))


def report_diff(old: Path, new: Path) -> str:
    return "\n".join(["differs"] + moved_lines(*(p.read_text().splitlines() for p in (old, new))))


def compare_files(roots, pattern: str, kind: str, detail) -> int:
    """Print the files matching pattern that one tree wrote alone or whose
    bytes differ, with detail(old, new); returns how many do."""
    old_files, new_files = ({p.relative_to(r) for p in r.glob(pattern)} for r in roots)
    for rel in sorted(old_files ^ new_files):
        print(f"{rel}: only in {'old' if rel in old_files else 'new'}")
    changed = 0
    for rel in sorted(old_files & new_files):
        old, new = (r / rel for r in roots)
        if old.read_bytes() == new.read_bytes():
            continue
        changed += 1
        print(f"{rel}: " + detail(old, new))
    print(f"{changed} of {len(old_files & new_files)} common {kind} differ")
    return changed + len(old_files ^ new_files)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        roots = [Path(tmp) / "old", Path(tmp) / "new"]
        for src, root in zip(argv, roots):
            write_outputs(src, root)
        differ = compare_files(roots, "*/*.csv", "CSVs", csv_delta)
        differ += compare_files(roots, "*/*_report.txt", "reports", report_diff)
        moved = moved_lines(*((r / "lines.txt").read_text().splitlines() for r in roots))
        print("\n".join(moved) if moved else "exit codes and Monte Carlo lines identical")
        differ += len(moved)
    print("every output is byte-identical" if differ == 0 else "outputs differ")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
