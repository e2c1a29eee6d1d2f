"""Output checks: frozen references, an independent codeword oracle, and the
comparisons a pass's outputs must survive.

Tolerances
----------
Closed-form and far-field columns (lattice_figure, gas_mc) must match the
frozen reference to 1e-12 relative.

Quadrature-route columns (codeword_quadrature) get an absolute tolerance per
row, derived from the contract `dmtsim.kernels.reduced_quadrature` documents
(absolute error <= tol per call) and the tolerances `build_metric` passes to
it by default: tol_f = 1e-11 f(t, 0) for each direct off-diagonal f_ij and
tol_phi = 1e-10 for each indirect phi_ik. Let delta_f and delta_phi be the
largest per-entry difference allowed between the two compared results:
2 tol (two conforming results against each other, for the frozen reference)
or tol + e (program against the oracle, whose own error estimate is e).

* d_direct = 4 n f(t, 0) + 8 sum_{i<j} f_ij. The diagonal is closed form,
  the n (n - 1) / 2 off-diagonals each move by at most delta_f, so
  |delta d_direct| <= 4 n (n - 1) delta_f.
* d_indirect = 2 sum_k S_k^2 with S_k = sum_i phi_ik over the n selected
  atoms. Each S_k moves by at most n delta_phi, and both compared sums are
  bounded by U_k = |S_k(oracle)| + n (tol_phi + e), so
  |S_a^2 - S_b^2| <= 2 U_k n delta_phi and
  |delta d_indirect| <= 4 n delta_phi sum_k U_k.

Every column also gets 1e-12 relative for summation order. None of these
numbers is fitted to an observed difference.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from workloads import (
    ALPHA,
    CLI_RUNS,
    CODEWORD_KAPPA,
    CODEWORD_SIDE,
    CODEWORD_SPACING,
    CODEWORD_TIMES,
    DEFAULT_SEED,
    codeword_selection,
)

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

CSV_HEADER = "t,d_direct,d_indirect,d_total,valid_flag"
COLUMNS = ("t", "d_direct", "d_indirect")
CLOSED_RTOL = 1e-12
ROUND_RTOL = 1e-12
QUAD_TOL_PHI = 1e-10
QUAD_TOL_F_REL = 1e-11
VALIDITY_THRESHOLD = 0.1
# |z| of the gas MC mean against analytic_phi00_avg; fixed before measuring
# (a correct estimator exceeds it with probability about 6e-5 per seed)
GAS_Z_BOUND = 4.0


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


# -- expectations (built by the harness, checked by the worker) -------------


def _closed_expectation(curve: dict) -> dict:
    return {
        "source": "reference",
        "columns": {
            col: [curve[col], [CLOSED_RTOL * abs(v) for v in curve[col]]] for col in COLUMNS
        },
        "valid_flag": curve["valid_flag"],
    }


def cli_expectations(workload: str, seed: int) -> dict:
    """label -> list of expectations each curve of one pass must meet."""
    if workload == "lattice_figure":
        ref = load_reference(workload)["curves"]
        return {label: [_closed_expectation(ref[label])] for label in CLI_RUNS[workload]["curves"]}
    oracle = CodewordOracle(codeword_selection(seed))
    out = [oracle.expectation(k_tol=1.0, source="oracle")]
    if seed == DEFAULT_SEED:
        ref = load_reference(workload)["curves"]["codeword"]
        exp = oracle.expectation(k_tol=2.0, source="reference")
        for col in COLUMNS:
            exp["columns"][col][0] = ref[col]
        exp["valid_flag"] = ref["valid_flag"]
        out.append(exp)
    return {"codeword": out}


def gas_expectation(seed: int) -> dict:
    ref = load_reference("gas_mc") if seed == DEFAULT_SEED else None
    return {
        "reference": None if ref is None else {k: ref[k] for k in ("mean", "std_error")},
        "rtol": CLOSED_RTOL,
        "z_bound": GAS_Z_BOUND,
    }


# -- checks -----------------------------------------------------------------


def read_curve_csv(path: Path) -> dict:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path.name}: bad header")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != 5 for r in rows):
        raise ValueError(f"{path.name}: row without five fields")
    cols = list(zip(*rows))
    out = {name: [float(v) for v in cols[i]] for i, name in enumerate(CSV_HEADER.split(",")[:4])}
    out["valid_flag"] = [int(v) for v in cols[4]]
    return out


def curve_problems(label: str, got: dict, expectations: list) -> list:
    """Mismatches of one parsed curve against its expectations."""
    problems = []
    for t, dd, di, tot in zip(got["t"], got["d_direct"], got["d_indirect"], got["d_total"]):
        if dd + di != tot:
            problems.append(f"{label}: d_total != d_direct + d_indirect at t = {t!r}")
            break
    for exp in expectations:
        src = exp["source"]
        for col, (want, atol) in exp["columns"].items():
            have = got[col]
            if len(have) != len(want):
                problems.append(f"{label}: {len(have)} rows, {src} has {len(want)}")
                break
            diff = np.abs(np.asarray(have) - np.asarray(want))
            bad = np.flatnonzero(~(diff <= np.asarray(atol)))
            if bad.size:
                i = int(bad[0])
                problems.append(
                    f"{label}: {col} off the {src} at row {i} "
                    f"({have[i]!r} vs {want[i]!r}, allowed {atol[i]:.3g})"
                )
        flags = exp["valid_flag"]
        if len(flags) == len(got["valid_flag"]):
            for i, (want, have) in enumerate(zip(flags, got["valid_flag"])):
                if want is not None and want != have:
                    problems.append(f"{label}: valid_flag differs from the {src} at row {i}")
                    break
    return problems


def report_problems(path: Path, labels) -> list:
    """Both property checks must read PASS for every curve in the report."""
    text = Path(path).read_text()
    problems = []
    for label in labels:
        m = re.search(rf"^curve {re.escape(label)}:\n((?:  .*\n)*)", text, re.M)
        if m is None:
            problems.append(f"report has no block for curve {label}")
            continue
        block = m.group(1)
        for check in ("nonnegativity", "triangle inequality"):
            if not re.search(rf"^  {check} .*: PASS", block, re.M):
                problems.append(f"{label}: {check} check does not read PASS")
    return problems


def gas_problems(mean: float, std_error: float, analytic: float, expectation: dict) -> list:
    problems = []
    ref = expectation["reference"]
    if ref is not None:
        for name, have in (("mean", mean), ("std_error", std_error)):
            if not abs(have - ref[name]) <= expectation["rtol"] * abs(ref[name]):
                problems.append(f"gas {name} {have!r} differs from the reference {ref[name]!r}")
    if not std_error > 0:
        problems.append("gas std_error is not positive")
    else:
        z = (mean - analytic) / std_error
        if not abs(z) <= expectation["z_bound"]:
            problems.append(f"gas |z| = {abs(z):.2f} against analytic_phi00_avg")
    return problems


# -- independent oracle for codeword_quadrature ------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)
_SERIES_X = 0.1


def _geometric_weight(x: np.ndarray, cos2: float) -> np.ndarray:
    """(1 - c^2) j0(x) + (3 c^2 - 1) j1(x)/x, with Taylor series below 0.1."""
    small = x < _SERIES_X
    xs = np.where(small, 1.0, x)
    j0 = np.sin(xs) / xs
    j1x = (np.sin(xs) - xs * np.cos(xs)) / xs**3
    x2 = x * x
    j0_s = 1 - x2 / 6 + x2**2 / 120 - x2**3 / 5040 + x2**4 / 362880
    j1x_s = 1 / 3 - x2 / 30 + x2**2 / 840 - x2**3 / 45360 + x2**4 / 3991680
    j0 = np.where(small, j0_s, j0)
    j1x = np.where(small, j1x_s, j1x)
    return (1.0 - cos2) * j0 + (3.0 * cos2 - 1.0) * j1x


def _time_factor(x: np.ndarray, kernel: str) -> np.ndarray:
    """f: 1 - cos x (zero temperature); phi: 2 (x - sin x). x = q t."""
    if kernel == "f":
        return 2.0 * np.sin(0.5 * x) ** 2
    x2 = x * x
    series = x * x2 / 6 * (1 - x2 / 20 + x2**2 / 840 - x2**3 / 60480 + x2**4 / 6652800)
    return 2.0 * np.where(x < _SERIES_X, series, x - np.sin(x))


def _radial_integral(t, r, cos2, kernel, panels):
    edges = np.linspace(0.0, CODEWORD_KAPPA, panels + 1)
    half = 0.5 * np.diff(edges)
    q = ((0.5 * (edges[:-1] + edges[1:]))[:, None] + half[:, None] * _GL_X).ravel()
    w = (half[:, None] * _GL_W).ravel()
    vals = q * _geometric_weight(q * r, cos2) * _time_factor(q * t, kernel)
    return ALPHA / math.pi * float(np.dot(vals, w))


def kernel_oracle(t, r, cos2, kernel):
    """Fixed-grid 20-point Gauss-Legendre on at least two panels per period
    of the fastest oscillation; returns (value, |value - value at half the
    panels|) as the oracle's own error estimate."""
    panels = max(16, math.ceil(2.0 * CODEWORD_KAPPA * (t + r) / math.pi))
    fine = _radial_integral(t, r, cos2, kernel, 2 * panels)
    coarse = _radial_integral(t, r, cos2, kernel, panels)
    return fine, abs(fine - coarse)


class CodewordOracle:
    """The codeword curve recomputed from the kernel integrals, without dmtsim."""

    def __init__(self, selected):
        side, a = CODEWORD_SIDE, CODEWORD_SPACING
        idx = np.arange(side * side)
        half = (side - 1) // 2
        pos = np.column_stack([(idx // side - half) * a, (idx % side - half) * a, 0.0 * idx])
        sel = np.asarray(selected)
        uno = np.setdiff1d(idx, sel)
        self.n, self.m = len(sel), len(uno)
        start, end, points = CODEWORD_TIMES
        self.times = np.geomspace(start, end, points)

        def geometry(a_idx, b_idx):
            delta = pos[a_idx][:, None, :] - pos[b_idx][None, :, :]
            r = np.sqrt(np.sum(delta**2, axis=2))
            cos = np.divide(delta[..., 2], r, out=np.zeros_like(r), where=r > 0)
            return r, cos * cos

        r_ss, c_ss = geometry(sel, sel)
        r_su, c_su = geometry(sel, uno)
        T = len(self.times)
        self.d_direct, self.d_indirect = np.empty(T), np.empty(T)
        self.f0, self.err_f, self.err_phi = np.empty(T), np.empty(T), np.empty(T)
        self.s_abs = np.empty((T, self.m))
        self.max_m, self.max_v = np.empty(T), np.empty(T)
        for it, t in enumerate(self.times):
            F, ef = self._matrix(t, r_ss, c_ss, "f")
            V, ev = self._matrix(t, r_su, c_su, "phi")
            S = V.sum(axis=0)
            M = 4.0 * F + 2.0 * V @ V.T
            self.d_direct[it] = 4.0 * F.sum()
            self.d_indirect[it] = 2.0 * float(np.sum(S * S))
            self.f0[it], self.err_f[it], self.err_phi[it] = F[0, 0], ef, ev
            self.s_abs[it] = np.abs(S)
            self.max_m[it], self.max_v[it] = np.abs(M).max(), np.abs(V).max()

    @staticmethod
    def _matrix(t, r, c2, kernel):
        keys = np.stack([r.ravel(), c2.ravel()], axis=1)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        vals = np.empty(len(uniq))
        worst = 0.0
        for i, (rr, cc) in enumerate(uniq):
            vals[i], err = kernel_oracle(t, rr, cc, kernel)
            worst = max(worst, err)
        return vals[inverse.ravel()].reshape(r.shape), worst

    def expectation(self, k_tol: float, source: str) -> dict:
        """k_tol = 2 against a frozen reference, 1 against this oracle."""
        n, m = self.n, self.m
        tol_f = QUAD_TOL_F_REL * self.f0
        extra_f = self.err_f if source == "oracle" else 0.0
        extra_v = self.err_phi if source == "oracle" else 0.0
        delta_f = k_tol * tol_f + extra_f
        delta_v = k_tol * QUAD_TOL_PHI + extra_v
        upper = self.s_abs + (n * (QUAD_TOL_PHI + self.err_phi))[:, None]
        atol_direct = 4.0 * n * (n - 1) * delta_f + ROUND_RTOL * np.abs(self.d_direct)
        atol_indirect = 4.0 * n * delta_v * upper.sum(axis=1) + ROUND_RTOL * np.abs(
            self.d_indirect
        )
        # validity: max |M_ij| < 0.1, decided only where the margin exceeds
        # what the allowed per-entry differences can move M_ij by
        margin = 4.0 * delta_f + 2.0 * m * (2.0 * self.max_v + delta_v) * delta_v
        flags = [
            None if abs(mx - VALIDITY_THRESHOLD) <= mg else int(mx < VALIDITY_THRESHOLD)
            for mx, mg in zip(self.max_m, margin)
        ]
        return {
            "source": source,
            "columns": {
                "t": [self.times.tolist(), (ROUND_RTOL * self.times).tolist()],
                "d_direct": [self.d_direct.tolist(), atol_direct.tolist()],
                "d_indirect": [self.d_indirect.tolist(), atol_indirect.tolist()],
            },
            "valid_flag": flags,
        }
