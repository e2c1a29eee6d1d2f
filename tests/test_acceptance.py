"""End-to-end acceptance checks.

Every test prints one verdict line

    ACCEPTANCE <id> PASS|FAIL: <detail>

straight to the terminal (bypassing capture) before asserting, so a plain
pytest run leaves a greppable one-line summary per criterion.

The pair-kernel cross-validation (4a) compares the radial quadrature with
phi_exact, the closed form of the full integral. phi_closed is not the
reference there: it deliberately drops rapidly oscillating cutoff-edge terms,
and those terms are an order-unity (at high kappa r even dominant) fraction
of the exact integral for a single rigid pair. Radial jitter averages them
out of phi but not out of the metric's Phi = sum phi^2 (see the phi_closed
docstring and ROADMAP item 5). 4a prints that gap alongside its verdict so
the omission stays visible.
"""

import math

import numpy as np
import pytest
from conftest import ACCEPTANCE_LINES

from dmtsim.asymptotics import (
    atoms_per_m3,
    effective_neighbors,
    gas_scales,
    kappa_from_photon_energy,
    lattice_scales,
)
from dmtsim.cli import CSV_HEADER, crossover_detect, run
from dmtsim.ensemble import analytic_phi00_avg, average_phi00
from dmtsim.geometry import (
    GasSpec,
    SelectionMask,
    chain_1d,
    sample_gas,
    square_lattice_2d,
)
from dmtsim.kernels import (
    BathParams,
    PairGeometry,
    TimeKernel,
    f_diag,
    phi_closed,
    phi_exact,
    reduced_quadrature,
)
from dmtsim.metric import (
    build_metric,
    check_nonnegative,
    check_triangle,
    decoherence,
)

ALPHA = 1.0 / 137.036
MAGIC_ANGLE = math.acos(1.0 / math.sqrt(3.0))


def report(tag, ok, detail):
    line = f"ACCEPTANCE {tag} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    return ok


def load_curve(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    arr = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {
        "t": arr[:, 0],
        "d_direct": arr[:, 1],
        "d_indirect": arr[:, 2],
        "d_total": arr[:, 3],
    }


@pytest.fixture(scope="module")
def lattice_figure(tmp_path_factory):
    """31x31 lattice, spacing 1000, dipole normal to the plane, kappa swept
    over {0.01, 0.1, 1}, 225 log-spaced times spanning 1e-3..1e11."""
    tmp = tmp_path_factory.mktemp("figure")
    scenario = tmp / "figure.ini"
    scenario.write_text(
        """
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
    )
    out = tmp / "out"
    assert run(str(scenario), out_dir=str(out)) == 0
    curves = {
        kappa: load_curve(out / f"figure_kappa={kappa:g}.csv")
        for kappa in (0.01, 0.1, 1.0)
    }
    return curves


def test_1_lattice_curve_shape(lattice_figure):
    details = []
    ok = True
    for kappa, curve in lattice_figure.items():
        t, d = curve["t"], curve["d_total"]
        w = (t >= 1e-2 / kappa) & (t <= 1e-1 / kappa)
        rise = np.polyfit(np.log(t[w]), np.log(d[w]), 1)[0]
        ok &= abs(rise - 2.0) <= 0.1

        w = (kappa * t >= 50.0) & (kappa * t <= 500.0)
        plateau = d[w].mean()
        target = 4.0 * ALPHA * kappa**2 / (3.0 * math.pi)
        plateau_err = abs(plateau - target) / target
        ok &= plateau_err <= 0.02

        cross = crossover_detect(t, curve["d_direct"], curve["d_indirect"])
        w = (t >= 3.0 * cross) & (d <= 1.0)
        regrow = np.polyfit(np.log(t[w]), np.log(d[w]), 1)[0]
        ok &= abs(regrow - 2.0) <= 0.1
        ok &= d.max() >= 1.0

        details.append(
            f"kappa={kappa:g} rise {rise:.3f}, plateau err {plateau_err:.1e}, "
            f"regrow {regrow:.3f}"
        )
    order = [
        np.interp(5e4, c["t"], c["d_total"])
        for c in (lattice_figure[0.01], lattice_figure[0.1], lattice_figure[1.0])
    ]
    ordered = order[0] < order[1] < order[2]
    ok &= ordered
    details.append(f"kappa-ordering at t=5e4 {'holds' if ordered else 'BROKEN'}")
    assert report(1, ok, "; ".join(details))


def test_2_crossover_matches_scale_estimate(lattice_figure):
    config, mask = square_lattice_2d(31, 1000.0, (0, 0, 1))
    n_nn = effective_neighbors(config, mask)
    details = []
    ok = True
    for kappa in (0.01, 0.1):
        curve = lattice_figure[kappa]
        cross = crossover_detect(
            curve["t"], curve["d_direct"], curve["d_indirect"]
        )
        t1 = lattice_scales(1000.0, BathParams(alpha=ALPHA, kappa=kappa), n_nn).t1
        ratio = cross / t1
        ok &= 1.0 / 3.0 <= ratio <= 3.0
        details.append(f"kappa={kappa:g} t_cross/t1 = {ratio:.3f}")
    assert report(2, ok, "; ".join(details) + " (required within x3)")


def test_3_metric_properties_on_random_configurations():
    rng = np.random.default_rng(20240815)
    violations = 0
    for _ in range(200):
        kind = rng.choice(["lattice", "chain", "gas"])
        if kind == "lattice":
            side = int(rng.choice([3, 5]))
            u = rng.standard_normal(3)
            u /= np.linalg.norm(u)
            config, _ = square_lattice_2d(side, 10.0 ** rng.uniform(0, 4), tuple(u))
        elif kind == "chain":
            config, _ = chain_1d(
                int(rng.integers(2, 10)),
                10.0 ** rng.uniform(0, 4),
                float(rng.uniform(0, math.pi)),
            )
        else:
            spec = GasSpec(
                density=10.0 ** rng.uniform(-6, -2),
                exclusion_radius=float(rng.uniform(1, 20)),
                horizon=float(rng.uniform(30, 60)),
                seed=int(rng.integers(0, 2**31)),
                fixed_count=int(rng.integers(3, 26)),
            )
            config, _ = sample_gas(spec)
        n = len(config)
        k = int(rng.integers(1, min(6, n) + 1))
        selected = tuple(int(j) for j in rng.choice(n, size=k, replace=False))
        mask = SelectionMask.from_selected(n, selected)
        bath = BathParams(alpha=ALPHA, kappa=10.0 ** rng.uniform(-2, 0))
        t = 10.0 ** rng.uniform(-2, 3) / bath.kappa
        M = build_metric(config, mask, bath, t)
        nn = check_nonnegative(M, trials=1000, seed=int(rng.integers(0, 2**31)))
        tri = check_triangle(M, triples=10000, seed=int(rng.integers(0, 2**31)))
        if not (nn.passed and tri.passed):
            violations += 1
    ok = violations == 0
    assert report(
        3,
        ok,
        f"{violations} violations over 200 random configurations "
        "(1000 vectors + 10000 triples each)",
    )


def test_4a_pair_kernel_quadrature_vs_closed_form():
    kappa = 0.1
    bath = BathParams(alpha=ALPHA, kappa=kappa)
    worst = 0.0
    closed_gap = 0.0
    for kr in (10.0, 100.0):
        r = kr / kappa
        for t_over_r in (0.5, 1.0, 2.0, 10.0):
            g = PairGeometry(r=r, theta=0.7)
            t = t_over_r * r
            quad = reduced_quadrature(t, g, bath, TimeKernel.PHI_KERNEL, tol=1e-12)
            worst = max(worst, abs(quad - phi_exact(t, g, bath)) / abs(quad))
            closed_gap = max(closed_gap, abs(quad - phi_closed(t, g, bath)) / abs(quad))
    ok = worst <= 1e-3
    assert report(
        "4a",
        ok,
        f"max |quad - phi_exact|/|quad| = {worst:.1e} over kappa r in {{10, 100}}, "
        "t/r in {0.5, 1, 2, 10} (required 1e-3); phi_closed, which drops the "
        f"cutoff-edge terms, is off by up to {closed_gap:.3f}",
    )


def test_4b_self_kernel_quadrature_vs_closed_form():
    bath = BathParams(alpha=ALPHA, kappa=0.1)
    worst = 0.0
    for t in np.geomspace(1e-2 / bath.kappa, 1e4 / bath.kappa, 13):
        got = reduced_quadrature(
            float(t), PairGeometry(r=0.0, theta=0.0), bath, TimeKernel.F_KERNEL,
            tol=1e-12,
        )
        worst = max(worst, abs(got - f_diag(float(t), bath)))
    ok = worst <= 1e-8
    assert report(
        "4b", ok, f"max |quad - closed| = {worst:.2e} at zero separation "
        "over 13 log-spaced times (required 1e-8)"
    )


def test_5_gas_monte_carlo_against_shell_average():
    bath = BathParams(alpha=ALPHA, kappa=0.1)
    points = [
        (1.7053e-3, 10.0, 20.0, 25.0),
        (3.673e-3, 5.0, 15.0, 20.0),
        (6.28e-4, 20.0, 30.0, 35.0),
    ]
    details = []
    ok = True
    for density, l, t, horizon in points:
        spec = GasSpec(
            density=density, exclusion_radius=l, horizon=horizon, seed=7
        )
        res = average_phi00(spec, bath, t, 1000)
        target = analytic_phi00_avg(spec, bath, t)
        z = (res.mean - target) / res.std_error
        ok &= abs(z) <= 3.0
        details.append(f"l={l:g},t={t:g}: z = {z:+.2f}")
    spec = GasSpec(density=1.7053e-3, exclusion_radius=10.0, horizon=25.0, seed=7)
    ses = [average_phi00(spec, bath, 20.0, n).std_error for n in (100, 1000, 10000)]
    slope = np.polyfit(np.log([100, 1000, 10000]), np.log(ses), 1)[0]
    ok &= abs(slope + 0.5) <= 0.1
    details.append(f"SE slope {slope:.3f} (required -0.5 +- 0.1)")
    assert report(5, ok, "; ".join(details))


def test_6a_magic_angle_chain_kills_indirect_channel(tmp_path):
    scenario = tmp_path / "magic.ini"
    scenario.write_text(
        f"""
[bath]
alpha = 0.0072973525693
kappa = 0.1

[geometry]
kind = chain
count = 9
spacing = 50
dipole_angle = {MAGIC_ANGLE!r}

[time]
start = 0.1
end = 1e4
points = 33

[output]
prefix = magic
"""
    )
    out = tmp_path / "out"
    assert run(str(scenario), out_dir=str(out)) == 0
    curve = load_curve(out / "magic.csv")
    ratio = float(np.max(curve["d_indirect"] / curve["d_direct"]))
    ok = ratio <= 1e-12
    assert report(
        "6a", ok, f"max d_indirect/d_direct = {ratio:.2e} over the whole grid "
        "(required 1e-12)"
    )


def test_6b_lattice_tilt_sweep_reports_minimizer(tmp_path):
    scenario = tmp_path / "tilt.ini"
    scenario.write_text(
        """
[bath]
alpha = 0.0072973525693
kappa = 0.1

[geometry]
kind = lattice
side = 11
spacing = 1000

[time]
start = 1e2
end = 1e6
points = 17

[sweep]
parameter = dipole_tilt
values = 0 0.3 0.6 0.9553166181245093 1.2 1.5707963267948966

[output]
prefix = tilt
"""
    )
    out = tmp_path / "out"
    assert run(str(scenario), out_dir=str(out)) == 0
    values = (0.0, 0.3, 0.6, 0.9553166181245093, 1.2, 1.5707963267948966)
    ends = {
        v: load_curve(out / f"tilt_dipole_tilt={v:g}.csv")["d_indirect"][-1]
        for v in values
    }
    report_text = (out / "tilt_report.txt").read_text()
    rows_ok = all(
        f"dipole_tilt = {v:.6g}: d_indirect(t_end) = {d:.6g}, "
        f"phi00(t_end) = {d / 2.0:.6g}" in report_text
        for v, d in ends.items()
    )
    best = min(ends, key=ends.get)
    min_ok = f"minimizer: dipole_tilt = {best:.6g}" in report_text
    ok = rows_ok and min_ok
    assert report(
        "6b",
        ok,
        f"six-tilt sweep emitted; minimizer tilt = {best:.6g} "
        f"(phi00 = {ends[best] / 2.0:.3g}) matches the curve minimum",
    )


def test_7_distant_pair_decoheres_additively():
    config, _ = chain_1d(2, 1e5, 0.5)
    mask = SelectionMask.from_selected(2, (0, 1))
    bath = BathParams(alpha=ALPHA, kappa=0.1)
    details = []
    ok = True
    for t in (1.0, 10.0):
        M = build_metric(config, mask, bath, t)
        d_two = decoherence(M, (1, 1), (-1, -1)).value
        d_one = decoherence(M, (1, 1), (-1, 1)).value
        rel = abs(d_two - 2.0 * d_one) / (2.0 * d_one)
        ok &= rel <= 1e-2
        details.append(f"t={t:g}: |d2/(2 d1) - 1| = {rel:.1e}")
    assert report(
        7, ok, "; ".join(details) + " at kappa r = 1e4 (required 1e-2)"
    )


def test_8_critical_density_in_physical_units():
    kappa = kappa_from_photon_energy(1.0, 1.0)
    scales = gas_scales(1e-3, 10.0, BathParams(alpha=ALPHA, kappa=kappa))
    rho_si = atoms_per_m3(scales.rho_crit, 1.0)
    ok = 1e20 / 3.0 <= rho_si <= 3e20
    assert report(
        8,
        ok,
        f"1 eV cutoff, 1 A dipole, 10 A exclusion: rho_crit = {rho_si:.3g} "
        "atoms/m^3 (required within x3 of 1e20)",
    )
