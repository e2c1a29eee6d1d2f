import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dmtsim
from dmtsim.cli import (
    CSV_HEADER,
    Scenario,
    ScenarioError,
    Sweep,
    TimeGrid,
    crossover_detect,
    main,
    parse_scenario,
    run,
)

ALPHA = 1.0 / 137.036
MAGIC_ANGLE = math.acos(1.0 / math.sqrt(3.0))

SMOKE = """
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

[output]
prefix = smoke
"""


def write_scenario(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    return {
        "t": np.array([float(r[0]) for r in rows]),
        "d_direct": np.array([float(r[1]) for r in rows]),
        "d_indirect": np.array([float(r[2]) for r in rows]),
        "d_total": np.array([float(r[3]) for r in rows]),
        "valid": np.array([int(r[4]) for r in rows]),
    }


class TestParsing:
    def test_full_round_trip(self, tmp_path):
        text = SMOKE + "\n[sweep]\nparameter = kappa\nvalues = 0.01 0.1 1\n"
        sc = parse_scenario(write_scenario(tmp_path, text))
        assert sc.bath.kappa == 0.1
        assert sc.geometry_kind == "lattice"
        assert sc.geometry_params["side"] == 5
        assert sc.geometry_params["dipole_direction"] == (0.0, 0.0, 1.0)
        assert sc.time_grid.points == 13 and sc.time_grid.spacing == "log"
        assert sc.sweep.values == (0.01, 0.1, 1.0)
        assert sc.out_dir == "out" and sc.prefix == "smoke"

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="cannot read"):
            parse_scenario("/nonexistent/path.ini")

    def test_missing_section_names_it(self, tmp_path):
        path = write_scenario(tmp_path, "[bath]\nalpha = 1e-2\nkappa = 0.1\n")
        with pytest.raises(ScenarioError, match=r"\[geometry\]"):
            parse_scenario(path)

    def test_unparseable_value_names_the_key(self, tmp_path):
        path = write_scenario(tmp_path, SMOKE.replace("kappa = 0.1", "kappa = fast"))
        with pytest.raises(ScenarioError, match=r"\[bath\.kappa\]"):
            parse_scenario(path)

    def test_unknown_geometry_kind(self, tmp_path):
        path = write_scenario(tmp_path, SMOKE.replace("kind = lattice", "kind = ring"))
        with pytest.raises(ScenarioError, match=r"\[geometry\.kind\]"):
            parse_scenario(path)

    def test_gas_sweep_parameter_needs_gas_geometry(self, tmp_path):
        text = SMOKE + "\n[sweep]\nparameter = density\nvalues = 1e-3\n"
        with pytest.raises(ScenarioError, match=r"\[sweep\.parameter\]"):
            parse_scenario(write_scenario(tmp_path, text))

    def test_time_grid_validation(self):
        with pytest.raises(ScenarioError, match="at least 2"):
            TimeGrid(start=1.0, end=2.0, points=1)
        with pytest.raises(ScenarioError, match="below end"):
            TimeGrid(start=2.0, end=1.0, points=5)
        with pytest.raises(ScenarioError, match="start > 0"):
            TimeGrid(start=0.0, end=1.0, points=5, spacing="log")
        grid = TimeGrid(start=0.0, end=1.0, points=5, spacing="linear")
        assert grid.times()[0] == 0.0 and grid.times()[-1] == 1.0

    def test_sweep_validation(self):
        with pytest.raises(ScenarioError, match="unknown parameter"):
            Sweep(parameter="alpha", values=(1.0,))
        with pytest.raises(ScenarioError, match="at least one"):
            Sweep(parameter="kappa", values=())


class TestCrossoverDetect:
    def test_none_when_direct_always_wins(self):
        t = np.array([1.0, 2.0, 3.0])
        assert crossover_detect(t, [1.0, 1.0, 1.0], [0.1, 0.2, 0.3]) is None

    def test_first_time_when_indirect_already_leads(self):
        t = np.array([1.0, 2.0, 3.0])
        assert crossover_detect(t, [0.1, 1.0, 1.0], [0.2, 0.1, 0.1]) == 1.0

    def test_linearly_interpolates_the_sign_change(self):
        t = np.array([0.0, 1.0, 2.0])
        # gap goes -1 -> +3 between t = 1 and t = 2: crossing at 1.25
        got = crossover_detect(t, [1.0, 2.0, 1.0], [0.5, 1.0, 4.0])
        assert got == pytest.approx(1.25, rel=1e-12)

    def test_exact_grid_point_crossing(self):
        t = np.array([1.0, 2.0, 3.0])
        # gap = 0 at t = 2, positive at t = 3: the sign change starts at 2
        got = crossover_detect(t, [1.0, 1.0, 1.0], [0.5, 1.0, 2.0])
        assert got == pytest.approx(2.0, rel=1e-12)


class TestRun:
    def test_smoke_lattice(self, tmp_path):
        path = write_scenario(tmp_path, SMOKE)
        out = tmp_path / "out"
        assert run(path, out_dir=str(out)) == 0
        curve = read_csv(out / "smoke.csv")
        assert curve["t"].shape == (13,)
        np.testing.assert_allclose(
            curve["t"], np.geomspace(1e-3, 1e3, 13), rtol=1e-15
        )
        # single selected center atom: direct channel is 4 f(t), which has
        # reached its cutoff plateau at t = 100 / kappa to within ~1%
        plateau = 4.0 * 0.0072973525693 * 0.1**2 / (3.0 * math.pi)
        assert curve["d_direct"][-1] == pytest.approx(plateau, rel=2e-2)
        assert np.all(curve["valid"] == 1)
        report = (out / "smoke_report.txt").read_text()
        assert "curve smoke:" in report
        assert "lattice scales: N_nn = 4.63431" in report
        assert "crossover (indirect overtakes direct): none within grid" in report
        assert "nonnegativity at t = 1000" in report and "PASS" in report
        assert "triangle inequality over 1000 random triples: PASS" in report

    def test_total_column_is_exactly_additive(self, tmp_path):
        path = write_scenario(tmp_path, SMOKE)
        out = tmp_path / "out"
        assert run(path, out_dir=str(out)) == 0
        curve = read_csv(out / "smoke.csv")
        assert np.all(curve["d_total"] == curve["d_direct"] + curve["d_indirect"])

    def test_reruns_are_bit_identical(self, tmp_path):
        path = write_scenario(tmp_path, SMOKE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(path, out_dir=str(out1)) == 0
        assert run(path, out_dir=str(out2)) == 0
        assert (out1 / "smoke.csv").read_bytes() == (out2 / "smoke.csv").read_bytes()
        report1 = (out1 / "smoke_report.txt").read_text()
        assert report1 == (out2 / "smoke_report.txt").read_text()

    def test_single_atom_has_no_indirect_channel(self, tmp_path):
        text = SMOKE.replace("side = 5", "side = 1")
        path = write_scenario(tmp_path, text)
        out = tmp_path / "out"
        assert run(path, out_dir=str(out)) == 0
        curve = read_csv(out / "smoke.csv")
        assert np.all(curve["d_indirect"] == 0.0)
        assert np.all(curve["d_total"] == curve["d_direct"])

    def test_gas_geometry_and_seed_override(self, tmp_path):
        text = """
[bath]
alpha = 0.0072973525693
kappa = 0.1

[geometry]
kind = gas
density = 1.7e-3
exclusion_radius = 10
horizon = 25
seed = 3
count_mode = fixed
fixed_count = 40

[time]
start = 5
end = 20
points = 4
spacing = linear

[output]
prefix = cloud
"""
        path = write_scenario(tmp_path, text)
        out = tmp_path / "out"
        assert run(path, out_dir=str(out)) == 0
        report = (out / "cloud_report.txt").read_text()
        assert "gas scales: gamma_g" in report
        assert "atoms = 41" in report
        base = (out / "cloud.csv").read_bytes()
        assert run(path, out_dir=str(tmp_path / "o2"), seed_override=3) == 0
        assert (tmp_path / "o2" / "cloud.csv").read_bytes() == base
        assert run(path, out_dir=str(tmp_path / "o3"), seed_override=99) == 0
        assert (tmp_path / "o3" / "cloud.csv").read_bytes() != base

    def test_selection_override_errors(self, tmp_path, capsys):
        text = SMOKE + "\n[selection]\nindices = 0 99\n"
        path = write_scenario(tmp_path, text)
        assert run(path, out_dir=str(tmp_path / "out")) == 1
        assert "selection.indices" in capsys.readouterr().err
        text = SMOKE + "\n[selection]\nindices = 3 3\n"
        path = write_scenario(tmp_path, text, name="dup.ini")
        assert run(path, out_dir=str(tmp_path / "out")) == 1
        assert "duplicate" in capsys.readouterr().err

    def test_config_error_exit_code_and_message(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SMOKE.replace("side = 5", "side = 4"))
        assert run(path, out_dir=str(tmp_path / "out")) == 1
        assert "config error:" in capsys.readouterr().err

    def test_quadrature_budget_exhaustion_is_a_numerical_error(self, tmp_path, capsys):
        text = """
[bath]
alpha = 0.0072973525693
kappa = 1.0

[geometry]
kind = chain
count = 2
spacing = 1e7
dipole_angle = 0.3

[selection]
indices = 0 1

[time]
start = 1e6
end = 1e7
points = 2
"""
        path = write_scenario(tmp_path, text)
        assert run(path, out_dir=str(tmp_path / "out"), policy="quadrature") == 2
        err = capsys.readouterr().err
        assert "numerical error: quadrature budget exhausted" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "kappa, spacing, end, policy, message",
        [
            # kappa (r + t) overflows to inf: specfun's ValueError
            (10.0, 1000.0, 1e308, "closed", "sine_integral requires finite input"),
            # |r| overflows to inf: KernelDomainError
            (0.1, 1e200, 10.0, "quadrature", "pair separation r must be finite"),
            # |r| of a denormal spacing underflows to 0: GeometryError
            (0.1, 1e-320, 10.0, "closed", "coincides with unobserved atom"),
        ],
        ids=["si_overflow", "kernel_domain", "coincident_pair"],
    )
    def test_domain_errors_while_computing_are_numerical_errors(
        self, tmp_path, capsys, kappa, spacing, end, policy, message
    ):
        text = f"""
[bath]
alpha = 0.0072973525693
kappa = {kappa!r}

[geometry]
kind = lattice
side = 3
spacing = {spacing!r}

[time]
start = 1
end = {end!r}
points = 5
"""
        path = write_scenario(tmp_path, text)
        assert run(path, out_dir=str(tmp_path / "out"), policy=policy) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and message in err

    def test_unwritable_output_directory_is_a_config_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SMOKE)
        blocker = tmp_path / "not_a_directory"
        blocker.write_text("")
        assert run(path, out_dir=str(blocker)) == 1
        assert run(path, out_dir=str(blocker / "out")) == 1
        # the directory is made, but the CSV's parent is not
        nested = write_scenario(
            tmp_path, SMOKE.replace("prefix = smoke", "prefix = missing/smoke"), "nested.ini"
        )
        assert run(nested, out_dir=str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.count("config error: [output.directory]") == 3

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_kappa_t_reaches_the_direct_plateau(self, tmp_path):
        # kappa t overflows at the last time; f_diag takes its kappa^2/2 limit
        text = SMOKE.replace("side = 5", "side = 1").replace("kappa = 0.1", "kappa = 10")
        text = text.replace("start = 1e-3", "start = 1").replace("end = 1e3", "end = 1e308")
        path = write_scenario(tmp_path, text)
        out = tmp_path / "out"
        assert run(path, out_dir=str(out)) == 0
        curve = read_csv(out / "smoke.csv")
        assert curve["t"][-1] == 1e308
        for column in ("d_direct", "d_indirect", "d_total"):
            assert np.all(np.isfinite(curve[column]))
        plateau = 4.0 * 0.0072973525693 * 10.0**2 / (3.0 * math.pi)
        assert curve["d_direct"][-1] == pytest.approx(plateau, rel=1e-14)

    def test_quadrature_policy_covers_the_figure_time_range(self, tmp_path):
        # kappa (t + r) reaches 1e8: the quadrature policy's phi is the closed
        # form of the full integral, so no panel budget applies to it
        text = """
[bath]
alpha = 0.0072973525693
kappa = 1.0

[geometry]
kind = lattice
side = 3
spacing = 1000

[time]
start = 1
end = 1e8
points = 5

[output]
prefix = wide
"""
        path = write_scenario(tmp_path, text)
        out = tmp_path / "out"
        assert run(path, out_dir=str(out), policy="quadrature") == 0
        curve = read_csv(out / "wide.csv")
        config, mask = dmtsim.square_lattice_2d(3, 1000.0, (0.0, 0.0, 1.0))
        bath = dmtsim.BathParams(alpha=0.0072973525693, kappa=1.0)
        center = int(mask.selected[0])
        for t, got in zip(curve["t"], curve["d_indirect"]):
            expected = 2.0 * sum(
                dmtsim.phi_exact(t, dmtsim.pair_geometry(config, center, int(k)), bath) ** 2
                for k in mask.unobserved
            )
            assert got == pytest.approx(expected, rel=1e-12)

    def test_unknown_policy_is_a_config_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SMOKE)
        assert run(path, out_dir=str(tmp_path / "out"), policy="magic") == 1
        assert "policy" in capsys.readouterr().err


class TestSweeps:
    def test_kappa_sweep_emits_one_curve_per_value(self, tmp_path):
        text = SMOKE + "\n[sweep]\nparameter = kappa\nvalues = 0.05 0.1\n"
        path = write_scenario(tmp_path, text)
        out = tmp_path / "out"
        assert run(path, out_dir=str(out)) == 0
        a = read_csv(out / "smoke_kappa=0.05.csv")
        b = read_csv(out / "smoke_kappa=0.1.csv")
        # direct plateau scales as kappa^2
        assert b["d_direct"][-1] / a["d_direct"][-1] == pytest.approx(4.0, rel=5e-2)
        report = (out / "smoke_report.txt").read_text()
        assert "sweep summary (kappa):" in report
        assert "minimizer: kappa" in report

    def test_chain_tilt_sweep_finds_the_magic_angle(self, tmp_path):
        text = f"""
[bath]
alpha = 0.0072973525693
kappa = 0.1

[geometry]
kind = chain
count = 7
spacing = 50

[time]
start = 1
end = 1e4
points = 9

[sweep]
parameter = dipole_tilt
values = 0.3 {MAGIC_ANGLE!r} 1.2

[output]
prefix = tilt
"""
        # the chain builder needs a base angle even though the sweep replaces it
        text = text.replace("spacing = 50", "spacing = 50\ndipole_angle = 0.0")
        path = write_scenario(tmp_path, text)
        out = tmp_path / "out"
        assert run(path, out_dir=str(out)) == 0
        magic_label = f"tilt_dipole_tilt={MAGIC_ANGLE:g}"
        magic = read_csv(out / f"{magic_label}.csv")
        side = read_csv(out / "tilt_dipole_tilt=0.3.csv")
        # at the magic angle the pair kernel's angular factor vanishes to
        # rounding, so the indirect channel is dead across the whole grid
        assert np.all(magic["d_indirect"] <= 1e-20 * side["d_indirect"].max())
        report = (out / "tilt_report.txt").read_text()
        assert f"minimizer: dipole_tilt = {MAGIC_ANGLE:.6g}" in report

    def test_sweep_summary_minimizer_matches_the_curves(self, tmp_path):
        text = SMOKE + "\n[sweep]\nparameter = spacing\nvalues = 800 1000 1200\n"
        path = write_scenario(tmp_path, text)
        out = tmp_path / "out"
        assert run(path, out_dir=str(out)) == 0
        ends = {
            v: read_csv(out / f"smoke_spacing={v:g}.csv")["d_indirect"][-1]
            for v in (800.0, 1000.0, 1200.0)
        }
        best = min(ends, key=ends.get)
        report = (out / "smoke_report.txt").read_text()
        assert f"minimizer: spacing = {best:.6g}" in report
        for v, d in ends.items():
            assert f"spacing = {v:.6g}: d_indirect(t_end) = {d:.6g}" in report


class TestMain:
    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--no-such-flag"])
        assert exc_info.value.code == 1
        assert "config error:" in capsys.readouterr().err

    def test_happy_path(self, tmp_path):
        path = write_scenario(tmp_path, SMOKE)
        assert main([path, "--out-dir", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "smoke.csv").exists()

    def test_policy_flag_is_validated_by_argparse(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SMOKE)
        with pytest.raises(SystemExit) as exc_info:
            main([path, "--policy", "wrong"])
        assert exc_info.value.code == 1

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        path = write_scenario(tmp_path, SMOKE)
        src = str(Path(dmtsim.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "dmtsim", path, "--out-dir", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert (tmp_path / "out" / "smoke.csv").exists()
