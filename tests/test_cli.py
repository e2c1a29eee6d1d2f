import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from conftest import pair_geometry

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
from dmtsim.geometry import SelectionMask, chain_1d
from dmtsim.kernels import BathParams
from dmtsim.metric import build_metric

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

# small geometries of each kind, to stand in for SMOKE's lattice
GEOMETRY = {
    "lattice": "kind = lattice\nside = 3\nspacing = 100",
    "chain": "kind = chain\ncount = 3\nspacing = 100\ndipole_angle = 0.2",
    "gas": "kind = gas\ndensity = 1e-3\nexclusion_radius = 10\nhorizon = 25\nfixed_count = 3",
}
# a Poisson gas of about 61 atoms: a density sweep needs one, since a
# fixed-count gas draws the same atoms at every density
POISSON_GAS = "kind = gas\ndensity = 1e-3\nexclusion_radius = 10\nhorizon = 25"


def with_geometry(geometry, extra=""):
    """SMOKE with its [geometry] keys replaced by `geometry`, plus extra text."""
    return SMOKE.replace("kind = lattice\nside = 5\nspacing = 1000", geometry) + extra


def write_scenario(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_module(args, timeout=120):
    """`python -m dmtsim args` from this checkout's sources."""
    src = str(Path(dmtsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "dmtsim", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


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

    @pytest.mark.parametrize(
        "text, key",
        [
            (
                SMOKE.replace("kappa = 0.1", "kappa = 0.1\ninv_temperatur = 2.0"),
                "bath.inv_temperatur",
            ),
            (SMOKE + "\n[sweeps]\nparameter = kappa\nvalues = 0.05 0.1\n", "sweeps"),
            (SMOKE + "\n[selction]\nindices = 0\n", "selction"),
            (
                SMOKE.replace("spacing = 1000", "spacing = 1000\ndipole_directon = 1 0 0"),
                "geometry.dipole_directon",
            ),
            # a key of another kind
            (with_geometry(GEOMETRY["chain"] + "\nside = 3"), "geometry.side"),
            # the count rule is fixed_count alone
            (with_geometry(GEOMETRY["gas"] + "\ncount_mode = fixed"), "geometry.count_mode"),
            # configparser would copy its keys into every section
            ("[DEFAULT]\nkappa = 0.2\n" + SMOKE, "DEFAULT"),
        ],
        ids=[
            "bath_key", "sweep_section", "selection_section", "geometry_key", "other_kinds_key",
            "count_mode", "default_section",
        ],
    )
    def test_unknown_key_or_section_is_a_config_error(self, tmp_path, capsys, text, key):
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 1
        kind = "unknown key" if "." in key else "unknown section"
        assert capsys.readouterr().err == f"config error: [{key}] {kind}\n"
        assert not list(tmp_path.rglob("*.csv"))

    def test_empty_default_section_is_allowed(self, tmp_path):
        sc = parse_scenario(write_scenario(tmp_path, "[DEFAULT]\n" + SMOKE))
        assert sc.bath.kappa == 0.1

    def test_missing_required_key_names_it(self, tmp_path, capsys):
        text = SMOKE.replace("kappa = 0.1\n", "")
        assert run(write_scenario(tmp_path, text), out_dir=str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == "config error: [bath.kappa] missing required key\n"

    @pytest.mark.parametrize(
        "prefix",
        ["sub/x", "../escaped", ".", "..", ""],
        ids=["sub", "up", "dot", "dotdot", "empty"],
    )
    def test_prefix_is_a_plain_file_name(self, tmp_path, capsys, prefix):
        text = SMOKE.replace("prefix = smoke", f"prefix = {prefix}")
        out = tmp_path / "a" / "out"
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [output.prefix] must be a file name")
        assert not list(tmp_path.rglob("*.csv")) and not list(tmp_path.rglob("*.txt"))

    def test_gas_sweep_parameter_needs_gas_geometry(self, tmp_path):
        text = SMOKE + "\n[sweep]\nparameter = density\nvalues = 1e-3\n"
        with pytest.raises(ScenarioError, match=r"\[sweep\.parameter\]"):
            parse_scenario(write_scenario(tmp_path, text))

    def test_density_sweep_needs_a_poisson_gas(self, tmp_path):
        # a fixed-count gas draws the same atoms at every density: its curves
        # would be identical and the report's minimizer meaningless
        extra = "\n[sweep]\nparameter = density\nvalues = 1e-4 1e-3\n"
        path = write_scenario(tmp_path, with_geometry(GEOMETRY["gas"], extra))
        out = tmp_path / "out"
        done = run_module([path, "--out-dir", str(out)])
        assert done.returncode == 1
        assert done.stderr.startswith(
            "config error: [sweep.parameter] a fixed-count gas does not depend on density"
        )
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize(
        "text",
        [
            "alpha = 1e-2\n" + SMOKE,
            SMOKE + "\n[bath]\nalpha = 1e-2\n",
            SMOKE.replace("kappa = 0.1", "kappa = 0.1\nkappa = 0.2"),
            SMOKE.replace("prefix = smoke", "prefix = caf\xe9").encode("latin-1"),
            SMOKE.replace("kappa = 0.1", "kappa = 10%"),
            SMOKE.replace("kappa = 0.1", "kappa = %(nope)s"),
        ],
        ids=[
            "missing_section_header",
            "duplicate_section",
            "duplicate_option",
            "not_utf8",
            "bare_percent",
            "percent_reference",
        ],
    )
    def test_malformed_file_is_a_config_error(self, tmp_path, text):
        path = tmp_path / "scenario.ini"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        done = run_module([str(path), "--out-dir", str(tmp_path / "out")])
        assert done.returncode == 1
        assert done.stderr.startswith("config error:")
        assert "Traceback" not in done.stderr

    def test_percent_is_a_literal_character(self, tmp_path):
        path = write_scenario(tmp_path, SMOKE.replace("prefix = smoke", "prefix = smoke%20"))
        assert parse_scenario(path).prefix == "smoke%20"

    def test_time_grid_validation(self):
        with pytest.raises(ScenarioError, match="at least 2"):
            TimeGrid(start=1.0, end=2.0, points=1)
        with pytest.raises(ScenarioError, match="below end"):
            TimeGrid(start=2.0, end=1.0, points=5)
        with pytest.raises(ScenarioError, match="start > 0"):
            TimeGrid(start=0.0, end=1.0, points=5, spacing="log")
        grid = TimeGrid(start=0.0, end=1.0, points=5, spacing="linear")
        assert grid.times()[0] == 0.0 and grid.times()[-1] == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_log_grid_next_to_the_float_range(self):
        # geomspace's powers round past the largest float: at the end, which
        # geomspace sets itself, and at an interior point, which is refused
        huge = np.finfo(float).max
        assert TimeGrid(start=1e-3, end=huge, points=2).times().tolist() == [1e-3, huge]
        with pytest.raises(ScenarioError, match="overflow next to the end") as exc_info:
            TimeGrid(start=1.7976931348623e308, end=huge, points=3).times()
        assert exc_info.value.key == "time.end"

    def test_time_grid_points_must_be_an_integer(self):
        for points in (5.5, 5.0, True):
            with pytest.raises(ScenarioError, match="at least 2") as exc_info:
                TimeGrid(start=1.0, end=2.0, points=points)
            assert exc_info.value.key == "time.points"

    def test_sweep_validation(self):
        with pytest.raises(ScenarioError, match="unknown parameter"):
            Sweep(parameter="alpha", values=(1.0,))
        with pytest.raises(ScenarioError, match="at least one"):
            Sweep(parameter="kappa", values=())

    @pytest.mark.parametrize("values", ["0.1 0.1000001 0.2", "0.2 0.1 0.1"])
    def test_sweep_values_need_distinct_labels(self, tmp_path, capsys, values):
        # both values of a pair would write smoke_kappa=0.1.csv
        text = SMOKE + f"\n[sweep]\nparameter = kappa\nvalues = {values}\n"
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [sweep.values] values 0.1 and 0.1")
        assert "share label 0.1" in err
        assert not list(out.glob("*.csv"))

    def test_documented_example_runs(self, tmp_path):
        block = dmtsim.cli.__doc__.split("Scenario file layout::\n\n")[1]
        lines = []
        for line in block.splitlines():
            if line and not line.startswith("    "):
                break
            lines.append(line)
        path = write_scenario(tmp_path, textwrap.dedent("\n".join(lines)))
        sc = parse_scenario(path)
        assert sc.geometry_kind == "lattice" and sc.selection == (480,)
        out = tmp_path / "out"
        assert run(path, out_dir=str(out)) == 0
        assert sorted(f.name for f in out.glob("*.csv")) == [
            "run_kappa=0.01.csv",
            "run_kappa=0.1.csv",
            "run_kappa=1.csv",
        ]


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

    @pytest.mark.parametrize(
        "times, d_direct, d_indirect",
        [
            ([1.0, 2.0, 3.0], [1.0, 2.0], [0.0, 3.0]),  # a short curve
            ([1.0, 2.0], [1.0], [0.0, 3.0]),  # a length-1 curve would broadcast
            ([1.0, 2.0, 3.0], [math.nan, 1.0, 1.0], [0.0, 0.0, 3.0]),  # NaN before the crossing
            ([1.0, math.inf, 3.0], [1.0, 1.0, 1.0], [0.0, 0.0, 3.0]),
            ([[1.0, 2.0]], [[1.0, 1.0]], [[0.0, 3.0]]),  # 2-D
            (1.0, 1.0, 2.0),  # scalars
        ],
    )
    def test_curves_must_be_finite_1d_and_of_one_length(self, times, d_direct, d_indirect):
        with pytest.raises(ValueError):
            crossover_detect(times, d_direct, d_indirect)


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
        assert "nonnegativity at t = 1000 over 200 random vectors: PASS" in report
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
        # only a warm f runs the quadrature: at t = 1 the diagonal fits the
        # panel budget and the pair at 1e7 does not
        text = """
[bath]
alpha = 0.0072973525693
kappa = 1.0
inv_temperature = 2

[geometry]
kind = chain
count = 2
spacing = 1e7
dipole_angle = 0.3

[selection]
indices = 0 1

[time]
start = 1
end = 10
points = 2
"""
        path = write_scenario(tmp_path, text)
        assert run(path, out_dir=str(tmp_path / "out"), policy="quadrature") == 2
        err = capsys.readouterr().err
        assert "numerical error: quadrature budget exhausted" in err

    def test_late_chain_runs_past_the_old_panel_budget(self, tmp_path):
        # three selected atoms to t = 1e11 at kappa 1: the zero-temperature f
        # off-diagonals are closed, where a quadrature ran out of panels past
        # t ~ 8.2e5; tier-1 turns any numpy RuntimeWarning into a failure
        text = with_geometry(
            "kind = chain\ncount = 6\nspacing = 100\ndipole_angle = 0.7",
            "\n[selection]\nindices = 1 2 3\n",
        )
        text = text.replace("kappa = 0.1", "kappa = 1.0").replace(
            "end = 1e3\npoints = 13", "end = 1e11\npoints = 57"
        )
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 0
        csv = read_csv(out / "smoke.csv")
        assert csv["t"][-1] == 1e11
        assert np.all(np.isfinite(csv["d_direct"])) and np.all(csv["d_direct"] > 0)
        # by t = 1e11 every f entry has settled on its late limit; the three
        # selected atoms alone carry the same pairs, with no phi to overflow
        config, _ = chain_1d(3, 100.0, 0.7)
        mask = SelectionMask.from_selected(3, [0, 1, 2])
        bath = BathParams(alpha=0.0072973525693, kappa=1.0)
        direct = build_metric(config, mask, bath, 1e300).direct_part
        assert csv["d_direct"][-1] == pytest.approx(direct.sum(), rel=1e-9)

    def test_closed_phi_takes_its_late_limit_where_kappa_r_plus_t_overflows(
        self, tmp_path, capsys
    ):
        # kappa (r +- t) = +-inf at t = 1.7e308: Si takes its limits +-pi/2,
        # and phi its far-field value, while phi^2 stays finite at r = 1e51.
        # The quadrature's cutoff-edge terms have no limit there.
        text = """
[bath]
alpha = 0.0072973525693
kappa = 10

[geometry]
kind = chain
count = 3
spacing = 1e51
dipole_angle = 1.5

[time]
start = 1
end = 1.7e308
points = 5

[output]
prefix = far
"""
        path = write_scenario(tmp_path, text)
        closed, farfield = tmp_path / "closed", tmp_path / "farfield"
        assert run(path, out_dir=str(closed)) == 0
        assert run(path, out_dir=str(farfield), policy="farfield") == 0
        got, want = read_csv(closed / "far.csv"), read_csv(farfield / "far.csv")
        assert got["t"][-1] == 1.7e308
        assert got["d_indirect"][-2:] == pytest.approx(want["d_indirect"][-2:], rel=1e-14)
        capsys.readouterr()
        assert run(path, out_dir=str(tmp_path / "q"), policy="quadrature") == 2
        assert capsys.readouterr().err == (
            "numerical error: direct or indirect part of M is not finite at t = 1.7e+308\n"
        )

    def test_tiny_separation_keeps_the_late_limit(self, tmp_path):
        # kappa r = 1e-109: at kappa t = 1e301 and at an overflowing kappa t
        # every f entry is the diagonal's plateau alpha kappa^2 / (3 pi), and
        # d_direct sums the four entries of 4 f
        text = """
[bath]
alpha = 0.0072973525693
kappa = 10

[geometry]
kind = chain
count = 2
spacing = 1e-110
dipole_angle = 0

[selection]
indices = 0 1

[time]
start = 1e300
end = 1e308
points = 3

[output]
prefix = tiny
"""
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 0
        csv = read_csv(out / "tiny.csv")
        assert csv["t"][-1] == 1e308
        assert csv["d_direct"][-1] == csv["d_direct"][-2]
        plateau = 0.0072973525693 * 10.0**2 / (3.0 * math.pi)
        assert csv["d_direct"][-1] == pytest.approx(16.0 * plateau, rel=1e-14)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "kappa, spacing, end, policy, message",
        [
            # phi^2 overflows from t = 1e231 on; at 1e308, where kappa (r + t)
            # overflows, Si has taken its limit pi/2
            (10.0, 1000.0, 1e308, "closed", "part of M is not finite at t = 1e+231"),
            # r^2 overflows: GeometryError names the first such pair
            (0.1, 1e200, 10.0, "quadrature", "atoms 4 and 0 overflows when squared"),
            # a denormal spacing squares to 0; GeometryError names the
            # underflow rather than a coincident pair
            (0.1, 1e-320, 10.0, "closed", "underflows when squared"),
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

    @pytest.mark.parametrize("sweep", [False, True], ids=["report", "sweep_csv"])
    def test_too_long_file_name_is_refused_before_computing(
        self, tmp_path, capsys, monkeypatch, sweep
    ):
        out = tmp_path / "out"
        out.mkdir()
        limit = os.pathconf(out, "PC_NAME_MAX")
        # a kappa sweep names the CSV prefix + "_kappa=0.01.csv" (15 bytes
        # more) and the report prefix + "_report.txt" (11 more): only the CSV
        # is too long
        prefix = "p" * (limit - 12) if sweep else "p" * 300
        text = SMOKE.replace("prefix = smoke", f"prefix = {prefix}")
        if sweep:
            text += "\n[sweep]\nparameter = kappa\nvalues = 0.1 0.01\n"

        def engine(*args):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(dmtsim.cli, "_assemble", engine)
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [output.prefix] file name ...")
        assert f"over the limit of {limit}" in err
        assert not list(out.iterdir())

    @pytest.mark.parametrize(
        "text, code, prefix",
        [
            (with_geometry(POISSON_GAS.replace("25", "1e200")), 1, "config error: [geometry] "),
            (
                with_geometry(POISSON_GAS.replace("10", "1e103").replace("25", "2e103")),
                1,
                "config error: [geometry] ",
            ),
            (
                SMOKE + "\n[sweep]\nparameter = dipole_tilt\nvalues = 0 inf\n",
                1,
                "config error: [sweep.values] value inf: ",
            ),
            # kappa**4, the largest power of kappa taken (in the gas scales),
            # must be finite, in the file and in a sweep
            (SMOKE.replace("kappa = 0.1", "kappa = 1e160"), 1, "config error: [bath] "),
            (
                with_geometry(POISSON_GAS).replace("kappa = 0.1", "kappa = 1e100"),
                1,
                "config error: [bath] ",
            ),
            (
                SMOKE + "\n[sweep]\nparameter = kappa\nvalues = 0.1 1e160\n",
                1,
                "config error: [sweep.values] value 1e+160: kappa**4 overflows",
            ),
            (SMOKE.replace("prefix = smoke", "prefix = a\0b"), 1, "config error: [output.prefix] "),
            (SMOKE + "directory = a\0b\n", 1, "config error: [output.directory] "),
            # the dipole's squared length leaves the float range
            (
                SMOKE.replace("spacing = 1000", "spacing = 1000\ndipole_direction = 1e300 0 0"),
                1,
                "config error: [geometry] dipole direction length overflows when squared",
            ),
            (
                SMOKE.replace("spacing = 1000", "spacing = 1000\ndipole_direction = 1e-200 0 0"),
                1,
                "config error: [geometry] dipole direction length underflows when squared",
            ),
            # every atom selected: only the selected block holds the
            # separations, whose squares overflow before any quadrature
            (
                with_geometry(
                    "kind = chain\ncount = 3\nspacing = 1e200\ndipole_angle = 0.3",
                    "\n[selection]\nindices = 0 1 2\n",
                ),
                2,
                "numerical error: separation of atoms 0 and 1 overflows when squared",
            ),
            # alpha = 1e300 overflows the Gram product of two selected atoms
            (
                with_geometry(
                    "kind = chain\ncount = 3\nspacing = 10\ndipole_angle = 0.2",
                    "\n[selection]\nindices = 0 1\n",
                ).replace("alpha = 0.0072973525693", "alpha = 1e300"),
                2,
                "numerical error: direct or indirect part of M is not finite at t = ",
            ),
            # a warm bath: the direct pair's panel count is over budget at
            # t = 1, where the diagonal fits, with no numpy warning
            (
                with_geometry(
                    "kind = chain\ncount = 3\nspacing = 1e7\ndipole_angle = 0.2",
                    "\n[selection]\nindices = 0 1\n",
                )
                .replace("kappa = 0.1", "kappa = 1000\ninv_temperature = 2")
                .replace("start = 1e-3", "start = 1")
                .replace("end = 1e3\npoints = 13", "end = 1.7e308\npoints = 2"),
                2,
                "numerical error: quadrature budget exhausted (achieved error inf): "
                "direct pair (0,1): oscillation count exceeds 262144 panels",
            ),
            # zero temperature: kappa t overflows at the last time; f and Si
            # take their late limits with no numpy warning, and phi^2 overflows
            (
                with_geometry(
                    "kind = chain\ncount = 3\nspacing = 10\ndipole_angle = 0.2",
                    "\n[selection]\nindices = 0 1\n",
                )
                .replace("kappa = 0.1", "kappa = 1000")
                .replace("start = 1e-3", "start = 1")
                .replace("end = 1e3\npoints = 13", "end = 1.7e308\npoints = 2"),
                2,
                "numerical error: direct or indirect part of M is not finite at t = 1.7e+308",
            ),
            # distinct atoms whose squared separation underflows are not a
            # coincidence
            (
                with_geometry("kind = chain\ncount = 3\nspacing = 1e-300\ndipole_angle = 0.2"),
                2,
                "numerical error: separation of atoms 1 and 0 underflows when squared",
            ),
            # a warm bath whose beta kappa underflows, from either factor: the
            # quadrature's tanh(beta q / 2) would be 0 at positive nodes
            (
                SMOKE.replace("kappa = 0.1", "kappa = 5e-324\ninv_temperature = 2"),
                1,
                "config error: [bath] inv_temperature * kappa underflows",
            ),
            (
                SMOKE.replace("kappa = 0.1", "kappa = 0.1\ninv_temperature = 5e-324"),
                1,
                "config error: [bath] inv_temperature * kappa underflows",
            ),
        ],
        ids=[
            "horizon", "exclusion_radius", "tilt", "lattice_kappa", "gas_kappa", "kappa_sweep",
            "nul_prefix", "nul_directory", "dipole_overflow", "dipole_underflow",
            "selected_separation", "gram", "panel_count", "cold_kappa_t_overflow",
            "separation_underflow", "warm_kappa_underflow", "warm_beta_underflow",
        ],
    )
    def test_overflow_and_nul_byte_inputs_exit_cleanly(self, tmp_path, text, code, prefix):
        done = run_module([write_scenario(tmp_path, text), "--out-dir", str(tmp_path / "out")])
        assert done.returncode == code
        assert done.stderr.startswith(prefix)
        assert "Traceback" not in done.stderr and "Warning" not in done.stderr
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_underflowing_scale_denominator_still_writes_the_report(self, tmp_path):
        # 3 pi alpha N_nn underflows to 0: the scale line reports t1 from
        # logs instead of failing the finished curve
        text = with_geometry("kind = chain\ncount = 3\nspacing = 10\ndipole_angle = 0.9")
        text = text.replace("alpha = 0.0072973525693", "alpha = 5e-324")
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 0
        (line,) = [
            line
            for line in (out / "smoke_report.txt").read_text().splitlines()
            if "lattice scales:" in line
        ]
        assert "t1 = 6.509" in line and "e+163" in line
        assert np.all(np.isfinite(read_csv(out / "smoke.csv")["d_total"]))

    def test_gas_scales_whose_intermediates_leave_the_float_range(self, tmp_path):
        # density / l^3 overflows and l^3 / density underflows, where the
        # scales themselves are 1.83 and 1e-301
        geometry = (
            "kind = gas\ndensity = 1e300\nexclusion_radius = 1e-100\nhorizon = 25\nfixed_count = 3"
        )
        text = with_geometry(geometry).replace("alpha = 0.0072973525693", "alpha = 1e-300")
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 0
        report = (out / "smoke_report.txt").read_text()
        assert "gas scales: gamma_g = 1.83058, t2 = 1e-301, rho_crit = 1e-304" in report

    def test_nul_byte_out_dir_is_a_config_error(self, tmp_path, capsys):
        # the output directory is made while the configuration is checked
        assert run(write_scenario(tmp_path, SMOKE), out_dir=str(tmp_path / "a\0b")) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [output.directory] ") and "null byte" in err

    def test_unwritable_output_directory_is_a_config_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SMOKE)
        blocker = tmp_path / "not_a_directory"
        blocker.write_text("")
        assert run(path, out_dir=str(blocker)) == 1
        assert run(path, out_dir=str(blocker / "out")) == 1
        # the directory is made, but a directory stands in the CSV's place
        (tmp_path / "out" / "smoke.csv").mkdir(parents=True)
        assert run(path, out_dir=str(tmp_path / "out")) == 1
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
                dmtsim.phi_exact(t, pair_geometry(config, center, int(k)), bath) ** 2
                for k in mask.unobserved
            )
            assert got == pytest.approx(expected, rel=1e-12)

    def test_negative_gas_seed_is_a_config_error(self, tmp_path, capsys):
        text = SMOKE.replace(
            "kind = lattice\nside = 5\nspacing = 1000",
            "kind = gas\ndensity = 1e-3\nexclusion_radius = 10\nhorizon = 25\nseed = -1",
        )
        path = write_scenario(tmp_path, text)
        assert run(path, out_dir=str(tmp_path / "out")) == 1
        assert "seed" in capsys.readouterr().err
        path = write_scenario(tmp_path, text.replace("seed = -1", "seed = 3"), "ok.ini")
        assert run(path, out_dir=str(tmp_path / "out"), seed_override=-5) == 1
        assert main([path, "--seed-override", "-5", "--out-dir", str(tmp_path / "o")]) == 1
        assert main([path, "--seed-override", str(2**64), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.count("config error: [seed-override] seed must be") == 3
        assert "[0, 2**64), got 18446744073709551616\n" in err
        assert not (tmp_path / "o").exists()

    def test_unknown_policy_is_a_config_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SMOKE)
        assert run(path, out_dir=str(tmp_path / "out"), policy="magic") == 1
        assert "policy" in capsys.readouterr().err

    def test_seed_override_needs_gas_geometry(self, tmp_path, capsys):
        path = write_scenario(tmp_path, SMOKE)
        out = tmp_path / "out"
        assert main([path, "--seed-override", "7", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: [seed-override]")
        assert not list(out.glob("*.csv"))

    def test_gas_exclusion_radius_whose_cube_underflows(self, tmp_path, capsys):
        # l^3 = 0 used to reach gas_scales' division after the CSV was written
        geometry = (
            "kind = gas\ndensity = 0.0024\nexclusion_radius = 1e-300\nhorizon = 15.5\n"
            "fixed_count = 4"
        )
        text = with_geometry(geometry, "\n[selection]\nindices = 3 0 4\n")
        grid = "start = 1.85\nend = 9.2e5\npoints = 4"
        text = text.replace("start = 1e-3\nend = 1e3\npoints = 13", grid)
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [geometry] exclusion_radius**3 underflows")
        assert not out.exists()

    @pytest.mark.parametrize("policy", ["closed", "farfield", "quadrature"])
    def test_separations_whose_cube_leaves_the_float_range(self, tmp_path, capsys, policy):
        # r^3 overflows at spacing 1e120, where phi takes its limit 0, and
        # underflows to 0 at 1e-120, where M is not finite; neither warns
        grid = "start = 1e-3\nend = 1e5\npoints = 5"
        text = SMOKE.replace("start = 1e-3\nend = 1e3\npoints = 13", grid)
        far = text.replace("side = 5\nspacing = 1000", "side = 3\nspacing = 1e120")
        out = tmp_path / "far"
        assert run(write_scenario(tmp_path, far), out_dir=str(out), policy=policy) == 0
        assert np.all(read_csv(out / "smoke.csv")["d_indirect"] == 0.0)
        near = text.replace("side = 5\nspacing = 1000", "side = 3\nspacing = 1e-120")
        out = tmp_path / "near"
        assert run(write_scenario(tmp_path, near, "near.ini"), out_dir=str(out), policy=policy) == 2
        err = capsys.readouterr().err
        assert err == "numerical error: direct or indirect part of M is not finite at t = 0.001\n"
        assert not list(out.glob("*.csv"))

    def test_warm_f_past_the_float_range_is_a_numerical_error(self, tmp_path, capsys):
        # alpha = 1.7e308 takes the warm diagonal's quadrature sum past the
        # float range; the M it makes is reported, with no numpy warning
        text = (
            with_geometry("kind = chain\ncount = 1\nspacing = 1\ndipole_angle = 0.2")
            .replace("alpha = 0.0072973525693\nkappa = 0.1", "alpha = 1.7e308\nkappa = 10")
            .replace("kappa = 10", "kappa = 10\ninv_temperature = 2")
            .replace("start = 1e-3\nend = 1e3\npoints = 13", "start = 1\nend = 10\npoints = 10")
        )
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 2
        err = capsys.readouterr().err
        assert err == "numerical error: direct or indirect part of M is not finite at t = 1\n"
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "geometry, bath, end, sweep, policy, message",
        [
            # the second curve's spacing underflows the far field's M
            (
                "kind = chain\ncount = 3\nspacing = 1\ndipole_angle = 0.3", "", 10,
                "spacing\nvalues = 1e20 1e-110", "farfield",
                "direct or indirect part of M is not finite at t = 1\n",
            ),
            # the second curve's warm f hits the panel wall at t = 1e6
            (
                "kind = lattice\nside = 1\nspacing = 1", "\ninv_temperature = 2", 1e6,
                "kappa\nvalues = 0.1 1", "closed",
                "oscillation count exceeds 262144 panels",
            ),
        ],
        ids=["far_field_spacing", "warm_kappa"],
    )
    def test_failed_sweep_writes_nothing(
        self, tmp_path, capsys, geometry, bath, end, sweep, policy, message
    ):
        # every curve, its checks and the report are computed before the
        # first file is written, so a later curve's failure leaves no CSV
        text = (
            with_geometry(geometry, f"\n[sweep]\nparameter = {sweep}\n")
            .replace("kappa = 0.1\n", "kappa = 0.1" + bath + "\n", 1)
            .replace("end = 1e3\npoints = 13", f"end = {end:g}\npoints = 10")
            .replace("start = 1e-3", "start = 1")
        )
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, text), out_dir=str(out), policy=policy) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and message in err
        assert not list(out.iterdir())

    def test_seed_override_equals_the_file_seed(self, tmp_path):
        text = with_geometry(GEOMETRY["gas"] + "\nseed = 3")
        path = write_scenario(tmp_path, text)
        assert main([path, "--seed-override", "7", "--out-dir", str(tmp_path / "a")]) == 0
        seven = write_scenario(tmp_path, text.replace("seed = 3", "seed = 7"), "seven.ini")
        assert run(seven, out_dir=str(tmp_path / "b")) == 0
        got = (tmp_path / "a" / "smoke.csv").read_bytes()
        assert got == (tmp_path / "b" / "smoke.csv").read_bytes()
        assert "seed override: 7" in (tmp_path / "a" / "smoke_report.txt").read_text()

    @pytest.mark.parametrize(
        "geometry, sweep, message",
        [
            (POISSON_GAS + "\nseed = -1", True, "seed must be an integer"),
            # the swept key too must be valid as written
            (POISSON_GAS.replace("1e-3", "-1"), True, "density must be finite"),
            # numpy refuses a Poisson mean this large
            ("kind = gas\ndensity = 1e30\nexclusion_radius = 10\nhorizon = 25", False, "lam"),
            # numpy refuses an array this long before allocating it
            (GEOMETRY["chain"].replace("count = 3", "count = 10" + "0" * 20), False, "Maximum"),
            # a MemoryError: numpy refuses 711 PiB of coordinates at once
            (GEOMETRY["chain"].replace("count = 3", "count = 10" + "0" * 16), False, "allocate"),
        ],
        ids=["seed", "swept_key", "poisson_mean", "array_size", "out_of_memory"],
    )
    def test_bad_file_geometry_names_geometry(self, tmp_path, capsys, geometry, sweep, message):
        extra = "\n[sweep]\nparameter = density\nvalues = 1e-3 2e-3\n" if sweep else ""
        text = with_geometry(geometry, extra)
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [geometry] ") and message in err
        assert not list(out.glob("*.csv"))

    def test_out_of_memory_swept_value_names_the_sweep(self, tmp_path, capsys):
        # a Poisson mean of 6e14 atoms: numpy refuses their 4.35 PiB at once
        text = with_geometry(POISSON_GAS, "\n[sweep]\nparameter = density\nvalues = 1e-3 1e10\n")
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [sweep.values] value 1e+10: Unable to allocate")
        assert not list(out.glob("*.csv"))

    def test_out_of_memory_time_grid_names_points(self, tmp_path, capsys):
        # numpy refuses 728 TiB of times at once
        text = SMOKE.replace("points = 13", "points = 100000000000000")
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [time.points] Unable to allocate")
        assert not list(out.glob("*"))

    def test_bad_swept_value_names_the_sweep(self, tmp_path, capsys):
        text = with_geometry(POISSON_GAS, "\n[sweep]\nparameter = density\nvalues = 1e-3 -1\n")
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: [sweep.values] value -1: density must be finite")
        assert not list(out.glob("*.csv"))


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

    def test_finite_temperature_header(self, tmp_path):
        text = SMOKE.replace("kappa = 0.1", "kappa = 0.1\ninv_temperature = 2.0")
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 0
        lines = (out / "smoke_report.txt").read_text().splitlines()
        assert "bath: alpha = 0.00729735, kappa = 0.1, inv_temperature = 2" in lines

    def test_kappa_sweep_header_names_no_file_kappa(self, tmp_path):
        text = SMOKE + "\n[sweep]\nparameter = kappa\nvalues = 0.01 1\n"
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 0
        lines = (out / "smoke_report.txt").read_text().splitlines()
        assert not [line for line in lines if "kappa = 0.1" in line]
        assert "bath: alpha = 0.00729735, kappa swept, zero temperature" in lines

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

    def test_multi_atom_sweep_summary_names_no_phi00(self, tmp_path):
        # d_indirect / 2 sums Phi_ij over every selected pair, not Phi_00
        extra = "\n[selection]\nindices = 11 12 13\n"
        extra += "[sweep]\nparameter = spacing\nvalues = 800 1000\n"
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, SMOKE + extra), out_dir=str(out)) == 0
        ends = {
            v: read_csv(out / f"smoke_spacing={v:g}.csv")["d_indirect"][-1] for v in (800.0, 1000.0)
        }
        best = min(ends, key=ends.get)
        report = (out / "smoke_report.txt").read_text()
        assert "phi00" not in report
        assert f"minimizer: spacing = {best:.6g} (d_indirect(t_end) = {ends[best]:.6g})" in report


    def test_report_scales_follow_the_swept_value(self, tmp_path):
        # t1 grows as a^3 and gamma_g, t2 follow the density: each curve's
        # scale line is computed from its own swept value, not the base one
        b = dmtsim.BathParams(alpha=0.0072973525693, kappa=0.1)
        text = SMOKE + "\n[sweep]\nparameter = spacing\nvalues = 10 100 1000\n"
        out = tmp_path / "lattice"
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 0
        blocks = report_blocks(out / "smoke_report.txt")
        for a in (10.0, 100.0, 1000.0):
            config, mask = dmtsim.square_lattice_2d(5, a, (0.0, 0.0, 1.0))
            n_nn = dmtsim.effective_neighbors(config, mask)
            s = dmtsim.lattice_scales(a, b, n_nn)
            assert (
                f"  lattice scales: N_nn = {n_nn:.6g}, t1 = {s.t1:.6g}, "
                f"a_c = {s.a_c:.6g}, gamma = {s.gamma:.6g}"
            ) in blocks[f"smoke_spacing={a:g}"]
        sweep = "\n[sweep]\nparameter = density\nvalues = 1e-4 1e-3 1e-2\n"
        gas = with_geometry(POISSON_GAS, sweep)
        out = tmp_path / "gas"
        assert run(write_scenario(tmp_path, gas, "gas.ini"), out_dir=str(out)) == 0
        blocks = report_blocks(out / "smoke_report.txt")
        for rho in (1e-4, 1e-3, 1e-2):
            s = dmtsim.gas_scales(rho, 10.0, b)
            assert (
                f"  gas scales: gamma_g = {s.gamma_g:.6g}, t2 = {s.t2:.6g}, "
                f"rho_crit = {s.rho_crit:.6g}"
            ) in blocks[f"smoke_density={rho:g}"]

    def test_dipole_advisory_follows_each_curves_kappa(self, tmp_path):
        text = SMOKE + "\n[sweep]\nparameter = kappa\nvalues = 0.1 1\n"
        out = tmp_path / "out"
        assert run(write_scenario(tmp_path, text), out_dir=str(out)) == 0
        blocks = report_blocks(out / "smoke_report.txt")
        line = "  dipole advisory (kappa >= 1): "
        assert line + "ok" in blocks["smoke_kappa=0.1"]
        assert line + "outside nominal regime" in blocks["smoke_kappa=1"]

    def test_gas_kappa_sweep_reproduces_the_unswept_curve(self, tmp_path):
        path = write_scenario(tmp_path, with_geometry(GEOMETRY["gas"]))
        assert run(path, out_dir=str(tmp_path / "plain")) == 0
        swept = with_geometry(GEOMETRY["gas"], "\n[sweep]\nparameter = kappa\nvalues = 0.05 0.1\n")
        out = tmp_path / "swept"
        assert run(write_scenario(tmp_path, swept, "swept.ini"), out_dir=str(out)) == 0
        plain = (tmp_path / "plain" / "smoke.csv").read_bytes()
        assert (out / "smoke_kappa=0.1.csv").read_bytes() == plain
        assert (out / "smoke_kappa=0.05.csv").read_bytes() != plain


SWEEP_VALUES = {
    "kappa": (0.05, 0.1),
    "spacing": (50.0, 100.0),
    "dipole_tilt": (0.3, 0.6),
    "density": (1e-3, 2e-3),
    "exclusion_radius": (5.0, 10.0),
}
ALLOWED_SWEEPS = {
    "lattice": {"kappa", "spacing", "dipole_tilt"},
    "chain": {"kappa", "spacing", "dipole_tilt"},
    "gas": {"kappa", "dipole_tilt", "density", "exclusion_radius"},
}


@pytest.mark.parametrize("param", sorted(SWEEP_VALUES))
@pytest.mark.parametrize("kind", sorted(ALLOWED_SWEEPS))
def test_sweep_parameter_and_geometry_kind(tmp_path, kind, param):
    values = SWEEP_VALUES[param]
    extra = f"\n[sweep]\nparameter = {param}\nvalues = {values[0]!r} {values[1]!r}\n"
    geometry = POISSON_GAS if (kind, param) == ("gas", "density") else GEOMETRY[kind]
    path = write_scenario(tmp_path, with_geometry(geometry, extra))
    if param not in ALLOWED_SWEEPS[kind]:
        with pytest.raises(ScenarioError, match=r"^\[sweep\.parameter\]"):
            parse_scenario(path)
        return
    out = tmp_path / "out"
    assert run(path, out_dir=str(out)) == 0
    assert sorted(f.name for f in out.glob("*.csv")) == sorted(
        f"smoke_{param}={v:g}.csv" for v in values
    )


def report_blocks(path):
    """Report lines grouped by curve label."""
    blocks, label = {}, None
    for line in path.read_text().splitlines():
        if line.startswith("curve "):
            label = line[len("curve ") : -1]
            blocks[label] = []
        elif label is not None and line.startswith("  "):
            blocks[label].append(line)
        else:
            label = None
    return blocks


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
        done = run_module([path, "--out-dir", str(tmp_path / "out")])
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        assert (tmp_path / "out" / "smoke.csv").exists()
