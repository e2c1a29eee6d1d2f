"""Fuzz the scenario runner: files built from cli._KEYS, run in process.

In two files of three every value lies in its key's valid range; in the
rest each key is, one time in six, an extreme or malformed value. So most
files reach the kernels rather than the parser. The draws include the
smallest inv_temperature BathParams accepts for the drawn kappa, and
spacings whose squares overflow. Lattice sides, chain counts and time
points stay at 5 or below, and no draw can ask for a large gas, so each
example runs in milliseconds.
"""

import math
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from dmtsim import cli

TINY = float(np.finfo(float).tiny)
HUGE = float(np.finfo(float).max)

# values any float key may meet: the float range's edges and non-numbers
EXTREME = (5e-324, TINY, 1e-300, 1e-160, 1e154, 1e155, 1e200, 1e308, HUGE, 0.0, -1.0)
MALFORMED = ("nan", "inf", "-inf", "x", "1 2")


def log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)


def unit_vector():
    return st.floats(0.0, math.pi).map(lambda a: f"{math.sin(a)!r} 0 {math.cos(a)!r}")


# a valid draw per (section, key); a gas stays at a few dozen atoms at most
VALID = {
    ("bath", "alpha"): log_uniform(1e-20, 1.0),
    ("bath", "kappa"): log_uniform(1e-2, 10.0),
    ("geometry", "side"): st.sampled_from([1, 3, 5]),
    ("geometry", "count"): st.integers(1, 5),
    ("geometry", "spacing"): log_uniform(0.1, 1e3),
    ("geometry", "dipole_angle"): st.floats(0.0, math.pi),
    ("geometry", "dipole_direction"): unit_vector(),
    ("geometry", "density"): log_uniform(1e-4, 1e-3),
    ("geometry", "exclusion_radius"): log_uniform(1.0, 10.0),
    ("geometry", "horizon"): st.floats(12.0, 25.0),
    ("geometry", "seed"): st.integers(0, 2**64 - 1),
    ("geometry", "fixed_count"): st.integers(0, 5),
    ("time", "points"): st.integers(2, 5),
    ("time", "spacing"): st.sampled_from(["log", "linear"]),
    ("output", "directory"): st.just("elsewhere"),
    ("output", "prefix"): st.sampled_from(["run", "fuzz.v2"]),
}

# what else a key may hold; float keys add EXTREME and MALFORMED
ODD = {
    ("geometry", "side"): (0, 2, -1, "3.0"),
    ("geometry", "count"): (0, -1, "2.5"),
    ("geometry", "density"): (0.0, -1.0, 5e-324, "nan"),
    ("geometry", "exclusion_radius"): (0.0, -1.0, 5e-324, 1e-300, "inf"),
    ("geometry", "horizon"): (0.0, 5.0, 1e200, "nan"),
    ("geometry", "seed"): (-1, 2**64, "1.5"),
    ("geometry", "fixed_count"): (-1, "x"),
    ("geometry", "dipole_direction"): ("0 0 0", "1e200 0 0", "1e-200 0 0", "nan 0 1", "1 0"),
    ("time", "points"): (0, 1, -1, "x"),
    ("time", "spacing"): ("cubic",),
    ("output", "prefix"): ("", ".", "a/b", "p" * 300),
}

# a gas of these sizes stays small: other values of these keys are refused
# before any atom is drawn (see ODD), or lie in VALID's ranges
BOUNDED = {"density", "exclusion_radius", "horizon", "fixed_count"}


def one_in(draw, n):
    """True about once in n draws. Hypothesis favours the ends of a range,
    so the rare outcome is the middle value."""
    return draw(st.integers(0, n - 1)) == n // 2


@st.composite
def values(draw, section, key, cast, kappa, noisy):
    """One value of a key as scenario text: valid, or in a noisy file odd
    one time in six."""
    valid = VALID.get((section, key))
    if (section, key) == ("bath", "inv_temperature"):
        # from hot to cold, and the smallest beta the bath accepts
        smallest = max(TINY / kappa, 4.0 * kappa / HUGE) * (1.0 + 1e-15)
        valid = st.one_of(log_uniform(0.1, 1e4), st.just(smallest))
    odd = ODD.get((section, key), ())
    if cast is float and key not in BOUNDED:
        odd = odd + EXTREME + MALFORMED
    if valid is None or (odd and noisy and one_in(draw, 6)):
        return str(draw(st.sampled_from(odd)))
    value = draw(valid)
    return repr(value) if isinstance(value, float) else str(value)


@st.composite
def scenario_files(draw):
    """(scenario text, policy): one file over cli._KEYS, every value valid
    in two files of three."""
    kind = draw(st.sampled_from(sorted(cli._KEYS["geometry"])))
    noisy = one_in(draw, 3)
    lines = []
    kappa = draw(VALID[("bath", "kappa")])
    sections = dict(cli._KEYS, geometry=cli._KEYS["geometry"][kind])
    for section, entries in sections.items():
        if section in ("selection", "sweep") and not one_in(draw, 3):
            continue  # optional sections, left out two times in three
        lines.append(f"[{section}]")
        if section == "geometry":
            lines.append(f"kind = {kind}")
        for key, cast, *default in entries:
            if default and draw(st.booleans()):
                continue
            if (section, key) == ("bath", "kappa") and not (noisy and draw(st.booleans())):
                text = repr(kappa)
            elif (section, key) == ("geometry", "spacing") and one_in(draw, 8):
                text = repr(draw(log_uniform(1.4e154, 1e200)))  # r^2 overflows past 1.34e154
            elif (section, key) == ("selection", "indices"):
                index = st.integers(-1, 5) if noisy else st.integers(0, 2)
                indices = draw(st.lists(index, min_size=1, max_size=3, unique=not noisy))
                text = " ".join(map(str, indices))
            elif (section, key) == ("time", "start"):
                odd = [0.0] + ([5e-324, -1.0, HUGE] if noisy else [])
                rare = one_in(draw, 8)
                start = draw(st.sampled_from(odd) if rare else log_uniform(1e-3, 0.4))
                text = repr(start / kappa)
            elif (section, key) == ("time", "end"):
                # kappa t = 1e6 is past the warm panel budget
                odd = [1e6] + ([HUGE] if noisy else [])
                rare = one_in(draw, 8)
                end = draw(st.sampled_from(odd) if rare else log_uniform(0.5, 1e4))
                text = repr(end / kappa)
            elif (section, key) == ("sweep", "parameter"):
                names = [entry[0] for entry in sections["geometry"]] + ["kappa", "dipole_tilt"]
                fits = [name for name in cli._SWEEPABLE if name in names]
                text = draw(st.sampled_from(cli._SWEEPABLE + ("side",) if noisy else fits))
            elif (section, key) == ("sweep", "values"):
                parameter = next(line for line in lines if line.startswith("parameter = "))
                name = parameter.split(" = ")[1]
                swept = ("bath", name) if name == "kappa" else ("geometry", name)
                if name == "dipole_tilt":
                    swept = ("geometry", "dipole_angle")
                count = draw(st.integers(1, 3))
                text = " ".join(draw(values(*swept, float, kappa, noisy)) for _ in range(count))
            else:
                text = draw(values(section, key, cast, kappa, noisy))
            lines.append(f"{key} = {text}")
        lines.append("")
    policy = draw(st.sampled_from([policy.value for policy in cli.KernelPolicy]))
    return "\n".join(lines), policy


def files_under(root):
    return sorted(str(path.relative_to(root)) for path in root.rglob("*") if path.is_file())


def check_run(root, text, policy):
    """Run one scenario file in root and check the runner's promises."""
    scenario = root / "scenario.ini"
    scenario.write_text(text)
    out = root / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.run(str(scenario), out_dir=str(out), policy=policy)
    assert code in (0, 1, 2)
    written = files_under(out) if out.exists() else []
    assert files_under(root) == sorted(["scenario.ini"] + [f"out/{name}" for name in written])
    if code == 2:
        assert written == []
    if code == 0:
        csvs = [out / name for name in written if name.endswith(".csv")]
        assert csvs
        for path in csvs:
            rows = path.read_text().strip().split("\n")
            assert rows[0] == cli.CSV_HEADER
            table = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
            assert np.all(np.isfinite(table))
    return code


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(scenario=scenario_files())
def test_scenario_runner_exits_cleanly(tmp_path_factory, monkeypatch, scenario):
    # exit 0, 1 or 2 with no exception or warning; finite CSVs on exit 0;
    # no file on exit 2, and none outside the output directory
    root = tmp_path_factory.mktemp("fuzz")
    monkeypatch.chdir(root)
    check_run(root, *scenario)
