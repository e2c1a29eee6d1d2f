"""Scenario runner: reads an INI scenario, sweeps time (and optionally one
parameter), writes per-curve CSVs plus a text report.

Scenario file layout::

    [bath]
    alpha = 0.0072973525693
    kappa = 0.1
    # inv_temperature = 2.0  (omit for zero temperature)

    [geometry]
    # kind: lattice | chain | gas; lattice keys: side (odd), spacing,
    # dipole_direction (default 0 0 1)
    kind = lattice
    side = 31
    spacing = 1000.0
    dipole_direction = 0 0 1
    # chain keys: count, spacing, dipole_angle (radians)
    # gas keys: density, exclusion_radius, horizon, seed (0 <= seed < 2**64),
    #           fixed_count (omit for a Poisson count), dipole_direction

    # optional; defaults to the builder's center atom (480 on this lattice)
    [selection]
    indices = 480

    [time]
    start = 1e-3
    end = 1e11
    points = 225
    # spacing: log | linear
    spacing = log

    # optional; parameter: kappa | spacing | dipole_tilt | density | exclusion_radius
    [sweep]
    parameter = kappa
    values = 0.01 0.1 1

    [output]
    directory = out
    prefix = run

The file is read as UTF-8 without value interpolation, so % is an ordinary
character; a ; or # after a value is part of the value, so a comment takes
its own line. A section or key not named above, a [DEFAULT] section, or a
prefix that is not a plain file name is a configuration error, and so is a
prefix that makes a CSV or report name longer than the output directory's
file system allows; every name is checked before the first curve runs.

The [geometry] section must be valid as written, even a key the sweep
replaces: errors of the file's own build name [geometry], those of a swept
build [sweep.values]. kappa and dipole_tilt sweep any kind, any other
parameter only a kind that reads that key, and density only a gas without a
fixed_count (a fixed-count gas draws the same atoms at every density).
Sweep values need distinct {:g} labels, which name the CSVs.
--seed-override replaces a gas seed and is a configuration error for a
lattice or chain, or outside the seed range, where it names [seed-override].

Exit codes: 0 success, 1 configuration error (message names the offending
key; a file that is not valid UTF-8 INI is reported as [scenario], a kappa
whose fourth power overflows as [bath] or [sweep.values], an output directory
that cannot be made or written as [output.directory]), 2 numerical failure
(quadrature budget exhausted, a metric property violation, a metric that is
not finite, or a value outside a kernel's domain met while computing, such as
a non-finite Si argument or a pair separation that over- or underflows).
Every curve, its property checks and the report are computed before the
first file is written, so exit 2 leaves no CSV and no report; only an
OSError met while writing can leave the files written before it.

Each curve is one pass of the metric engine over the whole time grid (see
dmtsim.metric): the kernels run once per distinct pair (r, cos^2 theta) and
time, in blocks of times, and each time is reduced to the CSV's columns
from its kernel values, with no n x n array. It returns those columns and
the tensor at the final time, the only tensor built (for the property
checks). Curves on one geometry, as every curve of a kappa sweep is, share
its key tables and its effective neighbor count, each built once, and a
run formats its time column once for all its CSVs.

CSV columns: t, d_direct, d_indirect, d_total, valid_flag. The decoherence
columns are for the all-plus vs all-minus codeword pair: d_direct sums 4 f_ij
and d_indirect 2 Phi_ij over the selected block, and d_total, their sum, is
exactly additive. valid_flag is 1 while max |M_ij| stays below 0.1; M is
positive semidefinite, so that maximum is on its diagonal, where it is read.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .asymptotics import effective_neighbors, gas_scales, lattice_scales
from .geometry import (
    AtomConfig,
    GasSpec,
    GeometryError,
    SelectionMask,
    _is_integer,
    chain_1d,
    sample_gas,
    square_lattice_2d,
)
from .kernels import BathParams, KernelDomainError, KernelPolicy, QuadratureError
from .metric import MetricError, _assemble, _pair_tables, check_nonnegative, check_triangle

__all__ = [
    "ScenarioError",
    "TimeGrid",
    "Sweep",
    "Scenario",
    "parse_scenario",
    "crossover_detect",
    "run",
    "CSV_HEADER",
]

CSV_HEADER = "t,d_direct,d_indirect,d_total,valid_flag"

_SWEEPABLE = ("kappa", "spacing", "dipole_tilt", "density", "exclusion_radius")

# fixed seeds for the report's property checks, so reruns are bit-identical
_CHECK_SEED_NONNEG = 20240811
_CHECK_SEED_TRIANGLE = 20240812
_CHECK_TRIALS = 200
_CHECK_TRIPLES = 1000


class ScenarioError(ValueError):
    """Configuration problem; `key` is the offending 'section.key' path."""

    def __init__(self, key: str, message: str):
        super().__init__(f"[{key}] {message}")
        self.key = key


@dataclass(frozen=True)
class TimeGrid:
    start: float
    end: float
    points: int
    spacing: str = "log"  # log | linear

    def __post_init__(self):
        if self.spacing not in ("log", "linear"):
            raise ScenarioError("time.spacing", "must be 'log' or 'linear'")
        if not (_is_integer(self.points) and self.points >= 2):
            raise ScenarioError("time.points", f"need an integer, at least 2, got {self.points!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ScenarioError("time.start", "grid endpoints must be finite")
        if self.start >= self.end:
            raise ScenarioError("time.start", "start must be below end")
        if self.spacing == "log" and self.start <= 0:
            raise ScenarioError("time.start", "log spacing needs start > 0")
        if self.spacing == "linear" and self.start < 0:
            raise ScenarioError("time.start", "times must be >= 0")

    def times(self) -> np.ndarray:
        space = np.geomspace if self.spacing == "log" else np.linspace
        try:
            with np.errstate(over="ignore"):  # geomspace sets the end; other infs raise below
                times = space(self.start, self.end, self.points)
        except MemoryError as exc:  # numpy refusing an array size
            raise ScenarioError("time.points", str(exc)) from None
        if not np.all(np.isfinite(times)):
            raise ScenarioError("time.end", "grid times overflow next to the end")
        return times


@dataclass(frozen=True)
class Sweep:
    parameter: str
    values: tuple

    def __post_init__(self):
        if self.parameter not in _SWEEPABLE:
            raise ScenarioError(
                "sweep.parameter", f"unknown parameter; pick one of {', '.join(_SWEEPABLE)}"
            )
        if len(self.values) == 0:
            raise ScenarioError("sweep.values", "sweep needs at least one value")
        labels = [f"{value:g}" for value in self.values]  # each names a curve's CSV
        for i, label in enumerate(labels):
            if labels.index(label) < i:
                a, b = self.values[labels.index(label)], self.values[i]
                raise ScenarioError("sweep.values", f"values {a!r} and {b!r} share label {label}")


@dataclass(frozen=True)
class Scenario:
    bath: BathParams
    geometry_kind: str
    geometry_params: dict
    time_grid: TimeGrid
    selection: tuple | None = None
    sweep: Sweep | None = None
    out_dir: str = "out"
    prefix: str = "run"


def _get(cp, section, key, cast, *default):
    if not cp.has_option(section, key):
        if default:
            return default[0]
        raise ScenarioError(f"{section}.{key}", "missing required key")
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError):
        raise ScenarioError(f"{section}.{key}", f"cannot parse value {raw!r}") from None


def _numbers(raw: str, cast=float) -> tuple:
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(cast(p) for p in parts)


def _vector3(raw: str) -> tuple:
    vec = _numbers(raw)
    if len(vec) != 3:
        raise ValueError("need exactly three components")
    return vec


# Every key a scenario file may hold, as (key, cast[, default]) per section;
# [geometry] holds kind and the keys of that kind. Bath, time and sweep keys
# are the fields of BathParams, TimeGrid and Sweep, geometry keys those of the
# lattice and chain builders and of GasSpec (plus the gas dipole_direction).
_KEYS = {
    "bath": (("alpha", float), ("kappa", float), ("inv_temperature", float, None)),
    "geometry": {
        "lattice": (
            ("side", int),
            ("spacing", float),
            ("dipole_direction", _vector3, (0.0, 0.0, 1.0)),
        ),
        "chain": (("count", int), ("spacing", float), ("dipole_angle", float)),
        "gas": (
            ("density", float),
            ("exclusion_radius", float),
            ("horizon", float),
            ("seed", int, 0),
            ("fixed_count", int, None),
            ("dipole_direction", _vector3, (0.0, 0.0, 1.0)),
        ),
    },
    "selection": (("indices", lambda raw: _numbers(raw, int)),),
    "time": (("start", float), ("end", float), ("points", int), ("spacing", str.lower, "log")),
    "sweep": (("parameter", str.lower), ("values", _numbers)),
    "output": (("directory", str, "out"), ("prefix", str, "run")),
}


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario INI file."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ScenarioError("scenario", f"cannot parse scenario file {path!r}: {exc}") from None
    if not read:
        raise ScenarioError("scenario", f"cannot read scenario file {path!r}")
    # configparser copies [DEFAULT]'s keys into every section
    for section in ([cp.default_section] if cp.defaults() else []) + cp.sections():
        if section not in _KEYS:
            raise ScenarioError(section, "unknown section")
    for section in ("bath", "geometry", "time"):
        if not cp.has_section(section):
            raise ScenarioError(section, "missing required section")
    kind = _get(cp, "geometry", "kind", str.lower)
    if kind not in _KEYS["geometry"]:
        raise ScenarioError("geometry.kind", f"unknown geometry kind {kind!r}")
    keys = {**_KEYS, "geometry": _KEYS["geometry"][kind]}
    for section in cp.sections():
        known = [entry[0] for entry in keys[section]]
        for key in cp.options(section):
            if key not in known and (section, key) != ("geometry", "kind"):
                raise ScenarioError(f"{section}.{key}", "unknown key")
    # [selection] and [sweep] are optional; every key of [output] has a default
    values = {
        section: {entry[0]: _get(cp, section, *entry) for entry in entries}
        for section, entries in keys.items()
        if cp.has_section(section) or section == "output"
    }

    try:
        bath = BathParams(**values["bath"])
    except (KernelDomainError, ValueError) as exc:
        raise ScenarioError("bath", str(exc)) from None
    params = values["geometry"]
    selection = values["selection"]["indices"] if "selection" in values else None
    grid = TimeGrid(**values["time"])

    sweep = Sweep(**values["sweep"]) if "sweep" in values else None
    if sweep is not None:
        # kappa and dipole_tilt sweep any kind, any other parameter a kind with that key
        if sweep.parameter not in ("kappa", "dipole_tilt", *params):
            raise ScenarioError("sweep.parameter", f"{kind} geometry has no {sweep.parameter}")
        # a fixed-count gas draws the same atoms at every density
        if sweep.parameter == "density" and params["fixed_count"] is not None:
            raise ScenarioError("sweep.parameter", "a fixed-count gas does not depend on density")

    for key, name in values["output"].items():
        if "\0" in name:
            raise ScenarioError(f"output.{key}", "a file name cannot hold a NUL byte")
    prefix = values["output"]["prefix"]
    if prefix in ("", ".", "..") or any(sep and sep in prefix for sep in ("/", os.sep, os.altsep)):
        raise ScenarioError("output.prefix", "must be a file name, without a directory part")
    return Scenario(
        bath=bath,
        geometry_kind=kind,
        geometry_params=params,
        time_grid=grid,
        selection=selection,
        sweep=sweep,
        out_dir=values["output"]["directory"],
        prefix=prefix,
    )


def _build_geometry(kind: str, params: dict) -> tuple[AtomConfig, SelectionMask]:
    if kind == "lattice":
        return square_lattice_2d(**params)
    if kind == "chain":
        return chain_1d(**params)
    spec = GasSpec(**{key: v for key, v in params.items() if key != "dipole_direction"})
    return sample_gas(spec, params["dipole_direction"])


def _apply_selection(config: AtomConfig, default: SelectionMask, indices) -> SelectionMask:
    if indices is None:
        return default
    try:
        return SelectionMask.from_selected(len(config), indices)
    except GeometryError as exc:
        raise ScenarioError("selection.indices", str(exc)) from None


def _sweep_variants(scenario: Scenario):
    """Yield (label, bath, geometry params, config, mask, sweep value) per
    curve. The file's own geometry is built first, so its errors name
    [geometry]; the curves whose params equal the file's (every curve of a
    kappa sweep) share that build and one mask on it, so run() can share
    their key tables."""
    kind, params = scenario.geometry_kind, scenario.geometry_params
    try:
        base = _build_geometry(kind, params)
    except (ValueError, MemoryError) as exc:  # GeometryError, or numpy refusing an array
        raise ScenarioError("geometry", str(exc)) from None
    sweep = scenario.sweep
    if sweep is None:
        config, default = base
        mask = _apply_selection(config, default, scenario.selection)
        yield scenario.prefix, scenario.bath, params, config, mask, None
        return
    param, base_mask = sweep.parameter, None
    for value in sweep.values:
        swept = dict(params)
        try:
            if param == "dipole_tilt" and kind == "chain":
                swept["dipole_angle"] = value
            elif param == "dipole_tilt":  # the z dipole tilted toward x
                swept["dipole_direction"] = (math.sin(value), 0.0, math.cos(value))
            elif param != "kappa":
                swept[param] = value
            bath = replace(scenario.bath, kappa=value) if param == "kappa" else scenario.bath
            config, default = base if swept == params else _build_geometry(kind, swept)
        except (ValueError, MemoryError) as exc:
            raise ScenarioError("sweep.values", f"value {value:g}: {exc}") from None
        if swept != params:
            mask = _apply_selection(config, default, scenario.selection)
        else:  # one mask for every curve on the file's own build
            mask = base_mask = base_mask or _apply_selection(config, default, scenario.selection)
        yield f"{scenario.prefix}_{param}={value:g}", bath, swept, config, mask, value


def crossover_detect(times, d_direct, d_indirect):
    """First time where the indirect part overtakes the direct part.

    Scans the sampled curve for the first grid point with d_ind > d_dir and
    linearly interpolates the sign change of (d_ind - d_dir) between that
    point and its predecessor. Returns None when the indirect part never
    overtakes, and times[0] when it already leads at the first sample. The
    three must be finite 1-D arrays of equal length, or ValueError is raised.
    """
    curve = np.asarray([times, d_direct, d_indirect], dtype=float)  # ragged: ValueError
    if curve.ndim != 2 or not np.all(np.isfinite(curve)):
        raise ValueError("times, d_direct and d_indirect must be finite 1-D arrays of one length")
    times, gap = curve[0], curve[2] - curve[1]
    above = np.flatnonzero(gap > 0)
    if above.size == 0:
        return None
    i = int(above[0])
    if i == 0:
        return float(times[0])
    t0, t1 = times[i - 1], times[i]
    g0, g1 = gap[i - 1], gap[i]
    return float(t0 + (0.0 - g0) * (t1 - t0) / (g1 - g0))


def _check_name_lengths(target: Path, names) -> None:
    """Refuse an output file name longer than target's file system allows,
    before any curve is computed."""
    try:
        limit = os.pathconf(target, "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):  # no pathconf, or no such limit
        limit = 255
    for name in names:
        size = len(os.fsencode(name))
        if size > limit > 0:
            raise ScenarioError(
                "output.prefix",
                f"file name ...{name[-24:]} is {size} bytes, over the limit of {limit}",
            )


def _write_csv(path: Path, stamps, d_dir, d_ind, valid):
    """Write a curve's CSV; stamps holds each time's "{:.17g}" text, formatted
    once for every curve of a run."""
    lines = [CSV_HEADER]
    # Python floats format faster than numpy scalars, to the same text
    columns = (np.asarray(c).tolist() for c in (d_dir, d_ind, valid))
    for t, dd, di, ok in zip(stamps, *columns):
        total = dd + di
        lines.append(f"{t},{dd:.17g},{di:.17g},{total:.17g},{1 if ok else 0}")
    path.write_text("\n".join(lines) + "\n")


def _scale_lines(kind, params, bath, n_nn) -> list:
    """The report's scale line: a lattice's or chain's from n_nn, the
    effective neighbor count of its one selected atom (None for more), or a
    gas's."""
    out = []
    if n_nn is not None:
        scales = lattice_scales(params["spacing"], bath, n_nn)
        out.append(
            f"  lattice scales: N_nn = {n_nn:.6g}, t1 = {scales.t1:.6g}, "
            f"a_c = {scales.a_c:.6g}, gamma = {scales.gamma:.6g}"
        )
    elif kind == "gas":
        scales = gas_scales(params["density"], params["exclusion_radius"], bath)
        out.append(
            f"  gas scales: gamma_g = {scales.gamma_g:.6g}, t2 = {scales.t2:.6g}, "
            f"rho_crit = {scales.rho_crit:.6g}"
        )
    return out


def run(
    path,
    out_dir=None,
    seed_override: int | None = None,
    policy: str = "closed",
) -> int:
    """Execute the scenario file at path. Returns the exit code."""
    try:
        scenario = parse_scenario(path)
        try:
            kernel_policy = KernelPolicy(policy)
        except ValueError:
            raise ScenarioError("policy", f"unknown kernel policy {policy!r}") from None
        if seed_override is not None:
            if scenario.geometry_kind != "gas":
                raise ScenarioError("seed-override", "only gas geometry draws a seed")
            try:  # GasSpec's seed rule, on a spec whose other fields are valid
                GasSpec(density=1.0, exclusion_radius=1.0, horizon=2.0, seed=seed_override)
            except GeometryError as exc:
                raise ScenarioError("seed-override", str(exc)) from None
            params = {**scenario.geometry_params, "seed": seed_override}
            scenario = replace(scenario, geometry_params=params)
        variants = list(_sweep_variants(scenario))
        times = scenario.time_grid.times()
        target = Path(out_dir) if out_dir is not None else Path(scenario.out_dir)
        try:
            target.mkdir(parents=True, exist_ok=True)
        except (ValueError, OSError) as exc:  # a NUL byte, a file in the way, ...
            raise ScenarioError("output.directory", str(exc)) from None
        names = [f"{variant[0]}.csv" for variant in variants]
        _check_name_lengths(target, names + [f"{scenario.prefix}_report.txt"])
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    report = [f"prefix: {scenario.prefix}", f"policy: {kernel_policy.value}"]
    # under a kappa sweep each curve label names its own kappa
    swept = scenario.sweep is not None and scenario.sweep.parameter == "kappa"
    kappa = "kappa swept" if swept else f"kappa = {scenario.bath.kappa:.6g}"
    beta = scenario.bath.inv_temperature
    temperature = "zero temperature" if beta is None else f"inv_temperature = {beta:.6g}"
    report.append(f"bath: alpha = {scenario.bath.alpha:.6g}, {kappa}, {temperature}")
    if seed_override is not None:
        report.append(f"seed override: {seed_override}")

    # per (config, mask) pair: its key tables and N_nn, shared by the curves
    # on it, as every curve of a kappa sweep is
    sweep_rows, curves, shared = [], [], {}
    try:
        for label, bath, params, config, mask, value in variants:
            geometry = (id(config), id(mask))  # variants holds both alive
            if geometry not in shared:
                tables = _pair_tables(config, mask)  # its refusals come first
                single = scenario.geometry_kind in ("lattice", "chain") and mask.n_selected == 1
                shared[geometry] = tables, effective_neighbors(config, mask) if single else None
            tables, n_nn = shared[geometry]
            d_dir, d_ind, valid, final = _assemble(
                config, mask, bath, times, kernel_policy, tables
            )
            curves.append((target / f"{label}.csv", d_dir, d_ind, valid))

            report.append(f"curve {label}:")
            report.append(
                f"  geometry: {config.label}, atoms = {len(config)}, "
                f"selected = {mask.n_selected}, unobserved = {len(mask.unobserved)}"
            )
            report.append(
                "  dipole advisory (kappa >= 1): "
                + ("outside nominal regime" if bath.dipole_advisory else "ok")
            )
            report.extend(_scale_lines(scenario.geometry_kind, params, bath, n_nn))
            cross = crossover_detect(times, d_dir, d_ind)
            report.append(
                "  crossover (indirect overtakes direct): "
                + ("none within grid" if cross is None else f"t = {cross:.6g}")
            )
            nn = check_nonnegative(final, trials=_CHECK_TRIALS, seed=_CHECK_SEED_NONNEG)
            tri = check_triangle(final, triples=_CHECK_TRIPLES, seed=_CHECK_SEED_TRIANGLE)
            report.append(
                f"  nonnegativity at t = {times[-1]:.6g} over {nn.trials} random vectors: "
                + ("PASS" if nn.passed else "FAIL")
                + f" (min quadratic form = {nn.min_form:.6g})"
            )
            report.append(
                f"  triangle inequality over {tri.triples} random triples: "
                + ("PASS" if tri.passed else "FAIL")
                + f" (max violation = {tri.max_violation:.6g})"
            )
            if not (nn.passed and tri.passed):
                raise MetricError(f"metric property check failed for curve {label}")
            if value is not None:
                sweep_rows.append((value, float(d_ind[-1]), mask.n_selected == 1))

        if scenario.sweep is not None and sweep_rows:
            param = scenario.sweep.parameter
            report.append(f"sweep summary ({param}):")
            # d_indirect / 2 = sum_ij Phi_ij is Phi_00 only for one selected atom
            for value, end, single in sweep_rows:
                phi00 = f", phi00(t_end) = {end / 2.0:.6g}" if single else ""
                report.append(f"  {param} = {value:.6g}: d_indirect(t_end) = {end:.6g}{phi00}")
            value, end, single = min(sweep_rows, key=lambda row: row[1])
            best = f"phi00 = {end / 2.0:.6g}" if single else f"d_indirect(t_end) = {end:.6g}"
            report.append(f"  minimizer: {param} = {value:.6g} ({best})")

        stamps = [f"{t:.17g}" for t in times.tolist()]
        for csv_path, d_dir, d_ind, valid in curves:  # every curve has passed its checks
            _write_csv(csv_path, stamps, d_dir, d_ind, valid)
        (target / f"{scenario.prefix}_report.txt").write_text("\n".join(report) + "\n")
    except QuadratureError as exc:
        print(
            f"numerical error: quadrature budget exhausted "
            f"(achieved error {exc.achieved_error:.3g}): {exc}",
            file=sys.stderr,
        )
        return 2
    except (ValueError, ArithmeticError) as exc:
        # MetricError, KernelDomainError, GeometryError (a selected atom on an
        # unobserved one), specfun's non-finite argument, a float overflow
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: [output.directory] {exc}", file=sys.stderr)
        return 1

    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dmtsim",
        description="Decoherence metric tensor scenario runner.",
    )
    # argparse's default usage-error exit code collides with the numerical
    # failure code, so route usage problems through the config-error code
    parser.error = lambda message: (_usage_error(parser, message))  # type: ignore[assignment]
    parser.add_argument("scenario", help="path to a scenario INI file")
    parser.add_argument("--out-dir", default=None, help="override the scenario output directory")
    parser.add_argument(
        "--seed-override", type=int, default=None, help="replace the seed of a gas geometry"
    )
    parser.add_argument(
        "--policy",
        choices=[p.value for p in KernelPolicy],
        default="closed",
        help="indirect kernel evaluation route (default: closed)",
    )
    args = parser.parse_args(argv)
    return run(
        args.scenario,
        out_dir=args.out_dir,
        seed_override=args.seed_override,
        policy=args.policy,
    )


def _usage_error(parser, message):
    print(parser.format_usage(), file=sys.stderr)
    print(f"config error: {message}", file=sys.stderr)
    raise SystemExit(1)


if __name__ == "__main__":
    sys.exit(main())
