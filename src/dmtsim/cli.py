"""Scenario runner: reads an INI scenario, sweeps time (and optionally one
parameter), writes per-curve CSVs plus a text report.

Scenario file layout::

    [bath]
    alpha = 0.0072973525693
    kappa = 0.1
    # inv_temperature = 2.0      ; omit for zero temperature

    [geometry]
    kind = lattice               ; lattice | chain | gas
    side = 31                    ; lattice: odd edge length
    spacing = 1000.0
    dipole_direction = 0 0 1     ; lattice/gas only
    # chain keys: count, spacing, dipole_angle (radians)
    # gas keys: density, exclusion_radius, horizon, seed,
    #           count_mode (poisson | fixed), fixed_count

    [selection]                  ; optional, defaults to the builder's center atom
    indices = 0

    [time]
    start = 1e-3
    end = 1e11
    points = 225
    spacing = log                ; log | linear

    [sweep]                      ; optional
    parameter = kappa            ; kappa | spacing | dipole_tilt | density | exclusion_radius
    values = 0.01 0.1 1

    [output]
    directory = out
    prefix = run

Exit codes: 0 success, 1 configuration error (message names the offending
key; an output directory that cannot be made or written is reported as
[output.directory]), 2 numerical failure (quadrature budget exhausted, a metric property
violation, or a value outside a kernel's domain met while computing, such as
a non-finite Si argument or a pair separation that over- or underflows).

CSV columns: t, d_direct, d_indirect, d_total, valid_flag. The decoherence
columns are for the all-plus vs all-minus codeword pair, so d_direct sums
4 f_ij and d_indirect sums 2 Phi_ij over the selected block; d_total is their
sum and is exactly additive. valid_flag is 1 while every matrix element stays
below the perturbative threshold.
"""

from __future__ import annotations

import argparse
import configparser
import math
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
    chain_1d,
    sample_gas,
    square_lattice_2d,
)
from .kernels import BathParams, KernelDomainError, QuadratureError
from .metric import (
    KernelPolicy,
    MetricError,
    build_metric,
    check_nonnegative,
    check_triangle,
)

__all__ = [
    "ScenarioError",
    "TimeGrid",
    "Sweep",
    "Scenario",
    "parse_scenario",
    "crossover_detect",
    "run",
    "main",
    "CSV_HEADER",
]

CSV_HEADER = "t,d_direct,d_indirect,d_total,valid_flag"

_POLICIES = {
    "closed": KernelPolicy.CLOSED_FORM,
    "farfield": KernelPolicy.FAR_FIELD,
    "quadrature": KernelPolicy.QUADRATURE,
}

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
        if self.points < 2:
            raise ScenarioError("time.points", "need at least 2 grid points")
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ScenarioError("time.start", "grid endpoints must be finite")
        if self.start >= self.end:
            raise ScenarioError("time.start", "start must be below end")
        if self.spacing == "log" and self.start <= 0:
            raise ScenarioError("time.start", "log spacing needs start > 0")
        if self.spacing == "linear" and self.start < 0:
            raise ScenarioError("time.start", "times must be >= 0")

    def times(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.start, self.end, self.points)
        return np.linspace(self.start, self.end, self.points)


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


_MISSING = object()


def _get(cp, section, key, cast, default=_MISSING):
    if not cp.has_option(section, key):
        if default is not _MISSING:
            return default
        raise ScenarioError(f"{section}.{key}", "missing required key")
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except ScenarioError:
        raise
    except (TypeError, ValueError):
        raise ScenarioError(f"{section}.{key}", f"cannot parse value {raw!r}") from None


def _floats(raw: str) -> tuple:
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


def _ints(raw: str) -> tuple:
    parts = raw.replace(",", " ").split()
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p) for p in parts)


def _vector3(raw: str) -> tuple:
    vec = _floats(raw)
    if len(vec) != 3:
        raise ValueError("need exactly three components")
    return vec


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario INI file."""
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ScenarioError("scenario", f"cannot read scenario file {path!r}")
    for section in ("bath", "geometry", "time"):
        if not cp.has_section(section):
            raise ScenarioError(section, "missing required section")

    alpha = _get(cp, "bath", "alpha", float)
    kappa = _get(cp, "bath", "kappa", float)
    inv_temperature = _get(cp, "bath", "inv_temperature", float, default=None)
    try:
        bath = BathParams(alpha=alpha, kappa=kappa, inv_temperature=inv_temperature)
    except (KernelDomainError, ValueError) as exc:
        raise ScenarioError("bath", str(exc)) from None

    kind = _get(cp, "geometry", "kind", str).strip().lower()
    params: dict = {}
    if kind == "lattice":
        params["side"] = _get(cp, "geometry", "side", int)
        params["spacing"] = _get(cp, "geometry", "spacing", float)
        params["dipole_direction"] = _get(
            cp, "geometry", "dipole_direction", _vector3, default=(0.0, 0.0, 1.0)
        )
    elif kind == "chain":
        params["count"] = _get(cp, "geometry", "count", int)
        params["spacing"] = _get(cp, "geometry", "spacing", float)
        params["dipole_angle"] = _get(cp, "geometry", "dipole_angle", float)
    elif kind == "gas":
        params["density"] = _get(cp, "geometry", "density", float)
        params["exclusion_radius"] = _get(cp, "geometry", "exclusion_radius", float)
        params["horizon"] = _get(cp, "geometry", "horizon", float)
        params["seed"] = _get(cp, "geometry", "seed", int, default=0)
        params["count_mode"] = _get(cp, "geometry", "count_mode", str, default="poisson").strip()
        params["fixed_count"] = _get(cp, "geometry", "fixed_count", int, default=None)
        params["dipole_direction"] = _get(
            cp, "geometry", "dipole_direction", _vector3, default=(0.0, 0.0, 1.0)
        )
    else:
        raise ScenarioError("geometry.kind", f"unknown geometry kind {kind!r}")

    selection = None
    if cp.has_section("selection"):
        selection = _get(cp, "selection", "indices", _ints)

    grid = TimeGrid(
        start=_get(cp, "time", "start", float),
        end=_get(cp, "time", "end", float),
        points=_get(cp, "time", "points", int),
        spacing=_get(cp, "time", "spacing", str, default="log").strip().lower(),
    )

    sweep = None
    if cp.has_section("sweep"):
        sweep = Sweep(
            parameter=_get(cp, "sweep", "parameter", str).strip().lower(),
            values=_get(cp, "sweep", "values", _floats),
        )
        if sweep.parameter in ("density", "exclusion_radius") and kind != "gas":
            raise ScenarioError("sweep.parameter", f"{sweep.parameter} sweep needs gas geometry")
        if sweep.parameter == "spacing" and kind == "gas":
            raise ScenarioError("sweep.parameter", "spacing sweep needs lattice or chain geometry")

    out_dir = "out"
    prefix = "run"
    if cp.has_section("output"):
        out_dir = _get(cp, "output", "directory", str, default="out").strip()
        prefix = _get(cp, "output", "prefix", str, default="run").strip()

    return Scenario(
        bath=bath,
        geometry_kind=kind,
        geometry_params=params,
        time_grid=grid,
        selection=selection,
        sweep=sweep,
        out_dir=out_dir,
        prefix=prefix,
    )


def _tilted_direction(tilt: float) -> tuple:
    # rotate the reference z dipole toward x by the tilt angle
    return (math.sin(tilt), 0.0, math.cos(tilt))


def _build_geometry(
    kind: str, params: dict, seed_override: int | None
) -> tuple[AtomConfig, SelectionMask]:
    if kind == "lattice":
        return square_lattice_2d(
            side=params["side"],
            spacing=params["spacing"],
            dipole_direction=params["dipole_direction"],
        )
    if kind == "chain":
        return chain_1d(
            count=params["count"],
            spacing=params["spacing"],
            dipole_angle=params["dipole_angle"],
        )
    spec = GasSpec(
        density=params["density"],
        exclusion_radius=params["exclusion_radius"],
        horizon=params["horizon"],
        seed=params["seed"] if seed_override is None else seed_override,
    )
    return sample_gas(
        spec,
        count_mode=params["count_mode"],
        fixed_count=params["fixed_count"],
        dipole_direction=params["dipole_direction"],
    )


def _apply_selection(config: AtomConfig, default: SelectionMask, indices) -> SelectionMask:
    if indices is None:
        return default
    try:
        return SelectionMask.from_selected(len(config), indices)
    except GeometryError as exc:
        raise ScenarioError("selection.indices", str(exc)) from None


def _sweep_variants(scenario: Scenario, seed_override):
    """Yield (label, bath, config, mask, sweep_value) per curve."""
    if scenario.sweep is None:
        config, default = _build_geometry(
            scenario.geometry_kind, scenario.geometry_params, seed_override
        )
        mask = _apply_selection(config, default, scenario.selection)
        yield scenario.prefix, scenario.bath, config, mask, None
        return

    param = scenario.sweep.parameter
    for value in scenario.sweep.values:
        bath = scenario.bath
        params = dict(scenario.geometry_params)
        if param == "kappa":
            try:
                bath = replace(scenario.bath, kappa=value)
            except (KernelDomainError, ValueError) as exc:
                raise ScenarioError("sweep.values", str(exc)) from None
        elif param == "spacing":
            params["spacing"] = value
        elif param == "dipole_tilt":
            if scenario.geometry_kind == "chain":
                params["dipole_angle"] = value
            else:
                params["dipole_direction"] = _tilted_direction(value)
        elif param == "density":
            params["density"] = value
        elif param == "exclusion_radius":
            params["exclusion_radius"] = value
        try:
            config, default = _build_geometry(scenario.geometry_kind, params, seed_override)
        except (GeometryError, ValueError) as exc:
            raise ScenarioError("sweep.values", f"value {value:g}: {exc}") from None
        mask = _apply_selection(config, default, scenario.selection)
        yield f"{scenario.prefix}_{param}={value:g}", bath, config, mask, value


def crossover_detect(times, d_direct, d_indirect):
    """First time where the indirect part overtakes the direct part.

    Scans the sampled curve for the first grid point with d_ind > d_dir and
    linearly interpolates the sign change of (d_ind - d_dir) between that
    point and its predecessor. Returns None when the indirect part never
    overtakes, and times[0] when it already leads at the first sample.
    """
    times = np.asarray(times, dtype=float)
    gap = np.asarray(d_indirect, dtype=float) - np.asarray(d_direct, dtype=float)
    above = np.flatnonzero(gap > 0)
    if above.size == 0:
        return None
    i = int(above[0])
    if i == 0:
        return float(times[0])
    t0, t1 = times[i - 1], times[i]
    g0, g1 = gap[i - 1], gap[i]
    return float(t0 + (0.0 - g0) * (t1 - t0) / (g1 - g0))


def _compute_curve(bath, config, mask, times, policy):
    tensors = [build_metric(config, mask, bath, float(t), kernel_policy=policy) for t in times]
    d_dir = np.array([float(m.direct_part.sum()) for m in tensors])
    d_ind = np.array([float(m.indirect_part.sum()) for m in tensors])
    valid = np.array([m.validity_flag for m in tensors], dtype=bool)
    return tensors, d_dir, d_ind, valid


def _write_csv(path: Path, times, d_dir, d_ind, valid):
    lines = [CSV_HEADER]
    for t, dd, di, ok in zip(times, d_dir, d_ind, valid):
        total = dd + di
        lines.append(f"{t:.17g},{dd:.17g},{di:.17g},{total:.17g},{1 if ok else 0}")
    path.write_text("\n".join(lines) + "\n")


def _scale_lines(scenario, bath, config, mask) -> list:
    out = []
    if scenario.geometry_kind in ("lattice", "chain") and mask.n_selected == 1:
        n_nn = effective_neighbors(config, mask)
        scales = lattice_scales(scenario.geometry_params["spacing"], bath, n_nn)
        out.append(
            f"  lattice scales: N_nn = {n_nn:.6g}, t1 = {scales.t1:.6g}, "
            f"a_c = {scales.a_c:.6g}, gamma = {scales.gamma:.6g}"
        )
    elif scenario.geometry_kind == "gas":
        scales = gas_scales(
            scenario.geometry_params["density"],
            scenario.geometry_params["exclusion_radius"],
            bath,
        )
        out.append(
            f"  gas scales: gamma_g = {scales.gamma_g:.6g}, t2 = {scales.t2:.6g}, "
            f"rho_crit = {scales.rho_crit:.6g}"
        )
    return out


def run(
    scenario,
    out_dir=None,
    seed_override: int | None = None,
    policy: str = "closed",
) -> int:
    """Execute a scenario (path or Scenario object). Returns the exit code."""
    try:
        if not isinstance(scenario, Scenario):
            scenario = parse_scenario(scenario)
        if policy not in _POLICIES:
            raise ScenarioError("policy", f"unknown kernel policy {policy!r}")
        kernel_policy = _POLICIES[policy]
        variants = list(_sweep_variants(scenario, seed_override))
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f"config error: [geometry] {exc}", file=sys.stderr)
        return 1

    target = Path(out_dir) if out_dir is not None else Path(scenario.out_dir)
    times = scenario.time_grid.times()

    report = [f"prefix: {scenario.prefix}", f"policy: {policy}"]
    report.append(
        f"bath: alpha = {scenario.bath.alpha:.6g}, kappa = {scenario.bath.kappa:.6g}, "
        + (
            "zero temperature"
            if scenario.bath.inv_temperature is None
            else f"inv_temperature = {scenario.bath.inv_temperature:.6g}"
        )
    )
    report.append(
        "dipole advisory (kappa >= 1): "
        + ("ok" if scenario.bath.dipole_advisory else "outside nominal regime")
    )
    if seed_override is not None:
        report.append(f"seed override: {seed_override}")

    sweep_rows = []
    try:
        target.mkdir(parents=True, exist_ok=True)
        for label, bath, config, mask, value in variants:
            tensors, d_dir, d_ind, valid = _compute_curve(bath, config, mask, times, kernel_policy)
            _write_csv(target / f"{label}.csv", times, d_dir, d_ind, valid)

            report.append(f"curve {label}:")
            report.append(
                f"  geometry: {config.label}, atoms = {len(config)}, "
                f"selected = {mask.n_selected}, unobserved = {len(mask.unobserved)}"
            )
            report.extend(_scale_lines(scenario, bath, config, mask))
            cross = crossover_detect(times, d_dir, d_ind)
            report.append(
                "  crossover (indirect overtakes direct): "
                + ("none within grid" if cross is None else f"t = {cross:.6g}")
            )
            final = tensors[-1]
            nn = check_nonnegative(final, trials=_CHECK_TRIALS, seed=_CHECK_SEED_NONNEG)
            tri = check_triangle(final, triples=_CHECK_TRIPLES, seed=_CHECK_SEED_TRIANGLE)
            report.append(
                f"  nonnegativity at t = {times[-1]:.6g} over {nn.trials} codeword pairs: "
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
                sweep_rows.append((value, float(d_ind[-1])))

        if scenario.sweep is not None and sweep_rows:
            report.append(f"sweep summary ({scenario.sweep.parameter}):")
            for value, ind_end in sweep_rows:
                report.append(
                    f"  {scenario.sweep.parameter} = {value:.6g}: "
                    f"d_indirect(t_end) = {ind_end:.6g}, phi00(t_end) = {ind_end / 2.0:.6g}"
                )
            best = min(sweep_rows, key=lambda row: row[1])
            report.append(
                f"  minimizer: {scenario.sweep.parameter} = {best[0]:.6g} "
                f"(phi00 = {best[1] / 2.0:.6g})"
            )

        (target / f"{scenario.prefix}_report.txt").write_text("\n".join(report) + "\n")
    except QuadratureError as exc:
        print(
            f"numerical error: quadrature budget exhausted "
            f"(achieved error {exc.achieved_error:.3g}): {exc}",
            file=sys.stderr,
        )
        return 2
    except ValueError as exc:
        # MetricError, KernelDomainError, GeometryError (a selected atom on
        # an unobserved one) and specfun's non-finite argument error
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
        "--seed-override", type=int, default=None, help="replace the gas sampling seed"
    )
    parser.add_argument(
        "--policy",
        choices=sorted(_POLICIES),
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
