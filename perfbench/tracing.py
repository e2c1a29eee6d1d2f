"""Outside-in tracing of dmtsim, one span per call into a layer.

`Tracer.install` swaps the module attributes each layer is called through
for recording wrappers; `Tracer.uninstall` puts the original objects back and
checks that they are back. Nothing under src/ is edited. A span records its
name, start, end, parent span and pass id, plus counts derived from the
call's arguments. Spans stay in memory until `write_spans`.

A span's self time is its duration minus the time its child spans cover. A
child covers its wrapper's bookkeeping too, so the bookkeeping is charged to
no layer; it shows only as `trace.overhead_frac`.
"""

from __future__ import annotations

import csv
import gzip
import math
import time

import numpy as np

# Span fields
NAME, OUTER_START, START, END, OUTER_END, PARENT, PASS, INFO, ERROR = range(9)

# |x| up to which dmtsim.specfun documents its 1e-10 accuracy
_SI_CONTRACT = 1e6


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _info_si(args, kwargs, result):
    return np.array(_arg(args, kwargs, 0, "x"), dtype=float).ravel()


def _info_pairs(args, kwargs, result):
    return int(np.size(_arg(args, kwargs, 1, "r")))


def _info_quadrature(args, kwargs, result):
    t = float(_arg(args, kwargs, 0, "t"))
    geom = _arg(args, kwargs, 1, "geom")
    bath = _arg(args, kwargs, 2, "bath")
    kernel = _arg(args, kwargs, 3, "time_kernel")
    panels = max(8, math.ceil(bath.kappa * (t + geom.r) / math.pi))
    return kernel.value, panels


def _info_pair_arrays(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "indices_a")) * len(_arg(args, kwargs, 2, "indices_b"))


def _info_gas_atoms(args, kwargs, result):
    return len(result[0])


def _info_n_atoms(args, kwargs, result):
    return int(_arg(args, kwargs, 1, "n_atoms"))  # args[0] is the class


def _info_csv_bytes(args, kwargs, result):
    return _arg(args, kwargs, 0, "path").stat().st_size


def _info_samples(args, kwargs, result):
    return int(_arg(args, kwargs, 3, "n_samples"))


# (owner, attribute, span name, counter of the call's arguments). Owners are
# dotted paths below the dmtsim package: the module (or class) the caller
# looks the attribute up in, so the wrapper sees every call.
HOOKS = (
    ("kernels", "sine_integral", "specfun.sine_integral", _info_si),
    ("metric", "_phi_closed_rt", "kernels.phi_closed_rt", _info_pairs),
    ("ensemble", "_phi_closed_rt", "kernels.phi_closed_rt", _info_pairs),
    ("metric", "_phi_farfield_rt", "kernels.phi_farfield_rt", _info_pairs),
    ("ensemble", "_phi_farfield_rt", "kernels.phi_farfield_rt", _info_pairs),
    ("metric", "reduced_quadrature", "kernels.reduced_quadrature", _info_quadrature),
    ("ensemble", "reduced_quadrature", "kernels.reduced_quadrature", _info_quadrature),
    ("metric", "f_diag", "kernels.f_diag", None),
    ("geometry", "pair_arrays", "geometry.pair_arrays", _info_pair_arrays),
    ("geometry", "sample_gas", "geometry.sample_gas", _info_gas_atoms),
    ("geometry.SelectionMask", "from_selected", "geometry.SelectionMask.from_selected", _info_n_atoms),
    ("cli", "build_metric", "metric.build_metric", None),
    ("cli", "check_nonnegative", "metric.check_nonnegative", None),
    ("cli", "check_triangle", "metric.check_triangle", None),
    ("cli", "_write_csv", "cli.csv", _info_csv_bytes),
    ("cli", "parse_scenario", "cli.parse_scenario", None),
    ("cli", "effective_neighbors", "asymptotics", None),
    ("cli", "lattice_scales", "asymptotics", None),
    ("cli", "gas_scales", "asymptotics", None),
    ("cli", "run", "cli.run", None),
    ("ensemble", "average_phi00", "ensemble.average_phi00", _info_samples),
)


class RestoreError(RuntimeError):
    """A wrapped attribute was not the original object after uninstall."""


class Tracer:
    def __init__(self, dmtsim):
        self.dmtsim = dmtsim
        self.spans = []
        self.pass_id = 0
        self.missing = []
        self.si_passes = []  # per traced pass: branch counts and unique fraction
        self._stack = []
        self._patched = []
        # the attributes as the program defines them, before any wrapping
        self._originals = {
            (owner, attr): vars(self._owner(owner)).get(attr) for owner, attr, _, _ in HOOKS
        }

    def _owner(self, path):
        obj = self.dmtsim
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    def _wrap(self, name, fn, counter):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter, self

        def wrapper(*args, **kwargs):
            outer = clock()
            span = [name, outer, 0.0, 0.0, 0.0, stack[-1] if stack else -1, tracer.pass_id, None, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if counter is not None:
                    try:
                        span[INFO] = counter(args, kwargs, result)
                    except (LookupError, AttributeError, TypeError, ValueError, OSError):
                        span[INFO] = None  # the layer's signature changed
                span[OUTER_END] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for owner_path, attr, name, counter in HOOKS:
            owner = self._owner(owner_path)
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__, counter))
            else:
                replacement = self._wrap(name, original, counter)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self):
        """Put the originals back and check every hooked attribute is the
        program's own object again, so untraced passes run unwrapped code."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []
        stray = [
            f"{owner}.{attr}"
            for (owner, attr), original in self._originals.items()
            if vars(self._owner(owner)).get(attr) is not original
        ]
        if stray:
            raise RestoreError(f"attributes not restored: {stray}")

    def end_pass(self):
        """Reduce the pass's Si arguments to counts, then drop the arrays."""
        specfun = self.dmtsim.specfun  # branch cutoffs: the module's own values
        series_cut = getattr(specfun, "_SERIES_CUTOFF", 18.0)
        asym_cut = getattr(specfun, "_ASYMPTOTIC_CUTOFF", 40.0)
        arrays = []
        for span in self.spans:
            if span[PASS] == self.pass_id and span[NAME] == "specfun.sine_integral":
                if isinstance(span[INFO], np.ndarray):
                    arrays.append(span[INFO])
                    span[INFO] = span[INFO].size
        x = np.concatenate(arrays) if arrays else np.empty(0)
        mag = np.abs(x)
        series = int(np.count_nonzero(mag <= series_cut))
        asym = int(np.count_nonzero(mag >= asym_cut))
        self.si_passes.append(
            {
                "specfun.si_series.elems": series,
                "specfun.si_cf.elems": int(x.size) - series - asym,
                "specfun.si_asymptotic.elems": asym,
                "specfun.si_beyond_contract.elems": int(np.count_nonzero(mag > _SI_CONTRACT)),
                "specfun.si_unique_frac": np.unique(x).size / x.size if x.size else 0.0,
            }
        )
        self.pass_id += 1

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[OUTER_END] - span[OUTER_START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, covered)]

    def summary(self, ops_per_pass: int) -> dict:
        """Per-layer metrics, each a mean per traced pass."""
        passes = max(self.pass_id, 1)
        calls, self_s, items = {}, {}, {}
        durations = {"kernels.reduced_quadrature": [], "metric.build_metric": []}
        quad = {"f": [0, 0.0], "phi": [0, 0.0]}
        panels = errors = 0
        for span, own in zip(self.spans, self.self_times()):
            name = span[NAME]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if name in durations:
                durations[name].append(span[END] - span[START])
            info = span[INFO]
            if name == "kernels.reduced_quadrature":
                errors += span[ERROR] == "QuadratureError"
                if info is not None:
                    quad[info[0]][0] += 1
                    quad[info[0]][1] += own
                    panels += info[1]
            elif isinstance(info, (int, np.integer)):
                items[name] = items.get(name, 0) + int(info)

        def per_pass(value):
            return value / passes

        def pct(name, q, scale):
            d = durations[name]
            return float(np.percentile(d, q)) * scale if d else 0.0

        out = {}
        for name, item in (
            ("specfun.sine_integral", "elems"),
            ("kernels.phi_closed_rt", "pairs"),
            ("kernels.phi_farfield_rt", "pairs"),
            ("kernels.f_diag", None),
            ("geometry.SelectionMask.from_selected", "atoms"),
            ("geometry.sample_gas", "atoms"),
            ("geometry.pair_arrays", "pairs"),
            ("metric.build_metric", None),
        ):
            out[f"{name}.calls"] = per_pass(calls.get(name, 0))
            out[f"{name}.self_s"] = per_pass(self_s.get(name, 0.0))
            if item:
                out[f"{name}.{item}"] = per_pass(items.get(name, 0))
        for name in (
            "metric.check_nonnegative",
            "metric.check_triangle",
            "ensemble.average_phi00",
            "asymptotics",
            "cli.run",
            "cli.parse_scenario",
            "cli.csv",
        ):
            out[f"{name}.self_s"] = per_pass(self_s.get(name, 0.0))
        for kind, (n, s) in quad.items():
            out[f"kernels.reduced_quadrature.{kind}.calls"] = per_pass(n)
            out[f"kernels.reduced_quadrature.{kind}.self_s"] = per_pass(s)
        out["kernels.reduced_quadrature.call_p50_us"] = pct("kernels.reduced_quadrature", 50, 1e6)
        out["kernels.reduced_quadrature.call_p99_us"] = pct("kernels.reduced_quadrature", 99, 1e6)
        out["kernels.reduced_quadrature.min_panels"] = per_pass(panels)
        out["kernels.reduced_quadrature.errors"] = per_pass(errors)
        out["metric.build_metric.call_p50_ms"] = pct("metric.build_metric", 50, 1e3)
        out["metric.build_metric.call_p90_ms"] = pct("metric.build_metric", 90, 1e3)
        out["geometry.pair_arrays.calls_per_curve"] = per_pass(
            calls.get("geometry.pair_arrays", 0) / ops_per_pass
        )
        out["ensemble.samples"] = per_pass(items.get("ensemble.average_phi00", 0))
        out["cli.csv.bytes"] = per_pass(items.get("cli.csv", 0))
        for key in self.si_passes[0] if self.si_passes else ():
            out[key] = sum(p[key] for p in self.si_passes) / len(self.si_passes)
        modules = {}
        for name, s in self_s.items():
            module = name.split(".")[0]
            modules[module] = modules.get(module, 0.0) + s
        for module in ("specfun", "kernels", "geometry", "metric", "cli"):
            out[f"{module}.self_s"] = per_pass(modules.get(module, 0.0))
        return out

    def write_spans(self, path):
        """All spans as gzip CSV: pass, name, start, end, self time, parent, error."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pass", "span", "name", "start", "end", "self_s", "parent", "error"])
            for i, (span, own) in enumerate(zip(self.spans, self.self_times())):
                writer.writerow(
                    [span[PASS], i, span[NAME], repr(span[START]), repr(span[END]),
                     repr(own), span[PARENT], span[ERROR] or ""]
                )
