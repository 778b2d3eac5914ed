"""Spans around calls into microcav's layers, recorded from outside the program.

The tracer wraps a fixed list of public functions (``TARGETS``) without
touching microcav's source.  A function is replaced at every ``microcav.*``
module binding that holds it, because ``from .x import y`` makes a separate
binding in the importing module; a method is replaced on its class.  Each
call becomes one span: its name, start, end, the command it belongs to, the
span that was open when it started (its parent), and a few counts taken from
the call's arguments and return value.  Spans stay in memory until
:meth:`Tracer.dump` writes them out.

:func:`layer_metrics` turns the spans of a workload's commands into the
per-layer metrics named in ``METRICS``.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
import time

# Model ids that the workloads' fits pass to ``fitting.lm_fit``; each gets
# its own ``fitting.lm_fit.<id>.*`` metrics.
MODEL_IDS = (
    "membrane-dispersion",
    "membrane-dispersion(gap2 fixed)",
    "lifetime-vs-length",
    "mono-exponential",
    "kohlrausch",
    "emg",
    "double-lorentzian-equal-width",
    "lorentzian",
    "cubic-temperature",
)

# A 2x2 complex128 matrix is 64 bytes.  Per layer and wavelength the TMM
# writes the layer matrix, reads it and the running product, and writes the
# new product: four matrix transfers.  Computed from array sizes, not
# measured, so cache behaviour is not in it.
TMM_BYTES_PER_LAYER_POINT = 4 * 64


def metric_id(text: str) -> str:
    """``text`` reduced to the characters a metric name may hold."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", text).strip("_")


# --------------------------------------------------------------------------
# counts taken from a call that returned: info(args, kwargs, result) -> dict
# --------------------------------------------------------------------------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _tmm_points(args, kwargs, result):
    stack = _arg(args, kwargs, 0, "stack")
    wavelengths = _arg(args, kwargs, 1, "wavelength_nm")
    return {"layer_points": len(stack.layers) * int(getattr(wavelengths, "size", 1))}


def _phase_grid(args, kwargs, result):
    return {"grid_points": len(args[0].wl)}


def _map_rows(args, kwargs, result):
    return {"rows": int(result.gaps_nm.size)}


def _dispersion_retry(args, kwargs, result):
    return {"order_retry": int(bool(result.fit.diagnostics.get("order_retry")))}


def _lm_fit(args, kwargs, result):
    return {"nfev": int(result.iterations)}


def _lm_fit_model(args, kwargs):
    return kwargs.get("model_id", args[8] if len(args) > 8 else "custom")


def _lifetime_points(args, kwargs, result):
    return {"points": len(result), "flagged": sum(1 for p in result if p.flag)}


def _decay_errors(args, kwargs, result):
    return {"errors": len(result.errors)}


def _scan_samples(args, kwargs, result):
    return {"samples": int(_arg(args, kwargs, 0, "trace").transmission.size)}


def _clipped(args, kwargs, result):
    return {"clipped": int(result.n_clipped)}


def _series_samples(args, kwargs, result):
    return {"samples": int(getattr(_arg(args, kwargs, 0, "series_pm"), "size", 0))}


def _read_rows(args, kwargs, result):
    return {"rows": int(result.shape[0]), "bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _written_path(args, kwargs, result):
    # rows are counted from the file in Tracer.dump, after the command ends
    return {"path": os.fspath(_arg(args, kwargs, 0, "path"))}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# (module, attribute path, span name, info function)
TARGETS = (
    ("microcav.cli", "main", "cli.main", None),
    ("microcav.tmm", "amplitude_coefficients", "tmm.amplitude_coefficients", _tmm_points),
    ("microcav.tmm", "field_profile", "tmm.field_profile", None),
    ("microcav.resonance", "PhaseModel.__init__", "resonance.PhaseModel", _phase_grid),
    ("microcav.resonance", "PhaseModel.solve_wavelength", "resonance.PhaseModel.solve_wavelength", None),
    ("microcav.resonance", "find_resonances", "resonance.find_resonances", None),
    ("microcav.resonance", "classify_character", "resonance.classify_character", None),
    ("microcav.resonance", "dispersion_map", "resonance.dispersion_map", _map_rows),
    ("microcav.resonance", "effective_length", "resonance.effective_length", None),
    ("microcav.dispersion_fit", "fit_dispersion", "dispersion_fit.fit_dispersion", _dispersion_retry),
    ("microcav.fitting", "lm_fit", "fitting.lm_fit", _lm_fit),
    ("microcav.purcell", "predict_lifetime_curve", "purcell.predict_lifetime_curve", _lifetime_points),
    ("microcav.purcell", "LifetimeModel.__init__", "purcell.LifetimeModel", None),
    ("microcav.purcell", "fit_lifetime_model", "purcell.fit_lifetime_model", None),
    ("microcav.decay", "lifetime_with_conservative_bounds", "decay.lifetime_with_conservative_bounds", _decay_errors),
    ("microcav.spectral", "fit_double_lorentzian_equal_width", "spectral.fit_double_lorentzian_equal_width", None),
    ("microcav.spectral", "fit_lorentzian", "spectral.fit_lorentzian", None),
    ("microcav.spectral", "fit_cubic_temperature", "spectral.fit_cubic_temperature", None),
    ("microcav.scans", "detect_scan_resonances", "scans.detect_scan_resonances", _scan_samples),
    ("microcav.scans", "length_deviation", "scans.length_deviation", _clipped),
    ("microcav.scans", "noise_spectrum", "scans.noise_spectrum", _series_samples),
    ("microcav.io", "read_columns", "io.read_columns", _read_rows),
    ("microcav.io", "write_csv", "io.write_csv", _written_path),
    ("microcav.io", "write_json", "io.write_json", None),
    ("microcav.io", "sha256_of", "io.sha256_of", _file_bytes),
)


class Tracer:
    """Installs the span wrappers and records spans for one command."""

    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name, info):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._start(name)
            if name == "fitting.lm_fit":  # labelled before the call, so a fit that raises counts too
                span["model_id"] = _lm_fit_model(args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._end(span)
                span["failed"] = 1
                raise
            tracer._end(span)
            if info is not None:
                span.update(info(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at each of its bindings; the modules must be imported."""
        modules = [m for key, m in list(sys.modules.items()) if key == "microcav" or key.startswith("microcav.")]
        for module_name, attr, name, info in TARGETS:
            owner_name, _, fn_name = attr.rpartition(".")
            home = sys.modules[module_name]
            if owner_name:
                cls = getattr(home, owner_name)
                original = cls.__dict__[fn_name]
                self._replace(cls, fn_name, original, self._wrap(original, name, info))
                continue
            original = getattr(home, fn_name)
            wrapper = self._wrap(original, name, info)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, original, wrapper)

    def _replace(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        """Put every original function back where :meth:`install` found it."""
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- spans --------------------------------------------------------------

    def _start(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "command": self.command_id,
            "name": name,
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def _end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    def dump(self, path) -> None:
        """Write the spans as JSON, counting the data rows of each written CSV."""
        for span in self.spans:
            written = span.pop("path", None)
            if written is not None:
                with open(written, "rb") as fh:
                    span["rows"] = max(sum(1 for _ in fh) - 1, 0)
        with open(path, "w") as fh:
            json.dump({"command": self.command_id, "spans": self.spans}, fh)


# --------------------------------------------------------------------------
# span arithmetic
# --------------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        reach = start
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["id"]] = (end - start) - covered
    return out


def _descendants(spans: list[dict], root: int) -> list[dict]:
    found, frontier = [], {root}
    for span in spans:  # spans are recorded in start order, parents first
        if span["parent"] in frontier:
            found.append(span)
            frontier.add(span["id"])
    return found


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# metric name -> unit, in the order the benchmark reports them
METRICS = {
    "cli.import_s": "s",
    "cli.import_scipy_signal_s": "s",
    "cli.main.self_s": "s",
    "cli.cpu_s": "s",
    "tmm.amplitude_coefficients.calls": "count",
    "tmm.amplitude_coefficients.layer_points": "count",
    "tmm.amplitude_coefficients.self_s": "s",
    "tmm.amplitude_coefficients.ns_per_layer_point": "ns",
    "tmm.amplitude_coefficients.computed_bytes": "B",
    "tmm.field_profile.calls": "count",
    "tmm.field_profile.self_s": "s",
    "resonance.PhaseModel.builds": "count",
    "resonance.PhaseModel.grid_points": "count",
    "resonance.PhaseModel.self_s": "s",
    "resonance.find_resonances.calls": "count",
    "resonance.find_resonances.total_s": "s",
    "resonance.find_resonances.s_per_gap": "s",
    "resonance.classify_character.calls": "count",
    "resonance.classify_character.total_s": "s",
    "resonance.dispersion_map.total_s": "s",
    "resonance.dispersion_map.s_per_row": "s",
    "resonance.effective_length.calls": "count",
    "resonance.effective_length.total_s": "s",
    "dispersion_fit.fit_dispersion.calls": "count",
    "dispersion_fit.fit_dispersion.total_s": "s",
    "dispersion_fit.fit_dispersion.nfev": "count",
    "dispersion_fit.fit_dispersion.phasemodel_builds": "count",
    "dispersion_fit.fit_dispersion.builds_per_nfev": "ratio",
    "dispersion_fit.fit_dispersion.lm_fit_runs": "runs/call",
    "dispersion_fit.fit_dispersion.order_retries": "count",
    "fitting.lm_fit.total_s": "s",
    "fitting.lm_fit.nfev": "count",
    "fitting.lm_fit.failed": "count",
    **{f"fitting.lm_fit.{metric_id(m)}.{stat}": unit for m in MODEL_IDS for stat, unit in (("total_s", "s"), ("nfev", "count"), ("failed", "count"))},
    "purcell.predict_lifetime_curve.total_s": "s",
    "purcell.predict_lifetime_curve.points": "count",
    "purcell.predict_lifetime_curve.flagged": "count",
    "purcell.predict_lifetime_curve.s_per_point": "s",
    "purcell.LifetimeModel.total_s": "s",
    "purcell.fit_lifetime_model.total_s": "s",
    "decay.lifetime_with_conservative_bounds.total_s": "s",
    "decay.lifetime_with_conservative_bounds.errors": "count",
    "spectral.fit_double_lorentzian_equal_width.total_s": "s",
    "spectral.fit_lorentzian.total_s": "s",
    "spectral.fit_cubic_temperature.total_s": "s",
    "scans.detect_scan_resonances.total_s": "s",
    "scans.detect_scan_resonances.samples": "count",
    "scans.length_deviation.total_s": "s",
    "scans.length_deviation.clipped": "count",
    "scans.noise_spectrum.total_s": "s",
    "scans.noise_spectrum.samples": "count",
    "io.read_columns.calls": "count",
    "io.read_columns.rows": "count",
    "io.read_columns.bytes": "B",
    "io.read_columns.self_s": "s",
    "io.read_columns.us_per_row": "us",
    "io.write_csv.rows": "count",
    "io.write_csv.self_s": "s",
    "io.write_csv.us_per_row": "us",
    "io.write_json.self_s": "s",
    "io.sha256_of.bytes": "B",
    "io.sha256_of.self_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def layer_metrics(commands: list[list[dict]]) -> dict[str, float]:
    """Span-derived per-layer metrics summed over a workload's commands.

    ``commands`` holds one span list per command, as :meth:`Tracer.dump`
    wrote it.  The ``cli.import_*``, ``cli.cpu_s`` and ``trace.*`` metrics
    are not span-derived and are left to the caller.
    """
    by_name: dict[str, list[dict]] = {}
    fit_dispersion = {"nfev": 0, "phasemodel_builds": 0, "lm_fit_runs": 0}
    for spans in commands:
        own = self_times(spans)
        for span in spans:
            span["self"] = own[span["id"]]
            span["total"] = span["end"] - span["start"]
            by_name.setdefault(span["name"], []).append(span)
            if span["name"] == "dispersion_fit.fit_dispersion":
                for sub in _descendants(spans, span["id"]):
                    if sub["name"] == "resonance.PhaseModel":
                        fit_dispersion["phasemodel_builds"] += 1
                    elif sub["name"] == "fitting.lm_fit":
                        fit_dispersion["lm_fit_runs"] += 1
                        fit_dispersion["nfev"] += sub.get("nfev", 0)

    def spans_of(name):
        return by_name.get(name, [])

    def calls(name):
        return len(spans_of(name))

    def total(name, field="total"):
        return sum(s.get(field, 0) for s in spans_of(name))

    m: dict[str, float] = {"cli.main.self_s": total("cli.main", "self")}

    layer_points = total("tmm.amplitude_coefficients", "layer_points")
    m["tmm.amplitude_coefficients.calls"] = calls("tmm.amplitude_coefficients")
    m["tmm.amplitude_coefficients.layer_points"] = layer_points
    m["tmm.amplitude_coefficients.self_s"] = total("tmm.amplitude_coefficients", "self")
    m["tmm.amplitude_coefficients.ns_per_layer_point"] = _ratio(1e9 * m["tmm.amplitude_coefficients.self_s"], layer_points)
    m["tmm.amplitude_coefficients.computed_bytes"] = layer_points * TMM_BYTES_PER_LAYER_POINT
    m["tmm.field_profile.calls"] = calls("tmm.field_profile")
    m["tmm.field_profile.self_s"] = total("tmm.field_profile", "self")

    m["resonance.PhaseModel.builds"] = calls("resonance.PhaseModel")
    m["resonance.PhaseModel.grid_points"] = total("resonance.PhaseModel", "grid_points")
    m["resonance.PhaseModel.self_s"] = total("resonance.PhaseModel", "self")
    m["resonance.find_resonances.calls"] = calls("resonance.find_resonances")
    m["resonance.find_resonances.total_s"] = total("resonance.find_resonances")
    m["resonance.find_resonances.s_per_gap"] = _ratio(m["resonance.find_resonances.total_s"], m["resonance.find_resonances.calls"])
    m["resonance.classify_character.calls"] = calls("resonance.classify_character")
    m["resonance.classify_character.total_s"] = total("resonance.classify_character")
    m["resonance.dispersion_map.total_s"] = total("resonance.dispersion_map")
    m["resonance.dispersion_map.s_per_row"] = _ratio(m["resonance.dispersion_map.total_s"], total("resonance.dispersion_map", "rows"))
    m["resonance.effective_length.calls"] = calls("resonance.effective_length")
    m["resonance.effective_length.total_s"] = total("resonance.effective_length")

    n_fit = calls("dispersion_fit.fit_dispersion")
    m["dispersion_fit.fit_dispersion.calls"] = n_fit
    m["dispersion_fit.fit_dispersion.total_s"] = total("dispersion_fit.fit_dispersion")
    m["dispersion_fit.fit_dispersion.nfev"] = fit_dispersion["nfev"]
    m["dispersion_fit.fit_dispersion.phasemodel_builds"] = fit_dispersion["phasemodel_builds"]
    m["dispersion_fit.fit_dispersion.builds_per_nfev"] = _ratio(fit_dispersion["phasemodel_builds"], fit_dispersion["nfev"])
    m["dispersion_fit.fit_dispersion.lm_fit_runs"] = _ratio(fit_dispersion["lm_fit_runs"], n_fit)
    m["dispersion_fit.fit_dispersion.order_retries"] = total("dispersion_fit.fit_dispersion", "order_retry")

    m["fitting.lm_fit.total_s"] = total("fitting.lm_fit")
    m["fitting.lm_fit.nfev"] = total("fitting.lm_fit", "nfev")
    m["fitting.lm_fit.failed"] = total("fitting.lm_fit", "failed")
    for model in MODEL_IDS:
        runs = [s for s in spans_of("fitting.lm_fit") if s["model_id"] == model]
        key = f"fitting.lm_fit.{metric_id(model)}"
        m[f"{key}.total_s"] = sum(s["total"] for s in runs)
        m[f"{key}.nfev"] = sum(s.get("nfev", 0) for s in runs)
        m[f"{key}.failed"] = sum(s.get("failed", 0) for s in runs)

    m["purcell.predict_lifetime_curve.total_s"] = total("purcell.predict_lifetime_curve")
    m["purcell.predict_lifetime_curve.points"] = total("purcell.predict_lifetime_curve", "points")
    m["purcell.predict_lifetime_curve.flagged"] = total("purcell.predict_lifetime_curve", "flagged")
    m["purcell.predict_lifetime_curve.s_per_point"] = _ratio(m["purcell.predict_lifetime_curve.total_s"], m["purcell.predict_lifetime_curve.points"])
    m["purcell.LifetimeModel.total_s"] = total("purcell.LifetimeModel")
    m["purcell.fit_lifetime_model.total_s"] = total("purcell.fit_lifetime_model")

    m["decay.lifetime_with_conservative_bounds.total_s"] = total("decay.lifetime_with_conservative_bounds")
    m["decay.lifetime_with_conservative_bounds.errors"] = total("decay.lifetime_with_conservative_bounds", "errors")
    for name in ("spectral.fit_double_lorentzian_equal_width", "spectral.fit_lorentzian", "spectral.fit_cubic_temperature"):
        m[f"{name}.total_s"] = total(name)

    m["scans.detect_scan_resonances.total_s"] = total("scans.detect_scan_resonances")
    m["scans.detect_scan_resonances.samples"] = total("scans.detect_scan_resonances", "samples")
    m["scans.length_deviation.total_s"] = total("scans.length_deviation")
    m["scans.length_deviation.clipped"] = total("scans.length_deviation", "clipped")
    m["scans.noise_spectrum.total_s"] = total("scans.noise_spectrum")
    m["scans.noise_spectrum.samples"] = total("scans.noise_spectrum", "samples")

    m["io.read_columns.calls"] = calls("io.read_columns")
    m["io.read_columns.rows"] = total("io.read_columns", "rows")
    m["io.read_columns.bytes"] = total("io.read_columns", "bytes")
    m["io.read_columns.self_s"] = total("io.read_columns", "self")
    m["io.read_columns.us_per_row"] = _ratio(1e6 * m["io.read_columns.self_s"], m["io.read_columns.rows"])
    m["io.write_csv.rows"] = total("io.write_csv", "rows")
    m["io.write_csv.self_s"] = total("io.write_csv", "self")
    m["io.write_csv.us_per_row"] = _ratio(1e6 * m["io.write_csv.self_s"], m["io.write_csv.rows"])
    m["io.write_json.self_s"] = total("io.write_json", "self")
    m["io.sha256_of.bytes"] = total("io.sha256_of", "bytes")
    m["io.sha256_of.self_s"] = total("io.sha256_of", "self")
    return m
