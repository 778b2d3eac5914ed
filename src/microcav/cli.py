"""Command-line interface.

One command per analysis pipeline; numeric tables go to CSV, structured
results to JSON, plotting is left to external tools.  Every JSON output
embeds the toolkit version, the seed (when randomness is involved), the
membrane loss (when a loss budget is involved) and SHA-256 checksums of the
input files, so results are reproducible and auditable.  Exit code 0 means
every requested fit converged and no precondition failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# OpenBLAS starts a pool of worker threads when numpy loads it, unless one of
# these variables asks for one thread: on a 2-vCPU Xeon that pool is about
# 0.07 s of `import numpy` (0.17 s against 0.10 s), paid by every command,
# while the largest BLAS call here is lm_fit's SVD of a few hundred
# residuals.  OpenBLAS reads the variable once, as it loads, so the user's
# environment is restored right after for os.environ and child processes.
if not any(name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

import numpy as np

from . import constants, io, metrics, synth
from .decay import DecayTrace, fit_decay_emg, fit_decay_kohlrausch, fit_decay_mono, lifetime_with_conservative_bounds
from .dispersion_fit import fit_dispersion, points_from_resonances
from .fitting import FitError
from .purcell import (EmitterParams, LifetimeModel, beta_collection, fit_lifetime_model, load_emitter, operating_point,
                      predict_lifetime_curve)
from .resonance import PhaseModel, dispersion_map, find_resonances
from .scans import (LockSynthConfig, LockTrace, NoiseSpectrum, ScanTrace, detect_scan_resonances, finesse_from_scan, length_deviation,
                    noise_spectrum, synthesize_lock_traces)
from .spectral import SpectrumTrace, doublet_splitting_ghz, fit_cubic_temperature, fit_double_lorentzian_equal_width, fit_lorentzian
from .stack import default_assembly, default_assembly_config, load_assembly


class UsageError(SystemExit):
    pass


def _outdir(args) -> Path:
    out = Path(args.outdir or os.environ.get("MICROCAV_OUTDIR", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _provenance(args, inputs: list[str | Path], seed: int | None = None) -> dict:
    meta = {
        "toolkit_version": constants.TOOLKIT_VERSION,
        "command": " ".join(args.argv),
        "inputs": {str(p): io.sha256_of(p) for p in inputs},
        "constants": {
            "c_m_per_s": constants.C_M_PER_S,
            "n_diamond_default": constants.N_DIAMOND,
            "debye_waller_default": constants.DEBYE_WALLER_DEFAULT,
        },
    }
    if getattr(args, "membrane_loss", None) is not None:
        meta["membrane_loss_ppm"] = args.membrane_loss
    if seed is not None:
        meta["seed"] = seed
    return meta


def _input(inputs: list, path: str, what: str = "data file") -> str:
    """``path`` after checking that it exists and recording it as an input."""
    if not Path(path).exists():
        raise UsageError(f"{what} not found: {path}")
    inputs.append(path)
    return path


def _load_assembly(args, inputs: list):
    if args.assembly:
        return load_assembly(_input(inputs, args.assembly, "assembly config"))
    return default_assembly()


def _load_emitter(args, inputs: list) -> EmitterParams:
    if args.emitter:
        return load_emitter(_input(inputs, args.emitter, "emitter config"))
    return EmitterParams()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_metrics(args) -> int:
    inputs: list = []
    assembly = _load_assembly(args, inputs)
    wl = args.wavelength
    pm = PhaseModel(assembly, wl - 10.0, wl + 10.0)
    gap_res, geometry, _ = operating_point(pm, wl, args.gap if args.gap is not None else assembly.gap_nm)
    budget = metrics.loss_budget(pm, wl, args.membrane_loss)
    finesse = metrics.finesse_from_losses(budget)
    q_c = metrics.quality_factor(geometry.effective_length_um, wl, finesse)
    payload = {
        "meta": _provenance(args, inputs),
        "wavelength_nm": wl,
        "gap_nm": gap_res,
        "mode_geometry": vars(geometry),
        "loss_budget": budget.to_dict(),
        "finesse": finesse,
        "quality_factor": q_c,
    }
    out = _outdir(args) / "metrics.json"
    io.write_json(out, payload)
    print(f"gap {gap_res:.1f} nm (q={geometry.mode_order})  w0 {geometry.waist_um:.3f} um  "
          f"L_eff {geometry.effective_length_um:.3f} um  V_m {geometry.mode_volume_um3:.2f} um^3 "
          f"({geometry.mode_volume_lambda3:.2f} lambda^3)  "
          f"F {finesse:.0f}  Q {q_c:.3g}")
    print(f"wrote {out}")
    return 0


def cmd_dispersion(args) -> int:
    inputs: list = []
    assembly = _load_assembly(args, inputs)
    out = _outdir(args)
    window = (args.wl_min, args.wl_max)
    gaps = np.linspace(args.gap_min, args.gap_max, args.gap_steps)

    # find_resonances rejects a bad window before anything is written
    resonances = find_resonances(assembly, gaps, window)
    dmap = dispersion_map(assembly, (args.gap_min, args.gap_max), args.map_gap_steps, window, args.wl_steps)
    io.write_csv(out / "map.csv", ["gap_nm", "wavelength_nm", "transmission"], columns=dmap.columns())
    io.write_json(out / "resonances.json", {
        "meta": _provenance(args, inputs, seed=args.seed),
        "resonances": [p.to_dict() for p in resonances],
    })

    ok = True
    fits: dict = {}
    if args.data:
        pts = io.read_columns(_input(inputs, args.data), 2)
    else:
        pts = points_from_resonances(resonances)
        if args.noise > 0:
            rng = np.random.default_rng(args.seed)
            pts = pts + np.column_stack([np.zeros(len(pts)), rng.normal(0, args.noise, len(pts))])
    try:
        free = fit_dispersion(pts, assembly, sigma_wavelength_nm=max(args.noise, 0.01))
        fits["free"] = free.fit.to_dict()
        print(f"dispersion fit: t_d = {free.t_d_nm:.1f} +- {free.fit.sigmas['t_d_nm']:.1f} nm, "
              f"t_g2 = {free.t_g2_nm:.1f} +- {free.fit.sigmas['t_g2_nm']:.1f} nm, "
              f"offset = {free.gap_offset_nm:.1f} nm, chi2 = {free.chi2:.2f}")
        if args.no_second_gap:
            frozen = fit_dispersion(pts, assembly, fix_gap2_nm=0.0, sigma_wavelength_nm=max(args.noise, 0.01))
            fits["gap2_frozen_at_0"] = frozen.fit.to_dict()
            fits["chi2_ratio_frozen_over_free"] = frozen.chi2 / free.chi2
            print(f"gap2 frozen at 0: chi2 = {frozen.chi2:.2f} ({fits['chi2_ratio_frozen_over_free']:.1f}x the free fit)")
    except FitError as exc:
        fits["error"] = str(exc)
        ok = False
    io.write_json(out / "fit.json", {"meta": _provenance(args, inputs, seed=args.seed), "fits": fits})
    print(f"wrote {out / 'map.csv'}, {out / 'resonances.json'}, {out / 'fit.json'}")
    return 0 if ok else 1


def cmd_purcell(args) -> int:
    if args.fp is not None:
        beta = beta_collection(args.fp)
        print(f"F_p = {args.fp:g} -> beta = F_p/(1+F_p) = {100 * beta:.2f}%")
        return 0
    inputs: list = []
    assembly = _load_assembly(args, inputs)
    emitter = _load_emitter(args, inputs)
    if args.gap_max <= args.gap_min or args.points < 1:
        raise UsageError("empty gap list: need gap-max > gap-min and points >= 1")
    gaps = np.linspace(args.gap_min, args.gap_max, args.points)
    points = predict_lifetime_curve(assembly, gaps, emitter, args.tau0, args.eta, membrane_loss_ppm=args.membrane_loss)
    out = _outdir(args) / "purcell.csv"
    header = ["gap_nm", "q_gap", "l_eff_um", "w0_um", "v_m_um3", "q_c", "q_eff", "xi", "f_p", "tau_ns", "flag"]
    io.write_csv(out, header, ([p.to_row()[k] for k in header] for p in points))
    n_flagged = sum(1 for p in points if p.flag)
    for p in points:
        if p.flag:
            print(f"gap {p.gap_nm:9.1f} nm: FLAGGED ({p.flag})")
        else:
            print(f"gap {p.gap_nm:9.1f} nm  L_eff {p.l_eff_um:6.2f} um  xi {p.xi:.3f}  "
                  f"Q_eff {p.q_eff:7.1f}  F_p {p.f_p:.4f}  tau {p.tau_ns:.4f} ns")
    print(f"wrote {out}" + (f" ({n_flagged} flagged points)" if n_flagged else ""))
    return 0 if n_flagged == 0 else 1


def cmd_fit_spectrum(args) -> int:
    inputs: list = []
    cols = io.read_columns(_input(inputs, args.data), 2, 3)
    trace = SpectrumTrace(cols[:, 0], cols[:, 1], cols[:, 2] if cols.shape[1] == 3 else None)
    if args.model == "lorentz":
        result = fit_lorentzian(trace)
        extra = {}
    else:
        result = fit_double_lorentzian_equal_width(trace)
        extra = {"splitting_ghz": doublet_splitting_ghz(result)}
        print(f"splitting: {extra['splitting_ghz']:.1f} GHz"
              + ("  [DEGENERATE: peaks merged, splitting undefined]" if result.diagnostics.get("degenerate") else ""))
    payload = {"meta": _provenance(args, inputs), "fit": result.to_dict(), **extra}
    out = _outdir(args) / f"fit_spectrum_{args.model}.json"
    io.write_json(out, payload)
    print(json.dumps({k: round(v, 6) for k, v in result.params.items()}, indent=None))
    print(f"wrote {out}")
    return 0


def cmd_fit_decay(args) -> int:
    inputs: list = []
    cols = io.read_columns(_input(inputs, args.data), 2)
    trace = DecayTrace(cols[:, 0], cols[:, 1])
    payload: dict = {"meta": _provenance(args, inputs)}
    code = 0
    if args.model == "all":
        try:
            summary = lifetime_with_conservative_bounds(trace)
        except FitError as exc:
            io.write_json(_outdir(args) / "fit_decay_all.json",
                          {**payload, "error": str(exc), "model_errors": exc.diagnostics.get("model_errors", {})})
            print(f"all decay models failed: {exc.diagnostics.get('model_errors')}", file=sys.stderr)
            return 1
        payload["summary"] = summary.to_dict()
        code = 0 if not summary.errors else 1
        print(f"tau_best (kohlrausch) = {summary.tau_best_ns}  conservative range "
              f"[{summary.tau_min_ns:.4f}, {summary.tau_max_ns:.4f}] ns"
              + (f"  errors: {summary.errors}" if summary.errors else ""))
        out = _outdir(args) / "fit_decay_all.json"
    else:
        fitter = {"mono": fit_decay_mono, "kohlrausch": fit_decay_kohlrausch, "emg": fit_decay_emg}[args.model]
        result = fitter(trace)
        payload["fit"] = result.to_dict()
        print(f"tau = {result.params['tau_ns']:.4f} +- {result.sigmas['tau_ns']:.4f} ns")
        out = _outdir(args) / f"fit_decay_{args.model}.json"
    io.write_json(out, payload)
    print(f"wrote {out}")
    return code


def cmd_fit_tdep(args) -> int:
    inputs: list = []
    series = io.read_columns(_input(inputs, args.data), 2)
    result = fit_cubic_temperature(series)
    out = _outdir(args) / "fit_tdep.json"
    io.write_json(out, {"meta": _provenance(args, inputs), "fit": result.to_dict()})
    print(f"value(T->0) = {result.params['value_at_0']:.4f} +- {result.sigmas['value_at_0']:.4f}, "
          f"cubic coefficient = {result.params['cubic_coeff']:.3e}")
    print(f"wrote {out}")
    return 0


def cmd_fit_lifetime(args) -> int:
    inputs: list = []
    data_path = _input(inputs, args.data)
    assembly = _load_assembly(args, inputs)
    emitter = _load_emitter(args, inputs)
    data = io.read_columns(data_path, 3)
    l_range = (float(np.min(data[:, 0])), float(np.max(data[:, 0])))
    model = LifetimeModel(assembly, emitter, l_range, membrane_loss_ppm=args.membrane_loss)
    result = fit_lifetime_model(data, model)
    out = _outdir(args) / "fit_lifetime.json"
    io.write_json(out, {"meta": _provenance(args, inputs), "fit": result.to_dict()})
    print(f"tau0 = {result.params['tau0_ns']:.4f} +- {result.sigmas['tau0_ns']:.4f} ns, "
          f"eta_QE = {result.params['eta_qe']:.3f} +- {result.sigmas['eta_qe']:.3f}")
    print(f"wrote {out}")
    return 0


def cmd_analyze_scan(args) -> int:
    inputs: list = []
    # a contiguous copy of the signal column, so the columns read are freed
    trace = ScanTrace(io.read_columns(_input(inputs, args.data), 1, 2)[:, -1].copy())
    peaks = detect_scan_resonances(trace, prominence=args.prominence)
    payload: dict = {
        "meta": _provenance(args, inputs),
        "peaks": [vars(p) for p in peaks],
    }
    code = 0
    try:
        payload["finesse"] = finesse_from_scan(peaks)
        print(f"{len(peaks)} peaks ({sum(p.fundamental for p in peaks)} fundamental), "
              f"finesse = {payload['finesse']:.0f}")
    except ValueError as exc:
        payload["finesse_error"] = str(exc)
        print(f"finesse unavailable: {exc}", file=sys.stderr)
        code = 1
    out = _outdir(args) / "scan_analysis.json"
    io.write_json(out, payload)
    print(f"wrote {out}")
    return code


def _lock_trace_from_csv(path: str, args, state: str) -> LockTrace:
    # contiguous copies of the two columns, each freed on its own; the
    # columns read are freed before the trace is checked
    cols = io.read_columns(path, 2)
    time_s, transmission = cols[:, 0].copy(), cols[:, 1].copy()
    del cols
    return LockTrace(time_s, transmission, args.wavelength, args.finesse, args.setpoint, state)


def _analyze_lock_state(path: str, args, state: str) -> tuple[dict, NoiseSpectrum]:
    """One state's deviation statistics and noise spectrum.

    The trace is freed once the deviations are found, and the deviations
    when the spectrum is.  The spectrum is taken of the deviations less
    their mean, clipped samples set to 0, computed in place.
    """
    trace = _lock_trace_from_csv(path, args, state)
    rate_hz = trace.rate_hz
    dev = length_deviation(trace)
    summary = {"sigma_pm": dev.sigma_pm, "n_clipped": dev.n_clipped, "linewidth_pm": dev.linewidth_pm}
    delta = dev.delta_pm
    del trace, dev
    clipped = np.isnan(delta)
    delta -= np.nanmean(delta)
    delta[clipped] = 0.0
    spectrum = noise_spectrum(delta, rate_hz)
    summary["spectral_peaks"] = spectrum.peaks
    summary["asd_estimate"] = {
        "segment_samples": spectrum.segment_samples,
        "segments": spectrum.segments,
        "bin_hz": spectrum.bin_hz,
        "line_bin_hz": spectrum.line_bin_hz,
    }
    print(f"{state}: sigma = {summary['sigma_pm']:.1f} pm ({summary['n_clipped']} clipped), "
          f"lines at {[round(f, 1) for f, _ in spectrum.peaks][:5]} Hz")
    return summary, spectrum


def cmd_analyze_lock(args) -> int:
    inputs: list = []
    for p in (args.unlocked, args.locked):
        _input(inputs, p)
    # both states are analysed before anything is written, so a bad second
    # file leaves no partial output
    results, spectra = {}, {}
    for state, path in (("unlocked", args.unlocked), ("locked", args.locked)):
        results[state], spectra[state] = _analyze_lock_state(path, args, state)
    if results["unlocked"]["sigma_pm"] == 0.0:
        raise ValueError(f"{args.unlocked}: the unlocked record shows no length deviation, so the suppression is undefined")
    suppression = 1.0 - results["locked"]["sigma_pm"] / results["unlocked"]["sigma_pm"]
    results["suppression"] = suppression
    print(f"suppression: {100 * suppression:.1f}% of length fluctuations")
    out = _outdir(args)
    for state, spectrum in spectra.items():
        io.write_csv(out / f"asd_{state}.csv", ["freq_hz", "asd_pm_per_rthz"], columns=[spectrum.freq_hz, spectrum.asd])
    io.write_json(out / "lock_analysis.json", {
        "meta": _provenance(args, inputs),
        **results,
    })
    print(f"wrote {out / 'lock_analysis.json'}")
    return 0


def cmd_synth(args) -> int:
    out = _outdir(args)
    seed = args.seed
    if args.kind == "decay":
        tr = synth.synth_decay_trace(tau_ns=args.tau, sigma_irf_ns=args.sigma_irf, seed=seed)
        path = out / "decay.csv"
        io.write_csv(path, ["t_ns", "counts"], columns=[tr.t_ns, tr.counts])
    elif args.kind == "doublet":
        tr = synth.synth_doublet_spectrum(seed=seed)
        path = out / "doublet.csv"
        io.write_csv(path, ["wavelength_nm", "counts"], columns=[tr.x, tr.y])
    elif args.kind == "spectrum":
        tr = synth.synth_lorentzian_spectrum(seed=seed)
        path = out / "spectrum.csv"
        io.write_csv(path, ["wavelength_nm", "counts"], columns=[tr.x, tr.y])
    elif args.kind == "tdep":
        path = out / "tdep.csv"
        io.write_csv(path, ["temperature_k", "center_nm"], columns=synth.synth_temperature_series(seed=seed).T)
    elif args.kind == "scan":
        tr = synth.synth_scan_trace(seed=seed)
        path = out / "scan.csv"
        io.write_csv(path, ["sample", "transmission"], columns=[np.arange(tr.transmission.size), tr.transmission])
    elif args.kind == "lock":
        cfg = LockSynthConfig()
        unlocked, locked = synthesize_lock_traces(cfg, seed)
        for state, tr in (("unlocked", unlocked), ("locked", locked)):
            io.write_csv(out / f"lock_{state}.csv", ["time_s", "transmission"], columns=[tr.time_s, tr.transmission])
        print(f"wrote {out / 'lock_unlocked.csv'} and {out / 'lock_locked.csv'} "
              f"(wavelength {cfg.wavelength_nm} nm, finesse {cfg.finesse})")
        return 0
    elif args.kind == "assembly":
        path = out / "assembly.json"
        io.write_json(path, default_assembly_config())
    else:
        raise UsageError(f"unknown synth kind {args.kind}")
    print(f"wrote {path} (seed {seed})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="microcav",
        description="Fiber Fabry-Perot membrane-cavity simulation and spectroscopy analysis",
    )
    p.add_argument("--outdir", help="output directory (default: $MICROCAV_OUTDIR or .)")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("metrics", cmd_metrics, help="mode geometry, finesse and Q at one operating point")
    sp.add_argument("--assembly", help="assembly JSON config (default: built-in fixture)")
    sp.add_argument("--wavelength", type=float, default=constants.SIV_ZPL_CD_NM)
    sp.add_argument("--gap", type=float, help="target gap in nm (default: config value)")
    sp.add_argument("--membrane-loss", type=float, default=constants.MEMBRANE_EXCESS_LOSS_PPM)

    sp = add("dispersion", cmd_dispersion, help="transmission map, resonances and the membrane dispersion fit")
    sp.add_argument("--assembly")
    sp.add_argument("--gap-min", type=float, default=12800.0)
    sp.add_argument("--gap-max", type=float, default=14400.0)
    sp.add_argument("--gap-steps", type=int, default=9)
    sp.add_argument("--map-gap-steps", type=int, default=60)
    sp.add_argument("--wl-min", type=float, default=715.0)
    sp.add_argument("--wl-max", type=float, default=755.0)
    sp.add_argument("--wl-steps", type=int, default=600)
    sp.add_argument("--noise", type=float, default=0.05, help="wavelength noise added to self-generated points (nm)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--data", help="measured CSV (gap_proxy_nm, wavelength_nm); replaces self-generated points")
    sp.add_argument("--no-second-gap", action="store_true", help="also fit with the second gap frozen at 0")

    sp = add("purcell", cmd_purcell, help="lifetime-vs-length table from the full pipeline")
    sp.add_argument("--assembly")
    sp.add_argument("--emitter")
    # default sweep starts at the shortest documented operating point,
    # L_eff ~ 10 um
    sp.add_argument("--gap-min", type=float, default=8900.0)
    sp.add_argument("--gap-max", type=float, default=26000.0)
    sp.add_argument("--points", type=int, default=10)
    sp.add_argument("--tau0", type=float, default=1.36)
    sp.add_argument("--eta", type=float, default=0.51)
    sp.add_argument("--membrane-loss", type=float, default=constants.MEMBRANE_EXCESS_LOSS_PPM)
    sp.add_argument("--fp", type=float, help="just print the collection efficiency for this Purcell factor")

    sp = add("fit-spectrum", cmd_fit_spectrum, help="Lorentzian or equal-width doublet fit of a spectrum CSV")
    sp.add_argument("--model", choices=["lorentz", "doublet"], required=True)
    sp.add_argument("--data", required=True)

    sp = add("fit-decay", cmd_fit_decay, help="decay fit(s) of a TCSPC histogram CSV")
    sp.add_argument("--model", choices=["mono", "kohlrausch", "emg", "all"], required=True)
    sp.add_argument("--data", required=True)

    sp = add("fit-tdep", cmd_fit_tdep, help="cubic temperature-law fit of a (T, value) CSV")
    sp.add_argument("--data", required=True)

    sp = add("fit-lifetime", cmd_fit_lifetime, help="(tau0, eta_QE) fit of lifetime-vs-length data")
    sp.add_argument("--data", required=True, help="CSV rows: l_eff_um, tau_ns, sigma_ns")
    sp.add_argument("--assembly")
    sp.add_argument("--emitter")
    sp.add_argument("--membrane-loss", type=float, default=constants.MEMBRANE_EXCESS_LOSS_PPM)

    sp = add("analyze-scan", cmd_analyze_scan, help="peaks and finesse of a cavity length scan")
    sp.add_argument("--data", required=True)
    sp.add_argument("--prominence", type=float, default=0.05)

    sp = add("analyze-lock", cmd_analyze_lock, help="length-deviation statistics and noise spectra of a lock pair")
    sp.add_argument("--unlocked", required=True)
    sp.add_argument("--locked", required=True)
    sp.add_argument("--wavelength", type=float, default=780.0)
    sp.add_argument("--finesse", type=float, default=300.0)
    sp.add_argument("--setpoint", type=float, default=0.5)

    sp = add("synth", cmd_synth, help="write synthetic fixture data")
    sp.add_argument("kind", choices=["decay", "doublet", "spectrum", "tdep", "scan", "lock", "assembly"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tau", type=float, default=1.36)
    sp.add_argument("--sigma-irf", type=float, default=0.0)

    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    try:
        return args.fn(args)
    except UsageError:
        raise
    except FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, io.CsvFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
