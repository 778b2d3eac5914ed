"""Purcell enhancement: emitter-cavity coupling, lifetime curves and their fit.

The enhancement chain for an emitter ensemble in the membrane:

* xi, the spatial/directional overlap of the dipole with the standing
  wave at the assembly's implantation depth, read from the same per-layer
  field solution as L_eff, one ``StandingWave`` for every gap of a sweep;
* Q_eff, the harmonic combination of the ensemble and cavity quality
  factors;
* F_p = xi^2 * 3 (lambda/n)^3 Q_eff / (4 pi^2 V_m);
* tau_0 / tau_c = 1 + eta_QE * zeta * F_p, the observable lifetime
  reduction (only the zero-phonon fraction zeta of the radiative decay is
  cavity-enhanced, and only the radiative fraction eta_QE of the total
  decay responds).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import constants, metrics
from .fitting import FitResult, lm_fit
# effective_length stays bound here, where the benchmark's tracer and its self-test wrap it
from .resonance import NoResonanceError, PhaseModel, StandingWave, effective_length  # noqa: F401
from .stack import CavityAssembly


@dataclass(frozen=True)
class EmitterParams:
    """SiV- ensemble description used by the Purcell pipeline."""

    zpl_wavelength_nm: float = constants.SIV_ZPL_CD_NM
    host_index: float = constants.N_DIAMOND
    debye_waller: float = constants.DEBYE_WALLER_DEFAULT
    emitter_quality: float | None = None
    ensemble_linewidth_ghz: float = constants.SIV_ENSEMBLE_LINEWIDTH_GHZ
    dipole_angle_rad: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.debye_waller <= 1.0:
            raise ValueError("Debye-Waller factor must lie in (0, 1]")
        if self.emitter_quality is not None and self.emitter_quality <= 0:
            raise ValueError("emitter quality factor must be > 0")

    @property
    def q_em(self) -> float:
        """Ensemble quality factor, nu / delta-nu."""
        if self.emitter_quality is not None:
            return self.emitter_quality
        return constants.wavelength_nm_to_ghz(self.zpl_wavelength_nm) / self.ensemble_linewidth_ghz


def emitter_from_config(cfg: dict) -> EmitterParams:
    """EmitterParams from a parsed JSON config document.

    Keys (all optional): zpl_wavelength_nm, host_index, debye_waller,
    emitter_quality, ensemble_linewidth_ghz, dipole_angle_rad.  The implant
    depth belongs to the assembly, whose ``implant_depth_nm`` the emitter
    config may not repeat.
    """
    if "implant_depth_nm" in cfg:
        raise ValueError("emitter config: implant_depth_nm is set in the assembly config (its 'implant_depth_nm' key)")
    allowed = {"zpl_wavelength_nm", "host_index", "debye_waller", "emitter_quality", "ensemble_linewidth_ghz",
               "dipole_angle_rad"}
    unknown = set(cfg) - allowed
    if unknown:
        raise ValueError(f"emitter config: unknown keys {sorted(unknown)}")
    return EmitterParams(**{k: v for k, v in cfg.items()})


def load_emitter(path: str | Path) -> EmitterParams:
    with open(path) as fh:
        return emitter_from_config(json.load(fh))


def xi_overlap(wave: StandingWave, implant_depth_nm: float, dipole_angle_rad: float = 0.0) -> np.ndarray:
    """Field overlap |E(z_em)| / max |E| in the membrane, times |cos(angle)|, per gap of ``wave``.

    Exact on the per-layer solution: |a e^{ikz} + b e^{-ikz}|^2 at the
    implant depth over its peak in the membrane layer, which ``wave`` locates
    by position.  ``implant_depth_nm`` is measured from the membrane's
    fiber-facing surface.
    """
    j = wave.i_membrane
    if j is None:
        raise ValueError("the emitters sit in the membrane, but the assembly has no membrane")
    thickness = wave.assembly.membrane.thickness_nm
    if not 0.0 <= implant_depth_nm <= thickness:
        raise ValueError(f"implant depth {implant_depth_nm} nm outside the membrane (0..{thickness:.1f} nm)")
    return np.sqrt(wave.intensity(j, implant_depth_nm) / wave.peak_intensity(j)) * abs(np.cos(dipole_angle_rad))


def effective_q(q_em: float, q_c: float) -> float:
    """Q_eff = (1/Q_em + 1/Q_c)^-1."""
    if q_em <= 0 or q_c <= 0:
        raise ValueError("quality factors must be > 0")
    return 1.0 / (1.0 / q_em + 1.0 / q_c)


def purcell_factor(xi: float, wavelength_nm: float, n: float, q_eff: float, v_m_um3: float) -> float:
    """F_p = xi^2 * 3 (lambda/n)^3 Q_eff / (4 pi^2 V_m)."""
    if min(wavelength_nm, n, q_eff, v_m_um3) <= 0:
        raise ValueError("inputs must be > 0")
    lam_um = wavelength_nm * 1e-3
    return float(xi**2 * 3.0 * (lam_um / n) ** 3 * q_eff / (4.0 * np.pi**2 * v_m_um3))


def lifetime_ratio(f_p: float, eta_qe: float, zeta: float) -> float:
    """tau_0 / tau_c = 1 + eta_QE * zeta * F_p."""
    if not 0.0 <= eta_qe <= 1.0:
        raise ValueError("quantum efficiency must lie in [0, 1]")
    if not 0.0 < zeta <= 1.0:
        raise ValueError("Debye-Waller factor must lie in (0, 1]")
    return 1.0 + eta_qe * zeta * f_p


def beta_collection(f_p: float) -> float:
    """Fraction of emission funneled into the cavity mode, F_p/(1+F_p)."""
    if f_p < 0:
        raise ValueError("F_p must be >= 0")
    return f_p / (1.0 + f_p)


@dataclass(frozen=True)
class LifetimePoint:
    """One operating point of the lifetime-vs-length curve."""

    gap_nm: float
    q_gap: int
    l_eff_um: float
    waist_um: float
    v_m_um3: float
    q_c: float
    q_eff: float
    xi: float
    f_p: float
    tau_ns: float
    flag: str = ""  # non-empty when the point could not be computed

    def to_row(self) -> dict:
        return {
            "gap_nm": self.gap_nm,
            "q_gap": self.q_gap,
            "l_eff_um": self.l_eff_um,
            "w0_um": self.waist_um,
            "v_m_um3": self.v_m_um3,
            "q_c": self.q_c,
            "q_eff": self.q_eff,
            "xi": self.xi,
            "f_p": self.f_p,
            "tau_ns": self.tau_ns,
            "flag": self.flag,
        }


def _retuned(pm: PhaseModel, wavelength_nm: float, target_gap_nm: float) -> tuple[float, int, float]:
    """(gap, q, waist) of the resonance at ``wavelength_nm`` whose gap is nearest ``target_gap_nm``."""
    gap, q = pm.retune_gap(wavelength_nm, target_gap_nm)
    cav = pm.assembly.with_gap(gap)
    return gap, q, metrics.mode_waist(cav.geometric_length_um(), cav.r_c_um, wavelength_nm)


def operating_point(pm: PhaseModel, wavelength_nm: float,
                    target_gap_nm: float) -> tuple[float, metrics.ModeGeometry, StandingWave]:
    """Resonant gap nearest ``target_gap_nm``, the mode geometry there and its standing wave.

    Retunes the gap of ``pm.assembly`` so that ``wavelength_nm`` is on
    resonance, solves the field there, and takes L_eff from it, then the
    waist and V_m.  The wave serves the emitter overlap.
    """
    gap, q, w0 = _retuned(pm, wavelength_nm, target_gap_nm)
    wave = StandingWave(pm.assembly, wavelength_nm, gap)
    l_eff = float(wave.effective_length_um()[0])
    v_m = metrics.mode_volume(w0, l_eff)
    return gap, metrics.ModeGeometry(w0, v_m, metrics.mode_volume_lambda3(v_m, wavelength_nm), l_eff, q), wave


def _lifetime_point(emitter: EmitterParams, retuned: tuple[float, int, float], l_eff: float, xi: float,
                    finesse: float, tau0_ns: float, eta_qe: float) -> LifetimePoint:
    wl = emitter.zpl_wavelength_nm
    gap, q, w0 = retuned
    v_m = metrics.mode_volume(w0, l_eff)
    q_c = metrics.quality_factor(l_eff, wl, finesse)
    q_eff = effective_q(emitter.q_em, q_c)
    f_p = purcell_factor(xi, wl, emitter.host_index, q_eff, v_m)
    tau = tau0_ns / lifetime_ratio(f_p, eta_qe, emitter.debye_waller)
    return LifetimePoint(gap, q, l_eff, w0, v_m, q_c, q_eff, xi, f_p, tau)


def _or_error(fn, *args):
    """fn(*args), or the error that flags its operating point."""
    try:
        return fn(*args)
    except (NoResonanceError, metrics.UnstableResonatorError, ValueError) as exc:
        return exc


def predict_lifetime_curve(
    assembly: CavityAssembly,
    gaps_nm,
    emitter: EmitterParams,
    tau0_ns: float,
    eta_qe: float,
    membrane_loss_ppm: float = constants.MEMBRANE_EXCESS_LOSS_PPM,
) -> list[LifetimePoint]:
    """Lifetime vs cavity length, retuning the gap to resonance per point.

    For each requested gap the cavity is retuned to the nearest gap that
    puts the emitter transition on resonance; points that cannot be
    computed (no resonance, unstable geometry) come back flagged instead
    of being dropped.  One standing wave serves every retuned gap.  The
    emitters sit in the membrane, at the assembly's ``implant_depth_nm``, so
    an assembly without one is rejected.
    """
    if assembly.membrane is None:
        raise ValueError("the emitters sit in the membrane, but the assembly has no membrane (membrane: null)")
    wl = emitter.zpl_wavelength_nm
    pm = PhaseModel(assembly, wl - 10.0, wl + 10.0)
    finesse = metrics.finesse_from_losses(metrics.loss_budget(pm, wl, membrane_loss_ppm))
    targets = np.atleast_1d(np.asarray(gaps_nm, dtype=float)).tolist()
    retuned = [_or_error(_retuned, pm, wl, g) for g in targets]
    wave = StandingWave(assembly, wl, [r[0] for r in retuned if not isinstance(r, Exception)])
    fields = zip(wave.effective_length_um().tolist(),
                 xi_overlap(wave, assembly.implant_depth_nm, emitter.dipole_angle_rad).tolist())
    points = []
    for g, r in zip(targets, retuned):
        if not isinstance(r, Exception):
            r = _or_error(_lifetime_point, emitter, r, *next(fields), finesse, tau0_ns, eta_qe)
        points.append(r if isinstance(r, LifetimePoint) else LifetimePoint(g, -1, *[np.nan] * 8, flag=str(r)))
    return points


class LifetimeModel:
    """F_p(L_eff) interpolator over a gap sweep, for lifetime fitting.

    The Purcell factor at fixed transition wavelength depends on the
    geometry only; sweeping the gap once tabulates (L_eff, F_p) and the
    fit then varies (tau_0, eta_QE) on top of the interpolated curve.
    """

    def __init__(
        self,
        assembly: CavityAssembly,
        emitter: EmitterParams,
        l_eff_range_um: tuple[float, float],
        membrane_loss_ppm: float = constants.MEMBRANE_EXCESS_LOSS_PPM,
        n_points: int = 25,
    ):
        self.emitter = emitter
        lo, hi = l_eff_range_um

        def sweep(gap_nm):
            """(l_eff_um, f_p, gap_nm) rows sorted by L_eff, bracketing the range by gap_nm(L_eff)."""
            gaps = np.linspace(max(200.0, gap_nm(lo - 5.0)), gap_nm(hi + 6.0), n_points)
            pts = predict_lifetime_curve(assembly, gaps, emitter, tau0_ns=1.0, eta_qe=0.0, membrane_loss_ppm=membrane_loss_ppm)
            good = [(p.l_eff_um, p.f_p, p.gap_nm) for p in pts if not p.flag]
            if len(good) < 3:
                raise NoResonanceError("gap sweep produced too few valid points for interpolation")
            return np.asarray(sorted(good))

        # generously bracket the requested L_eff range, taking L_eff for the gap
        table = sweep(lambda l_um: l_um * 1e3)
        if lo < table[0, 0] or hi > table[-1, 0]:
            # L_eff is far from the gap (a membrane on the plane mirror): sweep
            # again along the gap(L_eff) line through the first sweep's ends
            (l0, _, g0), (l1, _, g1) = table[0], table[-1]
            table = sweep(lambda l_um: g0 + (g1 - g0) / (l1 - l0) * (l_um - l0))
        self._l, self._f = table[:, 0], table[:, 1]
        if lo < self._l[0] or hi > self._l[-1]:
            raise ValueError(
                f"requested L_eff range [{lo}, {hi}] um outside tabulated [{self._l[0]:.2f}, {self._l[-1]:.2f}] um"
            )

    def f_p(self, l_eff_um):
        return np.interp(l_eff_um, self._l, self._f)

    def tau(self, l_eff_um, tau0_ns: float, eta_qe: float):
        fp = self.f_p(l_eff_um)
        return tau0_ns / (1.0 + eta_qe * self.emitter.debye_waller * fp)


# eta_QE where the lifetime fit starts
_ETA_START = 0.5


def fit_lifetime_model(data, model: LifetimeModel, fix_eta: float | None = None) -> FitResult:
    """Weighted fit of (tau_0, eta_QE) to lifetime-vs-length data.

    ``data`` rows are (l_eff_um, tau_ns, sigma_ns).  Requires at least 3
    points spanning a factor >= 2 in effective length.  The fit starts at
    the longest measured lifetime and ``_ETA_START``.  With ``fix_eta`` the
    model reduces to a single-parameter fit of tau_0.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("data must be rows of (l_eff_um, tau_ns, sigma_ns)")
    if arr.shape[0] < 3:
        raise ValueError("need at least 3 lifetime points")
    l_eff, tau, sig = arr.T
    if np.max(l_eff) / np.min(l_eff) < 2.0:
        raise ValueError("lifetime data must span a factor >= 2 in effective length")
    tau0_start = float(np.max(tau))

    zeta = model.emitter.debye_waller
    fp = model.f_p(l_eff)

    if fix_eta is not None:

        def f(x, tau0):
            return tau0 / (1.0 + fix_eta * zeta * fp)

        def jac(x, tau0):
            return (1.0 / (1.0 + fix_eta * zeta * fp))[:, None]

        return lm_fit(f, l_eff, tau, [tau0_start], sigma=sig, bounds=([0.0], [np.inf]),
                      jac=jac, names=["tau0_ns"], model_id="lifetime-vs-length(eta fixed)")

    def f(x, tau0, eta):
        return tau0 / (1.0 + eta * zeta * fp)

    def jac(x, tau0, eta):
        denom = 1.0 + eta * zeta * fp
        return np.column_stack([1.0 / denom, -tau0 * zeta * fp / denom**2])

    return lm_fit(
        f,
        l_eff,
        tau,
        [tau0_start, _ETA_START],
        sigma=sig,
        bounds=([0.0, 0.0], [np.inf, 1.0]),
        jac=jac,
        names=["tau0_ns", "eta_qe"],
        model_id="lifetime-vs-length",
    )
