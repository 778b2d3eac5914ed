"""Purcell enhancement: emitter-cavity coupling, lifetime curves and their fit.

The enhancement chain for an emitter ensemble in the membrane:

* xi, the spatial/directional overlap of the dipole with the standing
  wave, from the intracavity field profile at the implantation depth;
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
from .resonance import NoResonanceError, PhaseModel, effective_length
from .stack import CavityAssembly, flatten_assembly, split_at_gap
from .tmm import FieldProfile, evaluate_field


@dataclass(frozen=True)
class EmitterParams:
    """SiV- ensemble description used by the Purcell pipeline."""

    zpl_wavelength_nm: float = constants.SIV_ZPL_CD_NM
    host_index: float = constants.N_DIAMOND
    debye_waller: float = constants.DEBYE_WALLER_DEFAULT
    emitter_quality: float | None = None
    ensemble_linewidth_ghz: float = constants.SIV_ENSEMBLE_LINEWIDTH_GHZ
    implant_depth_nm: float = 75.0
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
    emitter_quality, ensemble_linewidth_ghz, implant_depth_nm,
    dipole_angle_rad.
    """
    allowed = {
        "zpl_wavelength_nm",
        "host_index",
        "debye_waller",
        "emitter_quality",
        "ensemble_linewidth_ghz",
        "implant_depth_nm",
        "dipole_angle_rad",
    }
    unknown = set(cfg) - allowed
    if unknown:
        raise ValueError(f"emitter config: unknown keys {sorted(unknown)}")
    return EmitterParams(**{k: v for k, v in cfg.items()})


def load_emitter(path: str | Path) -> EmitterParams:
    with open(path) as fh:
        return emitter_from_config(json.load(fh))


def xi_overlap(profile: FieldProfile, implant_depth_nm: float, dipole_angle_rad: float = 0.0, host: str = "diamond") -> float:
    """Field overlap |E(z_em)| / max |E| in the host layer, times |cos(angle)|.

    ``implant_depth_nm`` is measured from the host layer's entry-side
    surface (the one facing the fiber).  Use a densely sampled profile;
    the overlap interpolates |E|^2 between profile samples.
    """
    z0, z1 = profile.segment(host)
    if not 0.0 <= implant_depth_nm <= (z1 - z0):
        raise ValueError(
            f"implant depth {implant_depth_nm} nm outside the {host} layer (0..{z1 - z0:.1f} nm)"
        )
    sel = (profile.z_nm >= z0) & (profile.z_nm <= z1)
    if np.count_nonzero(sel) < 8:
        raise ValueError("profile sampling too coarse inside the host layer")
    z = profile.z_nm[sel] - z0
    intensity = np.abs(profile.E[sel]) ** 2
    e2 = np.interp(implant_depth_nm, z, intensity)
    return float(np.sqrt(e2 / np.max(intensity)) * abs(np.cos(dipole_angle_rad)))


def _membrane_xi(assembly: CavityAssembly, emitter: EmitterParams, samples_per_layer: int = 600) -> float:
    """xi_overlap on the membrane's samples of field_profile(...), found by layer index, not material name."""
    stack, j = flatten_assembly(assembly), split_at_gap(assembly)[3]
    (z0, z1), layer, wl = stack.boundaries_nm()[j:j + 2], stack.layers[j], emitter.zpl_wavelength_nm
    z = np.append(z0 + np.linspace(0.0, layer.thickness_nm, samples_per_layer, endpoint=False), z1)
    E = evaluate_field(stack, wl, z)
    membrane = FieldProfile(z, E / np.max(np.abs(E)), np.full(z.shape, layer.material.n),
                            ((z0, z1, layer.material.name),), wl)
    return xi_overlap(membrane, emitter.implant_depth_nm, emitter.dipole_angle_rad, host=layer.material.name)


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


def operating_point(pm: PhaseModel, wavelength_nm: float, target_gap_nm: float) -> tuple[float, metrics.ModeGeometry]:
    """Resonant gap nearest ``target_gap_nm`` and the mode geometry there.

    Retunes the gap of ``pm.assembly`` so that ``wavelength_nm`` is on
    resonance, then takes L_eff, the waist and V_m at that gap.
    """
    gap, q = pm.retune_gap(wavelength_nm, target_gap_nm)
    cav = pm.assembly.with_gap(gap)
    l_eff = effective_length(cav, wavelength_nm, pm=pm)
    w0 = metrics.mode_waist(cav.geometric_length_um(), cav.r_c_um, wavelength_nm)
    v_m = metrics.mode_volume(w0, l_eff)
    return gap, metrics.ModeGeometry(w0, v_m, metrics.mode_volume_lambda3(v_m, wavelength_nm), l_eff, q)


def _pipeline_point(
    pm: PhaseModel,
    emitter: EmitterParams,
    gap_nm: float,
    finesse: float,
    tau0_ns: float,
    eta_qe: float,
    samples_per_layer: int = 600,
) -> LifetimePoint:
    wl = emitter.zpl_wavelength_nm
    try:
        gap, mode = operating_point(pm, wl, gap_nm)
        l_eff, v_m = mode.effective_length_um, mode.mode_volume_um3
        q_c = metrics.quality_factor(l_eff, wl, finesse)
        q_eff = effective_q(emitter.q_em, q_c)
        xi = _membrane_xi(pm.assembly.with_gap(gap), emitter, samples_per_layer)
        f_p = purcell_factor(xi, wl, emitter.host_index, q_eff, v_m)
        tau = tau0_ns / lifetime_ratio(f_p, eta_qe, emitter.debye_waller)
        return LifetimePoint(gap, mode.mode_order, l_eff, mode.waist_um, v_m, q_c, q_eff, xi, f_p, tau)
    except (NoResonanceError, metrics.UnstableResonatorError, ValueError) as exc:
        return LifetimePoint(gap_nm, -1, np.nan, np.nan, np.nan, np.nan, np.nan, np.nan, np.nan, np.nan, flag=str(exc))


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
    of being dropped.  The emitters sit in the membrane, so an assembly
    without one is rejected.
    """
    if assembly.membrane is None:
        raise ValueError("the emitters sit in the membrane, but the assembly has no membrane (membrane: null)")
    wl = emitter.zpl_wavelength_nm
    pm = PhaseModel(assembly, wl - 10.0, wl + 10.0)
    finesse = metrics.finesse_from_losses(metrics.loss_budget(assembly, wl, membrane_loss_ppm))
    return [
        _pipeline_point(pm, emitter, float(g), finesse, tau0_ns, eta_qe)
        for g in np.atleast_1d(np.asarray(gaps_nm, dtype=float))
    ]


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
        # generously bracket the requested L_eff range with a gap sweep
        gaps = np.linspace(max(200.0, (lo - 5.0) * 1e3), (hi + 6.0) * 1e3, n_points)
        pts = predict_lifetime_curve(assembly, gaps, emitter, tau0_ns=1.0, eta_qe=0.0, membrane_loss_ppm=membrane_loss_ppm)
        good = [(p.l_eff_um, p.f_p) for p in pts if not p.flag]
        if len(good) < 3:
            raise NoResonanceError("gap sweep produced too few valid points for interpolation")
        arr = np.asarray(sorted(good))
        self._l, self._f = arr[:, 0], arr[:, 1]
        if lo < self._l[0] or hi > self._l[-1]:
            raise ValueError(
                f"requested L_eff range [{lo}, {hi}] um outside tabulated [{self._l[0]:.2f}, {self._l[-1]:.2f}] um"
            )

    def f_p(self, l_eff_um):
        return np.interp(l_eff_um, self._l, self._f)

    def tau(self, l_eff_um, tau0_ns: float, eta_qe: float):
        fp = self.f_p(l_eff_um)
        return tau0_ns / (1.0 + eta_qe * self.emitter.debye_waller * fp)


def fit_lifetime_model(
    data,
    model: LifetimeModel,
    tau0_init_ns: float | None = None,
    eta_init: float = 0.5,
    fix_eta: float | None = None,
) -> FitResult:
    """Weighted fit of (tau_0, eta_QE) to lifetime-vs-length data.

    ``data`` rows are (l_eff_um, tau_ns, sigma_ns).  Requires at least 3
    points spanning a factor >= 2 in effective length.  With ``fix_eta``
    the model reduces to a single-parameter fit of tau_0.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError("data must be rows of (l_eff_um, tau_ns, sigma_ns)")
    if arr.shape[0] < 3:
        raise ValueError("need at least 3 lifetime points")
    l_eff, tau, sig = arr.T
    if np.max(l_eff) / np.min(l_eff) < 2.0:
        raise ValueError("lifetime data must span a factor >= 2 in effective length")
    if tau0_init_ns is None:
        tau0_init_ns = float(np.max(tau))

    zeta = model.emitter.debye_waller
    fp = model.f_p(l_eff)

    if fix_eta is not None:

        def f(x, tau0):
            return tau0 / (1.0 + fix_eta * zeta * fp)

        def jac(x, tau0):
            return (1.0 / (1.0 + fix_eta * zeta * fp))[:, None]

        return lm_fit(f, l_eff, tau, [tau0_init_ns], sigma=sig, bounds=([0.0], [np.inf]),
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
        [tau0_init_ns, eta_init],
        sigma=sig,
        bounds=([0.0, 0.0], [np.inf, 1.0]),
        jac=jac,
        names=["tau0_ns", "eta_qe"],
        model_id="lifetime-vs-length",
    )
