"""Membrane thickness and parasitic gap from measured resonance dispersion.

The measured input is a set of (gap proxy, resonance wavelength) points.
The gap axis of a length scan is a positioner readout, not an absolute
distance, so the fit carries a constant gap offset as a nuisance
parameter alongside the membrane thickness t_d and the second gap t_g2.

The fit reads the cavity at the data wavelengths only, from one
``PhaseModel`` of the template: its one TMM sweep of the two coatings serves
every trial membrane thickness and second gap, which are composed in front
of the plane coating in closed form.  Its round-trip phase
Phi(lambda; t_d, t_g2) is smooth in all three (van Dam et al., NJP 20,
115004 (2018)).

An anchor scan scores a coarse grid of (t_d, t_g2, offset) nodes by the
wrapped phase miss of all points at once and starts from the best; each
point is assigned a mode order q from the round-trip phase there, and the
orders stay fixed.  Every residual evaluation then takes Newton steps on
Phi from the measured wavelengths (``PhaseModel.newton``).  The Jacobian
is analytic, the implicit slope d lambda / dp = -(dPhi/dp) / (dPhi/dlambda),
and the parameters are adjusted by damped least squares.  A fit this
nonlinear can land on mode orders that are all off by one, so when the
reduced residual stays far above the data noise the fit is retried with all
mode orders shifted by +-1 and the best result wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitting import FitError, FitResult, lm_fit
from .resonance import PhaseModel, ResonancePoint
from .stack import CavityAssembly

# the phase model covers the measured wavelengths plus this margin on each side
_WINDOW_MARGIN_NM = 8.0
# A root carries about one ulp of lambda (1e-13 nm at 737 nm), which moves a
# cost of order 1 at 0.05 nm by about 1e-12 of itself; the damped iteration
# treats cost changes below 1e-10 of it as noise, so rounding does not
# decide how long it runs
_COST_NOISE = 1e-10


@dataclass
class DispersionFit:
    """Fit record plus the per-point bookkeeping of a dispersion fit."""

    fit: FitResult
    q_assign: np.ndarray
    residuals_nm: np.ndarray

    @property
    def t_d_nm(self) -> float:
        return self.fit.params["t_d_nm"]

    @property
    def t_g2_nm(self) -> float:
        return self.fit.params["t_g2_nm"]

    @property
    def gap_offset_nm(self) -> float:
        return self.fit.params["gap_offset_nm"]

    @property
    def chi2(self) -> float:
        return self.fit.chi2


def points_from_resonances(points: list[ResonancePoint]) -> np.ndarray:
    """(gap, wavelength) array from ResonancePoint records."""
    return np.array([[p.gap_nm, p.wavelength_nm] for p in points])


def fit_dispersion(
    measured,
    template: CavityAssembly,
    initial: dict | None = None,
    fix_gap2_nm: float | None = None,
    sigma_wavelength_nm: float = 0.05,
) -> DispersionFit:
    """Fit (t_d, t_g2, gap offset) to measured resonance points.

    Parameters
    ----------
    measured : array_like
        Rows of (gap_proxy_nm, wavelength_nm); at least 4 points spanning
        at least 2 mode orders.
    template : CavityAssembly
        Fixed mirror model and membrane material; thickness and second gap
        are replaced by the fit parameters.
    initial : dict, optional
        ``t_d_nm``, ``t_g2_nm``, ``gap_offset_nm`` starting values
        (defaults: template values and zero offset).
    fix_gap2_nm : float, optional
        Hold the second gap at this value by equal bounds (e.g. 0 to
        reproduce the no-parasitic-gap comparison); the result reports it
        with sigma 0 and lists it in ``diagnostics["fixed"]``.
    sigma_wavelength_nm : float
        Wavelength uncertainty of the points, for chi^2 scaling.
    """
    pts = np.asarray(measured, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("measured must be rows of (gap_nm, wavelength_nm)")
    if pts.shape[0] < 4:
        raise ValueError("need at least 4 resonance points")
    gaps, wls = pts[:, 0], pts[:, 1]

    init = {"t_d_nm": template.membrane_thickness_nm, "t_g2_nm": template.gap2_nm, "gap_offset_nm": 0.0}
    if initial:
        init.update(initial)
    if fix_gap2_nm is not None:
        init["t_g2_nm"] = fix_gap2_nm

    # the one TMM build of the fit: every anchor node and trial point reads
    # its coatings and composes the membrane and second gap in closed form
    if template.membrane is None:
        raise ValueError("the assembly has no membrane to set t_d and t_g2 of")
    pm = PhaseModel(template, wls.min() - _WINDOW_MARGIN_NM, wls.max() + _WINDOW_MARGIN_NM)

    # Anchor scan: mode-order assignment by phase rounding only works when
    # the model phase is within ~pi of the truth at every point, which an
    # offset guess alone rarely guarantees.  A coarse grid over the
    # parameters, scored by the wrapped phase miss of the data, lands close
    # enough to assign orders consistently and to start the fit.
    lam_mid = float(np.mean(wls))
    t_d0, t_g20, off0 = init["t_d_nm"], init["t_g2_nm"], init["gap_offset_nm"]
    # the t_d nodes stay inside the fit's 1 nm lower bound
    t_d_grid = sorted({max(t_d0 + step, 1.0) for step in (-20.0, 0.0, 20.0)})
    if fix_gap2_nm is None:
        t_g2_grid = sorted({max(t_g20, 0.0), 0.0, 100.0, 200.0, 300.0, 400.0})
    else:
        t_g2_grid = [fix_gap2_nm]
    nodes = np.array([(t_d, t_g2) for t_d in t_d_grid for t_g2 in t_g2_grid])
    offsets = off0 + np.linspace(-lam_mid / 4.0, lam_mid / 4.0, 41)
    phi0 = 4.0 * np.pi * gaps / wls + pm.phase(wls, nodes[:, :1], nodes[:, 1:])[0]
    # (nodes, offsets, points); argmin takes the first minimum in node-major order
    miss = (phi0[:, None, :] + 4.0 * np.pi * offsets[:, None] / wls) / (2.0 * np.pi)
    score = np.mean((miss - np.round(miss)) ** 2, axis=-1)
    node, k = np.unravel_index(np.argmin(score), score.shape)
    (t_d0, t_g20), off0 = nodes[node], offsets[k]

    # orders counted on the model's phase at the start, which the fit keeps; the
    # mode-order convention's labels are these plus turns
    q0 = np.round((4.0 * np.pi * (gaps + off0) / wls + pm.phase(wls, t_d0, t_g20)[0]) / (2.0 * np.pi) - 1.0)
    if np.all(q0 == q0[0]):
        raise FitError("degenerate dispersion data: all points share one mode order")
    turns = pm.anchor_turns(t_d0, t_g20)

    g2_lo, g2_hi = (0.0, np.inf) if fix_gap2_nm is None else (fix_gap2_nm,) * 2

    def run(q: np.ndarray) -> DispersionFit:
        last = {}

        def model(x, t_d, t_g2, off):
            # a trial step may have no root near the data; its wavelengths stay on the model's grid
            wl = pm.newton(q, gaps + off, wls, pm.wl[0], pm.wl[-1], t_d_nm=t_d, t_g2_nm=t_g2)
            last.update(params=(t_d, t_g2, off), wl=wl)
            return wl

        def jac(x, t_d, t_g2, off):
            wl = last["wl"] if last.get("params") == (t_d, t_g2, off) else model(x, t_d, t_g2, off)
            _, dphi, dphi_dtd, dphi_dtg2, _, _ = pm.phase(wl, t_d, t_g2)
            dphi_dwl = dphi - 4.0 * np.pi * (gaps + off) / wl**2
            return -np.column_stack([dphi_dtd, dphi_dtg2, 4.0 * np.pi / wl]) / dphi_dwl[:, None]

        fit = lm_fit(
            model,
            None,
            wls,
            [t_d0, t_g20, off0],
            sigma=np.full(wls.shape, sigma_wavelength_nm),
            bounds=([1.0, g2_lo, -np.inf], [np.inf, g2_hi, np.inf]),
            jac=jac,
            names=["t_d_nm", "t_g2_nm", "gap_offset_nm"],
            model_id="membrane-dispersion" + ("" if fix_gap2_nm is None else "(gap2 fixed)"),
            noise=_COST_NOISE,
        )
        resid = wls - model(None, *fit.params.values())
        return DispersionFit(fit, (q + turns).astype(int), resid)

    best = run(q0)
    dof = max(wls.size - len(best.fit.params), 1)
    if best.chi2 / dof > 25.0:
        # every order off by one? try shifting every assignment by +-1
        for shift in (-1, 1):
            try:
                alt = run(q0 + shift)
            except FitError:
                continue
            if alt.chi2 < best.chi2:
                best = alt
        best.fit.diagnostics["order_retry"] = True
    best.fit.diagnostics["jacobian"] = "analytic"
    return best
