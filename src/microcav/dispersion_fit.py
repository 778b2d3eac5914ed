"""Membrane thickness and parasitic gap from measured resonance dispersion.

The measured input is a set of (gap proxy, resonance wavelength) points.
The gap axis of a length scan is a positioner readout, not an absolute
distance, so the fit carries a constant gap offset as a nuisance
parameter alongside the membrane thickness t_d and the second gap t_g2.

Each point is assigned a mode order q from the round-trip phase at the
initial parameters; the model wavelength for that order then comes from
the exact phase condition, and the parameters are adjusted by damped
least squares.  A fit this nonlinear can land in the wrong global order
branch, so when the reduced residual stays far above the data noise the
fit is retried with all mode orders shifted by +-1 and the best result
wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitting import FitError, FitResult, lm_fit
from .resonance import NoResonanceError, PhaseModel, ResonancePoint
from .stack import CavityAssembly

# the phase model covers the measured wavelengths plus this margin on each side
_WINDOW_MARGIN_NM = 8.0


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


def _solve_or_extrapolate(pm: PhaseModel, q: int, gap_nm: float) -> float:
    """Model wavelength for mode q; linear phase extrapolation off-grid.

    Keeps the residual smooth when trial parameters push a resonance past
    the cached window instead of crashing the optimizer.
    """
    try:
        return pm.solve_wavelength(q, gap_nm)
    except NoResonanceError:
        target = 2.0 * np.pi * (q + 1.0)
        edges = np.array([pm.wl[0], pm.wl[-1]])
        miss = 4.0 * np.pi * gap_nm / edges + pm.mirror_phase(edges) - target
        i = int(np.argmin(np.abs(miss)))
        # local slope of the phase miss, from the neighboring grid point
        j = 1 if i == 0 else len(pm.wl) - 2
        miss_j = 4.0 * np.pi * gap_nm / pm.wl[j] + pm.phi_mirrors[j] - target
        slope = (miss_j - miss[i]) / (pm.wl[j] - edges[i])
        if slope == 0.0:
            return float(edges[i])
        return float(edges[i] - miss[i] / slope)


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
        Freeze the second gap at this value (e.g. 0 to reproduce the
        no-parasitic-gap comparison); it then drops out of the parameters.
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

    # the one TMM build of the fit: every anchor node and trial point is this
    # model with its membrane and second gap recomposed in closed form
    base = PhaseModel(template, wls.min() - _WINDOW_MARGIN_NM, wls.max() + _WINDOW_MARGIN_NM, step_nm=0.05)

    # Anchor scan: mode-order assignment by phase rounding only works when
    # the model phase is within ~pi of the truth at every point, which an
    # offset guess alone rarely guarantees.  A coarse grid over the
    # parameters, scored by the wrapped phase miss of the data, lands close
    # enough to assign orders consistently and to start the fit.
    lam_mid = float(np.mean(wls))
    t_d0, t_g20, off0 = init["t_d_nm"], init["t_g2_nm"], init["gap_offset_nm"]
    t_d_grid = [t_d0 - 20.0, t_d0, t_d0 + 20.0]
    if fix_gap2_nm is None:
        t_g2_grid = sorted({max(t_g20, 0.0), 0.0, 100.0, 200.0, 300.0, 400.0})
    else:
        t_g2_grid = [fix_gap2_nm]
    offsets = off0 + np.linspace(-lam_mid / 4.0, lam_mid / 4.0, 41)
    best_node = None
    for t_d in t_d_grid:
        for t_g2 in t_g2_grid:
            pm = base.with_membrane(t_d, t_g2)
            phi0 = 4.0 * np.pi * gaps / wls + pm.mirror_phase(wls)
            for off in offsets:
                miss = (phi0 + 4.0 * np.pi * off / wls) / (2.0 * np.pi)
                score = float(np.mean((miss - np.round(miss)) ** 2))
                if best_node is None or score < best_node[0]:
                    best_node = (score, t_d, t_g2, off, pm)
    _, t_d0, t_g20, off0, pm0 = best_node
    init = {"t_d_nm": t_d0, "t_g2_nm": t_g20, "gap_offset_nm": off0}

    q0 = np.array([pm0.mode_order(w, g + off0) for g, w in zip(gaps, wls)], dtype=int)
    if np.unique(q0).size < 2:
        raise FitError("degenerate dispersion data: all points share one mode order")

    free_gap2 = fix_gap2_nm is None

    def run(q_assign: np.ndarray) -> DispersionFit:
        def model(x, *params):
            t_d, t_g2, off = params if free_gap2 else (params[0], fix_gap2_nm, params[1])
            pm = base.with_membrane(t_d, t_g2)
            return np.array([_solve_or_extrapolate(pm, q, g + off) for g, q in zip(gaps, q_assign)])

        if free_gap2:
            p0 = [init["t_d_nm"], init["t_g2_nm"], init["gap_offset_nm"]]
            names = ["t_d_nm", "t_g2_nm", "gap_offset_nm"]
            bounds = ([1.0, 0.0, -np.inf], [np.inf, np.inf, np.inf])
        else:
            p0 = [init["t_d_nm"], init["gap_offset_nm"]]
            names = ["t_d_nm", "gap_offset_nm"]
            bounds = ([1.0, -np.inf], [np.inf, np.inf])

        fit = lm_fit(
            model,
            None,
            wls,
            p0,
            sigma=np.full(wls.shape, sigma_wavelength_nm),
            bounds=bounds,
            names=names,
            model_id="membrane-dispersion" + ("" if free_gap2 else "(gap2 fixed)"),
        )
        if not free_gap2:
            fit.params["t_g2_nm"] = float(fix_gap2_nm)
            fit.sigmas["t_g2_nm"] = 0.0
            fit.diagnostics["t_g2_fixed"] = True
        params = [fit.params[n] for n in names]
        resid = wls - model(None, *params)
        return DispersionFit(fit, q_assign.copy(), resid)

    best = run(q0)
    dof = max(wls.size - len(best.fit.params), 1)
    if best.chi2 / dof > 25.0:
        # wrong global order branch? try shifting every assignment by +-1
        for shift in (-1, 1):
            try:
                alt = run(q0 + shift)
            except FitError:
                continue
            if alt.chi2 < best.chi2:
                best = alt
        best.fit.diagnostics["order_retry"] = True
    return best
