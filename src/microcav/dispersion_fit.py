"""Membrane thickness and parasitic gap from measured resonance dispersion.

The measured input is a set of (gap proxy, resonance wavelength) points.
The gap axis of a length scan is a positioner readout, not an absolute
distance, so the fit carries a constant gap offset as a nuisance
parameter alongside the membrane thickness t_d and the second gap t_g2.

The fit reads the cavity at the data wavelengths only (``PointPhase``).
One ``PhaseModel`` build sweeps the two coatings with the TMM on a grid;
the fiber coating's phase and the plane coating's complex r come from a
cubic Hermite interpolant of that sweep, and the second gap and the
membrane are composed in front of the plane coating exactly, by the two
Airy steps of ``resonance._rest_response``, at each wavelength asked for.
Each step's phase is unwrapped in closed form, so the round-trip phase
Phi(lambda; t_d, t_g2) is smooth in all three and keeps its 2 pi branch
for a fixed set of mode orders (van Dam et al., NJP 20, 115004 (2018)).

An anchor scan scores a coarse grid of (t_d, t_g2, offset) nodes by the
wrapped phase miss of all points at once and starts from the best; each
point is assigned a mode order q from the round-trip phase there, on the
grid path's labels, and the orders are carried over to the smooth phase's
branch once.  Every residual evaluation then takes Newton steps on Phi
from the measured wavelengths; a point whose root does not converge inside
the phase grid falls back to the grid path's bracketing solve
(``PhaseModel.solve_wavelengths``) and is counted in
``diagnostics["newton_fallbacks"]``.  The Jacobian is analytic, the
implicit slope d lambda / dp = -(dPhi/dp) / (dPhi/dlambda) from the
derivatives of the two Airy steps, and the parameters are adjusted by
damped least squares.  A fit this nonlinear can land in the wrong global
order branch, so when the reduced residual stays far above the data noise
the fit is retried with all mode orders shifted by +-1 and the best result
wins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitting import FitError, FitResult, lm_fit
from .resonance import PhaseModel, ResonancePoint
from .stack import AIR, CavityAssembly
from .tmm import _airy_step, _phase

# the phase model covers the measured wavelengths plus this margin on each side
_WINDOW_MARGIN_NM = 8.0
# Newton on the phase condition stops once every step is below the tolerance;
# the convergence is quadratic, so the root is then good to far below it
_NEWTON_STEPS = 12
_NEWTON_TOL_NM = 1e-7
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


class PointPhase:
    """The mirror phase of a ``PhaseModel`` for any membrane and second gap, at any wavelength in its grid.

    ``ln r`` of the two coatings (columns: fiber, plane; the imaginary part
    is the unwrapped phase) is a cubic Hermite interpolant of the model's
    grid, with central-difference node slopes.  The second gap and the
    membrane are two Airy steps (``tmm._airy_step``) on the interpolated
    plane coating.  A step turns R = r e^{2i delta} into r' = R (1 + rho/R) /
    (1 + rho R); while |R| > |rho| both factors have |Arg| < pi/2, so
    arg r' = arg R + Arg(r'/R) continues arg r without a 2 pi jump.  The
    phase is on its own branch, a fixed multiple of 2 pi away from the grid
    path's (``branch``).
    """

    def __init__(self, base: PhaseModel):
        membrane = base.assembly.membrane
        if membrane is None:
            raise ValueError("the assembly has no membrane to set t_d and t_g2 of")
        self.base = base
        self.n_d = membrane.material.nc
        self.rho = abs((self.n_d - AIR.nc) / (self.n_d + AIR.nc))
        wl = base.wl
        self._x0, self._h = wl[0], (wl[-1] - wl[0]) / (wl.size - 1)
        r_plane = base._plane[0]
        ln_r = np.column_stack([np.log(np.abs(base.r_fiber)) + 1j * base._phi_fiber,
                                np.log(np.abs(r_plane)) + 1j * np.unwrap(np.angle(r_plane))])
        # per cell, y(s) = c0 + s (c1 + s (c2 + s c3)) with s in [0, 1] across it
        slope = np.gradient(ln_r, axis=0, edge_order=2)
        rise = ln_r[1:] - ln_r[:-1]
        self._cubic = np.stack([ln_r[:-1], slope[:-1], 3.0 * rise - 2.0 * slope[:-1] - slope[1:],
                                slope[:-1] + slope[1:] - 2.0 * rise])

    def coatings(self, wl_nm):
        """(ln r, d ln r / d lambda) of the fiber and the plane coating at ``wl_nm``, columns (fiber, plane)."""
        u = (np.asarray(wl_nm, dtype=float) - self._x0) / self._h
        cell = np.clip(u.astype(int), 0, self._cubic.shape[1] - 1)
        s = (u - cell)[..., None]
        c0, c1, c2, c3 = self._cubic[:, cell]
        return c0 + s * (c1 + s * (c2 + s * c3)), (c1 + s * (2.0 * c2 + 3.0 * s * c3)) / self._h

    def mirror_phase(self, wl_nm, t_d_nm, t_g2_nm):
        """(phi, dphi/dlambda, dphi/dt_d, dphi/dt_g2, valid) of both mirrors; broadcast over every argument.

        ``valid`` is False where a step's |R| <= |rho|, where its unwrapped
        phase may have jumped.  The derivatives follow ln r through each step
        by d ln r' / d ln R = (n / n_out) g^2 R / r'.
        """
        wl = np.asarray(wl_nm, dtype=float)
        ln_r, dln_r = self.coatings(wl)
        n, two_k = self.n_d, 4.0 * np.pi / wl
        # the second gap entered from the membrane, then the membrane entered from the gap
        r1, _, big_r1, g1 = _airy_step(n, AIR.nc, _phase(AIR.nc, t_g2_nm, wl), np.exp(ln_r[..., 1]), 1.0)
        r2, _, big_r2, g2 = _airy_step(AIR.nc, n, _phase(n, t_d_nm, wl), r1, 1.0)
        gain1 = g1 * g1 * big_r1 / (n * r1)
        gain2 = n * g2 * g2 * big_r2 / r2
        phi = (ln_r[..., 0].imag + ln_r[..., 1].imag + two_k * (t_g2_nm + n.real * t_d_nm)
               + np.angle(r1 / big_r1) + np.angle(r2 / big_r2))
        dln_plane = dln_r[..., 1] - 1j * two_k * t_g2_nm / wl
        dphi_dwl = dln_r[..., 0].imag + (gain2 * (gain1 * dln_plane - 1j * two_k * n * t_d_nm / wl)).imag
        dphi_dtd = (gain2 * 1j * two_k * n).imag
        dphi_dtg2 = (gain2 * gain1 * 1j * two_k).imag
        valid = (np.abs(big_r1) > self.rho) & (np.abs(big_r2) > self.rho)
        return phi, dphi_dwl, dphi_dtd, dphi_dtg2, valid

    def branch(self, grid: PhaseModel, t_d_nm: float, t_g2_nm: float) -> int:
        """Multiple of 2 pi from ``grid.phi_mirrors`` (``base.with_membrane(t_d, t_g2)``) to this phase."""
        i = grid.wl.size // 2
        phi = self.mirror_phase(grid.wl[i], t_d_nm, t_g2_nm)[0]
        return int(np.round((phi - grid.phi_mirrors[i]) / (2.0 * np.pi)))

    def roots(self, q, gap_nm, t_d_nm: float, t_g2_nm: float, start_nm):
        """(wavelengths, converged) of mode orders q (this branch) at gaps ``gap_nm``, by Newton from ``start_nm``.

        A root is converged when its last step was below ``_NEWTON_TOL_NM``,
        inside the grid, with both steps' |R| > |rho| there.
        """
        target = 2.0 * np.pi * (np.asarray(q) + 1.0)
        lo, hi = self.base.wl[0], self.base.wl[-1]
        wl = np.asarray(start_nm, dtype=float)
        for _ in range(_NEWTON_STEPS):
            phi, dphi, _, _, valid = self.mirror_phase(wl, t_d_nm, t_g2_nm)
            step = (4.0 * np.pi * gap_nm / wl + phi - target) / (dphi - 4.0 * np.pi * gap_nm / wl**2)
            wl = wl - step
            inside = (wl >= lo) & (wl <= hi)
            wl = np.clip(wl, lo, hi)
            if np.all(np.abs(step) < _NEWTON_TOL_NM):
                break
        return wl, (np.abs(step) < _NEWTON_TOL_NM) & inside & valid


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

    # the one TMM build of the fit: every anchor node and trial point reads
    # its coatings and composes the membrane and second gap in closed form
    base = PhaseModel(template, wls.min() - _WINDOW_MARGIN_NM, wls.max() + _WINDOW_MARGIN_NM, step_nm=0.05)
    phase = PointPhase(base)

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
    phi0 = 4.0 * np.pi * gaps / wls + phase.mirror_phase(wls, nodes[:, :1], nodes[:, 1:])[0]
    # (nodes, offsets, points); argmin takes the first minimum in node-major order
    miss = (phi0[:, None, :] + 4.0 * np.pi * offsets[:, None] / wls) / (2.0 * np.pi)
    score = np.mean((miss - np.round(miss)) ** 2, axis=-1)
    node, k = np.unravel_index(np.argmin(score), score.shape)
    (t_d0, t_g20), off0 = nodes[node], offsets[k]
    init = {"t_d_nm": t_d0, "t_g2_nm": t_g20, "gap_offset_nm": off0}

    # orders on the grid path's labels, carried over to the smooth phase's branch
    grid0 = base.with_membrane(t_d0, t_g20)
    q0 = grid0.mode_order(wls, gaps + off0)
    if np.all(q0 == q0[0]):
        raise FitError("degenerate dispersion data: all points share one mode order")
    q_branch = phase.branch(grid0, t_d0, t_g20)

    free_gap2 = fix_gap2_nm is None
    fallbacks = 0

    def run(q_assign: np.ndarray) -> DispersionFit:
        q = q_assign + q_branch
        last = {}

        def unpack(params):
            return params if free_gap2 else (params[0], fix_gap2_nm, params[1])

        def model(x, *params):
            nonlocal fallbacks
            t_d, t_g2, off = unpack(params)
            wl, converged = phase.roots(q, gaps + off, t_d, t_g2, wls)
            if not np.all(converged):
                fallbacks += int(np.count_nonzero(~converged))
                grid = base.with_membrane(t_d, t_g2)
                shift = phase.branch(grid, t_d, t_g2)
                wl[~converged] = grid.solve_wavelengths(q[~converged] - shift, gaps[~converged] + off)[0]
            last.update(params=params, wl=wl)
            return wl

        def jac(x, *params):
            wl = last["wl"] if last.get("params") == params else model(x, *params)
            t_d, t_g2, off = unpack(params)
            _, dphi, dphi_dtd, dphi_dtg2, _ = phase.mirror_phase(wl, t_d, t_g2)
            dphi_dwl = dphi - 4.0 * np.pi * (gaps + off) / wl**2
            columns = [dphi_dtd, dphi_dtg2, 4.0 * np.pi / wl] if free_gap2 else [dphi_dtd, 4.0 * np.pi / wl]
            return -np.column_stack(columns) / dphi_dwl[:, None]

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
            jac=jac,
            names=names,
            model_id="membrane-dispersion" + ("" if free_gap2 else "(gap2 fixed)"),
            noise=_COST_NOISE,
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
    best.fit.diagnostics.update(jacobian="analytic", newton_fallbacks=fallbacks)
    return best
