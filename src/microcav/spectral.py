"""Spectral line models: Lorentzian, equal-width doublet, cubic temperature law.

All models carry analytic Jacobians and auto-derived initial guesses, so a
raw trace fits without hand-tuning.  Fitted doublet centers are always
ordered c1 < c2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import constants
from .fitting import DegenerateFitWarning, FitResult, lm_fit
from .peaks import find_peaks


@dataclass(frozen=True)
class SpectrumTrace:
    """Sampled emission spectrum; x in nm (or GHz), y in counts."""

    x: np.ndarray
    y: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("x and y must be equal-length 1D arrays")
        dx = np.diff(x)
        if not (np.all(dx > 0) or np.all(dx < 0)):
            raise ValueError("x must be strictly monotonic")
        if not np.all(np.isfinite(y)):
            raise ValueError("y must be finite")
        if self.sigma is not None:
            object.__setattr__(self, "sigma", np.asarray(self.sigma, dtype=float))


def lorentzian(x, center, fwhm, amplitude, offset):
    """Peak-height-normalized Lorentzian plus constant offset."""
    h2 = (0.5 * fwhm) ** 2
    return amplitude * h2 / ((x - center) ** 2 + h2) + offset


def lorentzian_jac(x, center, fwhm, amplitude, offset):
    h2 = (0.5 * fwhm) ** 2
    u = (x - center) ** 2
    denom = u + h2
    d_center = amplitude * h2 * 2.0 * (x - center) / denom**2
    d_fwhm = amplitude * (u / denom**2) * (0.5 * fwhm)
    d_amp = h2 / denom
    d_off = np.ones_like(x)
    return np.column_stack([d_center, d_fwhm, d_amp, d_off])


def double_lorentzian(x, c1, c2, fwhm, a1, a2, offset):
    """Two Lorentzians sharing one linewidth."""
    return (
        lorentzian(x, c1, fwhm, a1, 0.0)
        + lorentzian(x, c2, fwhm, a2, 0.0)
        + offset
    )


def double_lorentzian_jac(x, c1, c2, fwhm, a1, a2, offset):
    j1 = lorentzian_jac(x, c1, fwhm, a1, 0.0)
    j2 = lorentzian_jac(x, c2, fwhm, a2, 0.0)
    return np.column_stack([j1[:, 0], j2[:, 0], j1[:, 1] + j2[:, 1], j1[:, 2], j2[:, 2], np.ones_like(x)])


def cubic_law(t, value_at_0, cubic_coeff):
    """v(T) = v0 + c T^3."""
    return value_at_0 + cubic_coeff * t**3


def cubic_law_jac(t, value_at_0, cubic_coeff):
    return np.column_stack([np.ones_like(t), t**3])


def _peak_guess(x, y):
    offset = float(np.min(y))
    i_max = int(np.argmax(y))
    amplitude = float(y[i_max] - offset)
    center = float(x[i_max])
    above = y - offset > 0.5 * amplitude
    if np.count_nonzero(above) >= 2:
        fwhm = abs(x[np.nonzero(above)[0][-1]] - x[np.nonzero(above)[0][0]])
    else:
        fwhm = abs(x[-1] - x[0]) / 10.0
    fwhm = max(fwhm, 2.0 * np.mean(np.abs(np.diff(x))))
    return center, fwhm, amplitude, offset


def fit_lorentzian(trace: SpectrumTrace) -> FitResult:
    """Single-peak fit; flags ``no_peak`` when the line vanishes into noise."""
    x, y = trace.x, trace.y
    c0, w0, a0, b0 = _peak_guess(x, y)
    span = abs(x[-1] - x[0])
    result = lm_fit(
        lorentzian,
        x,
        y,
        [c0, w0, a0, b0],
        sigma=trace.sigma,
        bounds=([min(x[0], x[-1]), 1e-6 * span, -np.inf, -np.inf], [max(x[0], x[-1]), 10.0 * span, np.inf, np.inf]),
        jac=lorentzian_jac,
        names=["center", "fwhm", "amplitude", "offset"],
        model_id="lorentzian",
    )
    resid_rms = result.residual_norm / np.sqrt(len(y)) if trace.sigma is None else None
    noise = resid_rms if resid_rms is not None else 1.0
    if abs(result.params["amplitude"]) < 3.0 * noise:
        result.diagnostics["no_peak"] = True
    return result


def fit_double_lorentzian_equal_width(trace: SpectrumTrace) -> FitResult:
    """Equal-width doublet fit with ordered centers (c1 < c2).

    Warns with DegenerateFitWarning when the fitted splitting collapses
    below a quarter linewidth (peaks effectively merged).
    """
    x, y = trace.x, trace.y
    b0 = float(np.min(y))
    idx, prominences, widths = find_peaks(y - b0, prominence=0.02 * (np.max(y) - b0))
    if len(idx) >= 2:
        order = np.sort(np.argsort(prominences)[::-1][:2])
        picks, widths = idx[order], widths[order]
        w0 = float(np.mean(widths)) * abs(np.mean(np.diff(x)))
        c1, c2 = float(x[picks[0]]), float(x[picks[1]])
        a1 = float(y[picks[0]] - b0)
        a2 = float(y[picks[1]] - b0)
    else:
        # overlapping doublet: the smaller line hides in the wing of the
        # larger one.  Seed the second center at the maximum of the
        # residual left by a single-Lorentzian fit.
        single = fit_lorentzian(trace)
        c1, w0 = single.params["center"], single.params["fwhm"]
        a1, b0 = single.params["amplitude"], single.params["offset"]
        resid = y - lorentzian(x, c1, w0, a1, b0)
        j = int(np.argmax(resid))
        c2 = float(x[j])
        a2 = max(float(resid[j]), 0.05 * a1)
        if abs(c2 - c1) < 0.25 * w0:
            c2 = c1 + 0.5 * w0  # fully merged: nudge apart, fit will warn
    w0 = max(w0, 2.0 * np.mean(np.abs(np.diff(x))))

    lo = [min(x[0], x[-1])] * 2 + [1e-6 * abs(x[-1] - x[0]), 0.0, 0.0, -np.inf]
    hi = [max(x[0], x[-1])] * 2 + [10.0 * abs(x[-1] - x[0]), np.inf, np.inf, np.inf]
    result = lm_fit(
        double_lorentzian,
        x,
        y,
        [c1, c2, w0, a1, a2, b0],
        sigma=trace.sigma,
        bounds=(lo, hi),
        jac=double_lorentzian_jac,
        names=["c1", "c2", "fwhm", "a1", "a2", "offset"],
        model_id="double-lorentzian-equal-width",
    )
    if result.params["c1"] > result.params["c2"]:
        p, s = result.params, result.sigmas
        p["c1"], p["c2"] = p["c2"], p["c1"]
        p["a1"], p["a2"] = p["a2"], p["a1"]
        s["c1"], s["c2"] = s["c2"], s["c1"]
        s["a1"], s["a2"] = s["a2"], s["a1"]
    splitting = result.params["c2"] - result.params["c1"]
    a_lo = min(result.params["a1"], result.params["a2"])
    a_hi = max(result.params["a1"], result.params["a2"])
    if splitting < result.params["fwhm"] / 4.0 or a_lo < 0.01 * a_hi:
        # merged peaks, or one component fitted away to nothing: either
        # way the splitting is undefined
        warnings.warn(
            f"degenerate doublet (splitting {splitting:.3g}, amplitudes {a_lo:.3g}/{a_hi:.3g}): "
            "splitting undefined",
            DegenerateFitWarning,
            stacklevel=2,
        )
        result.diagnostics["degenerate"] = True
    return result


def doublet_splitting_ghz(result: FitResult) -> float:
    """Frequency splitting of a fitted doublet (wavelength axis in nm)."""
    return constants.splitting_ghz(result.params["c1"], result.params["c2"])


def fit_cubic_temperature(series) -> FitResult:
    """Fit v(T) = v0 + c T^3 to (temperature K, value) pairs."""
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("series must be rows of (temperature_K, value)")
    if arr.shape[0] < 3:
        raise ValueError("need at least 3 temperature points")
    t, v = arr[:, 0], arr[:, 1]
    if np.ptp(t) == 0:
        raise ValueError("all temperatures are equal")
    t3 = t**3
    c0 = float(np.cov(t3, v)[0, 1] / np.var(t3)) if np.var(t3) > 0 else 0.0
    v0 = float(np.mean(v) - c0 * np.mean(t3))
    return lm_fit(
        cubic_law,
        t,
        v,
        [v0, c0],
        jac=cubic_law_jac,
        names=["value_at_0", "cubic_coeff"],
        model_id="cubic-temperature",
    )
