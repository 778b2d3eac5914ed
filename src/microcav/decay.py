"""Fluorescence-decay fitting: mono-exponential, Kohlrausch, EMG.

Conventions for TCSPC histograms:

* counts are Poisson-weighted with sigma = sqrt(max(counts, 1));
* the mono-exponential and Kohlrausch models fit from the peak bin
  onward, with time re-referenced to the window start (the stretched
  exponential is not shift-invariant, so the window convention is part of
  the model definition);
* the EMG model (exponential convolved with a Gaussian instrument
  response) fits the full trace including the rise.

The EMG is evaluated through the scaled complementary error function,
erfc(x) = erfcx(x) exp(-x^2), which reduces it to
``A/2 * erfcx(x) * exp(-(t-mu)^2 / (2 sigma^2))`` with
``x = (mu - t + sigma^2/tau) / (sigma sqrt(2))`` - numerically stable for
any sigma/tau ratio and free of overflow at t << mu.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .fitting import FitError, FitResult, lm_fit

_SQRT2 = np.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)


class DecayShapeError(ValueError):
    """Trace does not look like a decaying signal."""


@dataclass(frozen=True, eq=False)
class DecayTrace:
    """TCSPC histogram: uniform time grid in ns, event counts per bin."""

    t_ns: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t_ns, dtype=float)
        c = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "t_ns", t)
        object.__setattr__(self, "counts", c)
        if t.ndim != 1 or t.shape != c.shape or t.size < 8:
            raise ValueError("need matching 1D arrays of at least 8 bins")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(c))):
            raise ValueError("times and counts must be finite")
        dt = np.diff(t)
        if np.any(dt <= 0) or np.ptp(dt) > 1e-9 * dt[0]:
            raise ValueError("time axis must be a uniform increasing grid")
        if np.any(c < 0):
            raise ValueError("counts must be >= 0")

    @property
    def bin_width_ns(self) -> float:
        return float(self.t_ns[1] - self.t_ns[0])

    def poisson_sigma(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.counts, 1.0))


def mono_exp(t, tau, amplitude, background):
    return amplitude * np.exp(-t / tau) + background


def mono_exp_jac(t, tau, amplitude, background):
    e = np.exp(-t / tau)
    return np.column_stack([amplitude * e * t / tau**2, e, np.ones_like(t)])


def kohlrausch(t, tau, beta, amplitude, background):
    return amplitude * np.exp(-((t / tau) ** beta)) + background


def kohlrausch_jac(t, tau, beta, amplitude, background):
    s = (t / tau) ** beta
    e = np.exp(-s)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_term = np.where(t > 0, s * np.log(t / tau), 0.0)
    return np.column_stack([
        amplitude * e * beta * s / tau,
        -amplitude * e * log_term,
        e,
        np.ones_like(t),
    ])


@cache
def _weideman_coefficients() -> tuple[float, np.ndarray]:
    """(L, a): Weideman's rational series for the Faddeeva w, SIAM J. Numer. Anal. 31, 1497 (1994)."""
    n = 40  # terms; the series then matches erfcx to 1e-15 relative on x >= 0
    m = 2 * n
    L = np.sqrt(n / np.sqrt(2.0))
    t = L * np.tan(np.arange(-m + 1, m) * np.pi / (2 * m))
    f = np.concatenate([[0.0], np.exp(-t**2) * (L**2 + t**2)])
    a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
    return L, a[n:0:-1]


def _erfcx(x):
    """erfcx(x) = exp(x^2) erfc(x) = w(ix) for x >= 0."""
    L, a = _weideman_coefficients()
    return 2.0 * np.polyval(a, (L - x) / (L + x)) / (L + x) ** 2 + 1.0 / (np.sqrt(np.pi) * (L + x))


def _emg_core(t, tau, mu, sigma):
    """(E, G, x): E = erfc(x) exp(h), the EMG shape without amplitude.

    x = (mu - t + sigma^2/tau) / (sigma sqrt 2) and
    h = sigma^2/(2 tau^2) - (t - mu)/tau satisfy h - x^2 =
    -(t-mu)^2/(2 sigma^2), so E factorizes two ways: erfcx(x) * G for
    x >= 0 (both factors <= 1) and erfc(x) * exp(h) for x < 0 (erfc < 2,
    h decreasing in t).  Choosing per sample keeps E finite everywhere.
    For x < 0, erfc(x) = 2 - erfcx(-x) exp(-x^2), where nothing cancels.
    """
    t = np.asarray(t, dtype=float)
    x = (mu - t + sigma**2 / tau) / (sigma * _SQRT2)
    G = np.exp(-((t - mu) ** 2) / (2.0 * sigma**2))
    ex = _erfcx(np.abs(x))
    E = np.empty_like(x)
    pos = x >= 0.0
    E[pos] = ex[pos] * G[pos]
    neg = ~pos
    h = sigma**2 / (2.0 * tau**2) - (t[neg] - mu) / tau
    E[neg] = (2.0 - ex[neg] * np.exp(-x[neg] ** 2)) * np.exp(h)
    return E, G, x


def emg(t, tau, mu, sigma, amplitude, background):
    E, _, _ = _emg_core(t, tau, mu, sigma)
    return 0.5 * amplitude * E + background


def emg_jac(t, tau, mu, sigma, amplitude, background):
    t = np.asarray(t, dtype=float)
    E, G, _ = _emg_core(t, tau, mu, sigma)
    # d/dp [erfc(x) e^h] = -2/sqrt(pi) G dx/dp + E dh/dp, valid in both
    # factorizations through the same h - x^2 identity
    half_a = 0.5 * amplitude
    dx_dtau = -sigma / (tau**2 * _SQRT2)
    dx_dmu = 1.0 / (sigma * _SQRT2)
    dx_dsigma = -(mu - t) / (sigma**2 * _SQRT2) + 1.0 / (tau * _SQRT2)
    dh_dtau = -(sigma**2) / tau**3 + (t - mu) / tau**2
    dh_dmu = 1.0 / tau
    dh_dsigma = sigma / tau**2
    return np.column_stack([
        half_a * (-_TWO_OVER_SQRT_PI * G * dx_dtau + E * dh_dtau),
        half_a * (-_TWO_OVER_SQRT_PI * G * dx_dmu + E * dh_dmu),
        half_a * (-_TWO_OVER_SQRT_PI * G * dx_dsigma + E * dh_dsigma),
        0.5 * E,
        np.ones_like(t),
    ])


def _tail_guess(t, y):
    """(tau, amplitude, background) from the log-linear tail slope."""
    n_tail = max(5, y.size // 20)
    background = float(np.mean(y[-n_tail:]))
    net = y - background
    peak = float(np.max(net))
    usable = net > max(3.0, 0.05 * peak)
    if np.count_nonzero(usable) < 4:
        raise DecayShapeError("too few bins above background to estimate a decay")
    slope, intercept = np.polyfit(t[usable], np.log(net[usable]), 1)
    if slope >= 0:
        raise DecayShapeError("trace does not decay (non-negative log slope)")
    return -1.0 / slope, float(np.exp(intercept)), background


def _decay_window(trace: DecayTrace):
    """Peak-onward fit window for the plain decay models.

    Time is re-referenced to the window start (the stretched exponential
    is not shift-invariant, so the window convention is part of the model
    definition).  Bins near the peak still carry whatever instrument
    response broadened them; the plain decays absorb that as a small
    systematic, which is exactly what the EMG comparison exposes.
    """
    i0 = int(np.argmax(trace.counts))
    t = trace.t_ns[i0:] - trace.t_ns[i0]
    y = trace.counts[i0:]
    if t.size < 6:
        raise DecayShapeError("peak too close to the end of the trace")
    return t, y, trace.poisson_sigma()[i0:]


def _check_coverage(t_span: float, tau: float):
    if t_span < 3.0 * tau:
        raise FitError(
            f"trace spans {t_span:.3g} ns but the decay time is ~{tau:.3g} ns; "
            "need coverage of at least 3 lifetimes"
        )


def fit_decay_mono(trace: DecayTrace) -> FitResult:
    """Mono-exponential fit from the peak bin onward."""
    t, y, sig = _decay_window(trace)
    tau0, a0, b0 = _tail_guess(t, y)
    _check_coverage(t[-1], tau0)
    return lm_fit(
        mono_exp,
        t,
        y,
        [tau0, a0, b0],
        sigma=sig,
        bounds=([1e-6, 0.0, -np.inf], [np.inf, np.inf, np.inf]),
        jac=mono_exp_jac,
        names=["tau_ns", "amplitude", "background"],
        model_id="mono-exponential",
    )


def fit_decay_kohlrausch(trace: DecayTrace, fix_beta: float | None = None) -> FitResult:
    """Stretched-exponential fit from the peak bin onward, 0.05 <= beta <= 1.5.

    ``fix_beta`` holds beta at that value by equal bounds (beta = 1 nests the
    mono-exponential); the result then reports it with sigma 0.
    """
    t, y, sig = _decay_window(trace)
    tau0, a0, b0 = _tail_guess(t, y)
    _check_coverage(t[-1], tau0)
    beta_lo, beta0, beta_hi = (0.05, 1.0, 1.5) if fix_beta is None else (fix_beta,) * 3
    return lm_fit(
        kohlrausch,
        t,
        y,
        [tau0, beta0, a0, b0],
        sigma=sig,
        bounds=([1e-6, beta_lo, 0.0, -np.inf], [np.inf, beta_hi, np.inf, np.inf]),
        jac=kohlrausch_jac,
        names=["tau_ns", "beta", "amplitude", "background"],
        model_id="kohlrausch" if fix_beta is None else f"kohlrausch(beta={fix_beta})",
    )


def fit_decay_emg(trace: DecayTrace) -> FitResult:
    """Exponential x Gaussian-IRF fit over the full trace (rise included)."""
    t, y = trace.t_ns, trace.counts
    i0 = int(np.argmax(y))
    t_shift = t[i0:] - t[i0]
    tau0, a0, b0 = _tail_guess(t_shift, y[i0:])
    _check_coverage(t_shift[-1], tau0)
    bin_w = trace.bin_width_ns
    mu0 = float(t[i0])
    sigma0 = max(2.0 * bin_w, 0.02 * tau0)
    span = t[-1] - t[0]
    return lm_fit(
        emg,
        t,
        y,
        [tau0, mu0, sigma0, a0, b0],
        sigma=trace.poisson_sigma(),
        bounds=(
            [1e-6, t[0] - span, bin_w / 10.0, 0.0, -np.inf],
            [np.inf, t[-1], span, np.inf, np.inf],
        ),
        jac=emg_jac,
        names=["tau_ns", "mu_ns", "sigma_irf_ns", "amplitude", "background"],
        model_id="emg",
    )


@dataclass
class DecaySummary:
    """Conservative lifetime estimate across the three decay models.

    ``tau_best`` follows the Kohlrausch fit by convention; ``tau_min`` and
    ``tau_max`` are the extremes over whichever models converged.  Models
    that failed appear in ``errors`` instead of ``results``.
    """

    tau_best_ns: float | None
    tau_min_ns: float
    tau_max_ns: float
    results: dict[str, FitResult]
    errors: dict[str, str]

    def to_dict(self) -> dict:
        return {
            "tau_best_ns": self.tau_best_ns,
            "tau_min_ns": self.tau_min_ns,
            "tau_max_ns": self.tau_max_ns,
            "results": {k: v.to_dict() for k, v in self.results.items()},
            "errors": self.errors,
        }


def lifetime_with_conservative_bounds(trace: DecayTrace) -> DecaySummary:
    """Run all three decay models; spread of tau is the uncertainty estimate.

    Raises FitError with a per-model report when no model converges.
    """
    fitters = {
        "mono": fit_decay_mono,
        "kohlrausch": fit_decay_kohlrausch,
        "emg": fit_decay_emg,
    }
    results: dict[str, FitResult] = {}
    errors: dict[str, str] = {}
    for name, fn in fitters.items():
        try:
            results[name] = fn(trace)
        except (FitError, DecayShapeError, ValueError) as exc:
            errors[name] = str(exc)
    if not results:
        raise FitError("all decay models failed", {"model_errors": errors})
    taus = {name: res.params["tau_ns"] for name, res in results.items()}
    return DecaySummary(
        tau_best_ns=taus.get("kohlrausch"),
        tau_min_ns=min(taus.values()),
        tau_max_ns=max(taus.values()),
        results=results,
        errors=errors,
    )
