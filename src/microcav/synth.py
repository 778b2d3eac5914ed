"""Synthetic fixture generators for tests and the `synth` CLI command.

Everything here is seeded and deterministic: the same (config, seed) pair
always produces the same trace.  Lock-trace synthesis lives in
:mod:`microcav.scans` next to its analysis counterpart.
"""

from __future__ import annotations

import numpy as np

from . import constants, decay, spectral
from .scans import ScanTrace


def synth_decay_trace(
    tau_ns: float = 1.36,
    sigma_irf_ns: float = 0.0,
    mu_ns: float = 1.0,
    peak_counts: float = 30_000.0,
    background: float = 20.0,
    bin_ns: float = 0.032,
    span_ns: float = 14.0,
    seed: int = 0,
) -> decay.DecayTrace:
    """Poisson-sampled decay histogram, optionally IRF-broadened (EMG shape)."""
    t = np.arange(0.0, span_ns, bin_ns)
    if sigma_irf_ns > 0:
        model = decay.emg(t, tau_ns, mu_ns, sigma_irf_ns, peak_counts, background)
    else:
        model = decay.mono_exp(np.maximum(t - mu_ns, 0.0), tau_ns, peak_counts, background)
        model = np.where(t < mu_ns, background, model)
    counts = np.random.default_rng(seed).poisson(model).astype(float)
    return decay.DecayTrace(t, counts)


def synth_doublet_spectrum(
    c1_nm: float = constants.SIV_ZPL_AB_NM,
    c2_nm: float = constants.SIV_ZPL_CD_NM,
    fwhm_nm: float = 0.45,
    a1: float = 900.0,
    a2: float = 1100.0,
    offset: float = 30.0,
    noise: float = 10.0,
    span_nm: tuple[float, float] = (734.5, 739.5),
    n_points: int = 600,
    seed: int = 0,
) -> spectral.SpectrumTrace:
    """Equal-width double-Lorentzian emission spectrum with Gaussian noise."""
    x = np.linspace(span_nm[0], span_nm[1], n_points)
    y = spectral.double_lorentzian(x, c1_nm, c2_nm, fwhm_nm, a1, a2, offset)
    y = y + np.random.default_rng(seed).normal(0.0, noise, x.size)
    return spectral.SpectrumTrace(x, y)


def synth_lorentzian_spectrum(
    center_nm: float = 738.7,
    fwhm_nm: float = 5.0,
    amplitude: float = 1000.0,
    offset: float = 50.0,
    noise: float = 8.0,
    span_nm: tuple[float, float] = (728.0, 750.0),
    n_points: int = 500,
    seed: int = 0,
) -> spectral.SpectrumTrace:
    """Single broad room-temperature-like emission peak."""
    x = np.linspace(span_nm[0], span_nm[1], n_points)
    y = spectral.lorentzian(x, center_nm, fwhm_nm, amplitude, offset)
    y = y + np.random.default_rng(seed).normal(0.0, noise, x.size)
    return spectral.SpectrumTrace(x, y)


def synth_temperature_series(
    value_at_0: float = constants.SIV_ZPL_COLD_NM,
    cubic_coeff: float = 6.7e-8,
    temperatures_k=(4.0, 30.0, 60.0, 80.0, 120.0, 150.0, 200.0, 250.0, 300.0),
    noise: float = 0.01,
    seed: int = 0,
) -> np.ndarray:
    """(T, value) rows following the cubic low-temperature law."""
    t = np.asarray(temperatures_k, dtype=float)
    v = value_at_0 + cubic_coeff * t**3
    v = v + np.random.default_rng(seed).normal(0.0, noise, t.size)
    return np.column_stack([t, v])


def synth_scan_trace(
    n_fundamental: int = 9,
    finesse: float = 2200.0,
    fsr_samples: float = 30_000.0,
    first_peak: float = 15_000.0,
    higher_order_offset: float = 6_000.0,
    higher_order_height: float = 0.25,
    noise: float = 0.004,
    seed: int = 0,
) -> ScanTrace:
    """Cavity length scan: fundamental Lorentzians plus weaker higher-order modes.

    The peak width is FSR/finesse in sample units; keep finesse/fsr such
    that peaks span >= ~10 samples or width estimates will discretize.
    Each Lorentzian term is computed in one scratch array, in place.
    """
    n = int(first_peak + n_fundamental * fsr_samples)
    pos = np.arange(n, dtype=float)
    width = fsr_samples / finesse
    y = np.zeros(n)
    term = np.empty(n)
    for i in range(n_fundamental):
        c = first_peak + i * fsr_samples
        for offset, height in ((0.0, 1.0), (higher_order_offset, higher_order_height)):
            # height / (1 + (2 ((pos - c) - offset) / width)^2)
            np.subtract(pos, c, out=term)
            if offset:
                np.subtract(term, offset, out=term)
            np.multiply(2.0, term, out=term)
            np.divide(term, width, out=term)
            np.square(term, out=term)
            np.add(1.0, term, out=term)
            np.divide(height, term, out=term)
            y += term
    y += np.random.default_rng(seed).normal(0.0, noise, n)
    return ScanTrace(y, meta={"fsr_samples": fsr_samples, "finesse": finesse})
