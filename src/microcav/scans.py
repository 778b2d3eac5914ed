"""Cavity length-scan and lock-trace analysis.

Covers the bare-cavity characterization chain: resonance peaks in a length
scan, finesse from spacing/width ratios, side-of-fringe inversion of
transmission into length deviations, and windowed noise spectra.

Side-of-fringe conventions (documented constants of this toolkit):

* cavity linewidth in length units: DL_FWHM = lambda / (2 F);
* lock setpoint: the ``setpoint_fraction`` point of the Lorentzian fringe
  (default one half, i.e. the half-maximum);
* the trace median is assumed to sit at the setpoint for calibration;
* samples past the fringe peak cannot be inverted unambiguously: they are
  excluded from the deviation statistics and reported as clipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .peaks import find_peaks


def _median(x: np.ndarray) -> float:
    """``np.median`` of a nonempty 1D float array, bit for bit, NaN included.

    ``np.median`` tests its largest element for NaN through ``numpy.ma``,
    whose import costs about 0.015 s of a fresh interpreter.  This takes the
    same ``np.partition`` and the same ``mean`` of the middle element(s).
    """
    n = x.size
    middle = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    part = np.partition(x, [*middle, -1])
    if np.isnan(part[-1]):
        return float(part[-1])
    return float(np.mean(part[middle[0]:middle[-1] + 1]))


@dataclass(frozen=True, eq=False)
class ScanTrace:
    """Uniformly sampled cavity-length scan, detector units."""

    transmission: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        y = np.asarray(self.transmission, dtype=float)
        object.__setattr__(self, "transmission", y)
        if y.ndim != 1 or y.size < 8:
            raise ValueError("transmission must be a 1D array of >= 8 samples")
        if not np.all(np.isfinite(y)):
            raise ValueError("transmission must be finite")


@dataclass(frozen=True)
class ScanPeak:
    """One resonance in a length scan, positions/widths in sample units."""

    position: float
    height: float
    fwhm: float
    prominence: float
    fundamental: bool


# a scan peak at least this fraction of the tallest one is a fundamental mode
_FUNDAMENTAL_FRACTION = 0.5


def detect_scan_resonances(trace: ScanTrace, prominence: float = 0.05) -> list[ScanPeak]:
    """Resonance peaks above a prominence threshold, sorted by position.

    ``prominence`` is a fraction of the full trace swing.  Peaks at or
    above ``_FUNDAMENTAL_FRACTION`` of the tallest peak are flagged as
    fundamental modes; smaller ones are higher-order transverse modes.
    Returns an empty list when nothing clears the threshold.
    """
    y = trace.transmission
    idx, prominences, widths = find_peaks(y, prominence=prominence * float(np.ptp(y)))
    heights = y[idx] - float(np.min(y))
    top = float(np.max(heights, initial=0.0))
    peaks = []
    for i, pos in enumerate(idx):
        # parabolic refinement of the peak position (never an end sample)
        denom = y[pos - 1] - 2.0 * y[pos] + y[pos + 1]
        shift = 0.0 if denom >= 0 else 0.5 * (y[pos - 1] - y[pos + 1]) / denom
        peaks.append(
            ScanPeak(
                position=float(pos + shift),
                height=float(heights[i]),
                fwhm=float(widths[i]),
                prominence=float(prominences[i]),
                fundamental=bool(heights[i] >= _FUNDAMENTAL_FRACTION * top),
            )
        )
    return sorted(peaks, key=lambda p: p.position)


def finesse_from_scan(peaks: list[ScanPeak]) -> float:
    """F = mean adjacent fundamental-peak spacing / mean fundamental FWHM."""
    fund = [p for p in peaks if p.fundamental]
    if len(fund) < 2:
        raise ValueError(f"need >= 2 fundamental peaks, got {len(fund)}")
    positions = np.array([p.position for p in fund])
    spacings = np.diff(np.sort(positions))
    mean_fwhm = float(np.mean([p.fwhm for p in fund]))
    if mean_fwhm <= 0:
        raise ValueError("degenerate peak widths")
    return float(np.mean(spacings) / mean_fwhm)


@dataclass(frozen=True, eq=False)
class LockTrace:
    """Transmission time trace near a lock setpoint, plus cavity metadata."""

    time_s: np.ndarray
    transmission: np.ndarray
    wavelength_nm: float
    finesse: float
    setpoint_fraction: float = 0.5
    state: str = "unlocked"

    def __post_init__(self):
        t = np.asarray(self.time_s, dtype=float)
        y = np.asarray(self.transmission, dtype=float)
        object.__setattr__(self, "time_s", t)
        object.__setattr__(self, "transmission", y)
        if t.shape != y.shape or t.ndim != 1 or t.size < 16:
            raise ValueError("need matching 1D time/transmission arrays")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise ValueError("time and transmission must be finite")
        dt = np.diff(t)
        if np.any(dt <= 0) or np.ptp(dt) > 1e-6 * dt[0]:
            raise ValueError("time axis must be a uniform increasing grid")
        if not 0.0 < self.setpoint_fraction < 1.0:
            raise ValueError("setpoint fraction must lie in (0, 1)")

    @property
    def rate_hz(self) -> float:
        return 1.0 / float(self.time_s[1] - self.time_s[0])

    def linewidth_pm(self) -> float:
        """Cavity linewidth in length units, DL_FWHM = lambda/(2F), in pm."""
        return self.wavelength_nm / (2.0 * self.finesse) * 1e3


@dataclass(frozen=True, eq=False)
class LengthDeviation:
    """Per-sample cavity length deviation from the lock setpoint."""

    time_s: np.ndarray
    delta_pm: np.ndarray  # NaN where the sample was clipped
    sigma_pm: float
    n_clipped: int
    linewidth_pm: float

    @property
    def valid(self) -> np.ndarray:
        return ~np.isnan(self.delta_pm)


def length_deviation(trace: LockTrace) -> LengthDeviation:
    """Invert the transmission fringe into length deviations, in pm.

    The Lorentzian fringe T(d) = T_max / (1 + (2 d / DL)^2) is inverted on
    the lock side of the resonance around the setpoint.  The fringe
    maximum is calibrated from the trace median: the median commutes with
    the monotone fringe map, so for symmetric length noise it sits exactly
    at the setpoint, unlike the mean.  Samples whose transmission exceeds
    the calibrated fringe maximum, or is nonpositive, cannot be inverted:
    they are reported NaN and excluded from sigma.  (Excursions past the
    peak onto the far fringe side are inherently ambiguous and map onto
    the lock side; that is the side-of-fringe method's blind spot.)

    Working set: about three arrays of the trace's length (the deviations,
    the invertible ones and ``np.std``'s scratch).  The trace is not
    modified: ``delta_pm`` is a new array and ``time_s`` the trace's own.
    """
    dl = trace.linewidth_pm()
    s = trace.setpoint_fraction
    y = trace.transmission
    t_max = _median(y) / s
    delta_set = 0.5 * dl * np.sqrt(1.0 / s - 1.0)
    # 0.5 dl sqrt(t_max / y - 1) - delta_set, step by step in one array
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = t_max / y
        delta -= 1.0
        clipped = y <= 0.0
        clipped |= delta < 0.0
        np.sqrt(delta, out=delta)
        delta *= 0.5 * dl
        delta -= delta_set
    delta[clipped] = np.nan
    n_clipped = int(np.count_nonzero(clipped))
    good = delta[~clipped]
    if good.size < 2:
        raise ValueError("too few invertible samples on the fringe")
    return LengthDeviation(
        time_s=trace.time_s,
        delta_pm=delta,
        sigma_pm=float(np.std(good)),
        n_clipped=n_clipped,
        linewidth_pm=dl,
    )


def fringe_transmission(delta_pm, linewidth_pm: float, setpoint_fraction: float = 0.5, t_max: float = 1.0):
    """Forward fringe model: transmission at a deviation from the setpoint."""
    delta_set = 0.5 * linewidth_pm * np.sqrt(1.0 / setpoint_fraction - 1.0)
    d = np.asarray(delta_pm, dtype=float) + delta_set
    return t_max / (1.0 + (2.0 * d / linewidth_pm) ** 2)


@dataclass(frozen=True, eq=False)
class NoiseSpectrum:
    """One-sided amplitude spectral density of a length-deviation series.

    ``asd`` in pm/sqrt(Hz), density normalization, so the integral of asd^2
    over frequency reproduces the time-domain variance (Parseval, up to the
    window's sampling wobble).  It is Welch's average of the periodograms of
    ``segments`` Hann-windowed segments of ``segment_samples`` samples,
    overlapped by half, on bins ``bin_hz`` wide; a series shorter than two
    segments has one Hann-windowed periodogram of the whole record
    (``segments`` 1).  ``peaks`` are (frequency_hz, amplitude_pm) of
    prominent spectral lines, found on the whole record's periodogram, whose
    bins are ``line_bin_hz`` wide; the amplitude is recovered by integrating
    that PSD over +-3 bins.
    """

    freq_hz: np.ndarray
    asd: np.ndarray
    peaks: list[tuple[float, float]]
    segment_samples: int
    segments: int
    bin_hz: float
    line_bin_hz: float

    def integrated_variance(self) -> float:
        return float(np.sum(self.asd**2) * self.bin_hz)


# a spectral line stands this many times above the median ASD
_LINE_THRESHOLD = 8.0
# samples per Welch segment: 4.88 Hz bins at 20 kHz, 2,049 ASD rows
_SEGMENT = 4096


def noise_spectrum(series_pm, sample_rate_hz: float | None = None, time_s=None) -> NoiseSpectrum:
    """Welch-averaged one-sided ASD of a uniformly sampled series, lines at full resolution.

    Provide either ``sample_rate_hz`` or a uniform ``time_s`` axis
    (non-uniform axes are rejected).  The ASD averages the Hann-windowed
    periodograms of ``_SEGMENT``-sample segments of x - mean(x), overlapped
    by half; the last partial segment is dropped (Welch, IEEE Trans. Audio
    Electroacoust. 15, 70 (1967)).  A series shorter than two segments gets
    the Hann-windowed periodogram of the whole record instead.  Spectral
    lines exceeding ``_LINE_THRESHOLD`` times the median ASD of the whole
    record's periodogram are returned in ``peaks``, located on its bins.

    Working set: about three arrays of the series' length (the whole
    record's windowed copy and its complex spectrum, then the PSD, the ASD
    and the frequency axis); the Welch pass before it holds one segment.
    Neither ``series_pm`` nor ``time_s`` is modified.
    """
    x = np.asarray(series_pm, dtype=float)
    n = x.size
    if n < 256:
        raise ValueError("need at least 256 samples")
    if sample_rate_hz is None:
        if time_s is None:
            raise ValueError("provide sample_rate_hz or time_s")
        t = np.asarray(time_s, dtype=float)
        dt = np.diff(t)
        if np.any(dt <= 0) or np.ptp(dt) > 1e-6 * np.mean(dt):
            raise ValueError("non-uniform sampling")
        sample_rate_hz = 1.0 / float(np.mean(dt))

    mean = np.mean(x)
    welch = _welch_psd(x, mean, sample_rate_hz) if n >= 2 * _SEGMENT else None
    # each step writes into an array made here: x - mean(x) is windowed in
    # place, and the spectrum's magnitude becomes the PSD in place
    x = x - mean
    window_power = _hann_weighted(x)
    psd = np.abs(np.fft.rfft(x))
    del x
    psd **= 2
    _density(psd, n, sample_rate_hz * window_power)
    freq = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)
    asd = np.sqrt(psd)
    line_bin_hz = float(freq[1] - freq[0])

    floor = _median(asd)
    peaks = []
    if floor > 0:
        idx, _, _ = find_peaks(asd, height=_LINE_THRESHOLD * floor)
        for i in idx:
            lo, hi = max(i - 3, 0), min(i + 4, psd.size)
            power = float(np.sum(psd[lo:hi]) * line_bin_hz)
            peaks.append((float(freq[i]), float(np.sqrt(2.0 * power))))
    if welch is None:
        return NoiseSpectrum(freq, asd, peaks, segment_samples=n, segments=1, bin_hz=line_bin_hz,
                             line_bin_hz=line_bin_hz)
    psd, segments = welch
    freq = np.fft.rfftfreq(_SEGMENT, d=1.0 / sample_rate_hz)
    return NoiseSpectrum(freq, np.sqrt(psd), peaks, segment_samples=_SEGMENT, segments=segments,
                         bin_hz=float(freq[1] - freq[0]), line_bin_hz=line_bin_hz)


def _welch_psd(x: np.ndarray, mean: float, sample_rate_hz: float) -> tuple[np.ndarray, int]:
    """(one-sided PSD, segments averaged): Welch's average over ``_SEGMENT``-sample Hann segments of x - mean.

    Segments start every ``_SEGMENT // 2`` samples and the last partial
    one is dropped.  One segment is copied at a time; x is not modified.
    """
    step = _SEGMENT // 2
    segments = (x.size - step) // step
    window = np.hanning(_SEGMENT)
    segment = np.empty(_SEGMENT)
    psd = np.zeros(_SEGMENT // 2 + 1)
    for start in range(0, segments * step, step):
        np.subtract(x[start:start + _SEGMENT], mean, out=segment)
        segment *= window
        spectrum = np.fft.rfft(segment)
        psd += spectrum.real**2
        psd += spectrum.imag**2
    _density(psd, _SEGMENT, sample_rate_hz * float(np.sum(window**2)) * segments)
    return psd, segments


def _density(power: np.ndarray, n: int, scale: float) -> None:
    """Turn a sum of |rfft|^2 of n-sample windowed series into the one-sided density, in place.

    ``scale`` is the sample rate times the window's sum of squares, times
    the number of periodograms summed, so sum(PSD) * df is the windowed
    sample variance.  DC, and Nyquist for even n, are not doubled.
    """
    power *= 2.0
    power /= scale
    power[0] /= 2.0
    if n % 2 == 0:
        power[-1] /= 2.0


def _hann_weighted(x: np.ndarray) -> float:
    """Multiply x in place by ``np.hanning(x.size)``; return the window's sum of squares.

    The window is ``np.hanning``'s arithmetic, bit for bit, done in one
    array: 0.5 + 0.5 cos(pi k / (M - 1)) for k = 1 - M, 3 - M, ..., M - 1.
    """
    m = float(x.size)
    w = np.arange(1.0 - m, m, 2.0)
    w *= np.pi
    w /= m - 1.0
    np.cos(w, out=w)
    w *= 0.5
    w += 0.5
    x *= w
    w *= w
    return float(np.sum(w))


@dataclass(frozen=True)
class LockSynthConfig:
    """Recipe for a synthetic unlocked/locked trace pair.

    The unlocked deviation is white noise plus the given spectral lines,
    scaled to ``sigma_unlocked_pm`` exactly.  The locked deviation damps
    every component below ``suppression_edge_hz`` by one common factor
    chosen to hit ``sigma_locked_pm`` exactly, leaving higher frequencies
    untouched.
    """

    sigma_unlocked_pm: float = 290.0
    sigma_locked_pm: float = 60.0
    lines: tuple[tuple[float, float], ...] = ((20.0, 200.0), (293.0, 120.0))
    suppression_edge_hz: float = 800.0
    rate_hz: float = 20_000.0
    n_samples: int = 1 << 17
    wavelength_nm: float = 780.0
    finesse: float = 300.0
    setpoint_fraction: float = 0.5


def synthesize_length_noise(config: LockSynthConfig, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(time_s, unlocked_pm, locked_pm) deviation series for a seed."""
    rng = np.random.default_rng(seed)
    n = config.n_samples
    t = np.arange(n) / config.rate_hz
    if config.sigma_unlocked_pm == 0.0:
        zero = np.zeros(n)
        return t, zero, zero.copy()
    x = rng.normal(size=n)
    for f, amp in config.lines:
        x = x + amp * np.sqrt(2.0) * np.sin(2.0 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
    x = x - np.mean(x)
    x = x * (config.sigma_unlocked_pm / np.std(x))

    spec = np.fft.rfft(x)
    freq = np.fft.rfftfreq(n, d=1.0 / config.rate_hz)
    below = freq < config.suppression_edge_hz
    var_total = config.sigma_unlocked_pm**2
    var_above = np.sum(np.abs(spec[~below]) ** 2) / np.sum(np.abs(spec) ** 2) * var_total
    target = config.sigma_locked_pm**2
    if target <= var_above:
        raise ValueError(
            f"sigma_locked {config.sigma_locked_pm} pm unreachable: "
            f"{np.sqrt(var_above):.1f} pm of noise lies above the suppression edge"
        )
    var_below = var_total - var_above
    g = np.sqrt((target - var_above) / var_below)
    spec_locked = np.where(below, g * spec, spec)
    y = np.fft.irfft(spec_locked, n)
    y = y - np.mean(y)
    y = y * (config.sigma_locked_pm / np.std(y))
    return t, x, y


def synthesize_lock_traces(config: LockSynthConfig, seed: int) -> tuple[LockTrace, LockTrace]:
    """(unlocked, locked) transmission traces through the fringe model.

    Deterministic for a given seed; the underlying deviation statistics
    match the requested sigmas exactly by construction.
    """
    t, x_unlocked, x_locked = synthesize_length_noise(config, seed)
    dl = config.wavelength_nm / (2.0 * config.finesse) * 1e3
    common = dict(
        wavelength_nm=config.wavelength_nm,
        finesse=config.finesse,
        setpoint_fraction=config.setpoint_fraction,
    )
    unlocked = LockTrace(
        t, fringe_transmission(x_unlocked, dl, config.setpoint_fraction), state="unlocked", **common
    )
    locked = LockTrace(
        t, fringe_transmission(x_locked, dl, config.setpoint_fraction), state="locked", **common
    )
    return unlocked, locked
