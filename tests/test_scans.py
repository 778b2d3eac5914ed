import numpy as np
import pytest

from microcav import scans, synth
from microcav.scans import LockSynthConfig, LockTrace, ScanTrace
from oracles import full_record_lines


class TestScanDetection:
    def test_nine_fundamentals_found(self):
        trace = synth.synth_scan_trace(n_fundamental=9, seed=0)
        peaks = scans.detect_scan_resonances(trace, prominence=0.05)
        assert sum(p.fundamental for p in peaks) == 9
        # higher-order modes also present but not counted as fundamental
        assert len(peaks) == 18

    def test_single_lorentzian_width_round_trip(self):
        n = 40_000
        pos = np.arange(n, dtype=float)
        width = 25.0
        y = 1.0 / (1 + (2 * (pos - 20_000) / width) ** 2)
        peaks = scans.detect_scan_resonances(ScanTrace(y), prominence=0.2)
        assert len(peaks) == 1
        assert peaks[0].fwhm == pytest.approx(width, rel=0.02)
        assert peaks[0].position == pytest.approx(20_000.0, abs=0.5)

    def test_pure_noise_is_empty(self, rng):
        y = rng.normal(0, 1.0, 5000)
        trace = ScanTrace(y)
        assert scans.detect_scan_resonances(trace, prominence=1.0) == []

    @pytest.mark.parametrize("seed", [0, 101])
    def test_synth_trace_matches_the_term_by_term_sum(self, seed):
        # the in-place terms are these operations, in this order, bit for bit
        pos = np.arange(285_000, dtype=float)
        width = 30_000.0 / 2200.0
        y = np.zeros(pos.size)
        for i in range(9):
            c = 15_000.0 + i * 30_000.0
            y += 1.0 / (1.0 + (2.0 * (pos - c) / width) ** 2)
            y += 0.25 / (1.0 + (2.0 * (pos - c - 6_000.0) / width) ** 2)
        y += np.random.default_rng(seed).normal(0.0, 0.004, pos.size)
        assert synth.synth_scan_trace(seed=seed).transmission.tobytes() == y.tobytes()

    def test_trace_left_unchanged(self):
        trace = synth.synth_scan_trace(n_fundamental=5, seed=3)
        before = trace.transmission.copy()
        scans.detect_scan_resonances(trace, prominence=0.05)
        assert np.array_equal(trace.transmission, before)

    def test_prominence_monotonicity(self):
        trace = synth.synth_scan_trace(n_fundamental=5, seed=3)
        counts = [len(scans.detect_scan_resonances(trace, prominence=p)) for p in (0.02, 0.1, 0.3, 0.6)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestFinesseFromScan:
    @pytest.mark.parametrize("finesse", [2200.0, 1000.0])
    def test_round_trip(self, finesse):
        trace = synth.synth_scan_trace(n_fundamental=6, finesse=finesse, fsr_samples=30_000.0, seed=1)
        peaks = scans.detect_scan_resonances(trace, prominence=0.05)
        assert scans.finesse_from_scan(peaks) == pytest.approx(finesse, rel=0.05)

    def test_affine_axis_invariance(self):
        # finesse is a spacing/width ratio: any affine rescale of the scan
        # axis leaves it exactly unchanged
        from dataclasses import replace

        trace = synth.synth_scan_trace(n_fundamental=5, seed=2)
        peaks = scans.detect_scan_resonances(trace, prominence=0.05)
        f0 = scans.finesse_from_scan(peaks)
        for k, b in ((2.5, 0.0), (0.3, 1000.0)):
            rescaled = [replace(p, position=k * p.position + b, fwhm=k * p.fwhm) for p in peaks]
            assert scans.finesse_from_scan(rescaled) == pytest.approx(f0, rel=1e-12)

    def test_single_peak_rejected(self):
        n = 20_000
        y = 1.0 / (1 + (2 * (np.arange(n) - 10_000) / 20.0) ** 2)
        peaks = scans.detect_scan_resonances(ScanTrace(y), prominence=0.2)
        with pytest.raises(ValueError, match=">= 2 fundamental"):
            scans.finesse_from_scan(peaks)


class TestLengthDeviation:
    def test_sigma_round_trip(self):
        cfg = LockSynthConfig()
        unlocked, locked = scans.synthesize_lock_traces(cfg, seed=11)
        dev_u = scans.length_deviation(unlocked)
        dev_l = scans.length_deviation(locked)
        assert dev_u.sigma_pm == pytest.approx(290.0, rel=0.15)
        assert dev_l.sigma_pm == pytest.approx(60.0, rel=0.15)

    def test_suppression_near_quoted(self):
        cfg = LockSynthConfig()
        unlocked, locked = scans.synthesize_lock_traces(cfg, seed=11)
        sup = 1.0 - scans.length_deviation(locked).sigma_pm / scans.length_deviation(unlocked).sigma_pm
        assert abs(100 * sup - 77.0) <= 5.0

    def test_constant_setpoint_gives_zero(self):
        t = np.arange(1024) / 1000.0
        dl = 1500.0
        trans = np.full(t.size, scans.fringe_transmission(0.0, dl))
        trace = LockTrace(t, trans, 780.0, 780.0 / (2e-3 * dl), 0.5)
        dev = scans.length_deviation(trace)
        assert np.nanmax(np.abs(dev.delta_pm)) < 1e-9
        assert dev.sigma_pm == pytest.approx(0.0, abs=1e-9)

    def test_inversion_is_identity_in_range(self, rng):
        dl = 1300.0
        finesse = 780.0 / (2e-3 * dl)
        delta_true = rng.uniform(-500.0, 500.0, 4096)
        delta_true -= np.median(delta_true)  # median at the setpoint
        trans = scans.fringe_transmission(delta_true, dl)
        trace = LockTrace(np.arange(4096) / 1000.0, trans, 780.0, finesse, 0.5)
        dev = scans.length_deviation(trace)
        good = dev.valid
        assert np.max(np.abs(dev.delta_pm[good] - delta_true[good])) < 1e-6 * dl

    def test_clipped_samples_counted_not_extrapolated(self, rng):
        dl = 1300.0
        finesse = 780.0 / (2e-3 * dl)
        delta = rng.uniform(-100, 100, 1024)
        delta -= np.median(delta)
        trans = scans.fringe_transmission(delta, dl)
        spikes = np.zeros(1024, dtype=bool)
        spikes[::50] = True
        trans[spikes] = 1.3  # detector spikes above the fringe maximum
        trace = LockTrace(np.arange(1024) / 1000.0, trans, 780.0, finesse, 0.5)
        dev = scans.length_deviation(trace)
        assert dev.n_clipped == np.count_nonzero(spikes)
        assert np.all(np.isnan(dev.delta_pm[spikes]))
        assert np.all(~np.isnan(dev.delta_pm[~spikes]))


    def test_matches_the_reference_inversion_bit_for_bit(self, rng):
        # the in-place steps against the inversion as one expression, with
        # nonpositive samples and samples above the fringe maximum mixed in
        trans = scans.fringe_transmission(rng.normal(0.0, 300.0, 4096), 1300.0)
        trans[::97], trans[1::131], trans[2::151] = 0.0, -0.2, 1.3
        trace = LockTrace(np.arange(4096) / 1000.0, trans, 780.0, 300.0, 0.5)
        dev = scans.length_deviation(trace)
        dl, s = trace.linewidth_pm(), trace.setpoint_fraction
        t_max = scans._median(trans) / s
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = t_max / trans - 1.0
            delta = 0.5 * dl * np.sqrt(ratio) - 0.5 * dl * np.sqrt(1.0 / s - 1.0)
        expected = np.where((trans <= 0.0) | (ratio < 0.0), np.nan, delta)
        assert dev.n_clipped >= trans[::97].size + trans[1::131].size + trans[2::151].size
        assert dev.delta_pm.tobytes() == expected.tobytes()
        assert dev.sigma_pm == float(np.std(expected[~np.isnan(expected)]))

    def test_trace_left_unchanged(self, rng):
        trans = scans.fringe_transmission(rng.normal(0.0, 300.0, 4096), 1300.0)
        trans[::50] = 1.3  # clipped samples
        trace = LockTrace(np.arange(4096) / 1000.0, trans, 780.0, 300.0, 0.5)
        before = trace.time_s.copy(), trace.transmission.copy()
        scans.length_deviation(trace)
        assert np.array_equal(trace.time_s, before[0]) and np.array_equal(trace.transmission, before[1])

    def test_working_set(self, traced_peak):
        # the deviations, the invertible ones and np.std's scratch: about
        # three arrays of the trace's length
        unlocked, _ = scans.synthesize_lock_traces(LockSynthConfig(), seed=0)
        assert traced_peak(scans.length_deviation, unlocked) <= 3.2 * unlocked.transmission.nbytes


class TestNoiseSpectrum:
    def test_sine_line_localization_and_amplitude(self, rng):
        rate, n = 20_000.0, 1 << 16
        t = np.arange(n) / rate
        amp = 170.0
        x = amp * np.sin(2 * np.pi * 293.0 * t + 0.4) + rng.normal(0, 20.0, n)
        spec = scans.noise_spectrum(x, rate)
        assert spec.peaks, "line not detected"
        freq, est = max(spec.peaks, key=lambda p: p[1])
        assert abs(freq - 293.0) <= rate / n + 1e-9
        assert est == pytest.approx(amp, rel=0.03)

    def test_white_noise_parseval(self, rng):
        x = rng.normal(0, 50.0, 1 << 15)
        spec = scans.noise_spectrum(x, 10_000.0)
        assert spec.integrated_variance() == pytest.approx(np.var(x), rel=0.05)

    def test_band_edge_visible(self):
        cfg = LockSynthConfig(suppression_edge_hz=800.0)
        t, x_unlocked, x_locked = scans.synthesize_length_noise(cfg, seed=8)
        su = scans.noise_spectrum(x_unlocked, cfg.rate_hz)
        sl = scans.noise_spectrum(x_locked, cfg.rate_hz)
        ratio = sl.asd / np.maximum(su.asd, 1e-30)
        f = su.freq_hz
        below = (f > 100.0) & (f < 700.0)
        above = (f > 900.0) & (f < 4000.0)
        assert np.median(ratio[below]) < 0.5 * np.median(ratio[above])
        assert np.median(ratio[above]) == pytest.approx(1.0, abs=0.1)

    @pytest.mark.parametrize("n", [256, 257, 4096, 4099, 8191])
    def test_matches_the_reference_periodogram_bit_for_bit(self, rng, n):
        x = rng.normal(0.0, 50.0, n)
        spec = scans.noise_spectrum(x, 1000.0)
        w = np.hanning(n)
        psd = 2.0 * np.abs(np.fft.rfft((x - np.mean(x)) * w)) ** 2 / (1000.0 * np.sum(w**2))
        psd[0] /= 2.0
        if n % 2 == 0:
            psd[-1] /= 2.0
        assert spec.asd.tobytes() == np.sqrt(psd).tobytes()
        assert spec.freq_hz.tobytes() == np.fft.rfftfreq(n, d=1.0 / 1000.0).tobytes()

    @pytest.mark.parametrize("n", [8192, 8193, 1 << 17])
    def test_welch_matches_scipy(self, rng, n):
        signal = pytest.importorskip("scipy.signal")
        x = rng.normal(0.0, 50.0, n) + 30.0 * np.sin(2 * np.pi * 61.0 * np.arange(n) / 1000.0)
        spec = scans.noise_spectrum(x, 1000.0)
        # the np.hanning array: scipy's "hann" string is the periodic window
        freq, psd = signal.welch(x - x.mean(), 1000.0, window=np.hanning(4096), nperseg=4096, noverlap=2048,
                                 detrend=False, scaling="density")
        np.testing.assert_allclose(spec.asd**2, psd, rtol=1e-12, atol=0)
        np.testing.assert_allclose(spec.freq_hz, freq, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n, estimate", [
        (8191, (8191, 1, 1000.0 / 8191, 1000.0 / 8191)),
        (8192, (4096, 3, 1000.0 / 4096, 1000.0 / 8192)),
        (1 << 17, (4096, 63, 1000.0 / 4096, 1000.0 / (1 << 17))),
    ])
    def test_provenance(self, rng, n, estimate):
        spec = scans.noise_spectrum(rng.normal(0.0, 50.0, n), 1000.0)
        assert (spec.segment_samples, spec.segments) == estimate[:2]
        assert (spec.bin_hz, spec.line_bin_hz) == pytest.approx(estimate[2:], rel=1e-12)
        assert spec.freq_hz.size == spec.segment_samples // 2 + 1

    def test_lines_come_from_the_full_record(self):
        # the synth lock pair as analyze-lock fills it: clipped samples 0
        for trace in scans.synthesize_lock_traces(LockSynthConfig(), seed=4):
            dev = scans.length_deviation(trace)
            filled = np.where(dev.valid, dev.delta_pm - np.nanmean(dev.delta_pm), 0.0)
            spec = scans.noise_spectrum(filled, trace.rate_hz)
            assert spec.peaks and spec.peaks == full_record_lines(filled, trace.rate_hz)

    @pytest.mark.parametrize("n", [2, 3, 256, 257, 1 << 17, (1 << 17) + 1])
    def test_hann_window_is_numpys(self, rng, n):
        x = rng.normal(size=n)
        windowed = x.copy()
        power = scans._hann_weighted(windowed)
        w = np.hanning(n)
        assert windowed.tobytes() == (x * w).tobytes()
        assert power == np.sum(w**2)

    def test_series_left_unchanged(self, rng):
        x, t = rng.normal(0.0, 50.0, 4096), np.arange(4096) / 1000.0
        before = x.copy(), t.copy()
        scans.noise_spectrum(x, time_s=t)
        assert np.array_equal(x, before[0]) and np.array_equal(t, before[1])

    def test_working_set(self, traced_peak):
        # the windowed copy and its spectrum, then the PSD, the ASD and the
        # frequency axis: about three arrays of the series' length
        unlocked, _ = scans.synthesize_lock_traces(LockSynthConfig(), seed=0)
        dev = scans.length_deviation(unlocked)
        series = np.where(dev.valid, dev.delta_pm, 0.0)
        assert traced_peak(scans.noise_spectrum, series, unlocked.rate_hz) <= 3.2 * series.nbytes

    def test_non_uniform_sampling_rejected(self, rng):
        t = np.sort(rng.uniform(0, 1, 1024))
        with pytest.raises(ValueError, match="non-uniform"):
            scans.noise_spectrum(np.ones(1024), time_s=t)

    def test_minimum_samples(self):
        with pytest.raises(ValueError, match="256"):
            scans.noise_spectrum(np.ones(100), 1000.0)


class TestLockSynthesis:
    def test_requested_statistics_exact(self):
        cfg = LockSynthConfig(n_samples=1 << 17)
        t, xu, xl = scans.synthesize_length_noise(cfg, seed=5)
        assert np.std(xu) == pytest.approx(cfg.sigma_unlocked_pm, rel=0.05)
        assert np.std(xl) == pytest.approx(cfg.sigma_locked_pm, rel=0.05)

    def test_seed_determinism(self):
        cfg = LockSynthConfig(n_samples=1 << 12)
        a = scans.synthesize_lock_traces(cfg, seed=7)
        b = scans.synthesize_lock_traces(cfg, seed=7)
        assert np.array_equal(a[0].transmission, b[0].transmission)
        assert np.array_equal(a[1].transmission, b[1].transmission)

    def test_zero_noise_request_flat(self):
        cfg = LockSynthConfig(sigma_unlocked_pm=0.0, sigma_locked_pm=0.0, lines=(), n_samples=4096)
        unlocked, locked = scans.synthesize_lock_traces(cfg, seed=1)
        assert np.ptp(unlocked.transmission) == 0.0
        assert np.ptp(locked.transmission) == 0.0

    def test_unreachable_locked_sigma_rejected(self):
        cfg = LockSynthConfig(sigma_locked_pm=1.0, suppression_edge_hz=30.0)
        with pytest.raises(ValueError, match="unreachable"):
            scans.synthesize_length_noise(cfg, seed=1)


class TestMedian:
    def test_matches_numpy_median_bit_for_bit(self):
        hypothesis = pytest.importorskip("hypothesis")
        hst = hypothesis.strategies
        # repeated values, signed zeros and NaN mixed in with arbitrary floats
        values = hst.one_of(hst.floats(), hst.sampled_from([0.0, -0.0, 1.0, -1.0, np.nan]))

        @hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
        @hypothesis.given(hst.lists(values, min_size=1, max_size=41))
        def check(xs):
            x = np.array(xs)
            with np.errstate(all="ignore"):  # the mean of two huge values overflows in both
                expected = np.median(x)
                got = scans._median(x)
            assert np.float64(got).tobytes() == expected.tobytes(), (got, expected)

        check()
