"""The numpy peak finder against scipy.signal, its reference definition."""

import numpy as np
import pytest
from scipy import signal

from microcav import scans, synth
from microcav import stack as st
from microcav.peaks import find_peaks
from oracles import flatten_assembly, transmission


def assert_matches_scipy(x, height=None, prominence=None):
    idx, prominences, widths = find_peaks(x, height=height, prominence=prominence)
    ref, props = signal.find_peaks(x, height=height, prominence=prominence)
    np.testing.assert_array_equal(idx, ref)
    if prominence is None:
        assert prominences is None and widths is None
        return idx
    np.testing.assert_array_equal(prominences, props["prominences"])
    if ref.size:
        np.testing.assert_allclose(widths, signal.peak_widths(x, ref, rel_height=0.5)[0], rtol=1e-12, atol=0)
    return idx


class TestAgainstScipy:
    def test_random_traces(self):
        rng = np.random.default_rng(2024)
        found = 0
        for k in range(360):
            n = int(rng.integers(3, 401))
            x = rng.normal(size=n).cumsum() if k % 2 else rng.normal(size=n)
            if k % 3 == 0:  # plateaus, including at the ends and plateau peaks
                x = np.round(x * rng.uniform(0.3, 3.0))
            lo, hi = float(np.min(x)), float(np.max(x))
            height = float(rng.uniform(lo, hi)) if k % 4 == 0 else None
            prominence = float(rng.uniform(0.0, 1.0) ** 2 * (hi - lo))
            found += assert_matches_scipy(x, height, prominence).size
            assert_matches_scipy(x, height=height)
        assert found > 500

    def test_edge_cases(self):
        for x in ([1.0, 2.0, 1.0], [2.0, 2.0, 2.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0, 0.0],
                  [3.0, 1.0, 2.0, 1.0, 3.0], [0.0, 2.0, 1.0, 2.0, 0.0], [0.0, 1.0, 0.0, 1.0, 0.0], [5.0, 0.0, 5.0]):
            x = np.asarray(x)
            for prominence in (0.0, 0.5, 1.0, 3.0):
                assert_matches_scipy(x, prominence=prominence)
            assert_matches_scipy(x, height=1.0)

    def test_synth_scan(self):
        y = synth.synth_scan_trace(seed=3).transmission
        idx = assert_matches_scipy(y, prominence=0.05 * float(np.ptp(y)))
        assert idx.size == 18

    def test_lock_noise_spectrum(self):
        unlocked, _ = scans.synthesize_lock_traces(scans.LockSynthConfig(), seed=3)
        dev = scans.length_deviation(unlocked)
        filled = np.where(np.isnan(dev.delta_pm), 0.0, dev.delta_pm - np.nanmean(dev.delta_pm))
        # |rfft| of the whole windowed record, proportional to the ASD noise_spectrum finds lines on
        w = np.hanning(filled.size)
        asd = np.abs(np.fft.rfft((filled - np.mean(filled)) * w))
        assert_matches_scipy(asd, height=8.0 * float(np.median(asd)))
        assert_matches_scipy(asd)
        assert_matches_scipy(asd, prominence=0.01 * float(np.ptp(asd)))

    @pytest.mark.parametrize("gap_nm", [2_100.0, 13_500.0])
    def test_cavity_transmission(self, membrane_assembly, gap_nm):
        wl = np.linspace(680.0, 770.0, 120_001)
        t = transmission(flatten_assembly(membrane_assembly.with_gap(gap_nm)), wl)
        idx = assert_matches_scipy(t, prominence=1e-3 * float(np.max(t)))
        assert idx.size >= 2


class TestCandidateFilter:
    def test_only_candidates_are_walked(self, rng):
        # ~330k noise maxima, two of them prominent: the stack sees only the
        # peaks with x - min(x) >= prominence, yet both prominences are exact
        x = rng.normal(0.0, 0.01, 1_000_000)
        p1, p2 = 250_000, 750_000
        x[[p1, p2]] = [5.0, 4.0]
        idx, prominences, _ = find_peaks(x, prominence=1.0)
        assert idx.tolist() == [p1, p2]
        expected = [x[p1] - max(x[: p1 + 1].min(), x[p1:].min()), x[p2] - max(x[p1 + 1 : p2 + 1].min(), x[p2:].min())]
        np.testing.assert_array_equal(prominences, expected)


class TestWorkingSet:
    def test_input_left_unchanged(self, rng):
        x = rng.normal(0.0, 0.01, 10_000)
        x[[2_500, 7_500]] = [5.0, 4.0]
        before = x.copy()
        find_peaks(x, height=0.0, prominence=1.0)
        assert np.array_equal(x, before)

    def test_peak_search(self, rng, traced_peak):
        # the differences, the indices of the nonzero ones and two boolean
        # masks: about 2.5 arrays of the input's length
        x = rng.normal(size=1_000_000)
        assert traced_peak(find_peaks, x) <= 2.6 * x.nbytes
