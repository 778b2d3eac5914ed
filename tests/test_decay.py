import numpy as np
import pytest

from microcav import decay, synth
from microcav.decay import DecayShapeError, DecayTrace
from microcav.fitting import FitError


class TestDecayTrace:
    def test_uniform_grid_required(self):
        t = np.array([0.0, 1.0, 2.0, 3.5, 4.0, 5.0, 6.0, 7.0])
        with pytest.raises(ValueError):
            DecayTrace(t, np.ones(8))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            DecayTrace(np.arange(8.0), np.array([1, 2, -1, 0, 0, 0, 0, 0.0]))


class TestMonoFit:
    def test_noiseless_round_trip(self):
        t = np.arange(0, 10, 0.02)
        tr = DecayTrace(t, decay.mono_exp(t, 1.3, 5000.0, 10.0))
        fit = decay.fit_decay_mono(tr)
        assert fit["tau_ns"] == pytest.approx(1.3, rel=1e-6)

    def test_poisson_recovery_within_two_percent(self):
        for seed in range(3):
            tr = synth.synth_decay_trace(tau_ns=1.36, seed=seed)
            fit = decay.fit_decay_mono(tr)
            assert fit["tau_ns"] == pytest.approx(1.36, rel=0.02)

    def test_background_absorbed(self, rng):
        t = np.arange(0, 12, 0.032)
        clean = decay.mono_exp(t, 1.36, 20_000.0, 0.0)
        lifted = clean + 150.0
        fit_clean = decay.fit_decay_mono(DecayTrace(t, rng.poisson(clean + 1).astype(float)))
        fit_lift = decay.fit_decay_mono(DecayTrace(t, rng.poisson(lifted).astype(float)))
        assert fit_lift["background"] == pytest.approx(150.0, rel=0.1)
        # background parameter keeps tau unbiased within the noise
        assert fit_lift["tau_ns"] == pytest.approx(fit_clean["tau_ns"], rel=0.02)

    def test_non_decaying_trace_rejected(self, rng):
        t = np.arange(0, 10, 0.05)
        flat = np.full(t.size, 100.0) + rng.poisson(10, t.size)
        with pytest.raises((DecayShapeError, FitError)):
            decay.fit_decay_mono(DecayTrace(t, flat))

    def test_short_coverage_rejected(self):
        t = np.arange(0, 1.0, 0.01)  # less than one lifetime of 1.36 ns
        tr = DecayTrace(t, decay.mono_exp(t, 1.36, 5000.0, 10.0))
        with pytest.raises(FitError, match="3 lifetimes"):
            decay.fit_decay_mono(tr)


class TestKohlrausch:
    def test_beta_fixed_equals_mono(self):
        tr = synth.synth_decay_trace(tau_ns=1.3, seed=5)
        tau_mono = decay.fit_decay_mono(tr)["tau_ns"]
        k1 = decay.fit_decay_kohlrausch(tr, fix_beta=1.0)
        assert k1["tau_ns"] == pytest.approx(tau_mono, rel=1e-6)
        assert k1["beta"] == 1.0 and k1.sigmas["beta"] == 0.0

    def test_stretched_round_trip(self, rng):
        t = np.arange(0, 14, 0.032)
        model = decay.kohlrausch(t, 1.4, 0.8, 30_000.0, 20.0)
        tr = DecayTrace(t, rng.poisson(model).astype(float))
        fit = decay.fit_decay_kohlrausch(tr)
        assert fit["beta"] == pytest.approx(0.8, abs=0.05)
        assert fit["tau_ns"] == pytest.approx(1.4, rel=0.05)

    def test_mono_data_gives_beta_one(self):
        tr = synth.synth_decay_trace(tau_ns=1.36, peak_counts=60_000.0, seed=9)
        fit = decay.fit_decay_kohlrausch(tr)
        assert abs(fit["beta"] - 1.0) <= 2.0 * fit.sigmas["beta"] + 1e-3


class TestEmg:
    def test_small_sigma_limit_matches_mono(self):
        tr = synth.synth_decay_trace(tau_ns=1.3, sigma_irf_ns=0.0, seed=3)
        tau_mono = decay.fit_decay_mono(tr)["tau_ns"]
        tau_emg = decay.fit_decay_emg(tr)["tau_ns"]
        assert tau_emg == pytest.approx(tau_mono, rel=1e-3)

    def test_irf_broadening_systematics(self):
        # with a sizeable Gaussian IRF the EMG recovers the true lifetime
        # while the plain exponential picks up a systematic of a few percent
        taus_emg, taus_mono, sigmas = [], [], []
        for seed in range(4):
            tr = synth.synth_decay_trace(tau_ns=1.36, sigma_irf_ns=0.5, mu_ns=1.5, seed=seed)
            taus_emg.append(decay.fit_decay_emg(tr)["tau_ns"])
            taus_mono.append(decay.fit_decay_mono(tr)["tau_ns"])
            sigmas.append(decay.fit_decay_emg(tr)["sigma_irf_ns"])
        assert np.mean(taus_emg) == pytest.approx(1.36, rel=0.02)
        assert np.mean(sigmas) == pytest.approx(0.5, rel=0.1)
        bias = abs(np.mean(taus_mono) - 1.36) / 1.36
        assert 0.01 < bias < 0.10  # a few percent, direction documented

    def test_no_overflow_far_before_pulse(self):
        t = np.arange(-40.0, 10.0, 0.05)
        vals = decay.emg(t, 1.36, 0.0, 0.2, 1000.0, 0.0)
        assert np.all(np.isfinite(vals))
        assert abs(vals[0]) < 1e-10  # ~0 long before the pulse

    def test_deep_tail_stable(self):
        t = np.arange(0.0, 400.0, 0.5)
        vals = decay.emg(t, 2.0, 1.0, 0.3, 1000.0, 0.0)
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0)


class TestJacobians:
    @pytest.mark.parametrize(
        "f,jac,p0",
        [
            (decay.mono_exp, decay.mono_exp_jac, [1.36, 3000.0, 15.0]),
            (decay.kohlrausch, decay.kohlrausch_jac, [1.4, 0.8, 3000.0, 15.0]),
            (decay.emg, decay.emg_jac, [1.36, 1.0, 0.3, 3000.0, 15.0]),
        ],
    )
    def test_matches_central_differences(self, f, jac, p0, rng):
        t = np.linspace(0.01, 12, 150)
        for _ in range(5):
            p = np.asarray(p0) * rng.uniform(0.9, 1.1, len(p0))
            j_a = jac(t, *p)
            j_n = np.empty_like(j_a)
            for i in range(len(p)):
                h = max(abs(p[i]), 1e-3) * 1e-6
                up, dn = p.copy(), p.copy()
                up[i] += h
                dn[i] -= h
                j_n[:, i] = (f(t, *up) - f(t, *dn)) / (2 * h)
            scale = np.max(np.abs(j_a), axis=0) + 1e-30
            assert np.max(np.abs(j_a - j_n) / scale) < 1e-6


class TestConservativeBounds:
    def test_mono_synthetic_tight_bounds(self):
        tr = synth.synth_decay_trace(tau_ns=1.36, peak_counts=80_000.0, seed=1)
        summary = decay.lifetime_with_conservative_bounds(tr)
        assert not summary.errors
        assert summary.tau_best_ns == summary.results["kohlrausch"]["tau_ns"]
        assert (summary.tau_max_ns - summary.tau_min_ns) / summary.tau_best_ns < 0.01

    def test_irf_broadened_spread(self):
        tr = synth.synth_decay_trace(tau_ns=1.36, sigma_irf_ns=0.3, mu_ns=1.5, seed=2)
        summary = decay.lifetime_with_conservative_bounds(tr)
        spread = (summary.tau_max_ns - summary.tau_min_ns) / 1.36
        assert 0.01 < spread < 0.12
        # the EMG is the model closest to the generating lifetime
        errs = {name: abs(res["tau_ns"] - 1.36) for name, res in summary.results.items()}
        assert min(errs, key=errs.get) == "emg"

    def test_non_decaying_structured_report(self, rng):
        t = np.arange(0, 10, 0.05)
        tr = DecayTrace(t, rng.poisson(100.0, t.size).astype(float))
        with pytest.raises(FitError) as info:
            decay.lifetime_with_conservative_bounds(tr)
        report = info.value.diagnostics["model_errors"]
        assert set(report) == {"mono", "kohlrausch", "emg"}
