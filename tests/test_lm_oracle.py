"""The numpy fitting engine and erfcx against scipy, which is imported here only.

Each fit runs twice through ``lm_fit``: once with its own bounded
Levenberg-Marquardt and once with the engine swapped for
``scipy.optimize.least_squares(method="trf")`` at the same tolerances.  Both
runs share the residual, weighting, Gauss-Newton polish and covariance code,
so any difference is the engine's.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, special
from scipy.optimize._numdiff import approx_derivative

from microcav import decay, fitting, spectral, synth
from microcav import stack as st
from microcav.decay import DecayTrace
from microcav.dispersion_fit import fit_dispersion
from microcav.purcell import EmitterParams, LifetimeModel, fit_lifetime_model
from microcav.resonance import find_resonances
from microcav.spectral import SpectrumTrace


def _trf_engine(residual, jacobian, p, lo, hi, max_nfev, r_zero, tol=1e-13, noise=0.0):
    def zero_residual_stop(intermediate_result):
        # the same stop as the numpy engine's; without it the noiseless EMG
        # fits of criterion 8 run all 5000 evaluations
        if np.sqrt(2.0 * intermediate_result.cost) <= r_zero:
            raise StopIteration

    res = optimize.least_squares(
        residual, p, jac=lambda q: jacobian(q, residual(q)), bounds=(lo, hi), method="trf",
        xtol=tol, ftol=max(tol, noise), gtol=tol, max_nfev=max_nfev, callback=zero_residual_stop,
    )
    # scipy's status 4 (ftol and xtol both met) reads as ftol, -2 (the stop above) as zero residual
    status = {4: 2, -2: 2}.get(res.status, res.status)
    return res.x, res.fun, res.jac, res.nfev, status, res.status == -2


def _run(fit, engine, monkeypatch):
    """(FitResult, r_zero) of ``fit()`` on ``engine``; r_zero is the engine's zero-residual floor."""
    floors = []

    def recording(residual, jacobian, p, lo, hi, max_nfev, r_zero, **tolerances):
        floors.append(r_zero)
        return engine(residual, jacobian, p, lo, hi, max_nfev, r_zero, **tolerances)

    with monkeypatch.context() as m, warnings.catch_warnings():
        warnings.simplefilter("ignore", fitting.DegenerateFitWarning)
        m.setattr(fitting, "_levenberg_marquardt", recording)
        result = fit()
    return getattr(result, "fit", result), floors[-1]


def _assert_agree(fit, monkeypatch, chi2_rel, sigma_tol, two_sided=False):
    ours, floor = _run(fit, fitting._levenberg_marquardt, monkeypatch)
    ref, _ = _run(fit, _trf_engine, monkeypatch)
    floor = floor**2
    excess = ours.chi2 - ref.chi2
    if two_sided:
        excess = abs(excess)
    assert excess <= chi2_rel * ref.chi2 + floor, (ours.chi2, ref.chi2)
    if ref.chi2 > floor:
        # a numerically zero residual pins the data, not the parameters
        for name, value in ref.params.items():
            assert abs(ours.params[name] - value) <= sigma_tol * ref.sigmas[name], (name, ours.params[name], value)
    return ours, ref


# --------------------------------------------------------------------------
# the fit fixtures of the Tier-1 suite
# --------------------------------------------------------------------------


def _quad(x, a, b, c):
    return a * x**2 + b * x + c


def _noisy(seed, clean):
    return np.random.default_rng(seed).poisson(clean).astype(float)


def _decay_cases():
    t = np.arange(0, 12, 0.032)
    clean = decay.mono_exp(t, 1.36, 20_000.0, 0.0)
    t14 = np.arange(0, 14, 0.032)
    t_rt = np.arange(0, 12, 0.02)
    cases = {
        "mono-noiseless": lambda: decay.fit_decay_mono(DecayTrace(np.arange(0, 10, 0.02), decay.mono_exp(np.arange(0, 10, 0.02), 1.3, 5000.0, 10.0))),
        "mono-background-clean": lambda: decay.fit_decay_mono(DecayTrace(t, _noisy(12345, clean + 1))),
        "mono-background-lifted": lambda: decay.fit_decay_mono(DecayTrace(t, _noisy(54321, clean + 150.0))),
        "kohlrausch-stretched": lambda: decay.fit_decay_kohlrausch(DecayTrace(t14, _noisy(12345, decay.kohlrausch(t14, 1.4, 0.8, 30_000.0, 20.0)))),
        "kohlrausch-mono-data": lambda: decay.fit_decay_kohlrausch(synth.synth_decay_trace(tau_ns=1.36, peak_counts=60_000.0, seed=9)),
        "kohlrausch-beta-fixed": lambda: decay.fit_decay_kohlrausch(synth.synth_decay_trace(tau_ns=1.3, seed=5), fix_beta=1.0),
        "emg-small-sigma": lambda: decay.fit_decay_emg(synth.synth_decay_trace(tau_ns=1.3, sigma_irf_ns=0.0, seed=3)),
        "mono-roundtrip": lambda: decay.fit_decay_mono(DecayTrace(t_rt, decay.mono_exp(t_rt, 1.36, 3e4, 25.0))),
        "kohlrausch-roundtrip": lambda: decay.fit_decay_kohlrausch(DecayTrace(t_rt, decay.kohlrausch(t_rt, 1.5, 0.8, 3e4, 25.0))),
        "emg-roundtrip": lambda: decay.fit_decay_emg(DecayTrace(t_rt, decay.emg(t_rt, 1.36, 1.2, 0.3, 3e4, 25.0))),
    }
    for seed in range(4):
        irf = synth.synth_decay_trace(tau_ns=1.36, sigma_irf_ns=0.5, mu_ns=1.5, seed=seed)
        cases[f"emg-irf-{seed}"] = lambda tr=irf: decay.fit_decay_emg(tr)
        cases[f"mono-irf-{seed}"] = lambda tr=irf: decay.fit_decay_mono(tr)
    for seed in range(3):
        cases[f"mono-poisson-{seed}"] = lambda s=seed: decay.fit_decay_mono(synth.synth_decay_trace(tau_ns=1.36, seed=s))
    for tau in (0.8, 1.36, 2.5):  # criterion 8: noiseless traces, EMG on a flat ridge
        tn = np.arange(0.0, 10.0 * tau / 2.0, 0.032)
        tr = DecayTrace(tn, decay.mono_exp(tn, tau, 3e4, 20.0))
        cases[f"nesting-mono-{tau}"] = lambda tr=tr: decay.fit_decay_mono(tr)
        cases[f"nesting-kohlrausch-{tau}"] = lambda tr=tr: decay.fit_decay_kohlrausch(tr, fix_beta=1.0)
        cases[f"nesting-emg-{tau}"] = lambda tr=tr: decay.fit_decay_emg(tr)
    # the lab-analysis benchmark's decay: IRF-broadened, all three models
    for seed in (0, 3):
        lab = synth.synth_decay_trace(tau_ns=1.36, sigma_irf_ns=0.3, seed=seed)
        for name, fn in (("mono", decay.fit_decay_mono), ("kohlrausch", decay.fit_decay_kohlrausch), ("emg", decay.fit_decay_emg)):
            cases[f"lab-{name}-{seed}"] = lambda tr=lab, fn=fn: fn(tr)
    return cases


def _spectral_cases():
    x = np.linspace(720, 760, 300)
    xs = np.linspace(-10, 10, 401)
    xf = np.linspace(730, 740, 200)
    xa = np.linspace(730, 745, 350)
    xd = np.linspace(734, 740, 500)
    xw = np.linspace(730, 745, 500)
    yd = spectral.double_lorentzian(xd, 736.57, 737.25, 0.45, 900.0, 1100.0, 30.0)
    xsym = np.linspace(-5, 5, 800)
    xp = np.linspace(730, 745, 400)
    t_lw = np.array([4.0, 40.0, 80.0, 120.0, 200.0, 300.0])
    t9 = np.linspace(4, 300, 9)
    cases = {
        "lorentz-noiseless": lambda: spectral.fit_lorentzian(SpectrumTrace(x, spectral.lorentzian(x, 738.7, 5.0, 1000.0, 50.0))),
        "lorentz-synth": lambda: spectral.fit_lorentzian(synth.synth_lorentzian_spectrum(seed=4)),
        "lorentz-symmetric": lambda: spectral.fit_lorentzian(SpectrumTrace(xs, spectral.lorentzian(xs, 0.0, 3.0, 100.0, 5.0))),
        "lorentz-flat": lambda: spectral.fit_lorentzian(SpectrumTrace(xf, 100.0 + np.random.default_rng(12345).normal(0, 1.0, xf.size))),
        "lorentz-shifted": lambda: spectral.fit_lorentzian(SpectrumTrace(xa + 3.25, spectral.lorentzian(xa, 736.5, 2.0, 500.0, 10.0))),
        "lorentz-roundtrip": lambda: spectral.fit_lorentzian(SpectrumTrace(xw, spectral.lorentzian(xw, 737.1, 2.1, 850.0, 12.0))),
        "doublet": lambda: spectral.fit_double_lorentzian_equal_width(SpectrumTrace(xd, yd)),
        "doublet-shifted": lambda: spectral.fit_double_lorentzian_equal_width(SpectrumTrace(xd - 2.5, yd)),
        "doublet-synth": lambda: spectral.fit_double_lorentzian_equal_width(synth.synth_doublet_spectrum(seed=2)),
        "doublet-symmetric": lambda: spectral.fit_double_lorentzian_equal_width(SpectrumTrace(xsym, spectral.double_lorentzian(xsym, -1.0, 1.0, 0.5, 200.0, 200.0, 0.0))),
        "doublet-single-peak": lambda: spectral.fit_double_lorentzian_equal_width(SpectrumTrace(xp, spectral.lorentzian(xp, 736.9, 1.2, 800.0, 20.0))),
        "doublet-roundtrip": lambda: spectral.fit_double_lorentzian_equal_width(SpectrumTrace(xw, spectral.double_lorentzian(xw, 736.6, 737.3, 0.5, 700.0, 950.0, 8.0))),
        "cubic-synth": lambda: spectral.fit_cubic_temperature(synth.synth_temperature_series(seed=6)),
        "cubic-constant": lambda: spectral.fit_cubic_temperature(np.column_stack([[10.0, 50.0, 100.0, 200.0], np.full(4, 736.9)])),
        "cubic-linewidth": lambda: spectral.fit_cubic_temperature(np.column_stack([t_lw, 310.0 + 4.1e-4 * t_lw**3 + np.random.default_rng(12345).normal(0, 3.0, t_lw.size)])),
        "cubic-roundtrip": lambda: spectral.fit_cubic_temperature(np.column_stack([t9, 736.86 + 6.7e-8 * t9**3])),
    }
    for seed in range(3):
        cases[f"doublet-ordering-{seed}"] = lambda s=seed: spectral.fit_double_lorentzian_equal_width(synth.synth_doublet_spectrum(a1=1500.0, a2=400.0, seed=s))
    # the lab-analysis benchmark's spectra
    for seed in (0, 3):
        cases[f"lab-doublet-{seed}"] = lambda s=seed: spectral.fit_double_lorentzian_equal_width(synth.synth_doublet_spectrum(seed=s))
        cases[f"lab-lorentz-{seed}"] = lambda s=seed: spectral.fit_lorentzian(synth.synth_lorentzian_spectrum(seed=s))
        cases[f"lab-tdep-{seed}"] = lambda s=seed: spectral.fit_cubic_temperature(synth.synth_temperature_series(seed=s))
    return cases


def _generic_cases():
    x = np.linspace(-3, 5, 40)
    xl = np.linspace(0, 10, 60)
    yl = 2.5 * xl - 1.3 + np.random.default_rng(12345).normal(0, 0.15, xl.size)
    design = np.vstack([xl, np.ones_like(xl)]).T
    xd = np.linspace(0, 1, 30)
    xw = np.linspace(0, 10, 200)
    yw = 3.0 * xw + np.random.default_rng(12345).normal(0, 0.5, xw.size)
    return {
        "quadratic-noiseless": lambda: fitting.lm_fit(_quad, x, _quad(x, 1.7, -0.4, 2.2), [1.5, 0.0, 1.0]),
        "linear-analytic": lambda: fitting.lm_fit(lambda x, a, b: a * x + b, xl, yl, [0.0, 0.0], jac=lambda x, a, b: design),
        "linear-weighted": lambda: fitting.lm_fit(lambda x, a: a * x, xw, yw, [1.0], sigma=np.full(xw.size, 0.5), jac=lambda x, a: x[:, None]),
        "degenerate-pair": lambda: fitting.lm_fit(lambda x, a, b: (a + b) * x + 1e-6 * b * x**2, xd, 2.0 * xd + 1e-9 * xd**2, [1.0, 1.0],
                                                  jac=lambda x, a, b: np.column_stack([x, x + 1e-6 * x**2])),
    }


TIER1_CASES = {**_generic_cases(), **_decay_cases(), **_spectral_cases()}


class TestTier1Fixtures:
    @pytest.mark.parametrize("case", sorted(TIER1_CASES))
    def test_analytic_jacobian_fits(self, case, monkeypatch):
        _assert_agree(TIER1_CASES[case], monkeypatch, chi2_rel=1e-9, sigma_tol=1e-6)

    def test_finite_difference_linear_fit(self, monkeypatch):
        xl = np.linspace(0, 10, 60)
        yl = 2.5 * xl - 1.3 + np.random.default_rng(12345).normal(0, 0.15, xl.size)
        _assert_agree(lambda: fitting.lm_fit(lambda x, a, b: a * x + b, xl, yl, [0.0, 0.0]), monkeypatch, chi2_rel=1e-9, sigma_tol=1e-6)

    def test_lifetime_fits(self, membrane_assembly, monkeypatch):
        # criterion 7 and tests/test_purcell.py: 100 noisy curves, eta fixed, a weak lever arm
        model = LifetimeModel(membrane_assembly, EmitterParams(), (8.0, 26.0))
        l_eff = np.linspace(8.5, 25.0, 24)
        tau_true = model.tau(l_eff, 1.36, 0.51)
        for seed in range(100):
            noisy = tau_true * (1.0 + 0.02 * np.random.default_rng(seed).standard_normal(l_eff.size))
            data = np.column_stack([l_eff, noisy, 0.02 * tau_true])
            _assert_agree(lambda: fit_lifetime_model(data, model), monkeypatch, chi2_rel=1e-9, sigma_tol=1e-6)
        rng = np.random.default_rng(3)
        data = np.column_stack([np.linspace(9.0, 24.0, 8), 1.36 + rng.normal(0, 0.01, 8), rng.uniform(0.01, 0.03, 8)])
        _assert_agree(lambda: fit_lifetime_model(data, model, fix_eta=0.0), monkeypatch, chi2_rel=1e-9, sigma_tol=1e-6)
        l_wide = np.linspace(12.0, 25.0, 12)
        tau = model.tau(l_wide, 1.36, 0.51) * (1 + 0.01 * np.random.default_rng(4).standard_normal(12))
        data = np.column_stack([l_wide, tau, 0.01 * tau])
        _assert_agree(lambda: fit_lifetime_model(data, model), monkeypatch, chi2_rel=1e-9, sigma_tol=1e-6)

    def test_dispersion_fits(self, monkeypatch):
        # criterion 4 and tests/test_dispersion_fit.py.  The model is a
        # Newton root with an analytic Jacobian, smooth down to rounding; both
        # engines stop on cost changes at the fit's noise level, so either
        # may end a hair lower: two-sided bounds.
        rng = np.random.default_rng(42)
        asm = st.default_assembly()
        pts = np.asarray([
            (g - 40.0, p.wavelength_nm + rng.normal(0.0, 0.05))
            for g in np.linspace(12_800.0, 14_400.0, 9)
            for p in find_resonances(asm, float(g), (715.0, 755.0))
        ])
        init = {"t_d_nm": 1400.0, "t_g2_nm": 150.0, "gap_offset_nm": 0.0}
        for fit in (
            lambda: fit_dispersion(pts, asm, initial=init),
            lambda: fit_dispersion(pts, asm),
            lambda: fit_dispersion(pts, asm, fix_gap2_nm=0.0),
        ):
            _assert_agree(fit, monkeypatch, chi2_rel=1e-9, sigma_tol=1e-4, two_sided=True)


# --------------------------------------------------------------------------
# random bounded problems
# --------------------------------------------------------------------------


def _exp_decay(x, a, t, b):
    return a * np.exp(-x / t) + b


def _exp_decay_jac(x, a, t, b):
    e = np.exp(-x / t)
    return np.column_stack([e, a * e * x / t**2, np.ones_like(x)])


def _gauss(x, c, w, a, b):
    return a * np.exp(-0.5 * ((x - c) / w) ** 2) + b


def _gauss_jac(x, c, w, a, b):
    g = np.exp(-0.5 * ((x - c) / w) ** 2)
    return np.column_stack([a * g * (x - c) / w**2, a * g * (x - c) ** 2 / w**3, g, np.ones_like(x)])


def _saturation(x, a, k, b):
    return a * x / (k + x) + b


def _saturation_jac(x, a, k, b):
    return np.column_stack([x / (k + x), -a * x / (k + x) ** 2, np.ones_like(x)])


_FAMILIES = (
    (_exp_decay, _exp_decay_jac, lambda r: (r.uniform(0, 10, 60), [r.uniform(1, 100), r.uniform(0.5, 5), r.uniform(-5, 5)])),
    (_gauss, _gauss_jac, lambda r: (np.linspace(-10, 10, 80), [r.uniform(-3, 3), r.uniform(0.5, 3), r.uniform(5, 50), r.uniform(-2, 2)])),
    (_saturation, _saturation_jac, lambda r: (r.uniform(0, 20, 50), [r.uniform(1, 10), r.uniform(0.5, 5), r.uniform(-1, 1)])),
)


def _random_problem(seed, active_bound=False):
    """(model, jac, x, y, p0, sigma, bounds) with the truth inside the box.

    Even seeds start one parameter on its lower bound.  With
    ``active_bound`` one bound cuts off the truth, so the solution sits on it.
    """
    r = np.random.default_rng(seed)
    model, jac, draw = _FAMILIES[seed % 3]
    x, truth = draw(r)
    truth = np.asarray(truth)
    noise = r.uniform(0.005, 0.03) * np.max(np.abs(model(x, *truth)))
    y = model(x, *truth) + r.normal(0, noise, x.size)
    sigma = np.full(x.size, noise) if r.random() < 0.5 else None
    width = np.abs(truth) * r.uniform(0.3, 0.6, truth.size) + 0.1
    lo, hi = truth - width, truth + width
    lo[r.random(truth.size) < 0.3] = -np.inf
    hi[r.random(truth.size) < 0.3] = np.inf
    lo[1] = max(lo[1], 0.1 * truth[1])  # decay time, width and k stay positive
    p0 = np.clip(truth * (1 + 0.3 * r.uniform(-1, 1, truth.size)), lo, hi)
    k = int(r.integers(truth.size))
    if active_bound:
        hi[k] = truth[k] - 0.2 * abs(truth[k]) - 0.05
        lo[k] = min(lo[k], hi[k] - width[k])
        p0[k] = hi[k]
    elif seed % 2 == 0:
        lo[k] = truth[k] - width[k]
        p0[k] = lo[k]
    return model, jac, x, y, p0, sigma, (lo, hi)


class TestRandomBoundedProblems:
    def test_interior_solutions(self, monkeypatch):
        for seed in range(240):
            model, jac, x, y, p0, sigma, bounds = _random_problem(seed)
            _assert_agree(lambda: fitting.lm_fit(model, x, y, p0, sigma=sigma, bounds=bounds, jac=jac),
                          monkeypatch, chi2_rel=1e-9, sigma_tol=1e-6)

    def test_solutions_on_a_bound(self, monkeypatch):
        # trf approaches a bound from inside and stops up to a few 1e-6 sigma
        # short of the constrained minimum, so only chi2 is compared here;
        # the numpy engine lands exactly on the bound
        on_bound = 0
        for seed in range(60):
            model, jac, x, y, p0, sigma, (lo, hi) = _random_problem(seed, active_bound=True)
            fit = lambda: fitting.lm_fit(model, x, y, p0, sigma=sigma, bounds=(lo, hi), jac=jac)
            ours, _ = _assert_agree(fit, monkeypatch, chi2_rel=1e-9, sigma_tol=np.inf)
            on_bound += np.any(np.array(list(ours.params.values())) == hi)
        assert on_bound >= 55  # in the others the remaining parameters absorb the cut


# --------------------------------------------------------------------------
# finite differences and erfcx
# --------------------------------------------------------------------------


class TestFiniteDifferences:
    def test_matches_scipy_two_point_rule(self):
        x = np.linspace(0.1, 8, 40)
        y = 3.0 * np.exp(-x / 1.7)
        residual = lambda p: p[0] * np.exp(-x / p[1]) + p[2] - y
        lo, hi = np.array([0.0, 0.5, -1.0]), np.array([10.0, 5.0, 0.0])
        for p in (np.array([2.0, 1.0, -0.5]), np.array([10.0, 5.0, 0.0]), np.array([0.0, 0.5, -1.0])):
            r = residual(p)
            ours = fitting._fd_jacobian(residual, p, r, lo, hi)
            ref = approx_derivative(residual, p, method="2-point", f0=r, bounds=(lo, hi))
            np.testing.assert_array_equal(ours, ref)

    def test_step_at_upper_bound_stays_in_box(self):
        lo, hi = np.array([-1.0, 0.0, 2.0]), np.array([1.0, 3.0, 2.5])
        p = hi.copy()
        visited = []

        def residual(q):
            visited.append(q.copy())
            return np.array([q[0] + q[1], q[1] * q[2], q[2] ** 2, 1.0])

        jac = fitting._fd_jacobian(residual, p, residual(p), lo, hi)
        assert all(np.all(q >= lo) and np.all(q <= hi) for q in visited)
        np.testing.assert_allclose(jac, [[1, 1, 0], [0, 2.5, 3.0], [0, 0, 5.0], [0, 0, 0]], rtol=1e-6, atol=1e-6)


class TestErfcx:
    def test_erfcx_matches_scipy(self):
        x = np.concatenate([np.linspace(0.0, 30.0, 100_001), np.logspace(-12, 8, 100_001)])
        rel = np.abs(decay._erfcx(x) / special.erfcx(x) - 1.0)
        assert np.max(rel) <= 2e-15

    def test_erfc_branch_matches_scipy(self):
        # sigma = 1/sqrt(2), tau = 1, mu = 0: x = 0.5 - t and E = erfc(x) exp(0.25 - t)
        t = np.linspace(0.5, 27.5, 100_001)
        E, _, x = decay._emg_core(t, 1.0, 0.0, 1.0 / np.sqrt(2.0))
        neg = x < 0
        ours = E[neg] / np.exp(0.25 - t[neg])
        rel = np.abs(ours / special.erfc(x[neg]) - 1.0)
        assert x.min() == pytest.approx(-27.0) and np.max(rel) <= 2e-15

    def test_coefficients_are_computed_on_first_use(self):
        src = str(Path(decay.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = (
            "from microcav import decay\n"
            "assert decay._weideman_coefficients.cache_info().currsize == 0\n"
            "decay.emg([0.0, 1.0], 1.0, 0.0, 0.1, 1.0, 0.0)\n"
            "assert decay._weideman_coefficients.cache_info().currsize == 1\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
