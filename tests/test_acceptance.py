"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines
with timings.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from microcav import constants, decay, metrics, purcell, scans, spectral, synth
from microcav import stack as st
from microcav.dispersion_fit import fit_dispersion
from microcav.purcell import EmitterParams, LifetimeModel, fit_lifetime_model, predict_lifetime_curve
from microcav.resonance import PhaseModel, StandingWave, find_resonances
from oracles import stack_response


def _report(n, label, t0, budget_s):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {n:2d}: PASS  {label}  ({elapsed:.2f} s / budget {budget_s:.0f} s)")
    assert elapsed < budget_s


def test_criterion_01_finesse_arithmetic():
    t0 = time.perf_counter()
    budget = metrics.LossBudget(1480.0, 1480.0, 20.0, 20.0)
    finesse = metrics.finesse_from_losses(budget)
    assert finesse == pytest.approx(2200.0, rel=0.10)
    _report(1, f"finesse {finesse:.0f} within 10% of 2200", t0, 1.0)


def test_criterion_02_mode_geometry():
    t0 = time.perf_counter()
    w0 = metrics.mode_waist(1.6, 45.0, 736.0)
    v_m = metrics.mode_volume(w0, 1.6)
    v_l3 = metrics.mode_volume_lambda3(v_m, 736.0)
    assert w0 == pytest.approx(1.4, rel=0.05)
    assert v_l3 == pytest.approx(5.8, rel=0.10)
    _report(2, f"w0 {w0:.3f} um (1.4 +-5%), V_m {v_l3:.2f} lambda^3 (5.8 +-10%)", t0, 1.0)


def test_criterion_03_tmm_airy_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_rel = 0.0
    worst_energy = 0.0
    for _ in range(1000):
        n1 = rng.uniform(1.0, 3.5)
        d = rng.uniform(10.0, 5000.0)
        wl = rng.uniform(400.0, 1200.0)
        slab = st.LayerStack(st.AIR, (st.Layer(st.Material("x", n1), d),), st.AIR)
        resp = stack_response(slab, wl)
        # independent closed-form Airy oracle
        r01 = (1.0 - n1) / (1.0 + n1)
        e2 = np.exp(2j * 2 * np.pi * n1 * d / wl)
        r = (r01 - r01 * e2) / (1 - r01**2 * e2)
        tt = (1 - r01**2) * np.exp(1j * 2 * np.pi * n1 * d / wl) / (1 - r01**2 * e2)
        R_a, T_a = abs(r) ** 2, abs(tt) ** 2
        worst_rel = max(
            worst_rel,
            abs(resp.R - R_a) / max(R_a, 1e-15),
            abs(resp.T - T_a) / max(T_a, 1e-15),
        )
        worst_energy = max(worst_energy, abs(resp.R + resp.T - 1.0))
    assert worst_rel <= 1e-9
    assert worst_energy <= 1e-9
    _report(3, f"1000 Airy cases, worst rel err {worst_rel:.2e}, worst |R+T-1| {worst_energy:.2e}", t0, 10.0)


def test_criterion_04_dispersion_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    asm = st.default_assembly()  # truth: t_d 1420 nm, t_g2 250 nm
    offset_true = 40.0
    pts = []
    for g in np.linspace(12_800.0, 14_400.0, 9):
        for p in find_resonances(asm, float(g), (715.0, 755.0)):
            pts.append((g - offset_true, p.wavelength_nm + rng.normal(0.0, 0.05)))
    pts = np.asarray(pts)

    free = fit_dispersion(pts, st.default_assembly(),
                          initial={"t_d_nm": 1400.0, "t_g2_nm": 150.0, "gap_offset_nm": 0.0})
    assert free.t_d_nm == pytest.approx(1420.0, abs=20.0)
    assert free.t_g2_nm == pytest.approx(250.0, abs=50.0)
    frozen = fit_dispersion(pts, st.default_assembly(), fix_gap2_nm=0.0)
    assert frozen.chi2 >= 5.0 * free.chi2
    _report(
        4,
        f"t_d {free.t_d_nm:.0f} (+-20 of 1420), t_g2 {free.t_g2_nm:.0f} (+-50 of 250), "
        f"frozen/free chi2 {frozen.chi2 / free.chi2:.1f}x >= 5x",
        t0,
        60.0,
    )


def test_criterion_05_roughness_bound():
    t0 = time.perf_counter()
    worst = metrics.roughness_loss(3.6, constants.N_DIAMOND, 1.0, 736.0, 1.0)
    assert 11_700.0 / 2.0 <= worst <= 11_700.0 * 2.0
    # a diamond thickness exists whose interface placement yields a membrane
    # excess of ~2100 ppm per round trip
    hits = []
    for t_d in np.linspace(1400.0, 1500.0, 11):
        a = st.default_assembly(membrane={"thickness_nm": float(t_d), "n": constants.N_DIAMOND, "sigma_rms_nm": 3.6})
        pm = PhaseModel(a, 730.0, 745.0)
        gap, _ = pm.retune_gap(constants.SIV_ZPL_CD_NM, 6000.0)
        w = StandingWave(pm, constants.SIV_ZPL_CD_NM, gap).membrane_interface_weight()[0]
        loss = metrics.roughness_loss(3.6, constants.N_DIAMOND, 1.0, constants.SIV_ZPL_CD_NM, w)
        hits.append((t_d, loss))
    in_band = [(t_d, l) for t_d, l in hits if abs(l - 2100.0) <= 600.0]
    assert in_band, f"no interface placement reaches 2100 +- 600 ppm: {hits}"
    t_d_hit, loss_hit = in_band[0]
    _report(
        5,
        f"worst case {worst:.0f} ppm (factor {11_700.0 / worst:.2f} of 11700), "
        f"2100-ppm band hit at t_d {t_d_hit:.0f} nm ({loss_hit:.0f} ppm)",
        t0,
        5.0,
    )


def test_criterion_06_purcell_pipeline():
    t0 = time.perf_counter()
    asm = st.default_assembly()
    emitter = EmitterParams()
    # shortest documented operating point: C/D transition at L_eff ~ 10 um
    pts = predict_lifetime_curve(asm, np.linspace(8400.0, 9400.0, 5), emitter, 1.36, 0.51)
    best = min(pts, key=lambda p: abs(p.l_eff_um - 10.0))
    assert not best.flag
    assert abs(best.l_eff_um - 10.0) < 0.5
    assert best.f_p == pytest.approx(0.071, abs=0.018)
    beta = purcell.beta_collection(144.0)
    assert beta == pytest.approx(144.0 / 145.0, abs=1e-15)
    assert round(100.0 * beta, 2) == 99.31
    _report(
        6,
        f"F_p {best.f_p:.4f} at L_eff {best.l_eff_um:.2f} um (0.071 +- 0.018); beta(144) = 99.31%",
        t0,
        5.0,
    )


def test_criterion_07_lifetime_fit_round_trip():
    t0 = time.perf_counter()
    model = LifetimeModel(st.default_assembly(), EmitterParams(), (8.0, 26.0))
    l_eff = np.linspace(8.5, 25.0, 24)
    tau_true = model.tau(l_eff, 1.36, 0.51)
    ok = 0
    for seed in range(100):
        noisy = tau_true * (1.0 + 0.02 * np.random.default_rng(seed).standard_normal(l_eff.size))
        fit = fit_lifetime_model(np.column_stack([l_eff, noisy, 0.02 * tau_true]), model)
        if fit.converged and abs(fit["tau0_ns"] - 1.36) <= 0.03:
            ok += 1
    assert ok >= 95
    _report(7, f"tau0 recovered +-0.03 ns in {ok}/100 seeded repetitions (>= 95)", t0, 60.0)


def test_criterion_08_decay_model_nesting():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    # model nesting on 50 random traces
    worst_k = worst_e = 0.0
    for _ in range(50):
        tau = rng.uniform(0.5, 4.0)
        amp = rng.uniform(1e3, 1e5)
        bg = rng.uniform(0.0, 100.0)
        t = np.arange(0.0, rng.uniform(8, 16) * tau / 3.0, 0.032)
        mono_vals = decay.mono_exp(t, tau, amp, bg)
        kohl_vals = decay.kohlrausch(t, tau, 1.0, amp, bg)
        emg_vals = decay.emg(t + 5 * 1e-4, tau, 0.0, 1e-4, amp, bg)  # sigma -> 0 limit
        worst_k = max(worst_k, np.max(np.abs(kohl_vals - mono_vals) / np.maximum(mono_vals, 1e-12)))
        worst_e = max(worst_e, np.max(np.abs(emg_vals - decay.mono_exp(t + 5e-4, tau, amp, bg)) / np.maximum(mono_vals, 1e-12)))
    assert worst_k < 1e-3
    assert worst_e < 1e-3
    # fit-level nesting on shared noiseless traces
    for tau in (0.8, 1.36, 2.5):
        t = np.arange(0.0, 10.0 * tau / 2.0, 0.032)
        tr = decay.DecayTrace(t, decay.mono_exp(t, tau, 3e4, 20.0))
        tau_mono = decay.fit_decay_mono(tr)["tau_ns"]
        tau_k1 = decay.fit_decay_kohlrausch(tr, fix_beta=1.0)["tau_ns"]
        tau_emg = decay.fit_decay_emg(tr)["tau_ns"]
        assert tau_k1 == pytest.approx(tau_mono, rel=1e-3)
        assert tau_emg == pytest.approx(tau_mono, rel=1e-3)
    # analytic Jacobians vs central finite differences
    t = np.linspace(0.01, 12.0, 150)
    x = np.linspace(730.0, 745.0, 150)
    cases = [
        (decay.mono_exp, decay.mono_exp_jac, t, [1.36, 3e3, 15.0], [0.3, 500.0, 5.0]),
        (decay.kohlrausch, decay.kohlrausch_jac, t, [1.4, 0.8, 3e3, 15.0], [0.3, 0.1, 500.0, 5.0]),
        (decay.emg, decay.emg_jac, t, [1.36, 1.0, 0.3, 3e3, 15.0], [0.3, 0.2, 0.05, 500.0, 5.0]),
        (spectral.lorentzian, spectral.lorentzian_jac, x, [737.0, 2.0, 800.0, 20.0], [2.0, 0.5, 100.0, 10.0]),
        (
            spectral.double_lorentzian,
            spectral.double_lorentzian_jac,
            x,
            [736.5, 737.3, 0.5, 700.0, 900.0, 10.0],
            [0.3, 0.3, 0.1, 100.0, 100.0, 5.0],
        ),
        (spectral.cubic_law, spectral.cubic_law_jac, np.linspace(4, 300, 50), [736.9, 7e-8], [0.5, 2e-8]),
    ]
    worst_j = 0.0
    for f, jac, grid, p0, jitter in cases:
        for _ in range(8):
            p = np.asarray(p0) + np.asarray(jitter) * rng.uniform(-1, 1, len(p0))
            j_a = jac(grid, *p)
            j_n = np.empty_like(j_a)
            for i in range(len(p)):
                # step balances truncation against roundoff on the scale of
                # each parameter's feature size
                h = max(jitter[i] * 1e-5, abs(p[i]) * 1e-8)
                up, dn = p.copy(), p.copy()
                up[i] += h
                dn[i] -= h
                j_n[:, i] = (f(grid, *up) - f(grid, *dn)) / (2.0 * h)
            scale = np.max(np.abs(j_a), axis=0) + 1e-30
            worst_j = max(worst_j, float(np.max(np.abs(j_a - j_n) / scale)))
    assert worst_j <= 1e-6
    _report(8, f"nesting <= 0.1% (models {worst_k:.1e}/{worst_e:.1e}); Jacobians vs FD {worst_j:.1e} <= 1e-6", t0, 30.0)


def test_criterion_09_spectral_fits():
    t0 = time.perf_counter()
    doublet = synth.synth_doublet_spectrum(seed=2)
    fit = spectral.fit_double_lorentzian_equal_width(doublet)
    split = spectral.doublet_splitting_ghz(fit)
    assert split == pytest.approx(370.0, rel=0.05)
    series = synth.synth_temperature_series(seed=6)
    cubic = spectral.fit_cubic_temperature(series)
    assert cubic["value_at_0"] == pytest.approx(736.86, abs=0.03)
    _report(9, f"doublet splitting {split:.0f} GHz (370 +-5%); cubic intercept {cubic['value_at_0']:.3f} nm (+-0.03)", t0, 10.0)


def test_criterion_10_scan_lock_analysis():
    t0 = time.perf_counter()
    cfg = scans.LockSynthConfig()  # sigma 290 -> 60 pm, lines at 20 and 293 Hz
    unlocked, locked = scans.synthesize_lock_traces(cfg, seed=11)
    dev_u = scans.length_deviation(unlocked)
    dev_l = scans.length_deviation(locked)
    assert dev_u.sigma_pm == pytest.approx(290.0, rel=0.15)
    assert dev_l.sigma_pm == pytest.approx(60.0, rel=0.15)
    suppression = 100.0 * (1.0 - dev_l.sigma_pm / dev_u.sigma_pm)
    assert abs(suppression - 77.0) <= 5.0
    spec = scans.noise_spectrum(dev_u.delta_pm - np.mean(dev_u.delta_pm), cfg.rate_hz)
    lines = [f for f, _ in spec.peaks]
    bin_hz = cfg.rate_hz / cfg.n_samples
    assert any(abs(f - 293.0) <= bin_hz + 1e-9 for f in lines), f"293 Hz not localized: {lines}"
    assert spec.integrated_variance() == pytest.approx(np.var(dev_u.delta_pm), rel=0.05)
    _report(
        10,
        f"sigma {dev_u.sigma_pm:.0f}->{dev_l.sigma_pm:.0f} pm (+-15%), suppression {suppression:.1f}% "
        f"(77 +- 5), 293 Hz line within one bin, Parseval within 5%",
        t0,
        30.0,
    )
