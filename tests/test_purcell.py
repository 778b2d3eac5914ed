import dataclasses

import numpy as np
import pytest

from microcav import constants, metrics, purcell, resonance, tmm
from microcav import stack as st
from microcav.peaks import find_peaks
from microcav.purcell import EmitterParams, LifetimeModel, fit_lifetime_model, predict_lifetime_curve
from oracles import flatten_assembly


@pytest.fixture(scope="module")
def cd_wave(membrane_assembly):
    pm = resonance.PhaseModel(membrane_assembly, 730, 745)
    gap, _ = pm.retune_gap(constants.SIV_ZPL_CD_NM, 6000.0)
    return resonance.StandingWave(pm, constants.SIV_ZPL_CD_NM, gap)


@pytest.fixture(scope="module")
def dense_membrane_profiles(membrane_assembly):
    """Per gap (9, 15, 25 um, retuned): the standing wave, and depth and |E|^2 in the membrane
    from field_profile at 40000 samples per layer."""
    wl = constants.SIV_ZPL_CD_NM
    pm = resonance.PhaseModel(membrane_assembly, wl - 10.0, wl + 10.0)
    out = []
    for gap_nm in (9000.0, 15000.0, 25000.0):
        cav = membrane_assembly.with_gap(pm.retune_gap(wl, gap_nm)[0])
        wave = resonance.StandingWave(pm, wl, cav.gap_nm)
        prof = tmm.field_profile(flatten_assembly(cav), wl, samples_per_layer=40000)
        z0, z1 = prof.segments[len(cav.fiber_mirror.layers) + 1][:2]  # the gap, then the membrane
        sel = (prof.z_nm >= z0) & (prof.z_nm <= z1)
        out.append((wave, prof.z_nm[sel] - z0, np.abs(prof.E[sel]) ** 2))
    return out


@pytest.fixture(scope="module")
def cd_xi_profile(cd_wave):
    """(depth, xi) through the membrane on a 0.1 nm grid."""
    depth = np.linspace(0.0, 1420.0, 14_201)
    return depth, np.array([purcell.xi_overlap(cd_wave, z, 0.0)[0] for z in depth])


class TestXiOverlap:
    def test_antinode_gives_unity(self, cd_xi_profile):
        _, xi = cd_xi_profile
        assert np.max(xi) == pytest.approx(1.0, abs=1e-3)
        assert np.max(xi) <= 1.0 + 1e-12

    def test_node_gives_zero(self, cd_xi_profile):
        depth, xi = cd_xi_profile
        interior = (depth > 100) & (depth < 1300)
        assert np.min(xi[interior]) < 0.05

    def test_implant_depth_near_first_antinode(self, cd_wave, cd_xi_profile):
        # design intent: the 75 nm implantation depth sits near the first
        # antinode below the fiber-facing surface (measured: ~60 nm)
        depth, xi = cd_xi_profile
        peaks, _, _ = find_peaks(xi**2)
        first_depth = float(depth[peaks[0]])
        assert 40.0 <= first_depth <= 110.0
        assert purcell.xi_overlap(cd_wave, 75.0, 0.0)[0] >= 0.9

    def test_dipole_angle_projection(self, cd_wave):
        xi0 = purcell.xi_overlap(cd_wave, 75.0, 0.0)
        xi60 = purcell.xi_overlap(cd_wave, 75.0, np.pi / 3)
        np.testing.assert_allclose(xi60, 0.5 * xi0, rtol=1e-9)

    def test_outside_diamond_rejected(self, cd_wave):
        with pytest.raises(ValueError, match="outside"):
            purcell.xi_overlap(cd_wave, 5000.0, 0.0)


class TestEffectiveQ:
    def test_equal_inputs_halve(self):
        assert purcell.effective_q(2000.0, 2000.0) == pytest.approx(1000.0)

    def test_infinite_emitter_limit(self):
        assert purcell.effective_q(1e15, 7.2e4) == pytest.approx(7.2e4, rel=1e-6)

    def test_ensemble_with_cavity(self):
        q_em = constants.wavelength_nm_to_ghz(736.9) / 310.0
        assert q_em == pytest.approx(1312.0, rel=0.01)
        q_eff = purcell.effective_q(q_em, 7.2e4)
        assert q_eff == pytest.approx(1290.0, rel=0.01)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            purcell.effective_q(0.0, 100.0)


class TestPurcellFactor:
    def test_zero_overlap(self):
        assert purcell.purcell_factor(0.0, 737.0, 2.417, 1000.0, 30.0) == 0.0

    def test_proportionalities(self):
        base = purcell.purcell_factor(0.9, 737.0, 2.417, 1000.0, 30.0)
        assert purcell.purcell_factor(0.9, 737.0, 2.417, 2000.0, 30.0) == pytest.approx(2 * base)
        assert purcell.purcell_factor(0.9, 737.0, 2.417, 1000.0, 60.0) == pytest.approx(base / 2)

    def test_unit_invariance(self):
        # nm wavelength with um^3 volume is the documented convention; the
        # dimensionless result must not depend on a common length rescale
        f1 = purcell.purcell_factor(1.0, 737.0, 2.417, 1000.0, 30.0)
        lam_um, v_nm3 = 0.737, 30.0 * 1e9
        f2 = 1.0**2 * 3.0 * (lam_um * 1e3 / 2.417) ** 3 * 1000.0 / (4 * np.pi**2 * v_nm3)
        assert f1 == pytest.approx(f2, rel=1e-12)


class TestLifetimeRatio:
    def test_no_enhancement(self):
        assert purcell.lifetime_ratio(0.0, 0.51, 0.84) == 1.0

    def test_cd_transition_reduction(self):
        # eta 0.51, F_p 0.075, zeta 0.84: fractional reduction ~3.1%,
        # inside the measured (3.2 +- 1.9)% band
        ratio = purcell.lifetime_ratio(0.075, 0.51, constants.DEBYE_WALLER_DEFAULT)
        reduction = 1.0 - 1.0 / ratio
        assert abs(reduction - 0.032) < 0.019

    def test_collection_efficiency_outlook(self):
        assert purcell.beta_collection(144.0) == pytest.approx(144.0 / 145.0, abs=1e-15)
        assert 100 * purcell.beta_collection(144.0) == pytest.approx(99.31, abs=0.005)

    def test_beta_monotone_and_limits(self):
        fps = [0.0, 0.1, 1.0, 10.0, 1e6]
        betas = [purcell.beta_collection(f) for f in fps]
        assert betas[0] == 0.0
        assert all(a < b for a, b in zip(betas, betas[1:]))
        assert betas[-1] == pytest.approx(1.0, abs=1e-5)

    def test_linearity_of_reduction(self):
        base = purcell.lifetime_ratio(0.1, 0.5, 0.8) - 1.0
        assert purcell.lifetime_ratio(0.2, 0.5, 0.8) - 1.0 == pytest.approx(2 * base)
        assert purcell.lifetime_ratio(0.1, 1.0, 0.8) - 1.0 == pytest.approx(2 * base)
        assert purcell.lifetime_ratio(0.1, 0.5, 0.4) - 1.0 == pytest.approx(base / 2)


class TestLifetimeCurve:
    def test_monotone_toward_tau0(self, membrane_assembly):
        emitter = EmitterParams()
        gaps = np.linspace(6000.0, 30_000.0, 7)
        pts = predict_lifetime_curve(membrane_assembly, gaps, emitter, 1.36, 0.51)
        assert all(not p.flag for p in pts)
        taus = [p.tau_ns for p in pts]
        assert all(a < b for a, b in zip(taus, taus[1:]))
        assert taus[-1] < 1.36
        assert taus[-1] > 1.36 / purcell.lifetime_ratio(0.05, 0.51, 0.84)

    def test_deterministic(self, membrane_assembly):
        emitter = EmitterParams()
        a = predict_lifetime_curve(membrane_assembly, [8000.0], emitter, 1.36, 0.51)
        b = predict_lifetime_curve(membrane_assembly, [8000.0], emitter, 1.36, 0.51)
        assert a == b

    def test_unstable_gap_flagged_not_skipped(self, membrane_assembly):
        emitter = EmitterParams()
        gaps = [8000.0, 60_000.0]  # second gap beyond the stability range
        pts = predict_lifetime_curve(membrane_assembly, gaps, emitter, 1.36, 0.51)
        assert len(pts) == 2
        assert not pts[0].flag
        assert pts[1].flag  # reported, not silently dropped

    def test_shortest_point_reduction_band(self, membrane_assembly):
        # shortest length: lifetime reduction in the measured few-percent band
        emitter = EmitterParams()
        pts = predict_lifetime_curve(membrane_assembly, [6000.0], emitter, 1.36, 0.51)
        reduction = 1.0 - pts[0].tau_ns / 1.36
        assert 0.02 <= reduction <= 0.08

    def test_membrane_found_by_position_not_name(self, membrane_assembly):
        renamed = dataclasses.replace(membrane_assembly, membrane=st.Layer(st.Material("membrane", 2.417), 1420.0))
        gaps = np.linspace(6000.0, 30_000.0, 5)
        emitter = EmitterParams()
        assert (predict_lifetime_curve(renamed, gaps, emitter, 1.36, 0.51)
                == predict_lifetime_curve(membrane_assembly, gaps, emitter, 1.36, 0.51))

    def test_one_phase_model_per_sweep(self, membrane_assembly, monkeypatch):
        builds = []
        init = resonance.PhaseModel.__init__
        monkeypatch.setattr(resonance.PhaseModel, "__init__", lambda pm, *a, **k: builds.append(1) or init(pm, *a, **k))
        pts = predict_lifetime_curve(membrane_assembly, np.linspace(6000.0, 30_000.0, 5), EmitterParams(), 1.36, 0.51)
        assert all(not p.flag for p in pts)
        assert len(builds) == 1

    @pytest.mark.parametrize("depth_nm", [0.0, 75.0, 700.0, 1419.9])
    def test_membrane_xi_matches_full_profile(self, dense_membrane_profiles, depth_nm):
        # the exact overlap against a 40000-samples-per-layer profile, membrane found by position
        for wave, z, intensity in dense_membrane_profiles:
            oracle = np.sqrt(np.interp(depth_nm, z, intensity) / np.max(intensity)) * np.cos(0.3)
            assert purcell.xi_overlap(wave, depth_nm, 0.3)[0] == pytest.approx(oracle, rel=0.0, abs=1e-6)

    def test_no_field_solve_per_sweep(self, membrane_assembly, field_solves, layer_points):
        # the sweep's phase model serves the whole sweep: one coating sweep, no per-layer field solve
        for n_points in (7, 40):
            layer_points.clear()
            pts = predict_lifetime_curve(membrane_assembly, np.linspace(6000.0, 30_000.0, n_points), EmitterParams(), 1.36, 0.51)
            assert len(pts) == n_points and all(not p.flag for p in pts)
            assert len(layer_points) == 2 and field_solves == []

    def test_implant_depth_comes_from_the_assembly(self, membrane_assembly):
        gaps = np.linspace(6000.0, 30_000.0, 5)
        at_75 = predict_lifetime_curve(membrane_assembly, gaps, EmitterParams(), 1.36, 0.51)
        deeper = dataclasses.replace(membrane_assembly, implant_depth_nm=300.0)
        at_300 = predict_lifetime_curve(deeper, gaps, EmitterParams(), 1.36, 0.51)
        assert [p.l_eff_um for p in at_300] == [p.l_eff_um for p in at_75]
        assert all(abs(a.xi - b.xi) > 0.01 for a, b in zip(at_75, at_300))
        pm = resonance.PhaseModel(deeper, constants.SIV_ZPL_CD_NM - 10.0, constants.SIV_ZPL_CD_NM + 10.0)
        wave = resonance.StandingWave(pm, constants.SIV_ZPL_CD_NM, [p.gap_nm for p in at_300])
        np.testing.assert_array_equal(purcell.xi_overlap(wave, 300.0), [p.xi for p in at_300])

    def test_every_point_flagged_sweep(self, membrane_assembly):
        pts = predict_lifetime_curve(membrane_assembly, [60_000.0, 80_000.0], EmitterParams(), 1.36, 0.51)
        assert [p.q_gap for p in pts] == [-1, -1] and all("unstable" in p.flag for p in pts)


@pytest.fixture(scope="module")
def model(membrane_assembly):
    return LifetimeModel(membrane_assembly, EmitterParams(), (8.0, 26.0))


class TestLifetimeModel:
    @pytest.mark.parametrize("gap2_nm", [250.0, 0.0])
    def test_closed_form_matches_the_per_gap_chain(self, gap2_nm):
        # F_p(L_eff) from the two-gap line against predict_lifetime_curve at every retuned gap
        asm = st.default_assembly(gap2_nm=gap2_nm)
        pts = predict_lifetime_curve(asm, np.linspace(9000.0, 26_000.0, 400), EmitterParams(), 1.36, 0.51)
        assert all(not p.flag for p in pts)
        l_eff, f_p = np.array([(p.l_eff_um, p.f_p) for p in pts]).T
        model = LifetimeModel(asm, EmitterParams(), (l_eff.min(), l_eff.max()))
        np.testing.assert_allclose(model.f_p(l_eff), f_p, rtol=1e-12, atol=0.0)

    def test_range_below_the_zero_gap_rejected(self, membrane_assembly, model):
        assert 1.0 < model.intercept_um < 8.0
        with pytest.raises(ValueError, match=r"L_eff 1\.0 um is below"):
            LifetimeModel(membrane_assembly, EmitterParams(), (1.0, 20.0))

    def test_unstable_range_rejected(self, membrane_assembly):
        # r_c is 45 um, and L_eff 60 um needs a gap of about 64 um
        with pytest.raises(metrics.UnstableResonatorError, match=r"L_eff 60\.0 um: unstable resonator"):
            LifetimeModel(membrane_assembly, EmitterParams(), (10.0, 60.0))


class TestLifetimeFit:

    def test_round_trip(self, model):
        l_eff = np.linspace(8.5, 25.0, 24)
        tau_true = model.tau(l_eff, 1.36, 0.51)
        ok = 0
        for seed in range(25):
            noisy = tau_true * (1 + 0.02 * np.random.default_rng(seed).standard_normal(24))
            fit = fit_lifetime_model(np.column_stack([l_eff, noisy, 0.02 * tau_true]), model)
            if abs(fit["tau0_ns"] - 1.36) <= 0.03:
                ok += 1
        assert ok >= 23

    def test_eta_fixed_reduces_to_weighted_mean(self, model):
        l_eff = np.linspace(9.0, 24.0, 8)
        rng = np.random.default_rng(3)
        tau = 1.36 + rng.normal(0, 0.01, 8)
        sig = rng.uniform(0.01, 0.03, 8)
        fit = fit_lifetime_model(np.column_stack([l_eff, tau, sig]), model, fix_eta=0.0)
        mean_w = np.sum(tau / sig**2) / np.sum(1 / sig**2)
        assert fit["tau0_ns"] == pytest.approx(mean_w, rel=1e-9)
        assert fit["eta_qe"] == 0.0 and fit.sigmas["eta_qe"] == 0.0
        assert fit.diagnostics["fixed"] == ["eta_qe"]

    def test_flat_curve_reports_large_eta_uncertainty(self, model):
        # nearly constant F_p across lengths: tau0 and eta degenerate; the
        # fit must report the degeneracy, not crash
        l_eff = np.linspace(20.0, 25.0, 12)
        rng = np.random.default_rng(4)
        tau = model.tau(l_eff, 1.36, 0.51) * (1 + 0.01 * rng.standard_normal(12))
        with pytest.raises(ValueError, match="factor"):
            fit_lifetime_model(np.column_stack([l_eff, tau, 0.01 * tau]), model)
        # widen the span just enough to satisfy the precondition
        l_eff = np.linspace(12.0, 25.0, 12)
        tau = model.tau(l_eff, 1.36, 0.51) * (1 + 0.01 * rng.standard_normal(12))
        fit = fit_lifetime_model(np.column_stack([l_eff, tau, 0.01 * tau]), model)
        assert fit.sigmas["eta_qe"] > 0.2
        assert fit.diagnostics["jacobian_condition"] > 10.0

    def test_preconditions(self, model):
        with pytest.raises(ValueError, match="3 lifetime"):
            fit_lifetime_model(np.array([[10.0, 1.3, 0.01], [20.0, 1.35, 0.01]]), model)


class TestEmitterParams:
    def test_q_em_from_linewidth(self):
        em = EmitterParams(ensemble_linewidth_ghz=310.0, zpl_wavelength_nm=736.9)
        assert em.q_em == pytest.approx(1312.0, rel=0.01)

    def test_explicit_quality_wins(self):
        em = EmitterParams(emitter_quality=5000.0)
        assert em.q_em == 5000.0

    def test_invariants(self):
        with pytest.raises(ValueError):
            EmitterParams(debye_waller=0.0)
        with pytest.raises(ValueError):
            EmitterParams(debye_waller=1.2)

    def test_config_round_trip(self):
        em = purcell.emitter_from_config({"zpl_wavelength_nm": 736.57, "debye_waller": 0.8})
        assert em.zpl_wavelength_nm == 736.57
        with pytest.raises(ValueError, match="unknown"):
            purcell.emitter_from_config({"bogus": 1})

    def test_implant_depth_key_points_to_the_assembly(self):
        with pytest.raises(ValueError, match="assembly config.*'implant_depth_nm'"):
            purcell.emitter_from_config({"implant_depth_nm": 75.0})
