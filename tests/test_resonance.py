import numpy as np
import pytest

from microcav import metrics, tmm
from microcav import stack as st
from microcav.resonance import (
    NoResonanceError,
    OffResonanceError,
    PhaseModel,
    dispersion_map,
    effective_length,
    find_resonances,
    membrane_interface_intensity,
)


@pytest.fixture(scope="module")
def leaky_hard_assembly():
    """Near-ideal mirrors that still transmit enough for T-peak finding."""
    hm = st.hard_mirror(kappa=500.0, thickness_nm=10.0)
    return st.CavityAssembly(hm, 15_000.0, None, 0.0, hm, r_c_um=45.0)


class TestEmptyCavity:
    def test_resonances_at_2l_over_q(self, leaky_hard_assembly):
        pts = find_resonances(leaky_hard_assembly, 15_000.0, (745.0, 775.0), max_grid=200_000)
        assert len(pts) >= 2
        for p in pts:
            assert p.wavelength_nm == pytest.approx(2 * 15_000.0 / p.q_gap, rel=1e-4)
            assert p.character == "air-like"

    def test_fsr_spacing(self, leaky_hard_assembly):
        # the kappa-mirror transmission is strongly wavelength-dependent, so
        # the shortest-wavelength peak is orders of magnitude weaker: lower
        # the relative prominence cut for this oracle fixture
        pts = find_resonances(leaky_hard_assembly, 15_000.0, (712.0, 778.0), rel_prominence=1e-6, max_grid=400_000)
        wls = sorted(p.wavelength_nm for p in pts)
        assert len(wls) >= 3
        for a, b in zip(wls, wls[1:]):
            fsr = (a + b) ** 2 / (8 * 15_000.0)  # lambda^2 / 2L at the midpoint
            assert b - a == pytest.approx(fsr, rel=0.02)

    def test_mode_orders_increment_by_one(self, leaky_hard_assembly):
        pts = find_resonances(leaky_hard_assembly, 15_000.0, (712.0, 778.0), rel_prominence=1e-6, max_grid=400_000)
        qs = [p.q_gap for p in sorted(pts, key=lambda p: p.wavelength_nm)]
        assert len(qs) >= 3
        assert all(a - b == 1 for a, b in zip(qs, qs[1:]))

    def test_transmission_maximal_at_q_half_lambda(self, empty_assembly):
        # fixture mirrors reflect with phase pi at the design wavelength, so
        # the resonance condition there is exactly t_g = q lambda / 2
        wl = 736.0
        q = 27
        gap_res = q * wl / 2
        stack_t = lambda g: tmm.transmission(st.flatten_assembly(empty_assembly.with_gap(g)), wl)
        t_res = stack_t(gap_res)
        for dg in (-30.0, -10.0, 10.0, 30.0):
            assert stack_t(gap_res + dg) < t_res
        resp = tmm.stack_response(st.flatten_assembly(empty_assembly.with_gap(gap_res)), wl)
        assert resp.R < 0.01  # R minimal on resonance for the symmetric cavity

    def test_membrane_removal_restores_linear_dispersion(self, fixture_mirror):
        asm = st.CavityAssembly(fixture_mirror, 13_500.0, None, 0.0, fixture_mirror, r_c_um=45.0)
        pm = PhaseModel(asm, 700, 790)
        _, q = pm.nearest_resonance(737.0, 13_500.0)
        gaps = np.linspace(13_200.0, 13_800.0, 7)
        wls = [pm.solve_wavelength(q, g) for g in gaps]
        slopes = np.diff(wls) / np.diff(gaps)
        # empty cavity: near-constant slope 2/q (mirror phase dispersion
        # contributes only a ~0.2% drift, vs >20% membrane modulation)
        assert np.ptp(slopes) / np.mean(slopes) < 5e-3
        assert np.mean(slopes) == pytest.approx(2.0 / q, rel=0.05)


class TestMembraneDispersion:
    def test_dispersion_visibly_nonlinear(self, membrane_assembly):
        pm = PhaseModel(membrane_assembly, 700, 790)
        gaps = np.linspace(12_800.0, 14_200.0, 8)
        wls = np.array([pm.solve_wavelength(36, g) for g in gaps])
        slopes = np.diff(wls) / np.diff(gaps)
        # coupled-mode (avoided-crossing) pattern: slope modulates by >20%
        assert np.ptp(slopes) / np.mean(slopes) > 0.2

    def test_characters_present(self, membrane_assembly):
        pts = find_resonances(membrane_assembly, 13_500.0, (715.0, 755.0))
        assert pts and all(p.character in {"air-like", "diamond-like", "mixed"} for p in pts)
        assert any(p.character == "air-like" for p in pts)

    def test_diamond_like_at_short_gap(self, membrane_assembly):
        pts = find_resonances(membrane_assembly, 2_100.0, (680.0, 770.0))
        assert any(p.character == "diamond-like" for p in pts)

    def test_map_matches_resonances(self, membrane_assembly):
        window = (725.0, 750.0)
        gaps = (13_300.0, 13_600.0)
        dmap = dispersion_map(membrane_assembly, gaps, 7, window, 1200)
        for g in gaps:
            i = int(np.argmin(np.abs(dmap.gaps_nm - g)))
            for p in find_resonances(membrane_assembly, g, window):
                j = int(np.argmin(np.abs(dmap.wavelengths_nm - p.wavelength_nm)))
                lo, hi = max(j - 1, 0), min(j + 2, dmap.t.shape[1])
                local = dmap.t[i, lo:hi]
                # the resonance sits within one grid cell of a map maximum
                assert np.max(local) >= 0.5 * np.max(dmap.t[i])

    def test_map_deterministic(self, membrane_assembly):
        a = dispersion_map(membrane_assembly, (13_000.0, 13_400.0), 3, (730.0, 740.0), 50)
        b = dispersion_map(membrane_assembly, (13_000.0, 13_400.0), 3, (730.0, 740.0), 50)
        assert np.array_equal(a.t, b.t)

    def test_empty_window_error(self, membrane_assembly):
        with pytest.raises(ValueError):
            find_resonances(membrane_assembly, 13_500.0, (750.0, 740.0))

    def test_no_peaks_returns_empty(self, leaky_hard_assembly):
        # a window tighter than one FSR can miss every resonance
        pts = find_resonances(leaky_hard_assembly, 15_000.0, (751.0, 753.0), max_grid=50_000)
        assert pts == []

    def test_map_needs_two_steps(self, membrane_assembly):
        with pytest.raises(ValueError):
            dispersion_map(membrane_assembly, (13_000.0, 13_400.0), 1, (730.0, 740.0), 50)


class TestEffectiveLength:
    def test_hard_mirror_geometric(self, hard_assembly):
        pm = PhaseModel(hard_assembly, 730, 745)
        wl_res, _ = pm.nearest_resonance(737.0, hard_assembly.gap_nm)
        l_eff = effective_length(hard_assembly, wl_res)
        assert l_eff == pytest.approx(10.0, abs=1e-5)

    def test_fixture_penetration_vs_phase_oracle(self, empty_assembly, fixture_mirror):
        pm = PhaseModel(empty_assembly, 730, 745)
        wl_res, _ = pm.nearest_resonance(736.0, empty_assembly.gap_nm)
        l_eff = effective_length(empty_assembly, wl_res)
        # independent oracle: frequency penetration depth (1/2) dphi_r/dk
        wls = np.linspace(wl_res - 1.0, wl_res + 1.0, 21)
        r, _ = tmm.amplitude_coefficients(fixture_mirror.as_stack(), wls)
        phase = np.unwrap(np.angle(r))
        k = 2 * np.pi / wls
        l_pen_um = 0.5 * np.gradient(phase, k)[10] * 1e-3
        assert l_pen_um > 0
        assert l_eff == pytest.approx(10.0 + 2 * l_pen_um, rel=0.02)

    def test_off_resonance_error(self, empty_assembly):
        pm = PhaseModel(empty_assembly, 730, 745)
        wl_res, _ = pm.nearest_resonance(736.0, empty_assembly.gap_nm)
        with pytest.raises(OffResonanceError):
            effective_length(empty_assembly, wl_res + 2.0)

    def test_quality_factor_regime_consistency(self, membrane_assembly):
        # at the longest documented operating point (L_eff = 20 um) the
        # membrane-budget finesse must reproduce Q = 7.2e4 within 25%
        pm = PhaseModel(membrane_assembly, 730, 745)
        target = None
        for g0 in np.linspace(15_000.0, 22_000.0, 15):
            gap, _ = pm.retune_gap(737.25, g0)
            l_eff = effective_length(membrane_assembly.with_gap(gap), 737.25)
            if target is None or abs(l_eff - 20.0) < abs(target[1] - 20.0):
                target = (gap, l_eff)
        gap, l_eff = target
        assert l_eff == pytest.approx(20.0, abs=1.0)
        finesse = metrics.finesse_from_losses(metrics.loss_budget(membrane_assembly, 737.25, 2100.0))
        q_c = metrics.quality_factor(l_eff, 737.25, finesse)
        assert q_c == pytest.approx(7.2e4, rel=0.25)


class TestRetuning:
    def test_retune_hits_resonance(self, membrane_assembly):
        pm = PhaseModel(membrane_assembly, 730, 745)
        gap, q = pm.retune_gap(737.25, 10_000.0)
        assert abs(gap - 10_000.0) <= 737.25 / 2
        wl_back = pm.solve_wavelength(q, gap)
        assert wl_back == pytest.approx(737.25, abs=1e-6)

    def test_interface_weight_range(self, membrane_assembly):
        w = membrane_interface_intensity(membrane_assembly, 737.25)
        assert 0.0 <= w <= 1.0


def _brentq_on_interpolant(pm, q, gap_nm, window=None):
    """Reference root: brentq on the same grid bracket and linear interpolant."""
    from scipy.optimize import brentq

    lo = pm.wl[0] if window is None else max(window[0], pm.wl[0])
    hi = pm.wl[-1] if window is None else min(window[1], pm.wl[-1])
    sel = (pm.wl >= lo) & (pm.wl <= hi)
    wl = pm.wl[sel]
    target = 2.0 * np.pi * (q + 1.0)
    miss = 4.0 * np.pi * gap_nm / wl + pm.phi_mirrors[sel] - target
    i = int(np.nonzero(np.diff(np.signbit(miss)))[0][0])
    return brentq(lambda x: 4.0 * np.pi * gap_nm / x + np.interp(x, pm.wl, pm.phi_mirrors) - target,
                  wl[i], wl[i + 1], xtol=1e-12)


class TestCellRoot:
    def test_matches_brentq(self, membrane_assembly, empty_assembly, hard_assembly):
        solves = 0
        for asm in (membrane_assembly, empty_assembly, hard_assembly):
            pm = PhaseModel(asm, 700.0, 790.0)
            for gap in np.linspace(3_000.0, 20_000.0, 23):
                q0 = pm.mode_order(737.0, gap)
                for q in (q0 - 1, q0, q0 + 1):
                    for window in (None, (725.0, 760.0)):
                        try:
                            ref = _brentq_on_interpolant(pm, q, gap, window)
                        except IndexError:  # no sign change: the solver must say so too
                            with pytest.raises(NoResonanceError):
                                pm.solve_wavelength(q, gap, window)
                            continue
                        assert abs(pm.solve_wavelength(q, gap, window) - ref) <= 1e-9
                        solves += 1
        assert solves >= 150

    def test_no_resonance_raises(self, membrane_assembly):
        pm = PhaseModel(membrane_assembly, 700.0, 790.0)
        q0 = pm.mode_order(737.0, 10_000.0)
        with pytest.raises(NoResonanceError, match="no resonance"):
            pm.solve_wavelength(q0 + 40, 10_000.0)
        with pytest.raises(NoResonanceError, match="outside the cached phase grid"):
            pm.solve_wavelength(q0, 10_000.0, window=(900.0, 950.0))
        with pytest.raises(NoResonanceError, match="no resonance"):
            pm.solve_wavelength(q0, 10_000.0, window=(700.0, 701.0))


class TestPhaseModelReuse:
    def test_effective_length_with_shared_model_is_identical(self, membrane_assembly):
        pm = PhaseModel(membrane_assembly, 727.25, 747.25)
        for g0 in np.linspace(2_000.0, 20_000.0, 5):
            gap, _ = pm.retune_gap(737.25, g0)
            cav = membrane_assembly.with_gap(gap)
            assert effective_length(cav, 737.25, pm=pm) == effective_length(cav, 737.25)
