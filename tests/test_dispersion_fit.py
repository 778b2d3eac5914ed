import numpy as np
import pytest

from microcav import stack as st
from microcav.dispersion_fit import fit_dispersion, points_from_resonances
from microcav.fitting import FitError
from microcav.resonance import find_resonances


@pytest.fixture(scope="module")
def synthetic_points():
    """Fig.-3-like resonance set from the documented geometry plus noise."""
    rng = np.random.default_rng(42)
    asm = st.default_assembly()  # t_d 1420, t_g2 250
    offset_true = 40.0
    pts = []
    for g in np.linspace(12_800.0, 14_400.0, 9):
        for p in find_resonances(asm, float(g), (715.0, 755.0)):
            pts.append((g - offset_true, p.wavelength_nm + rng.normal(0, 0.05)))
    return np.asarray(pts), offset_true


class TestDispersionFit:
    def test_round_trip_recovery(self, synthetic_points):
        pts, offset_true = synthetic_points
        fit = fit_dispersion(pts, st.default_assembly(),
                             initial={"t_d_nm": 1400.0, "t_g2_nm": 150.0, "gap_offset_nm": 0.0})
        assert fit.t_d_nm == pytest.approx(1420.0, abs=20.0)
        assert fit.t_g2_nm == pytest.approx(250.0, abs=50.0)
        assert fit.gap_offset_nm == pytest.approx(offset_true, abs=10.0)
        dof = len(pts) - 3
        assert fit.chi2 / dof < 3.0

    def test_frozen_gap2_is_much_worse(self, synthetic_points):
        pts, _ = synthetic_points
        free = fit_dispersion(pts, st.default_assembly())
        frozen = fit_dispersion(pts, st.default_assembly(), fix_gap2_nm=0.0)
        assert frozen.chi2 >= 5.0 * free.chi2
        assert frozen.fit.params["t_g2_nm"] == 0.0 and frozen.fit.sigmas["t_g2_nm"] == 0.0
        assert frozen.fit.diagnostics["fixed"] == ["t_g2_nm"]

    def test_no_gap_data_recovers_zero(self):
        rng = np.random.default_rng(7)
        asm = st.default_assembly(gap2_nm=0.0)
        pts = []
        for g in np.linspace(12_800.0, 14_400.0, 7):
            for p in find_resonances(asm, float(g), (720.0, 752.0)):
                pts.append((g, p.wavelength_nm + rng.normal(0, 0.05)))
        fit = fit_dispersion(np.asarray(pts), st.default_assembly(gap2_nm=0.0),
                             initial={"t_g2_nm": 60.0})
        # estimate consistent with zero within 2 sigma (bounded at 0)
        assert fit.t_g2_nm <= 2.0 * max(fit.fit.sigmas["t_g2_nm"], 1.0) + 1e-9

    def test_single_order_rejected(self, membrane_assembly):
        pts = [(g, 737.0 + 0.01 * i) for i, g in enumerate(np.linspace(13_000, 13_030, 6))]
        with pytest.raises(FitError, match="single mode order|degenerate"):
            fit_dispersion(np.asarray(pts), membrane_assembly)

    def test_too_few_points_rejected(self, membrane_assembly):
        with pytest.raises(ValueError, match="at least 4"):
            fit_dispersion(np.array([[13000.0, 737.0], [13100.0, 738.0]]), membrane_assembly)

    def test_points_from_resonances_shape(self, membrane_assembly):
        pts = find_resonances(membrane_assembly, 13_500.0, (725.0, 750.0))
        arr = points_from_resonances(pts)
        assert arr.shape == (len(pts), 2)

    def test_one_coating_sweep_per_fit(self, synthetic_points, layer_points):
        from microcav.dispersion_fit import _WINDOW_MARGIN_NM
        from microcav.resonance import PhaseModel

        pts = synthetic_points[0]
        template = st.default_assembly()
        lo, hi = pts[:, 1].min() - _WINDOW_MARGIN_NM, pts[:, 1].max() + _WINDOW_MARGIN_NM
        # the model's nodes and two more past each end
        grid = PhaseModel(template, lo, hi).wl.size + 4
        layer_points.clear()
        fit = fit_dispersion(pts, template)
        assert "order_retry" not in fit.fit.diagnostics
        # the fit iterated (9 residual evaluations with the analytic Jacobian)
        assert fit.fit.iterations > 5
        # the fiber and the plane coating, each swept once on the fit's nodes;
        # anchor nodes and trial points run no TMM
        fiber, plane = len(template.fiber_mirror.layers), len(template.plane_mirror.layers)
        assert layer_points == [fiber * grid, plane * grid]

    def test_thin_membrane_fits(self):
        # a template under 21 nm put the anchor scan's t_d - 20 nm node at or below 0
        thin = st.default_assembly(membrane={**st.default_assembly_config()["membrane"], "thickness_nm": 15.0},
                                   implant_depth_nm=5.0)
        pts = points_from_resonances(find_resonances(thin, np.linspace(12_800.0, 14_400.0, 9), (715.0, 755.0)))
        for initial in (None, {"t_d_nm": 12.0}):
            fit = fit_dispersion(pts, thin, initial=initial)
            assert fit.t_d_nm == pytest.approx(15.0, abs=1e-3)
            assert fit.t_g2_nm == pytest.approx(250.0, abs=1e-2)
            assert np.max(np.abs(fit.residuals_nm)) < 1e-6

    @pytest.mark.parametrize("shift_nm, seed", [(740.0, 0), (-740.0, 23)])
    def test_trial_points_stay_on_the_phase_grid(self, shift_nm, seed, monkeypatch):
        # the CLI's default points with its seeded noise, on a gap axis shifted by about a wavelength: an
        # unbounded Newton sent trial wavelengths off the grid, where the coatings' interpolant cast NaN
        # to a cell index (a RuntimeWarning, which fails the test)
        from microcav.resonance import PhaseModel

        asm = st.default_assembly()
        pts = points_from_resonances(find_resonances(asm, np.linspace(12_800.0, 14_400.0, 9), (715.0, 755.0)))
        pts += np.column_stack([np.full(len(pts), shift_nm), np.random.default_rng(seed).normal(0, 0.05, len(pts))])
        off_grid = []
        coatings_at = PhaseModel._coatings_at

        def checked(self, wl, *args):
            off_grid.append(int(np.sum(~((wl >= self.wl[0]) & (wl <= self.wl[-1])))))
            return coatings_at(self, wl, *args)

        monkeypatch.setattr(PhaseModel, "_coatings_at", checked)
        fit = fit_dispersion(pts, asm, sigma_wavelength_nm=0.05)
        assert off_grid and sum(off_grid) == 0
        assert np.isfinite(fit.chi2)

    def test_no_grid_work_during_the_fit(self, synthetic_points, layer_points, monkeypatch):
        # the LM run sweeps no coating, and composes the membrane and second
        # gap at the data wavelengths only
        from microcav import dispersion_fit
        from microcav.resonance import PhaseModel

        sizes, in_fit = [], {"on": False, "layer_points": 0}
        closed_form = PhaseModel._closed_form

        def counted(self, wl, *args):
            if in_fit["on"]:
                sizes.append(np.size(wl))
            return closed_form(self, wl, *args)

        monkeypatch.setattr(PhaseModel, "_closed_form", counted)
        lm_fit = dispersion_fit.lm_fit

        def counted_fit(*args, **kwargs):
            in_fit["on"], before = True, len(layer_points)
            try:
                return lm_fit(*args, **kwargs)
            finally:
                in_fit["on"], in_fit["layer_points"] = False, len(layer_points) - before

        monkeypatch.setattr(dispersion_fit, "lm_fit", counted_fit)
        pts = synthetic_points[0]
        fit = fit_dispersion(pts, st.default_assembly())
        assert fit.fit.diagnostics["jacobian"] == "analytic"
        assert in_fit["layer_points"] == 0
        assert sizes and set(sizes) == {len(pts)}

    def test_newton_roots_match_a_fine_grid(self, synthetic_points):
        hypothesis = pytest.importorskip("hypothesis")
        hst = hypothesis.strategies
        from oracles import GridPhaseModel

        from microcav.dispersion_fit import _WINDOW_MARGIN_NM
        from microcav.resonance import PhaseModel

        gaps, wls = synthetic_points[0].T
        template = st.default_assembly()
        lo, hi = wls.min() - _WINDOW_MARGIN_NM, wls.max() + _WINDOW_MARGIN_NM
        pm = PhaseModel(template, lo, hi)
        worst = []

        @hypothesis.settings(max_examples=15, deadline=None, derandomize=True)
        @hypothesis.given(hst.floats(1380.0, 1460.0), hst.floats(0.0, 400.0), hst.floats(-50.0, 50.0))
        def check(t_d, t_g2, offset):
            gap = gaps + offset
            q = np.round((4.0 * np.pi * gap / wls + pm.phase(wls, t_d, t_g2)[0]) / (2.0 * np.pi) - 1.0)
            roots = pm.newton(q, gap, wls, t_d_nm=t_d, t_g2_nm=t_g2)
            miss = 4.0 * np.pi * gap / roots + pm.phase(roots, t_d, t_g2)[0] - 2.0 * np.pi * (q + 1.0)
            assert np.max(np.abs(miss)) < 1e-10
            # the grid path on a 0.002 nm grid of exact split responses, on
            # the mode-order convention's labels
            asm = st.default_assembly(gap2_nm=t_g2, membrane={**st.default_assembly_config()["membrane"],
                                                              "thickness_nm": t_d})
            ref, found = GridPhaseModel(asm, lo, hi, 0.002).solve_wavelengths(q + pm.anchor_turns(t_d, t_g2), gap)
            inside = (roots >= lo) & (roots <= hi)
            assert np.array_equal(found, inside)
            worst.append(np.max(np.abs(roots - ref)[found], initial=0.0))

        check()
        # measured worst case 2e-8 nm, the fine grid's linear phase: it falls
        # as the grid step squared, while the smooth model's error is far below
        assert 0.0 < max(worst) < 1e-7

    def test_analytic_jacobian_matches_central_differences(self, synthetic_points, monkeypatch):
        from microcav import dispersion_fit

        captured = []
        lm_fit = dispersion_fit.lm_fit

        def capturing(model, x, y, p0, **kwargs):
            result = lm_fit(model, x, y, p0, **kwargs)
            captured.append((model, kwargs["jac"], np.array(p0), np.array(list(result.params.values()))))
            return result

        monkeypatch.setattr(dispersion_fit, "lm_fit", capturing)
        fit_dispersion(synthetic_points[0], st.default_assembly(),
                       initial={"t_d_nm": 1400.0, "t_g2_nm": 150.0, "gap_offset_nm": 0.0})
        fit_dispersion(synthetic_points[0], st.default_assembly(), fix_gap2_nm=0.0)
        assert len(captured) == 2
        h = 1e-3
        for model, jac, p0, p_fit in captured:
            for p in (p0, p_fit, p_fit + 3.0):
                analytic = jac(None, *p)
                central = np.column_stack([(model(None, *(p + h * e)) - model(None, *(p - h * e))) / (2.0 * h)
                                           for e in np.eye(p.size)])
                scale = np.max(np.abs(central), axis=0)
                assert np.all(np.abs(analytic - central) <= 1e-6 * scale)

    def test_nfev_stable_under_last_bit_changes(self, monkeypatch):
        # a 1e-13 relative change of the coating phases moved the grid-phase
        # fit's evaluations by -51 % (seed 30) to +76 % (seed 49)
        from microcav import phase

        asm = st.default_assembly()
        clean = points_from_resonances(find_resonances(asm, np.linspace(12_800.0, 14_400.0, 9), (715.0, 755.0)))
        sweep = phase.amplitude_coefficients

        def nfev(pts):
            free = fit_dispersion(pts, asm)
            frozen = fit_dispersion(pts, asm, fix_gap2_nm=0.0)
            return free.fit.iterations + frozen.fit.iterations, free.fit

        for seed in (0, 19, 30, 49):
            pts = clean + np.column_stack([np.zeros(len(clean)), np.random.default_rng(seed).normal(0, 0.05, len(clean))])
            with monkeypatch.context() as m:
                n_exact, exact = nfev(pts)
                m.setattr(phase, "amplitude_coefficients",
                          lambda stack, wl: (lambda r, t: (r * np.exp(1e-13j * np.angle(r)), t))(*sweep(stack, wl)))
                n_moved, moved = nfev(pts)
            assert abs(n_moved - n_exact) < 0.05 * n_exact, (seed, n_exact, n_moved)
            for name, value in exact.params.items():
                assert moved.params[name] == pytest.approx(value, abs=1e-4 * exact.sigmas[name])
