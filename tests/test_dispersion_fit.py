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
        assert frozen.fit.params["t_g2_nm"] == 0.0

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
        grid = PhaseModel(template, lo, hi, step_nm=0.05).wl.size
        layer_points.clear()
        fit = fit_dispersion(pts, template)
        assert "order_retry" not in fit.fit.diagnostics
        # the fit iterated (9 residual evaluations with the analytic Jacobian)
        assert fit.fit.iterations > 5
        # the fiber and the plane coating, each swept once on the fit's grid;
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

    @pytest.mark.parametrize("newton_steps", [12, 1])
    def test_no_grid_work_during_the_fit(self, synthetic_points, layer_points, monkeypatch, newton_steps):
        # the LM run composes no grid and sweeps no coating; the grid path's
        # solve runs only for points whose Newton root fell back, and with a
        # single Newton step (which never passes the step test) every point does
        from microcav import dispersion_fit
        from microcav.resonance import PhaseModel

        monkeypatch.setattr(dispersion_fit, "_NEWTON_STEPS", newton_steps)
        calls = {"_compose": 0, "with_membrane": 0, "solve_wavelengths": 0, "model": 0}
        in_fit = {"on": False, "layer_points": 0}

        def counted(name):
            method = getattr(PhaseModel, name)

            def wrapper(self, *args, **kwargs):
                if in_fit["on"]:
                    calls[name] += 1
                return method(self, *args, **kwargs)
            return wrapper

        for name in ("_compose", "with_membrane", "solve_wavelengths"):
            monkeypatch.setattr(PhaseModel, name, counted(name))
        lm_fit = dispersion_fit.lm_fit

        def counted_fit(model, *args, **kwargs):
            def counted_model(*params):
                calls["model"] += 1
                return model(*params)
            in_fit["on"], before = True, len(layer_points)
            try:
                return lm_fit(counted_model, *args, **kwargs)
            finally:
                in_fit["on"], in_fit["layer_points"] = False, len(layer_points) - before

        monkeypatch.setattr(dispersion_fit, "lm_fit", counted_fit)
        pts = synthetic_points[0]
        fit = fit_dispersion(pts, st.default_assembly())
        assert fit.fit.diagnostics["jacobian"] == "analytic"
        assert in_fit["layer_points"] == 0
        fallbacks = fit.fit.diagnostics["newton_fallbacks"]
        if newton_steps > 1:
            assert fallbacks == 0 and calls == {"_compose": 0, "with_membrane": 0, "solve_wavelengths": 0,
                                                "model": calls["model"]}
        else:
            # one grid composition and one all-fallback solve per residual
            # evaluation inside the LM run, plus the final residual outside it
            assert fallbacks == len(pts) * (calls["model"] + 1)
            assert calls["solve_wavelengths"] == calls["with_membrane"] == calls["_compose"] == calls["model"]
            monkeypatch.undo()
            newton = fit_dispersion(pts, st.default_assembly())
            assert newton.fit.diagnostics["newton_fallbacks"] == 0
            for name, value in newton.fit.params.items():
                assert value == pytest.approx(fit.fit.params[name], abs=0.01 * newton.fit.sigmas[name])

    def test_newton_roots_match_a_fine_grid(self, synthetic_points):
        hypothesis = pytest.importorskip("hypothesis")
        hst = hypothesis.strategies
        from dataclasses import replace

        from microcav.dispersion_fit import _WINDOW_MARGIN_NM, PointPhase
        from microcav.resonance import PhaseModel

        gaps, wls = synthetic_points[0].T
        template = st.default_assembly()
        base = PhaseModel(template, wls.min() - _WINDOW_MARGIN_NM, wls.max() + _WINDOW_MARGIN_NM, step_nm=0.05)
        phase = PointPhase(base)
        # the grid path on a 0.002 nm grid of the same interpolated coatings
        fine = PhaseModel.__new__(PhaseModel)
        fine.wl = np.linspace(base.wl[0], base.wl[-1], int(round((base.wl[-1] - base.wl[0]) / 0.002)) + 1)
        fine.r_fiber, r_plane = np.exp(phase.coatings(fine.wl)[0]).T
        fine._phi_fiber = fine._anchored_unwrap(fine.r_fiber)
        fine._plane = (r_plane, np.ones_like(r_plane))
        worst = []

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(hst.floats(1380.0, 1460.0), hst.floats(0.0, 400.0), hst.floats(-50.0, 50.0))
        def check(t_d, t_g2, offset):
            gap = gaps + offset
            phi = 4.0 * np.pi * gap / wls + phase.mirror_phase(wls, t_d, t_g2)[0]
            q = np.round(phi / (2.0 * np.pi) - 1.0)
            roots, converged = phase.roots(q, gap, t_d, t_g2, wls)
            miss = 4.0 * np.pi * gap / roots + phase.mirror_phase(roots, t_d, t_g2)[0] - 2.0 * np.pi * (q + 1.0)
            assert np.max(np.abs(miss[converged]), initial=0.0) < 1e-10
            fine._compose(replace(template, membrane=replace(template.membrane, thickness_nm=t_d), gap2_nm=t_g2))
            shift = phase.branch(fine, t_d, t_g2)
            ref, bracketed = fine.solve_wavelengths(q - shift, gap)
            # a root the fine grid holds converges, and one off the grid does not
            assert np.array_equal(converged, bracketed)
            worst.append(np.max(np.abs(roots - ref)[converged], initial=0.0))

        check()
        # measured worst case 1.7e-8 nm: the fine grid's linear phase between nodes
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
        from microcav import resonance

        asm = st.default_assembly()
        clean = points_from_resonances(find_resonances(asm, np.linspace(12_800.0, 14_400.0, 9), (715.0, 755.0)))
        sweep = resonance.amplitude_coefficients

        def nfev(pts):
            free = fit_dispersion(pts, asm)
            frozen = fit_dispersion(pts, asm, fix_gap2_nm=0.0)
            return free.fit.iterations + frozen.fit.iterations, free.fit

        for seed in (0, 19, 30, 49):
            pts = clean + np.column_stack([np.zeros(len(clean)), np.random.default_rng(seed).normal(0, 0.05, len(clean))])
            with monkeypatch.context() as m:
                n_exact, exact = nfev(pts)
                m.setattr(resonance, "amplitude_coefficients",
                          lambda stack, wl: (lambda r, t: (r * np.exp(1e-13j * np.angle(r)), t))(*sweep(stack, wl)))
                n_moved, moved = nfev(pts)
            assert abs(n_moved - n_exact) < 0.05 * n_exact, (seed, n_exact, n_moved)
            for name, value in exact.params.items():
                assert moved.params[name] == pytest.approx(value, abs=1e-4 * exact.sigmas[name])
