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
        assert fit.fit.iterations > 10
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

    def test_one_vectorized_solve_per_residual(self, synthetic_points, monkeypatch):
        from microcav import dispersion_fit
        from microcav.resonance import PhaseModel

        calls = {"solve_wavelength": 0, "solve_wavelengths": 0, "model": 0, "lm_fit": 0}

        def counted(name):
            method = getattr(PhaseModel, name)

            def wrapper(self, *args, **kwargs):
                calls[name] += 1
                return method(self, *args, **kwargs)
            return wrapper

        for name in ("solve_wavelength", "solve_wavelengths"):
            monkeypatch.setattr(PhaseModel, name, counted(name))
        lm_fit = dispersion_fit.lm_fit

        def counted_fit(model, *args, **kwargs):
            calls["lm_fit"] += 1

            def counted_model(*params):
                calls["model"] += 1
                return model(*params)
            return lm_fit(counted_model, *args, **kwargs)

        monkeypatch.setattr(dispersion_fit, "lm_fit", counted_fit)
        fit = fit_dispersion(synthetic_points[0], st.default_assembly())
        assert calls["solve_wavelength"] == 0
        assert calls["lm_fit"] == 1 and calls["model"] >= fit.fit.iterations
        # one all-points solve per residual evaluation, plus the final residual
        assert calls["solve_wavelengths"] == calls["model"] + 1
