import numpy as np
import pytest

from microcav.fitting import FitError, lm_fit


def quad(x, a, b, c):
    return a * x**2 + b * x + c


class TestLmFit:
    def test_zero_noise_fixed_point(self, rng):
        x = np.linspace(-3, 5, 40)
        truth = (1.7, -0.4, 2.2)
        y = quad(x, *truth)
        fit = lm_fit(quad, x, y, [1.5, 0.0, 1.0], names=["a", "b", "c"])
        for name, val in zip(["a", "b", "c"], truth):
            assert fit[name] == pytest.approx(val, rel=1e-8)
        assert fit.converged
        assert fit.residual_norm < 1e-8

    def test_linear_model_matches_normal_equations(self, rng):
        x = np.linspace(0, 10, 60)
        y = 2.5 * x - 1.3 + rng.normal(0, 0.15, x.size)
        design = np.vstack([x, np.ones_like(x)]).T
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        fit = lm_fit(
            lambda x, a, b: a * x + b,
            x,
            y,
            [0.0, 0.0],
            jac=lambda x, a, b: design,
            names=["a", "b"],
        )
        assert fit["a"] == pytest.approx(coef[0], rel=1e-10)
        assert fit["b"] == pytest.approx(coef[1], rel=1e-10, abs=1e-12)
        # without the analytic Jacobian the polish is limited by the
        # finite-difference noise floor, still well below any data scale
        fit_fd = lm_fit(lambda x, a, b: a * x + b, x, y, [0.0, 0.0], names=["a", "b"])
        assert fit_fd["a"] == pytest.approx(coef[0], abs=1e-7)
        assert fit_fd["b"] == pytest.approx(coef[1], abs=1e-7)

    def test_initial_outside_bounds(self):
        x = np.linspace(0, 1, 10)
        with pytest.raises(FitError, match="outside the bounds"):
            lm_fit(lambda x, a: a * x, x, x, [2.0], bounds=([0.0], [1.0]))

    def test_more_params_than_points(self):
        with pytest.raises(FitError, match="more data points"):
            lm_fit(quad, np.array([1.0, 2.0]), np.array([1.0, 2.0]), [1, 1, 1])

    def test_max_iteration_exhaustion_carries_best_so_far(self, rng):
        x = np.linspace(0.1, 8, 80)
        y = 3.0 * np.exp(-x / 1.7) + rng.normal(0, 0.01, x.size)
        with pytest.raises(FitError) as info:
            lm_fit(lambda x, a, t: a * np.exp(-x / t), x, y, [100.0, 50.0], max_nfev=2)
        assert "best_params" in info.value.diagnostics

    def test_sigma_validation(self):
        x = np.linspace(0, 1, 10)
        with pytest.raises(FitError, match="sigma"):
            lm_fit(lambda x, a: a * x, x, x, [1.0], sigma=np.zeros(10))

    def test_near_degenerate_reports_large_uncertainty(self):
        # two parameters that only appear via (a + b): the fit must report
        # a huge uncertainty instead of crashing
        x = np.linspace(0, 1, 30)
        y = 2.0 * x + 1e-9 * x**2
        fit = lm_fit(
            lambda x, a, b: (a + b) * x + 1e-6 * b * x**2,
            x,
            y,
            [1.0, 1.0],
            names=["a", "b"],
        )
        assert fit.diagnostics["jacobian_condition"] > 1e4
        assert fit.sigmas["a"] > 1e2 * abs(fit.residual_norm + 1e-12)

    def test_numerically_zero_residual_stops(self):
        # noiseless mono-exponential data leave the EMG's IRF width on a flat
        # ridge toward zero that no tolerance terminates
        from microcav import decay

        t = np.arange(0.0, 12.5, 0.032)
        fit = decay.fit_decay_emg(decay.DecayTrace(t, decay.mono_exp(t, 2.5, 3e4, 20.0)))
        assert fit.diagnostics["zero_residual_termination"]
        assert fit.iterations < 1000
        assert fit["tau_ns"] == pytest.approx(2.5, rel=1e-8)

    def test_parameter_units_do_not_matter(self, rng):
        # column scaling makes the damped step blind to each parameter's unit
        x = np.linspace(0.0, 8.0, 60)
        y = 250.0 * np.exp(-x / 1.7) + 4.0 + rng.normal(0, 2.0, x.size)
        fits = []
        for unit in (1.0, 1e-9, 1e12):  # the decay time in units of 1/unit
            fits.append(lm_fit(
                lambda x, a, t, b: a * np.exp(-x * unit / t) + b, x, y, [100.0, unit, 0.0],
                jac=lambda x, a, t, b: np.column_stack(
                    [np.exp(-x * unit / t), a * np.exp(-x * unit / t) * x * unit / t**2, np.ones_like(x)]),
                bounds=([0.0, 0.1 * unit, -np.inf], [np.inf, np.inf, np.inf]), names=["a", "t", "b"]))
            assert fits[-1]["t"] / unit == pytest.approx(fits[0]["t"], rel=1e-8)
            assert fits[-1].chi2 == pytest.approx(fits[0].chi2, rel=1e-12)

    def test_weighted_covariance_is_absolute(self, rng):
        x = np.linspace(0, 10, 200)
        sigma = 0.5
        y = 3.0 * x + rng.normal(0, sigma, x.size)
        fit = lm_fit(lambda x, a: a * x, x, y, [1.0], sigma=np.full(x.size, sigma), names=["a"])
        expected = sigma / np.sqrt(np.sum(x**2))
        assert fit.sigmas["a"] == pytest.approx(expected, rel=1e-6)


class TestHeldParameters:
    """Equal bounds hold a parameter: the fit is the one without it."""

    @pytest.fixture
    def line(self):
        x = np.linspace(0.0, 10.0, 50)
        y = 2.0 * x + 1.0 + np.random.default_rng(1).normal(0.0, 0.1, x.size)
        return x, y, np.full(x.size, 0.1)

    @pytest.mark.parametrize("analytic", [True, False])
    def test_matches_the_fit_without_it(self, line, analytic):
        x, y, sigma = line
        jac = (lambda x, a, b: np.column_stack([x, np.ones_like(x)])) if analytic else None
        held = lm_fit(lambda x, a, b: a * x + b, x, y, [0.0, 1.0], sigma=sigma,
                      bounds=([-np.inf, 1.0], [np.inf, 1.0]), jac=jac, names=["a", "b"])
        one = lm_fit(lambda x, a: a * x + 1.0, x, y, [0.0], sigma=sigma, jac=lambda x, a: x[:, None], names=["a"])
        assert one.sigmas["a"] == pytest.approx(0.00244, abs=1e-5)
        assert held["b"] == 1.0 and held.sigmas["b"] == 0.0
        assert held["a"] == pytest.approx(one["a"], rel=1e-9)
        assert held.sigmas["a"] == pytest.approx(one.sigmas["a"], rel=1e-6)
        assert held.chi2 == pytest.approx(one.chi2, rel=1e-9)
        assert held.diagnostics["fixed"] == ["b"]
        cov = np.array(held.diagnostics["covariance"])
        assert cov.shape == (2, 2)
        assert np.all(cov[1] == 0.0) and np.all(cov[:, 1] == 0.0)
        assert cov[0, 0] == pytest.approx(one.diagnostics["covariance"][0][0], rel=1e-6)

    def test_point_count_counts_free_parameters(self):
        x = np.array([0.0, 1.0, 2.0])
        held = ([-np.inf, -np.inf, 2.0], [np.inf, np.inf, 2.0])
        with pytest.raises(FitError, match="more data points"):
            lm_fit(quad, x[:2], quad(x[:2], 1.0, 1.0, 2.0), [0.0, 0.0, 2.0], bounds=held)
        fit = lm_fit(quad, x, quad(x, 1.0, 1.0, 2.0), [0.0, 0.0, 2.0], bounds=held, names=["a", "b", "c"])
        assert fit["c"] == 2.0
        assert fit["a"] == pytest.approx(1.0, rel=1e-8) and fit["b"] == pytest.approx(1.0, rel=1e-8)

    def test_every_parameter_held(self):
        x = np.linspace(0.0, 1.0, 10)
        with pytest.raises(FitError, match="every parameter"):
            lm_fit(lambda x, a: a * x, x, x, [1.0], bounds=([1.0], [1.0]))


class TestModelRoundTrips:
    """Noiseless self-generated data returns the generating parameters."""

    def test_every_named_model(self):
        from microcav import decay, spectral
        from microcav.decay import DecayTrace
        from microcav.spectral import SpectrumTrace

        x = np.linspace(730, 745, 500)
        t = np.arange(0, 12, 0.02)

        # (fit callable, trace, generating params)
        cases = [
            (
                spectral.fit_lorentzian,
                SpectrumTrace(x, spectral.lorentzian(x, 737.1, 2.1, 850.0, 12.0)),
                {"center": 737.1, "fwhm": 2.1, "amplitude": 850.0, "offset": 12.0},
            ),
            (
                spectral.fit_double_lorentzian_equal_width,
                SpectrumTrace(x, spectral.double_lorentzian(x, 736.6, 737.3, 0.5, 700.0, 950.0, 8.0)),
                {"c1": 736.6, "c2": 737.3, "fwhm": 0.5, "a1": 700.0, "a2": 950.0, "offset": 8.0},
            ),
            (
                spectral.fit_cubic_temperature,
                np.column_stack([np.linspace(4, 300, 9), 736.86 + 6.7e-8 * np.linspace(4, 300, 9) ** 3]),
                {"value_at_0": 736.86, "cubic_coeff": 6.7e-8},
            ),
            (
                decay.fit_decay_mono,
                DecayTrace(t, decay.mono_exp(t, 1.36, 3e4, 25.0)),
                {"tau_ns": 1.36, "amplitude": 3e4, "background": 25.0},
            ),
            (
                decay.fit_decay_kohlrausch,
                DecayTrace(t, decay.kohlrausch(t, 1.5, 0.8, 3e4, 25.0)),
                {"tau_ns": 1.5, "beta": 0.8, "amplitude": 3e4, "background": 25.0},
            ),
            (
                decay.fit_decay_emg,
                DecayTrace(t, decay.emg(t, 1.36, 1.2, 0.3, 3e4, 25.0)),
                {"tau_ns": 1.36, "mu_ns": 1.2, "sigma_irf_ns": 0.3, "amplitude": 3e4, "background": 25.0},
            ),
        ]
        for fit_fn, trace, truth in cases:
            result = fit_fn(trace)
            for name, val in truth.items():
                assert result[name] == pytest.approx(val, rel=1e-6, abs=1e-9), (result.model, name)
