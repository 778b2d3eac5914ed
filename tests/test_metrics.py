import numpy as np
import pytest

from microcav import metrics, tmm
from microcav import stack as st
from microcav.metrics import LossBudget, UnstableResonatorError


class TestModeWaist:
    def test_quoted_operating_point(self):
        # shortest stable cavity: L = 1.6 um, r_c = 45 um at 736 nm
        w0 = metrics.mode_waist(1.6, 45.0, 736.0)
        assert w0 == pytest.approx(1.4, rel=0.05)

    def test_short_length_limit(self):
        # w0 ~ L^(1/4) -> 0 as the cavity shortens
        w = [metrics.mode_waist(l, 45.0, 736.0) for l in (1e-8, 1e-4, 1e-2, 1.0)]
        assert all(a < b for a, b in zip(w, w[1:]))
        assert w[0] < 0.02

    def test_half_roc_identity(self):
        w0 = metrics.mode_waist(22.5, 45.0, 736.0)
        assert w0**2 == pytest.approx((0.736 / np.pi) * 22.5)

    def test_unstable_raises_no_nan(self):
        with pytest.raises(UnstableResonatorError):
            metrics.mode_waist(45.0, 45.0, 736.0)
        with pytest.raises(UnstableResonatorError):
            metrics.mode_waist(46.0, 45.0, 736.0)
        with pytest.raises(UnstableResonatorError):
            metrics.mode_waist(0.0, 45.0, 736.0)

    def test_monotonic_in_wavelength(self):
        assert metrics.mode_waist(10.0, 45.0, 800.0) > metrics.mode_waist(10.0, 45.0, 700.0)


class TestModeVolume:
    def test_quoted_volume(self):
        w0 = metrics.mode_waist(1.6, 45.0, 736.0)
        v = metrics.mode_volume(w0, 1.6)
        assert metrics.mode_volume_lambda3(v, 736.0) == pytest.approx(5.8, rel=0.10)

    def test_linearity_in_length(self):
        assert metrics.mode_volume(1.4, 20.0) == pytest.approx(2 * metrics.mode_volume(1.4, 10.0))

    def test_waist_scaling(self):
        k = 1.7
        assert metrics.mode_volume(k * 1.4, 10.0) == pytest.approx(k**2 * metrics.mode_volume(1.4, 10.0))

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            metrics.mode_volume(0.0, 10.0)


class TestRoughnessLoss:
    def test_zero_sigma(self):
        assert metrics.roughness_loss(0.0, 2.417, 1.0, 736.0, 1.0) == 0.0

    def test_worst_case_within_factor_two_of_quoted_bound(self):
        loss = metrics.roughness_loss(3.6, 2.417, 1.0, 736.0, 1.0)
        assert 11_700.0 / 2 <= loss <= 11_700.0 * 2

    def test_monotone_in_sigma(self):
        losses = [metrics.roughness_loss(s, 2.417, 1.0, 736.0, 1.0) for s in (0.5, 1.0, 2.0, 3.6)]
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_monotone_in_contrast(self):
        losses = [metrics.roughness_loss(3.6, n, 1.0, 736.0, 1.0) for n in (1.2, 1.6, 2.0, 2.417)]
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_membrane_excess_band_attainable(self):
        # a field position exists where the membrane excess is ~2100 ppm
        worst = metrics.roughness_loss(3.6, 2.417, 1.0, 736.0, 1.0)
        w_needed = 2100.0 / worst
        assert 0.0 < w_needed < 1.0
        assert metrics.roughness_loss(3.6, 2.417, 1.0, 736.0, w_needed) == pytest.approx(2100.0)

    def test_relative_intensity_bounds(self):
        with pytest.raises(ValueError):
            metrics.roughness_loss(3.6, 2.417, 1.0, 736.0, 1.2)


class TestFinesse:
    def test_quoted_coating_budget(self):
        budget = LossBudget(1480.0, 1480.0, 20.0, 20.0)
        f = metrics.finesse_from_losses(budget)
        assert f == pytest.approx(2.0 * np.pi / 3000e-6, rel=1e-12)
        assert f == pytest.approx(2200.0, rel=0.10)

    def test_exact_inverse_relation(self):
        assert metrics.finesse_from_losses(LossBudget(1500.0, 1500.0)) == pytest.approx(2 * np.pi / 0.003)

    def test_scaling_property(self):
        budget = LossBudget(1480.0, 1480.0, 20.0, 20.0, 500.0, 30.0)
        for k in (0.5, 2.0, 3.7):
            assert metrics.finesse_from_losses(budget.scaled(k)) == pytest.approx(
                metrics.finesse_from_losses(budget) / k
            )

    def test_membrane_scatter_drops_finesse_to_seventy_percent(self):
        bare = metrics.finesse_from_losses(LossBudget(1480.0, 1480.0, 20.0, 20.0))
        with_membrane = metrics.finesse_from_losses(LossBudget(1480.0, 1480.0, 20.0, 20.0, membrane_ppm=900.0))
        assert with_membrane / bare == pytest.approx(0.70, abs=0.15)

    def test_zero_loss_error(self):
        with pytest.raises(ValueError):
            metrics.finesse_from_losses(LossBudget(0.0, 0.0))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            LossBudget(-1.0, 0.0)


class TestLossBudget:
    def test_configured_coatings_and_excess(self):
        # 14-pair fiber coating, 8-pair plane coating with 300 ppm excess
        a = st.default_assembly(fiber_mirror={"pairs": 14}, plane_mirror={"pairs": 8, "excess_loss_ppm": 300.0})
        t1, t2 = (tmm.stack_response(m.as_stack(st.AIR), 737.25).T * 1e6 for m in (a.fiber_mirror, a.plane_mirror))
        budget = metrics.loss_budget(a, 737.25, 2100.0)
        assert (budget.transmission1_ppm, budget.transmission2_ppm) == (t1, t2)
        assert t1 < 1480.0 < t2
        assert budget.total_ppm == pytest.approx(t1 + t2 + 20.0 + 300.0 + 2100.0, rel=1e-12)

    def test_default_coating_at_the_operating_point(self):
        budget = metrics.loss_budget(st.default_assembly(), 737.25, 2100.0)
        assert budget.transmission1_ppm == budget.transmission2_ppm == pytest.approx(1481.03, abs=0.01)
        assert (budget.excess1_ppm, budget.excess2_ppm, budget.membrane_ppm) == (20.0, 20.0, 2100.0)

    def test_empty_cavity_has_no_membrane_loss(self, empty_assembly):
        assert metrics.loss_budget(empty_assembly, 737.25, 2100.0).membrane_ppm == 0.0


class TestQualityFactor:
    def test_direct_evaluation(self):
        # Q = 2 L F / lambda; the source's own 1.4e5 for the empty cavity at
        # 10 um does not follow from this formula (gives ~6e4) - implemented
        # as stated, not tuned
        assert metrics.quality_factor(10.0, 737.0, 2200.0) == pytest.approx(5.97e4, rel=0.01)

    def test_linearity(self):
        q1 = metrics.quality_factor(10.0, 737.0, 1000.0)
        assert metrics.quality_factor(20.0, 737.0, 1000.0) == pytest.approx(2 * q1)
        assert metrics.quality_factor(10.0, 737.0, 2000.0) == pytest.approx(2 * q1)

    def test_positive_inputs(self):
        with pytest.raises(ValueError):
            metrics.quality_factor(-1.0, 737.0, 1000.0)
