import warnings

import numpy as np
import pytest

from microcav import tmm
from microcav.peaks import find_peaks
from microcav import stack as st
from oracles import flatten_assembly, interface_mismatch, matrix_coefficients, scaled_stack_matrix


def airy_slab(n0, n1, n2, d, wl):
    """Independent oracle: closed-form Airy etalon coefficients."""
    r01 = (n0 - n1) / (n0 + n1)
    r12 = (n1 - n2) / (n1 + n2)
    t01 = 2 * n0 / (n0 + n1)
    t12 = 2 * n1 / (n1 + n2)
    delta = 2 * np.pi * n1 * d / wl
    e2 = np.exp(2j * delta)
    r = (r01 + r12 * e2) / (1 + r01 * r12 * e2)
    t = t01 * t12 * np.exp(1j * delta) / (1 + r01 * r12 * e2)
    return r, t


class TestStackResponse:
    def test_airy_slab_powers(self, rng):
        for _ in range(200):
            n1 = rng.uniform(1.0, 3.5)
            d = rng.uniform(10, 5000)
            wl = rng.uniform(400, 1200)
            slab = st.LayerStack(st.AIR, (st.Layer(st.Material("x", n1), d),), st.AIR)
            resp = tmm.stack_response(slab, wl)
            r_a, t_a = airy_slab(1.0, n1, 1.0, d, wl)
            assert resp.R == pytest.approx(abs(r_a) ** 2, rel=1e-10, abs=1e-12)
            assert resp.T == pytest.approx(abs(t_a) ** 2, rel=1e-10)

    def test_airy_slab_complex_amplitudes(self, rng):
        # exp(+ikz) convention: phases must match the oracle, not just powers
        for _ in range(50):
            n1 = rng.uniform(1.0, 3.5)
            d = rng.uniform(10, 3000)
            wl = rng.uniform(500, 900)
            slab = st.LayerStack(st.AIR, (st.Layer(st.Material("x", n1), d),), st.AIR)
            resp = tmm.stack_response(slab, wl)
            r_a, t_a = airy_slab(1.0, n1, 1.0, d, wl)
            assert abs(resp.r - r_a) < 1e-12
            assert abs(resp.t - t_a) < 1e-12

    def test_energy_conservation_lossless(self, rng):
        for _ in range(100):
            n_layers = rng.integers(1, 9)
            layers = tuple(
                st.Layer(st.Material("m", rng.uniform(1.0, 3.2)), rng.uniform(20, 900))
                for _ in range(n_layers)
            )
            s = st.LayerStack(st.Material("a", rng.uniform(1, 2)), layers, st.Material("b", rng.uniform(1, 2)))
            resp = tmm.stack_response(s, rng.uniform(400, 1000))
            assert abs(resp.R + resp.T - 1.0) < 1e-9
            assert abs(resp.A) < 1e-9

    def test_reciprocity(self, rng):
        for _ in range(60):
            layers = tuple(
                st.Layer(st.Material("m", rng.uniform(1.0, 3.2)), rng.uniform(20, 900))
                for _ in range(rng.integers(2, 8))
            )
            s = st.LayerStack(st.Material("a", rng.uniform(1, 2)), layers, st.Material("b", rng.uniform(1, 2)))
            wl = rng.uniform(400, 1000)
            assert abs(tmm.stack_response(s, wl).T - tmm.stack_response(s.reversed(), wl).T) < 1e-9

    def test_scale_invariance(self, rng):
        for _ in range(40):
            n1, n2 = rng.uniform(1.2, 3.0, 2)
            d1, d2 = rng.uniform(50, 1500, 2)
            wl = rng.uniform(500, 900)
            k = rng.uniform(0.3, 4.0)
            s1 = st.LayerStack(st.AIR, (st.Layer(st.Material("a", n1), d1), st.Layer(st.Material("b", n2), d2)), st.AIR)
            s2 = st.LayerStack(st.AIR, (st.Layer(st.Material("a", n1), k * d1), st.Layer(st.Material("b", n2), k * d2)), st.AIR)
            r1 = tmm.stack_response(s1, wl)
            r2 = tmm.stack_response(s2, k * wl)
            assert r1.R == pytest.approx(r2.R, abs=1e-12)
            assert r1.T == pytest.approx(r2.T, abs=1e-12)

    def test_two_layer_vs_hand_composed_product(self):
        # manual characteristic-matrix composition as a second oracle
        wl, n1, d1, n2, d2 = 736.0, 2.417, 410.0, 1.46, 230.0
        def layer_m(n, d):
            delta = 2 * np.pi * n * d / wl
            return np.array([[np.cos(delta), -1j * np.sin(delta) / n],
                             [-1j * n * np.sin(delta), np.cos(delta)]])
        m = layer_m(n1, d1) @ layer_m(n2, d2)
        n0 = ns = 1.0
        denom = n0 * m[0, 0] + n0 * ns * m[0, 1] + m[1, 0] + ns * m[1, 1]
        r_hand = (n0 * m[0, 0] + n0 * ns * m[0, 1] - m[1, 0] - ns * m[1, 1]) / denom
        s = st.LayerStack(st.AIR, (st.Layer(st.Material("1", n1), d1), st.Layer(st.Material("2", n2), d2)), st.AIR)
        assert abs(tmm.stack_response(s, wl).r - r_hand) < 1e-14

    def test_wavelength_must_be_positive(self):
        s = st.LayerStack(st.AIR, (st.Layer(st.DIAMOND, 100.0),), st.AIR)
        with pytest.raises(ValueError):
            tmm.stack_response(s, 0.0)
        with pytest.raises(ValueError):
            tmm.field_profile(s, -737.0)

    def test_fixture_mirror_transmission(self, fixture_mirror):
        resp = tmm.stack_response(fixture_mirror.as_stack(), 736.0)
        assert resp.T == pytest.approx(1480e-6, rel=0.10)
        assert resp.R == pytest.approx(1 - 1480e-6, abs=2e-4)
        # design-wavelength reflection carries phase pi (node at the surface)
        assert np.angle(resp.r) == pytest.approx(np.pi, abs=1e-9)

    def test_absorbing_layer(self):
        lossy = st.Material("lossy", 2.0, 0.05)
        s = st.LayerStack(st.AIR, (st.Layer(lossy, 500.0),), st.AIR)
        resp = tmm.stack_response(s, 736.0)
        assert resp.A > 0
        assert resp.R + resp.T + resp.A == pytest.approx(1.0, abs=1e-12)

    def test_opaque_layer(self):
        # Im delta = 1047 and 852: the layer's e^{ikd} underflows to 0, and nothing overflows
        opaque = st.hard_mirror(kappa=1e5, thickness_nm=1.0).as_stack()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r, t = tmm.amplitude_coefficients(opaque, np.array([600.0, 737.0]))
        assert np.all(np.isfinite(r)) and np.all(np.abs(r) < 1.0)
        assert np.all(t == 0.0)
        n = complex(1.0, 1e5)
        assert r[1] == pytest.approx((1.0 - n) / (1.0 + n), rel=1e-15)


class TestFieldProfile:
    def test_entry_field_is_one_plus_r(self):
        s = st.LayerStack(st.AIR, (st.Layer(st.DIAMOND, 1420.0), st.Layer(st.SILICA, 300.0)), st.AIR)
        r, _ = tmm.amplitude_coefficients(s, 737.0)
        a, b, _, _ = tmm._wave_amplitudes(s, 737.0)
        assert abs(a[0] + b[0] - (1 + r)) < 1e-12

    def test_exit_field_is_t(self):
        s = st.LayerStack(st.AIR, (st.Layer(st.DIAMOND, 1420.0),), st.AIR)
        _, t = tmm.amplitude_coefficients(s, 737.0)
        a, b, _, _ = tmm._wave_amplitudes(s, 737.0)
        k = 2 * np.pi * st.DIAMOND.nc / 737.0
        exit_field = a[-1] * np.exp(1j * k * 1420.0) + b[-1] * np.exp(-1j * k * 1420.0)
        assert abs(exit_field - t) < 1e-12

    def test_interface_continuity(self, membrane_assembly):
        s = flatten_assembly(membrane_assembly)
        assert interface_mismatch(s, 737.25) < 1e-9

    def test_profile_normalization_and_grid(self, membrane_assembly):
        s = flatten_assembly(membrane_assembly)
        prof = tmm.field_profile(s, 737.25, samples_per_layer=60)
        assert np.max(np.abs(prof.E)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(prof.z_nm) > 0)
        assert prof.z_nm[0] == 0.0
        assert prof.z_nm[-1] == pytest.approx(sum(l.thickness_nm for l in s.layers))

    def test_min_samples_rejected(self, membrane_assembly):
        s = flatten_assembly(membrane_assembly)
        with pytest.raises(ValueError):
            tmm.field_profile(s, 737.0, samples_per_layer=1)

    def test_antinode_spacing_in_empty_cavity(self, hard_assembly):
        from microcav.resonance import PhaseModel

        pm = PhaseModel(hard_assembly, 730, 745)
        wl, _ = pm.nearest_resonance(737.0, hard_assembly.gap_nm)
        s = flatten_assembly(hard_assembly.with_gap(hard_assembly.gap_nm))
        prof = tmm.field_profile(s, wl, samples_per_layer=40000)
        gap0 = sum(l.thickness_nm for l in hard_assembly.fiber_mirror.layers)
        gap1 = gap0 + hard_assembly.gap_nm
        sel = (prof.z_nm > gap0 + 50) & (prof.z_nm < gap1 - 50)
        intensity = np.abs(prof.E[sel]) ** 2
        peaks, _, _ = find_peaks(intensity)
        spacings = np.diff(prof.z_nm[sel][peaks])
        assert np.allclose(spacings, wl / 2, rtol=2e-3)

    def test_segment_lookup(self, membrane_assembly):
        s = flatten_assembly(membrane_assembly)
        prof = tmm.field_profile(s, 737.0, samples_per_layer=10)
        z0, z1 = prof.segment("diamond")
        assert z1 - z0 == pytest.approx(1420.0)
        with pytest.raises(KeyError):
            prof.segment("unobtainium")


def exact_coefficients(stack, wavelength_nm):
    """Reference (r, t): the characteristic-matrix product in long-double complex, pi included.

    The long-double exponent range holds the e^{Im delta} growth of every
    stack below, so nothing is rescaled.
    """
    wl = np.asarray(wavelength_nm, dtype=np.longdouble)
    pi = 4 * np.arctan(np.longdouble(1))

    def index(material):
        return np.clongdouble(material.n) + 1j * np.longdouble(material.kappa)

    m = np.identity(2, dtype=np.clongdouble)
    for layer in stack.layers:
        n = index(layer.material)
        delta = 2 * pi * n * np.longdouble(layer.thickness_nm) / wl
        c, s = np.cos(delta), np.sin(delta)
        m = m @ np.stack([np.stack([c, -1j * s / n], -1), np.stack([-1j * n * s, c], -1)], -2)
    n0, ns = index(stack.entry), index(stack.exit)
    front = n0 * m[..., 0, 0] + n0 * ns * m[..., 0, 1]
    back = m[..., 1, 0] + ns * m[..., 1, 1]
    return (front - back) / (front + back), 2 * n0 / (front + back)


def random_stack(rng, max_layers, max_kappa):
    layers = tuple(
        st.Layer(st.Material("m", rng.uniform(1.0, 3.2), rng.uniform(0.0, max_kappa)), rng.uniform(20, 900))
        for _ in range(rng.integers(1, max_layers + 1))
    )
    return st.LayerStack(st.Material("a", rng.uniform(1, 2)), layers, st.Material("b", rng.uniform(1, 2)))


def assert_near_exact(stack, wl):
    """The fold and the matrix oracle within a rounding budget that grows with the layer count.

    Against ``exact_coefficients``, per layer: the fold is within 7.3e-15 in r
    and 1.3e-14 relative in t on these stacks, the matrix product within
    7.2e-15 and 1.7e-14.
    """
    r_x, t_x = exact_coefficients(stack, wl)
    depth = len(stack.layers)
    for kernel in (tmm.amplitude_coefficients, matrix_coefficients):
        r, t = kernel(stack, wl)
        assert np.shape(r) == np.shape(t) == np.shape(wl)
        assert np.all(np.abs(r - r_x) <= 2e-14 * depth)
        assert np.all(np.abs(t - t_x) <= 4e-14 * depth * np.abs(t_x))


WAVELENGTH_GRIDS = [
    pytest.param(737.25, id="scalar"),
    pytest.param(np.linspace(600.0, 900.0, 301), id="1d"),
    pytest.param(np.linspace(600.0, 900.0, 60).reshape(4, 15), id="2d"),
]


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is no wider than double here")
class TestPlanarKernel:
    """The Airy fold and the matrix oracle against a long-double matrix product."""

    @pytest.mark.parametrize("wl", WAVELENGTH_GRIDS)
    def test_lossless_stacks(self, rng, wl):
        for _ in range(30):
            assert_near_exact(random_stack(rng, 60, 0.0), wl)

    @pytest.mark.parametrize("wl", WAVELENGTH_GRIDS)
    def test_absorbing_stacks(self, rng, wl):
        for _ in range(30):
            assert_near_exact(random_stack(rng, 60, 0.5), wl)

    @pytest.mark.parametrize("wl", WAVELENGTH_GRIDS)
    def test_rescale_in_absorbing_stack(self, wl):
        # six 2 um layers of n = 1.5 + 3i: the matrix oracle's entries pass 1e120
        lossy = st.Layer(st.Material("lossy", 1.5, 3.0), 2000.0)
        s = st.LayerStack(st.AIR, (lossy,) * 6, st.AIR)
        assert np.any(scaled_stack_matrix(s, wl)[2] > 0)
        assert_near_exact(s, wl)

    @pytest.mark.parametrize("wl", WAVELENGTH_GRIDS)
    def test_rescale_in_deep_lossless_mirror(self, wl):
        # 900 quarter-wave pairs: the matrix oracle's max|m| grows ~1.41x per
        # pair inside the stop band and passes 1e120 without any absorption
        s = st.build_quarter_wave_stack(737.25, 2.055221, 1.46, 900)
        assert np.any(scaled_stack_matrix(s, wl)[2] > 0)
        assert_near_exact(s, wl)
