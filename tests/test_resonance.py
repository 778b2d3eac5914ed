import dataclasses
import warnings

import numpy as np
import pytest

from microcav import constants, metrics, tmm
from microcav import stack as st
from oracles import FlatStandingWave, flatten_assembly, transmission
from microcav.purcell import xi_overlap
from microcav.resonance import (
    NoResonanceError,
    OffResonanceError,
    PhaseModel,
    StandingWave,
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
        pts = find_resonances(leaky_hard_assembly, 15_000.0, (745.0, 775.0))
        assert len(pts) >= 2
        for p in pts:
            assert p.wavelength_nm == pytest.approx(2 * 15_000.0 / p.q_gap, rel=1e-4)
            assert p.character == "air-like"

    def test_fsr_spacing(self, leaky_hard_assembly):
        # the kappa-mirror transmission is strongly wavelength-dependent, so
        # the shortest-wavelength peak is orders of magnitude weaker: lower
        # the relative height cut for this oracle fixture
        pts = find_resonances(leaky_hard_assembly, 15_000.0, (712.0, 778.0), rel_prominence=1e-6)
        wls = sorted(p.wavelength_nm for p in pts)
        assert len(wls) >= 3
        for a, b in zip(wls, wls[1:]):
            fsr = (a + b) ** 2 / (8 * 15_000.0)  # lambda^2 / 2L at the midpoint
            assert b - a == pytest.approx(fsr, rel=0.02)

    def test_mode_orders_increment_by_one(self, leaky_hard_assembly):
        pts = find_resonances(leaky_hard_assembly, 15_000.0, (712.0, 778.0), rel_prominence=1e-6)
        qs = [p.q_gap for p in sorted(pts, key=lambda p: p.wavelength_nm)]
        assert len(qs) >= 3
        assert all(a - b == 1 for a, b in zip(qs, qs[1:]))

    def test_transmission_maximal_at_q_half_lambda(self, empty_assembly):
        # fixture mirrors reflect with phase pi at the design wavelength, so
        # the resonance condition there is exactly t_g = q lambda / 2
        wl = 736.0
        q = 27
        gap_res = q * wl / 2
        stack_t = lambda g: transmission(flatten_assembly(empty_assembly.with_gap(g)), wl)
        t_res = stack_t(gap_res)
        for dg in (-30.0, -10.0, 10.0, 30.0):
            assert stack_t(gap_res + dg) < t_res
        resp = tmm.stack_response(flatten_assembly(empty_assembly.with_gap(gap_res)), wl)
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
        pts = find_resonances(leaky_hard_assembly, 15_000.0, (751.0, 753.0))
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


def _first_bracket(pm, q, gap_nm, window=None):
    """Per-point search: the window's grid, its phases, the target and the first bracketing cell.

    A cell brackets where the phase miss changes sign or is zero at a node.
    Raises IndexError when the miss keeps one strict sign over the window.
    """
    lo = pm.wl[0] if window is None else max(window[0], pm.wl[0])
    hi = pm.wl[-1] if window is None else min(window[1], pm.wl[-1])
    sel = (pm.wl >= lo) & (pm.wl <= hi)
    wl, phi = pm.wl[sel], pm.phi_mirrors[sel]
    target = 2.0 * np.pi * (q + 1.0)
    miss = 4.0 * np.pi * gap_nm / wl + phi - target
    change = np.diff(np.signbit(miss)) | (miss[:-1] == 0.0) | (miss[1:] == 0.0)
    return wl, phi, target, int(np.nonzero(change)[0][0])


def _brentq_on_interpolant(pm, q, gap_nm, window=None):
    """Reference root: brentq on the same grid bracket and linear interpolant."""
    from scipy.optimize import brentq

    wl, _, target, i = _first_bracket(pm, q, gap_nm, window)
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


def _scalar_cell_root(pm, q, gap_nm, window=None):
    """The per-point solve: one ``_cell_roots`` call on the first bracket, None without one."""
    from microcav.resonance import _cell_roots

    try:
        wl, phi, target, i = _first_bracket(pm, q, gap_nm, window)
    except IndexError:
        return None
    return float(_cell_roots(wl[i], wl[i + 1], phi[i], phi[i + 1], target, gap_nm))


class TestVectorSolve:
    def test_rows_equal_per_point_solves(self, membrane_assembly, empty_assembly):
        bracketed_rows = 0
        for asm in (membrane_assembly, empty_assembly):
            pm = PhaseModel(asm, 700.0, 790.0)
            gaps = np.repeat(np.linspace(3_000.0, 20_000.0, 23), 5)
            q = pm.mode_order(737.0, gaps) + np.tile([-20, -1, 0, 1, 20], 23)
            for window in (None, (725.0, 760.0)):
                roots, bracketed = pm.solve_wavelengths(q, gaps, window)
                for qi, g, root, ok in zip(q, gaps, roots, bracketed):
                    ref = _scalar_cell_root(pm, qi, g, window)
                    assert ok == (ref is not None)
                    if ok:
                        assert root == ref and pm.solve_wavelength(qi, g, window) == ref
                        bracketed_rows += 1
                    else:
                        with pytest.raises(NoResonanceError, match="no resonance"):
                            pm.solve_wavelength(qi, g, window)
        assert 200 <= bracketed_rows < 2 * 2 * 23 * 5

    @pytest.mark.parametrize("edge", [0, -1])
    def test_root_continues_smoothly_off_the_grid(self, membrane_assembly, edge):
        pm = PhaseModel(membrane_assembly, 730.0, 745.0)
        x_edge = pm.wl[edge]
        q = pm.mode_order(x_edge, 13_000.0)
        gaps = pm.solve_gap(q, x_edge) + np.linspace(-30.0, 30.0, 601)
        roots, bracketed = pm.solve_wavelengths(q, gaps)
        # the resonance crosses the grid edge once, and its root moves on with no jump
        assert np.count_nonzero(np.diff(bracketed)) == 1 and 250 <= np.count_nonzero(bracketed) <= 350
        step = np.diff(roots)
        assert np.all(step > 0.0)
        assert np.max(np.abs(np.diff(step))) < 1e-3 * np.median(step)
        # off the grid, the root satisfies the phase continued linearly along the edge cell
        i = 0 if edge == 0 else pm.wl.size - 2
        slope = (pm.phi_mirrors[i + 1] - pm.phi_mirrors[i]) / (pm.wl[i + 1] - pm.wl[i])
        x, g = roots[~bracketed], gaps[~bracketed]
        assert np.all((x <= pm.wl[0]) | (x >= pm.wl[-1]))
        miss = 4.0 * np.pi * g / x + pm.phi_mirrors[i] + slope * (x - pm.wl[i]) - 2.0 * np.pi * (q + 1.0)
        assert np.max(np.abs(miss)) < 1e-9


    @pytest.mark.parametrize("edge", [0, -1])
    def test_resonance_on_an_edge_node(self, membrane_assembly, edge):
        # solve_gap puts the phase miss at 0.0 on the grid's first or last
        # node, give or take a few ulp of the round trip: a zero there brackets
        # the root as a sign change would, and a root rounded past the edge
        # (orders 19, 23, 28, 33, 36, 39 at 725 nm; 19, 23, 46 at 740 nm) is
        # bracketed on it
        pm = PhaseModel(membrane_assembly, 725.0, 740.0)
        x_edge = pm.wl[edge]
        assert x_edge == (725.0 if edge == 0 else 740.0)
        for q in range(15, 48):
            assert pm.solve_wavelength(q, pm.solve_gap(q, x_edge)) == pytest.approx(x_edge, abs=1e-9)


class TestPhaseModelReuse:
    def test_effective_length_with_shared_model_is_identical(self, membrane_assembly):
        pm = PhaseModel(membrane_assembly, 727.25, 747.25)
        for g0 in np.linspace(2_000.0, 20_000.0, 5):
            gap, _ = pm.retune_gap(737.25, g0)
            cav = membrane_assembly.with_gap(gap)
            assert effective_length(cav, 737.25, pm=pm) == effective_length(cav, 737.25)


# ---------------------------------------------------------------------------
# resonances as phase-condition roots, and the Airy composition
# ---------------------------------------------------------------------------

DEFAULT_GAPS = np.linspace(12_800.0, 14_400.0, 9)  # the dispersion command's defaults
DEFAULT_WINDOW = (715.0, 755.0)


def _oracle_cases(membrane_assembly, leaky_hard_assembly):
    return [
        (membrane_assembly, DEFAULT_GAPS, DEFAULT_WINDOW, {}),
        (membrane_assembly, 2_100.0, (680.0, 770.0), {}),
        (leaky_hard_assembly, 15_000.0, (712.0, 778.0), {"rel_prominence": 1e-6}),
    ]


def _golden_max(f, a, b, tol=1e-11):
    """Argmax of a unimodal f on [a, b] by golden-section search."""
    inv = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def _fd_character(pm, q, gap_nm, wl_nm, delta_gap_nm=2.0):
    """The former classification: a +-2 nm finite difference of the solved wavelength."""
    try:
        slope = abs(pm.solve_wavelength(q, gap_nm + delta_gap_nm) - pm.solve_wavelength(q, gap_nm - delta_gap_nm))
    except NoResonanceError:
        return "mixed"
    slope /= 2.0 * delta_gap_nm
    if slope >= 0.60 * wl_nm / gap_nm:
        return "air-like"
    if slope <= 0.25 * wl_nm / gap_nm:
        return "diamond-like"
    return "mixed"


class TestPhaseRoots:
    def test_transmission_maxima_oracle(self, membrane_assembly, leaky_hard_assembly):
        # each resonance sits on a golden-section maximum of the planar-TMM T
        checked = 0
        for asm, gaps, window, kw in _oracle_cases(membrane_assembly, leaky_hard_assembly):
            pm = PhaseModel(asm, window[0] - 5.0, window[1] + 5.0)
            for p in find_resonances(asm, gaps, window, **kw):
                stack = flatten_assembly(asm.with_gap(p.gap_nm))
                half = 0.3 * pm.linewidth_nm(p.wavelength_nm, p.gap_nm)
                peak = _golden_max(lambda w: float(transmission(stack, w)), p.wavelength_nm - half, p.wavelength_nm + half)
                assert abs(p.wavelength_nm - peak) <= 1e-6
                checked += 1
        assert checked == 22 + 3 + 4

    def test_slope_character_matches_finite_difference(self, membrane_assembly, leaky_hard_assembly):
        seen = set()
        for asm, gaps, window, kw in _oracle_cases(membrane_assembly, leaky_hard_assembly):
            pm = PhaseModel(asm, window[0] - 5.0, window[1] + 5.0)
            for p in find_resonances(asm, gaps, window, **kw):
                assert p.character == _fd_character(pm, p.q_gap, p.gap_nm, p.wavelength_nm)
                seen.add(p.character)
        assert seen == {"air-like", "diamond-like", "mixed"}

    def test_gap_array_equals_scalar_calls(self, membrane_assembly):
        together = find_resonances(membrane_assembly, DEFAULT_GAPS, DEFAULT_WINDOW)
        one_by_one = [p for g in DEFAULT_GAPS for p in find_resonances(membrane_assembly, float(g), DEFAULT_WINDOW)]
        assert together == one_by_one
        assert len(together) == 22

    def test_orders_label_the_phase_condition(self, membrane_assembly):
        pm = PhaseModel(membrane_assembly, 710.0, 760.0)
        for p in find_resonances(membrane_assembly, DEFAULT_GAPS, DEFAULT_WINDOW):
            assert pm.mode_order(p.wavelength_nm, p.gap_nm) == p.q_gap
            assert abs(pm.solve_wavelength(p.q_gap, p.gap_nm) - p.wavelength_nm) < 1e-4

    def test_height_cut(self, leaky_hard_assembly):
        # the kappa-mirror cavity transmits 100x less per FSR toward the blue
        default = find_resonances(leaky_hard_assembly, 15_000.0, (712.0, 778.0))
        loose = find_resonances(leaky_hard_assembly, 15_000.0, (712.0, 778.0), rel_prominence=1e-6)
        assert [p.q_gap for p in default] == [40, 39]
        assert [p.q_gap for p in loose] == [42, 41, 40, 39]

    def test_negative_gaps_rejected(self, membrane_assembly):
        with pytest.raises(st.GeometryError, match="gaps must be >= 0"):
            find_resonances(membrane_assembly, [13_000.0, -1.0], DEFAULT_WINDOW)
        with pytest.raises(st.GeometryError, match="gaps must be >= 0"):
            dispersion_map(membrane_assembly, (-500.0, 13_000.0), 5, DEFAULT_WINDOW, 10)

    def test_zero_gap_is_classified_without_warnings(self):
        # gaps >= 0 are valid input; gap 0 must not divide by zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = find_resonances(st.default_assembly(), [0.0, 13_000.0], (720.0, 750.0))
        assert [(p.gap_nm, p.q_gap, p.character) for p in points] == [
            (0.0, 0, "diamond-like"), (13_000.0, 36, "air-like"), (13_000.0, 35, "air-like")]

    def test_with_membrane_equals_a_fresh_build(self, membrane_assembly, empty_assembly, layer_points):
        pm = PhaseModel(membrane_assembly, 715.0, 755.0, step_nm=0.05)
        layer_points.clear()
        for t_d, t_g2, depth in ((1400.0, 100.0, 75.0), (1420.0, 0.0, 75.0), (50.0, 300.0, 50.0)):
            moved = pm.with_membrane(t_d, t_g2)
            assert layer_points == []  # recomposed in closed form
            expected = st.default_assembly(gap2_nm=t_g2, implant_depth_nm=depth,
                                           membrane={"thickness_nm": t_d, "n": constants.N_DIAMOND, "sigma_rms_nm": 3.6})
            assert moved.assembly == expected
            fresh = PhaseModel(expected, 715.0, 755.0, step_nm=0.05)
            assert np.array_equal(moved.wl, fresh.wl)
            assert np.array_equal(moved.phi_mirrors, fresh.phi_mirrors)
            assert np.array_equal(moved.mag, fresh.mag)
            layer_points.clear()
        with pytest.raises(ValueError, match="no membrane"):
            PhaseModel(empty_assembly, 715.0, 755.0).with_membrane(1400.0, 100.0)


class TestWorkCount:
    """Work bounds in TMM layer-points (layers x wavelengths), free of timing."""

    def test_find_resonances_default_gaps(self, membrane_assembly, layer_points):
        assert len(find_resonances(membrane_assembly, DEFAULT_GAPS, DEFAULT_WINDOW)) == 22
        assert 0 < sum(layer_points) < 500_000

    def test_dispersion_map_cli_defaults(self, membrane_assembly, layer_points):
        dmap = dispersion_map(membrane_assembly, (12_800.0, 14_400.0), 60, DEFAULT_WINDOW, 600)
        assert dmap.t.shape == (60, 600)
        assert 0 < sum(layer_points) < 100_000


def _mirror(draw, hst):
    layers = draw(hst.lists(
        hst.tuples(hst.floats(1.0, 3.0), hst.sampled_from([0.0, 1e-3, 0.05]), hst.floats(20.0, 300.0)),
        min_size=1, max_size=6))
    return st.Mirror(st.Material("substrate", draw(hst.floats(1.0, 2.0))),
                     tuple(st.Layer(st.Material("m", n, k), d) for n, k, d in layers))


def _assemblies(hst):
    """Random cavities: lossless and absorbing coatings, a (lossy) membrane or none, each gap zero or not."""

    @hst.composite
    def assemblies(draw):
        membrane = None
        if draw(hst.booleans()):
            material = st.Material("diamond", draw(hst.floats(1.5, 2.6)), draw(hst.sampled_from([0.0, 1e-4, 0.01])))
            membrane = st.Layer(material, draw(hst.floats(100.0, 3000.0)))
        gap, gap2 = (draw(_gaps(hst)) for _ in range(2))
        return st.CavityAssembly(_mirror(draw, hst), gap, membrane, gap2, _mirror(draw, hst), r_c_um=45.0)

    return assemblies()


def _gaps(hst):
    return hst.one_of(hst.just(0.0), hst.floats(1.0, 20_000.0))


class TestAiryComposition:
    def test_matches_planar_tmm(self):
        # lossless and absorbing coatings, with and without a (lossy) membrane,
        # second gap zero or not, first gap zero or not
        hypothesis = pytest.importorskip("hypothesis")
        hst = hypothesis.strategies
        from microcav.resonance import split_response

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
        @hypothesis.given(_assemblies(hst), hst.lists(hst.floats(500.0, 1000.0), min_size=1, max_size=8))
        def check(asm, wls):
            wl = np.asarray(wls)
            split = split_response(asm, wl)
            planar = transmission(flatten_assembly(asm), wl)
            np.testing.assert_allclose(split.transmission(asm.gap_nm), planar, rtol=1e-9, atol=0.0)
            # the closed-form membrane and second gap against the TMM of the same rest of the stack
            r_rest, t_rest = tmm.amplitude_coefficients(st.split_at_gap(asm)[1], wl)
            np.testing.assert_allclose(split.r_rest, r_rest, rtol=0.0, atol=1e-12)
            np.testing.assert_allclose(split.t_rest, t_rest, rtol=1e-12, atol=0.0)

        check()


def _assert_matches_flat_oracle(asm, wl, gaps, depth_fraction=0.3, angle=0.4):
    """L_eff, xi and the interface weight of one StandingWave over ``gaps`` against a flattened solve per gap."""
    wave = StandingWave(asm, wl, gaps)
    oracles = [FlatStandingWave(asm.with_gap(g), wl) for g in gaps]
    np.testing.assert_allclose(wave.effective_length_um(), [o.effective_length_um() for o in oracles], rtol=1e-10, atol=0.0)
    if asm.membrane is not None:
        depth = depth_fraction * asm.membrane.thickness_nm
        np.testing.assert_allclose(xi_overlap(wave, depth, angle), [o.xi(depth, angle) for o in oracles], rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(wave.membrane_interface_weight(), [o.membrane_interface_weight() for o in oracles],
                                   rtol=1e-10, atol=0.0)


class TestStandingWave:
    def test_matches_flattened_oracle(self):
        # the three sub-stack solves against one full-stack solve per gap, on the
        # random cavities of TestAiryComposition and several gaps in one call
        hypothesis = pytest.importorskip("hypothesis")
        hst = hypothesis.strategies

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
        @hypothesis.given(_assemblies(hst), hst.floats(600.0, 900.0), hst.lists(_gaps(hst), min_size=1, max_size=5),
                          hst.floats(0.0, 1.0))
        def check(asm, wl, gaps, depth_fraction):
            if asm.membrane is None:  # the gap hosts the mode, so it must be open
                gaps = [g for g in gaps if g > 0] or [asm.gap_nm or 1.0]
            _assert_matches_flat_oracle(asm, wl, gaps, depth_fraction)

        check()

    def test_hard_mirrors_match_oracle(self, hard_assembly):
        pm = PhaseModel(hard_assembly, 730.0, 745.0)
        wl, _ = pm.nearest_resonance(737.0, hard_assembly.gap_nm)
        gaps = np.linspace(2_000.0, 20_000.0, 7) + np.array([0.0, 3.0, 0.0, 117.0, 0.0, 0.5, 0.0])
        _assert_matches_flat_oracle(hard_assembly, wl, np.append(gaps, hard_assembly.gap_nm))
        assert StandingWave(hard_assembly, wl, hard_assembly.gap_nm).effective_length_um()[0] == pytest.approx(10.0, abs=1e-5)

    def test_retuned_sweep_matches_oracle(self, membrane_assembly):
        wl = constants.SIV_ZPL_CD_NM
        pm = PhaseModel(membrane_assembly, wl - 10.0, wl + 10.0)
        gaps = [pm.retune_gap(wl, g)[0] for g in np.linspace(1_000.0, 30_000.0, 40)]
        _assert_matches_flat_oracle(membrane_assembly, wl, gaps, depth_fraction=75.0 / 1420.0, angle=0.0)

    def test_opaque_coating_raises(self, membrane_assembly):
        # a 1 nm layer of n = 1 + 1e5 i passes no light; its reflection stays finite
        opaque = dataclasses.replace(membrane_assembly, fiber_mirror=st.hard_mirror(kappa=1e5, thickness_nm=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(PhaseModel(opaque, 730.0, 745.0).mag))
        with pytest.raises(ValueError, match="a coating is opaque"):
            StandingWave(opaque, 737.0, [10_000.0, 12_000.0])

    def test_empty_gap_cannot_host(self, empty_assembly):
        with pytest.raises(ValueError, match="nonzero gap"):
            StandingWave(empty_assembly, 737.0, [5_000.0, 0.0]).effective_length_um()
        with pytest.raises(ValueError, match="no membrane"):
            StandingWave(empty_assembly, 737.0, 5_000.0).membrane_interface_weight()
