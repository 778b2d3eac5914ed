import dataclasses
import warnings

import numpy as np
import pytest

from microcav import constants, metrics, tmm
from microcav import stack as st
from oracles import (FlatStandingWave, GridPhaseModel, SplitResponse, flatten_assembly, grid_find_resonances,
                     stack_response, transmission)
from microcav.phase import _rest_steps
from microcav.dispersion_fit import fit_dispersion
from microcav.purcell import xi_overlap
from microcav.resonance import (
    NoResonanceError,
    OffResonanceError,
    PhaseModel,
    StandingWave,
    dispersion_map,
    effective_length,
    find_resonances,
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
        resp = stack_response(flatten_assembly(empty_assembly.with_gap(gap_res)), wl)
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

    def test_map_of_a_reversed_window(self, membrane_assembly):
        # a window given high to low reads a model over the same wavelengths, not one
        # that ends at the anchor's nodes and extrapolates out to the window
        gaps = (13_000.0, 13_400.0)
        dmap = dispersion_map(membrane_assembly, gaps, 3, (750.0, 720.0), 50)
        assert dmap.wavelengths_nm[0] == 750.0 and dmap.wavelengths_nm[-1] == 720.0
        exact = SplitResponse(membrane_assembly, dmap.wavelengths_nm).transmission(dmap.gaps_nm[:, None])
        np.testing.assert_allclose(dmap.t, exact, rtol=1e-8, atol=0.0)

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
        finesse = metrics.finesse_from_losses(metrics.loss_budget(pm, 737.25, 2100.0))
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
        w = StandingWave(membrane_assembly, 737.25, membrane_assembly.gap_nm).membrane_interface_weight()[0]
        assert 0.0 <= w <= 1.0


# the grid oracle's step: its linear phase is off by about 1.5e-9 rad
_FINE_NM = 0.002
# On 700-790 nm the interpolated coatings put the default cavity's round-trip
# phase within 1.4e-9 rad of the TMM over 716-756 nm and 1.6e-8 rad at 700 nm
_PHASE_TOL_RAD = 3e-8


def _assert_roots_agree(pm, roots, ref, gaps):
    """Roots whose phase conditions agree within ``_PHASE_TOL_RAD``: |d lambda| |dPhi/dlambda| is below it."""
    slope = pm.phase(roots)[1] - 4.0 * np.pi * gaps / roots**2
    assert np.all(np.abs(roots - ref) * np.abs(slope) <= _PHASE_TOL_RAD)


def _bracket(pm, q, gap_nm, window=None):
    """The first node cell of the window where the resonant gap of order q crosses ``gap_nm``; None without one.

    The resonant gap is ``solve_gap``'s arithmetic on every node at once.
    """
    lo = pm.wl[0] if window is None else max(window[0], pm.wl[0])
    hi = pm.wl[-1] if window is None else min(window[1], pm.wl[-1])
    x = pm.wl[(pm.wl >= lo) & (pm.wl <= hi)]
    miss = (2.0 * np.pi * (q + 1.0) - pm.mirror_phase(x)) * x / (4.0 * np.pi) - gap_nm
    change = np.nonzero(np.diff(np.signbit(miss)) | (miss[:-1] == 0.0) | (miss[1:] == 0.0))[0]
    return (x[change[0]], x[change[0] + 1]) if change.size else None


class TestCellRoot:
    def test_matches_brentq(self, membrane_assembly, empty_assembly, hard_assembly):
        # the Newton root on its node cell against brentq on the same smooth
        # phase, and against the fine grid oracle's root
        from scipy.optimize import brentq

        solves = 0
        for asm in (membrane_assembly, empty_assembly, hard_assembly):
            pm = PhaseModel(asm, 700.0, 790.0)
            grid = GridPhaseModel(asm, 700.0, 790.0, _FINE_NM)
            for gap in np.linspace(3_000.0, 20_000.0, 23):
                q0 = pm.mode_order(737.0, gap)
                for q in (q0 - 1, q0, q0 + 1):
                    for window in (None, (725.0, 760.0)):
                        cell = _bracket(pm, q, gap, window)
                        if cell is None:  # no crossing: the solver must say so too
                            with pytest.raises(NoResonanceError):
                                pm.solve_wavelength(q, gap, window)
                            continue
                        root = pm.solve_wavelength(q, gap, window)
                        ref = brentq(lambda x: pm.round_trip_phase(x, gap) - 2.0 * np.pi * (q + 1.0), *cell, xtol=1e-12)
                        assert abs(root - ref) <= 1e-9
                        _assert_roots_agree(pm, root, grid.solve_wavelengths(q, gap, window)[0], gap)
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


class TestVectorSolve:
    def test_rows_equal_per_point_solves(self, membrane_assembly, empty_assembly):
        found_rows = 0
        for asm in (membrane_assembly, empty_assembly):
            pm = PhaseModel(asm, 700.0, 790.0)
            grid = GridPhaseModel(asm, 700.0, 790.0, _FINE_NM)
            gaps = np.repeat(np.linspace(3_000.0, 20_000.0, 23), 5)
            q = pm.mode_order(737.0, gaps) + np.tile([-20, -1, 0, 1, 20], 23)
            for window in (None, (725.0, 760.0)):
                roots, found = pm.solve_wavelengths(q, gaps, window)
                ref, ref_found = grid.solve_wavelengths(q, gaps, window)
                assert np.array_equal(found, ref_found)
                _assert_roots_agree(pm, roots[found], ref[found], gaps[found])
                assert np.all(np.isnan(roots[~found]))
                for qi, g, root, ok in zip(q, gaps, roots, found):
                    if ok:
                        assert pm.solve_wavelength(qi, g, window) == pytest.approx(root, abs=1e-12)
                        found_rows += 1
                    else:
                        with pytest.raises(NoResonanceError, match="no resonance"):
                            pm.solve_wavelength(qi, g, window)
        assert 200 <= found_rows < 2 * 2 * 23 * 5

    @pytest.mark.parametrize("edge", [0, -1])
    def test_root_continues_smoothly_off_the_grid(self, membrane_assembly, edge):
        # the dispersion fit's Newton roots are not held to the grid: past its
        # edge the end cells' polynomials continue, so a resonance moves on with no jump
        pm = PhaseModel(membrane_assembly, 730.0, 745.0)
        x_edge = pm.wl[edge]
        q = pm.mode_order(x_edge, 13_000.0)
        gaps = pm.solve_gap(q, x_edge) + np.linspace(-30.0, 30.0, 601)
        roots = pm.newton(q - pm.turns, gaps, np.full(gaps.shape, x_edge))
        outside = (roots < pm.wl[0]) | (roots > pm.wl[-1])
        assert np.count_nonzero(np.diff(outside)) == 1 and 250 <= np.count_nonzero(~outside) <= 350
        step = np.diff(roots)
        assert np.all(step > 0.0)
        assert np.max(np.abs(np.diff(step))) < 1e-3 * np.median(step)
        np.testing.assert_allclose(pm.round_trip_phase(roots, gaps), 2.0 * np.pi * (q + 1.0), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("edge", [0, -1])
    def test_resonance_on_an_edge_node(self, membrane_assembly, edge):
        # solve_gap puts the resonance on the grid's first or last node, give
        # or take a few ulp of the round trip; the root scan computes the same
        # resonant gap at that node bit for bit, so the node brackets the root
        pm = PhaseModel(membrane_assembly, 725.0, 740.0)
        x_edge = pm.wl[edge]
        assert x_edge == (725.0 if edge == 0 else 740.0)
        for q in range(15, 48):
            assert pm.solve_wavelength(q, pm.solve_gap(q, x_edge)) == pytest.approx(x_edge, abs=1e-9)


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

    def test_geometry_arguments_equal_a_fresh_build(self, membrane_assembly, empty_assembly, layer_points):
        pm = PhaseModel(membrane_assembly, 715.0, 755.0)
        wl = np.linspace(715.0, 755.0, 97)
        layer_points.clear()
        for t_d, t_g2, depth in ((1400.0, 100.0, 75.0), (1420.0, 0.0, 75.0), (50.0, 300.0, 50.0)):
            moved, turns = pm.phase(wl, t_d, t_g2), pm.anchor_turns(t_d, t_g2)
            assert layer_points == []  # composed in closed form
            fresh = PhaseModel(st.default_assembly(gap2_nm=t_g2, implant_depth_nm=depth, membrane={
                "thickness_nm": t_d, "n": constants.N_DIAMOND, "sigma_rms_nm": 3.6}), 715.0, 755.0)
            for got, expected in zip(moved, fresh.phase(wl)):
                assert np.array_equal(got, expected)
            assert turns == fresh.turns
            assert np.array_equal(moved[0] + 2.0 * np.pi * turns, fresh.mirror_phase(wl))
            layer_points.clear()
        with pytest.raises(ValueError, match="no membrane"):
            fit_dispersion(np.array([[13_000.0 + 100.0 * i, 737.0 + i] for i in range(4)]), empty_assembly)

    def test_below_the_stop_band(self, membrane_assembly):
        # below 652 nm the default plane coating reflects too little for the
        # closed-form phase to stay on one multiple of 2 pi
        gaps, window = np.linspace(12_800.0, 14_400.0, 3), (600.0, 645.0)
        ours, ref = find_resonances(membrane_assembly, gaps, window), grid_find_resonances(membrane_assembly, gaps, window)
        assert len(ours) == 13
        assert [(p.gap_nm, p.q_gap, p.character) for p in ours] == [(p.gap_nm, p.q_gap, p.character) for p in ref]
        gap, q = PhaseModel(membrane_assembly, 630.0, 650.0).retune_gap(640.0, membrane_assembly.gap_nm)
        assert (round(gap, 1), q) == (10_154.3, 34)

    def test_labels_do_not_depend_on_the_window(self, membrane_assembly):
        # the orders are anchored at one wavelength, so two windows that share
        # resonances label them alike
        wide = find_resonances(membrane_assembly, DEFAULT_GAPS, (690.0, 780.0))
        for window in (DEFAULT_WINDOW, (735.0, 770.0), (700.0, 725.0)):
            shared = [p for p in wide if window[0] < p.wavelength_nm < window[1]]
            narrow = find_resonances(membrane_assembly, DEFAULT_GAPS, window)
            assert len(shared) >= 8
            assert [(p.gap_nm, p.q_gap, p.character) for p in narrow] == [(p.gap_nm, p.q_gap, p.character) for p in shared]
            np.testing.assert_allclose([p.wavelength_nm for p in narrow], [p.wavelength_nm for p in shared],
                                       rtol=0.0, atol=1e-9)


# windows of the smooth phase's property test: around the design wavelength,
# at the blue and the red edge of the default coatings' stop band, and below it
_DESIGN_WINDOW = (715.0, 755.0)
_PHASE_WINDOWS = (_DESIGN_WINDOW, (640.0, 680.0), (810.0, 850.0), (600.0, 645.0))
# the interpolation bound the package's node step is chosen for: arg r and
# ln |r| of either coating within 20 nm of its design wavelength
_BOUND_RAD = 1e-11


def _exact_phase(asm, wl, delta=1e-4):
    """arg r_fiber + arg r_rest (principal values) and its central-difference slope, from exact split responses."""
    split, ahead, behind = (SplitResponse(asm, wl + d) for d in (0.0, delta, -delta))
    slope = np.angle(ahead.r_fiber * ahead.r_rest / (behind.r_fiber * behind.r_rest)) / (2.0 * delta)
    return np.angle(split.r_fiber) + np.angle(split.r_rest), slope


def _linear_error(grid, window):
    """The grid oracle's linear-interpolation error bound on a window: max |second difference of its phase| / 8."""
    inside = (grid.wl >= window[0] - 1.0) & (grid.wl <= window[1] + 1.0)
    return np.max(np.abs(np.diff(grid.phi_mirrors[inside], 2))) / 8.0


def _ln_t_bound(asm, pm, wl, gap):
    """Bound on |ln(pm.transmission / exact T)| at (wl, gap), from each coating's interpolation error there.

    The cavity's t is t_f t_rest e^{ik t_g} / (1 - r_f r_rest e^{2ik t_g}), and t_rest is
    t_p times a function of r_p, so to first order
    delta ln T = 2 Re(delta ln t_f + delta ln t_p + A_f delta ln r_f + A_p delta ln r_p)
    with A = d ln t / d ln r.  The t's enter by Re delta ln t = delta ln |t|, which
    ``coating_transmittance`` shows, the r's through a model with the coating as its
    fiber mirror.  The bound adds the first order's square for the higher orders and
    64 roundings of each term.
    """
    mirrors = (asm.fiber_mirror, asm.plane_mirror)
    r, t = zip(*(tmm.amplitude_coefficients(m.as_stack(), wl) for m in mirrors))
    exact_t = np.stack([m.substrate.n * np.abs(x) ** 2 for m, x in zip(mirrors, t)], axis=-1)
    ln_t = np.abs(np.log(pm.coating_transmittance(wl) / exact_t))
    ln_r = [np.abs(np.log(PhaseModel(dataclasses.replace(asm, fiber_mirror=m), pm.wl[0], pm.wl[-1]).phase(wl)[4] / x))
            for m, x in zip(mirrors, r)]
    n = st.AIR.nc if asm.membrane is None else asm.membrane.material.nc
    gap_phase = np.exp(4j * np.pi * np.asarray(gap) / wl)

    def t_cavity(r_fiber, r_plane):
        """The cavity's t, up to factors that do not depend on the r's."""
        r_rest, t_rest, _, _ = _rest_steps(n, asm.membrane_thickness_nm, asm.gap2_nm, wl, r_plane, t[1])[1]
        return t_rest / (1.0 - r_fiber * r_rest * gap_phase)

    # |A| by central differences in ln r; t is analytic in each r
    up, down = 1.0 + 1e-5, 1.0 - 1e-5
    a_fiber = np.abs(np.log(t_cavity(r[0] * up, r[1]) / t_cavity(r[0] * down, r[1]))) / np.log(up / down)
    a_plane = np.abs(np.log(t_cavity(r[0], r[1] * up) / t_cavity(r[0], r[1] * down))) / np.log(up / down)
    first = ln_t[..., 0] + ln_t[..., 1] + 2.0 * a_fiber * ln_r[0] + 2.0 * a_plane * ln_r[1]
    return first + first**2 + 64.0 * np.finfo(float).eps * (1.0 + 2.0 * a_fiber + 2.0 * a_plane)


class TestSmoothPhase:
    def test_matches_exact_composition_and_the_grid_oracle(self):
        hypothesis = pytest.importorskip("hypothesis")
        hst = hypothesis.strategies
        from microcav.phase import _STEP_NM

        rho = (constants.N_DIAMOND - 1.0) / (constants.N_DIAMOND + 1.0)
        # within the bound, each coating's ln r is off by at most sqrt(2) of it;
        # the fiber's goes into the phase as it is, the plane coating's through
        # the two Airy steps, each of which scales it by at most (1 + rho) / (1 - rho)
        design_rad = np.sqrt(2.0) * _BOUND_RAD * (1.0 + ((1.0 + rho) / (1.0 - rho)) ** 2)

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(hst.integers(5, 15), hst.integers(5, 15), hst.floats(1300.0, 1540.0), hst.floats(0.0, 600.0),
                          hst.sampled_from(_PHASE_WINDOWS), hst.lists(hst.floats(0.0, 1.0), min_size=4, max_size=16),
                          hst.lists(hst.floats(2_000.0, 20_000.0), min_size=1, max_size=3))
        def check(fiber_pairs, plane_pairs, t_d, t_g2, window, fractions, gaps):
            asm = st.default_assembly(fiber_mirror={"pairs": fiber_pairs}, plane_mirror={"pairs": plane_pairs},
                                      gap2_nm=t_g2, membrane={**st.default_assembly_config()["membrane"], "thickness_nm": t_d})
            pm, grid = PhaseModel(asm, *window), GridPhaseModel(asm, *window)
            wl = window[0] + (window[1] - window[0]) * np.asarray(fractions)
            # the phase up to the anchor's multiple of 2 pi, which is the grid oracle's, and its
            # slope: within the bound around the design wavelength, and elsewhere within the
            # oracle's own linear-interpolation error, the slope within 4 / step times either
            exact, exact_slope = _exact_phase(asm, wl)
            turns = (pm.mirror_phase(wl) - exact) / (2.0 * np.pi)
            assert np.array_equal(np.round(turns), np.round((grid.mirror_phase(wl) - exact) / (2.0 * np.pi)))
            tolerance = design_rad if window == _DESIGN_WINDOW else _linear_error(grid, window)
            assert np.all(2.0 * np.pi * np.abs(turns - np.round(turns)) <= tolerance)
            assert np.all(np.abs(pm.phase(wl)[1] - exact_slope) <= 4.0 * tolerance / _STEP_NM)

            # the interpolation bound, on each coating as the fiber coating of a model
            near = constants.MIRROR_CENTER_NM + 40.0 * (np.asarray(fractions) - 0.5)
            for mirror in (asm.fiber_mirror, asm.plane_mirror):
                r = PhaseModel(dataclasses.replace(asm, fiber_mirror=mirror), near.min(), near.max()).phase(near)[4]
                ln_error = np.log(r / tmm.amplitude_coefficients(mirror.as_stack(), near)[0])
                assert np.all(np.abs(ln_error.real) <= _BOUND_RAD) and np.all(np.abs(ln_error.imag) <= _BOUND_RAD)

            # the transmission against the exact split: within 1e-8 around the design
            # wavelength, elsewhere within what the coatings' interpolation errors allow
            gap_column = np.asarray(gaps)[:, None]
            ln_t_error = np.abs(np.log(pm.transmission(wl, gap_column) / SplitResponse(asm, wl).transmission(gap_column)))
            assert np.all(ln_t_error <= (1e-8 if window == _DESIGN_WINDOW else _ln_t_bound(asm, pm, wl, gap_column)))

            # the resonances against the grid oracle's: the same labels and, where Phi falls
            # across the whole window at every gap, each as close to those of a 5x finer grid
            # (25x more accurate) as the oracle's.  Where Phi turns, a root near the turn sits on
            # a flat log T, from where the parabola step to the peak is ill-conditioned.
            ours, ref = find_resonances(asm, gaps, window), grid_find_resonances(asm, gaps, window)
            assert [(p.gap_nm, p.q_gap, p.character) for p in ours] == [(p.gap_nm, p.q_gap, p.character) for p in ref]
            x = grid.wl[(grid.wl >= window[0]) & (grid.wl <= window[1])]
            if ours and np.all(np.diff(grid.round_trip_phase(x, gap_column)) < 0.0):
                fine = grid_find_resonances(asm, gaps, window, step_nm=0.004)
                assert len(fine) == len(ours)
                ours, ref, fine = (np.array([p.wavelength_nm for p in points]) for points in (ours, ref, fine))
                assert np.max(np.abs(ours - fine)) <= np.max(np.abs(ref - fine)) + 1e-9

        check()


class TestWorkCount:
    """Work bounds in TMM layer-points (layers x wavelengths), free of timing."""

    def test_find_resonances_default_gaps(self, membrane_assembly, layer_points):
        assert len(find_resonances(membrane_assembly, DEFAULT_GAPS, DEFAULT_WINDOW)) == 22
        # the two coatings on 201 nodes and two more past each end (9,020); the
        # points around the roots read the model
        assert 0 < sum(layer_points) < 10_000

    def test_dispersion_map_cli_defaults(self, membrane_assembly, layer_points):
        dmap = dispersion_map(membrane_assembly, (12_800.0, 14_400.0), 60, DEFAULT_WINDOW, 600)
        assert dmap.t.shape == (60, 600)
        # the two coatings on the window's 161 nodes and two more past each end (7,260)
        assert 0 < sum(layer_points) < 10_000

    def test_metrics_loss_budget_reads_the_model(self, membrane_assembly, layer_points, tmp_path):
        from microcav.cli import main

        assert main(["--outdir", str(tmp_path), "metrics", "--wavelength", "737.25"]) == 0
        # one model's sweep, the two coatings on its 81 nodes and two more past each
        # end; the loss budget adds nothing to it
        layers = len(membrane_assembly.fiber_mirror.layers) + len(membrane_assembly.plane_mirror.layers)
        assert sum(layer_points) == 85 * layers


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

        @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
        @hypothesis.given(_assemblies(hst), hst.lists(hst.floats(500.0, 1000.0), min_size=1, max_size=8))
        def check(asm, wls):
            wl = np.asarray(wls)
            split = SplitResponse(asm, wl)
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
            pm = PhaseModel(opaque, 730.0, 745.0)
            assert np.all(np.isfinite(pm.linewidth_nm(pm.wl, 10_000.0)))
        with pytest.raises(ValueError, match="a coating is opaque"):
            StandingWave(opaque, 737.0, [10_000.0, 12_000.0])

    def test_empty_gap_cannot_host(self, empty_assembly):
        with pytest.raises(ValueError, match="nonzero gap"):
            StandingWave(empty_assembly, 737.0, [5_000.0, 0.0]).effective_length_um()
        with pytest.raises(ValueError, match="no membrane"):
            StandingWave(empty_assembly, 737.0, 5_000.0).membrane_interface_weight()
