"""The cavity cut open at the fiber-side gap: one model of its phase and transmission for every use.

``PhaseModel`` sweeps the two coatings with the TMM once, on nodes
``_STEP_NM`` apart; across each node cell, each coating's r and t are the
polynomials through the ``_NODES_PER_CELL`` nodes around it.  The second
gap and the membrane are two more Airy steps on the plane coating (van Dam et al., NJP 20, 115004
(2018)), taken at the wavelengths asked for, so t_d and t_g2 are plain
arguments and every derivative is analytic.  A step turns R = r e^{2i delta}
into r' = R (1 + rho/R) / (1 + rho R), and arg r' = arg R + Arg(r'/R) has no
2 pi jump where |R| > |rho|.  That holds for every thickness where
|r_plane| > 2 rho / (1 + rho^2) (0.708 for diamond) and the membrane is
lossless; elsewhere each wavelength takes the multiple of 2 pi nearest the
phase unwrapped over the nodes.
"""

from __future__ import annotations

import functools

import numpy as np

from . import constants
from .stack import AIR, CavityAssembly
from .tmm import _airy_step, _phase, amplitude_coefficients


class NoResonanceError(RuntimeError):
    """No resonance exists in the requested window."""


def _rest_steps(n_front: complex, t_d_nm, t_g2_nm, wl, r_plane, t_plane):
    """(r, t, R, g) of the Airy steps on the plane coating: the second gap entered from n_front, then the membrane.

    Without a membrane ``n_front`` is air and ``t_d_nm`` 0, and the second step changes nothing.
    """
    gap2 = _airy_step(n_front, AIR.nc, _phase(AIR.nc, t_g2_nm, wl), r_plane, t_plane)
    return gap2, _airy_step(AIR.nc, n_front, _phase(n_front, t_d_nm, wl), *gap2[:2])


# anchor of the mode-order convention; any fixed wavelength works, the mirror
# design wavelength keeps mode orders stable across call sites
_ANCHOR_NM = constants.MIRROR_CENTER_NM
# Node spacing of the coatings' interpolants and the nodes each cell's polynomial
# runs through.  On coatings of 4-15 pairs arg r and ln |r| stay within 1e-11
# rad of the TMM within 20 nm of the design wavelength.  Out of the stop band a
# broad resonance's T peak follows the interpolants' slope: with 8 nodes, 3 of
# 104 random cavities on 810-850 nm had a peak farther from the exact one than a
# 0.02 nm grid of exact T; with 12, none of 656 on 600-645, 640-680, 810-850 nm
_STEP_NM = 0.25
_NODES_PER_CELL = 12
_POWERS = np.arange(float(_NODES_PER_CELL))
# Newton on the phase condition stops once every step is below the tolerance;
# the convergence is quadratic, so the root is then good to far below it
_NEWTON_STEPS = 12
_NEWTON_TOL_NM = 1e-7


@functools.lru_cache(maxsize=None)
def _lagrange_rows(shift: int) -> np.ndarray:
    """[j, k]: the s^j coefficient of the polynomial that is 1 at node shift + k and 0 at the other nodes shift, ...,
    shift + ``_NODES_PER_CELL`` - 1, with node 0 a cell's left one and s the offset across the cell."""
    nodes = range(shift, shift + _NODES_PER_CELL)
    rows = np.zeros((_NODES_PER_CELL, _NODES_PER_CELL))
    for k, o in enumerate(nodes):
        poly, scale = [1], 1  # prod (s - m) and prod (o - m) over the other nodes m, in exact integers
        for m in nodes:
            if m != o:
                poly = [a - m * b for a, b in zip([0] + poly, poly + [0])]
                scale *= o - m
        rows[:, k] = [c / scale for c in poly]
    return rows


def _interpolants(v):
    """Per cell of the nodes ``v[2:-2]``, the c_j (last axis) of v(s) = sum_j c_j s^j, s in [0, 1] across it: the polynomial
    through the ``_NODES_PER_CELL`` nodes around the cell (shifted inward at the ends), c_0 the cell's left node as swept."""
    left = np.arange(2, v.shape[0] - 3)
    first = np.clip(left + 1 - _NODES_PER_CELL // 2, 0, v.shape[0] - _NODES_PER_CELL)
    shift = first - left
    rows = np.array([_lagrange_rows(f) for f in range(shift.min(), shift.max() + 1)])[shift - shift.min()]
    # the real and imaginary parts of v's columns alike
    coeffs = (rows @ v.view(float)[first[:, None] + np.arange(_NODES_PER_CELL)]).view(complex).swapaxes(1, 2)
    coeffs[..., 0] = v[left]
    return coeffs


def _at(coeffs, cell, s):
    """The ``_interpolants`` at offset s across each cell; ``s`` has a trailing axis for v's columns."""
    return (coeffs[cell] * s[..., None] ** _POWERS).sum(axis=-1)


def _resonant_gap(q, wl_nm, mirror_phase):
    """Gap putting mode order q on resonance at wl; ``solve_gap`` and the root scan share this arithmetic."""
    return (2.0 * np.pi * (q + 1.0) - mirror_phase) * wl_nm / (4.0 * np.pi)


class PhaseModel:
    """The round-trip phase of one cavity at any wavelength, gap, membrane thickness and second gap.

    The gap enters as 4 pi t_g / lambda; t_d and t_g2 default to the
    assembly's.  ``phase`` is continuous in all of them; ``mirror_phase``,
    the mode-order convention, adds ``turns`` 2 pi so that each mirror's
    phase at ``_ANCHOR_NM`` is its principal value in [0, 2 pi).
    """

    def __init__(self, assembly: CavityAssembly, wl_min_nm: float, wl_max_nm: float):
        lo, hi = min(wl_min_nm, _ANCHOR_NM - 2.0), max(wl_max_nm, _ANCHOR_NM + 2.0)
        self.wl = np.linspace(lo, hi, int(np.ceil((hi - lo) / _STEP_NM)) + 1)
        self.assembly, self.t_d_nm, self.t_g2_nm = assembly, assembly.membrane_thickness_nm, assembly.gap2_nm
        self._n = AIR.nc if assembly.membrane is None else assembly.membrane.material.nc
        # each coating's r and t from the gap, on two more nodes past each end for the end cells' polynomials
        h = self.wl[1] - self.wl[0]
        swept = np.concatenate([lo - h * np.array([2.0, 1.0]), self.wl, hi + h * np.array([1.0, 2.0])])
        mirrors = (assembly.fiber_mirror, assembly.plane_mirror)
        (r_fiber, t_fiber), (r_plane, t_plane) = (amplitude_coefficients(m.as_stack(AIR), swept) for m in mirrors)
        self._coatings = _interpolants(np.column_stack([r_fiber, r_plane, t_fiber, t_plane]))
        r = np.column_stack([r_fiber, r_plane])
        self._n_substrate = np.array([m.substrate.nc for m in mirrors])
        self._arg_nodes = np.unwrap(np.angle(r[2:-2]), axis=0)
        rho = abs((self._n - AIR.nc) / (self._n + AIR.nc))
        self._jumps = self._n.imag != 0.0 or not np.all(np.abs(r[2:-2, 1]) > 2.0 * rho / (1.0 + rho * rho))
        self._i_anchor = int(np.argmin(np.abs(self.wl - _ANCHOR_NM)))
        self.turns = self.anchor_turns(self.t_d_nm, self.t_g2_nm)

    def _cell(self, wl):
        """(node cell, offset s in [0, 1] across it with a trailing axis, node step) of each wavelength."""
        h = self.wl[1] - self.wl[0]
        u = (wl - self.wl[0]) / h
        cell = np.clip(u.astype(int), 0, len(self._coatings) - 1)  # past the grid, the end cells' polynomials go on
        return cell, (u - cell)[..., None], h

    def _closed_form(self, wl, t_d_nm, t_g2_nm):
        """``phase`` with each step's arg in closed form.

        The derivatives follow ln r through each step by
        d ln r' / d ln R = (n / n_out) g^2 R / r'.
        """
        cell, s, h = self._cell(wl)
        c, powers = self._coatings[cell, :2], s[..., None] ** _POWERS
        r, dr = (c * powers).sum(axis=-1), (c[..., 1:] * (_POWERS[1:] * powers[..., :-1])).sum(axis=-1)
        arg_r, dln_r = self._arg_nodes[cell] + np.angle(r / c[..., 0]), dr / (h * r)
        n, two_k = self._n, 4.0 * np.pi / wl
        (r1, _, big_r1, g1), (r2, _, big_r2, g2) = _rest_steps(n, t_d_nm, t_g2_nm, wl, r[..., 1], 1.0)
        gain1, gain2 = g1 * g1 * big_r1 / (n * r1), n * g2 * g2 * big_r2 / r2
        phi = (arg_r[..., 0] + arg_r[..., 1] + two_k * (t_g2_nm + n.real * t_d_nm)
               + np.angle(r1 / big_r1) + np.angle(r2 / big_r2))
        dln_plane = dln_r[..., 1] - 1j * two_k * t_g2_nm / wl
        dphi_dwl = dln_r[..., 0].imag + (gain2 * (gain1 * dln_plane - 1j * two_k * n * t_d_nm / wl)).imag
        return [phi, dphi_dwl, (gain2 * 1j * two_k * n).imag, (gain2 * gain1 * 1j * two_k).imag, r[..., 0], r2]

    def phase(self, wl_nm, t_d_nm=None, t_g2_nm=None):
        """[phi, dphi/dlambda, dphi/dt_d, dphi/dt_g2, r_fiber, r_rest] of both mirrors; t_d, t_g2 the assembly's by default.

        Broadcast over every argument; an array t_d or t_g2 needs a trailing axis for the wavelengths.
        """
        wl = np.asarray(wl_nm, dtype=float)
        t_d = self.t_d_nm if t_d_nm is None else t_d_nm
        t_g2 = self.t_g2_nm if t_g2_nm is None else t_g2_nm
        out = self._closed_form(wl, t_d, t_g2)
        if self._jumps:  # round against the phase unwrapped over the nodes, kept on the closed form at the anchor
            nodes = self._closed_form(self.wl, t_d, t_g2)[0]
            follow = np.unwrap(nodes, axis=-1)
            follow += 2.0 * np.pi * np.round((nodes - follow)[..., self._i_anchor:self._i_anchor + 1] / (2.0 * np.pi))
            u = np.clip((wl - self.wl[0]) / (self.wl[1] - self.wl[0]), 0.0, self.wl.size - 1.0)
            i = np.minimum(u.astype(int), self.wl.size - 2)
            follow = follow[..., i] + (u - i) * (follow[..., i + 1] - follow[..., i])
            out[0] = out[0] + 2.0 * np.pi * np.round((follow - out[0]) / (2.0 * np.pi))
        return out

    def anchor_turns(self, t_d_nm: float, t_g2_nm: float) -> int:
        """Multiple of 2 pi from ``phase`` to the mode-order convention at membrane t_d and second gap t_g2."""
        phi, _, _, _, r_fiber, r_rest = self.phase(_ANCHOR_NM, t_d_nm, t_g2_nm)
        principal = np.angle(r_fiber) % (2.0 * np.pi) + np.angle(r_rest) % (2.0 * np.pi)
        return int(np.round((principal - phi) / (2.0 * np.pi)))

    # -- continuous quantities at the assembly's geometry -----------------------

    def coating_transmittance(self, wl_nm):
        """Re(n_sub) |t|^2 of the fiber and the plane coating (last axis) from the gap; at a node the sweep's own."""
        return self._n_substrate.real * np.abs(_at(self._coatings[:, 2:], *self._cell(np.asarray(wl_nm, dtype=float))[:2])) ** 2

    def transmission(self, wl_nm, gap_nm):
        """Power transmission of the whole cavity at the assembly's t_d, t_g2; ``gap_nm`` broadcasts against ``wl_nm``.

        t = t_1 t_rest e^{ik t_g} / (1 - r_1 r_rest e^{2ik t_g}) across the air gap, t_1 = n_sub t_from_gap (reciprocity).
        """
        wl = np.asarray(wl_nm, dtype=float)
        cell, s, _ = self._cell(wl)
        r_fiber, r_plane, t_fiber, t_plane = np.moveaxis(_at(self._coatings, cell, s), -1, 0)
        r_rest, t_rest, _, _ = _rest_steps(self._n, self.t_d_nm, self.t_g2_nm, wl, r_plane, t_plane)[1]
        round_trip = r_fiber * r_rest * np.exp(4j * np.pi * np.asarray(gap_nm, dtype=float) / wl)
        n_fiber, n_plane = self._n_substrate
        return n_plane.real / n_fiber.real * np.abs(n_fiber * t_fiber * t_rest) ** 2 / np.abs(1.0 - round_trip) ** 2

    def mirror_phase(self, wl_nm):
        return self.phase(wl_nm)[0] + 2.0 * np.pi * self.turns

    def round_trip_phase(self, wl_nm, gap_nm: float):
        return 4.0 * np.pi * gap_nm / np.asarray(wl_nm, dtype=float) + self.mirror_phase(wl_nm)

    def mode_order(self, wl_nm, gap_nm):
        """Mode order q = round(Phi / 2pi) - 1 through (wl, gap); vectorized."""
        return np.round(self.round_trip_phase(wl_nm, gap_nm) / (2.0 * np.pi) - 1.0).astype(int)

    def linewidth_nm(self, wl_nm, gap_nm):
        """Airy FWHM estimate from the round-trip amplitude |r_L r_R| and the group length; vectorized."""
        wl = np.asarray(wl_nm, dtype=float)
        _, dphi, _, _, r_fiber, r_rest = self.phase(wl)
        rho = np.minimum(np.abs(r_fiber * r_rest), 1.0 - 1e-12)
        fsr = wl**2 / (2.0 * (gap_nm - dphi * wl**2 / (4.0 * np.pi)))
        return fsr * (1.0 - rho) / (np.pi * np.sqrt(rho))

    def tuning_slope(self, wl_nm, gap_nm):
        """d lambda / d t_g of the resonance through (wl, gap), -(dPhi/dt_g) / (dPhi/dlambda); vectorized."""
        wl = np.asarray(wl_nm, dtype=float)
        return -(4.0 * np.pi / wl) / (self.phase(wl)[1] - 4.0 * np.pi * gap_nm / wl**2)

    # -- solving --------------------------------------------------------------

    def newton(self, q, gap_nm, start_nm, lo=-np.inf, hi=np.inf, t_d_nm=None, t_g2_nm=None):
        """Roots of 4 pi gap / lambda + phi = 2 pi (q + 1), q counted on ``phase``, by Newton from start within [lo, hi]."""
        target = 2.0 * np.pi * (np.asarray(q, dtype=float) + 1.0)
        wl = np.asarray(start_nm, dtype=float)
        for _ in range(_NEWTON_STEPS):
            phi, dphi = self.phase(wl, t_d_nm, t_g2_nm)[:2]
            step = (4.0 * np.pi * gap_nm / wl + phi - target) / (dphi - 4.0 * np.pi * gap_nm / wl**2)
            wl = np.clip(wl - step, lo, hi)
            if np.all(np.abs(step) < _NEWTON_TOL_NM):
                break
        return wl

    def solve_wavelengths(self, q, gap_nm, window: tuple[float, float] | None = None):
        """(wavelengths, found) of mode orders q at gaps ``gap_nm``, broadcast together.

        Per row the root is in the window's first node cell where the gap
        that puts q on resonance (``solve_gap``) crosses ``gap_nm`` or equals
        it at a node; Newton solves it there.  A row without one is not
        ``found``, and its wavelength is NaN.
        """
        in_window = slice(None) if window is None else slice(np.searchsorted(self.wl, window[0], side="left"),
                                                             np.searchsorted(self.wl, window[1], side="right"))
        x = self.wl[in_window]
        if x.size < 2:
            raise NoResonanceError("window outside the cached phase grid")
        q, gap = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(gap_nm, dtype=float))
        miss = _resonant_gap(q[..., None], x, self.mirror_phase(x)) - gap[..., None]
        change = np.diff(np.signbit(miss), axis=-1) | (miss[..., :-1] == 0.0) | (miss[..., 1:] == 0.0)
        found = change.any(axis=-1)
        i = change[found].argmax(axis=-1)
        m0, m1 = np.take_along_axis(miss[found], np.stack([i, i + 1], axis=-1), axis=-1).T
        with np.errstate(divide="ignore", invalid="ignore"):
            start = np.where(m0 == m1, x[i], x[i] + (x[i + 1] - x[i]) * m0 / (m0 - m1))
        root = np.full(found.shape, np.nan)
        root[found] = self.newton(q[found] - self.turns, gap[found], start, x[i], x[i + 1])
        return root, found

    def solve_wavelength(self, q: int, gap_nm: float, window: tuple[float, float] | None = None) -> float:
        """Resonance wavelength of mode order q at a given gap; NoResonanceError if it misses the window."""
        root, found = self.solve_wavelengths(q, gap_nm, window)
        if not found:
            lo, hi = np.clip(window or (self.wl[0], self.wl[-1]), self.wl[0], self.wl[-1])
            raise NoResonanceError(f"mode q={q} has no resonance in [{lo:.2f}, {hi:.2f}] nm at gap {gap_nm:.1f} nm")
        return float(root)

    def solve_gap(self, q: int, wl_nm: float) -> float:
        """Gap putting mode order q on resonance at a given wavelength."""
        return float(_resonant_gap(q, wl_nm, self.mirror_phase(wl_nm)))

    def _orders_around(self, wl_nm: float, gap_nm: float) -> np.ndarray:
        """The two mode orders whose resonances bracket (wl, gap)."""
        q_float = self.round_trip_phase(wl_nm, gap_nm) / (2.0 * np.pi) - 1.0
        return np.array([np.floor(q_float), np.ceil(q_float)], dtype=int)

    def retune_gap(self, wl_nm: float, target_gap_nm: float) -> tuple[float, int]:
        """(gap, q) of the resonance at wl nearest to a target gap."""
        gaps = [(self.solve_gap(q, wl_nm), int(q)) for q in self._orders_around(wl_nm, target_gap_nm)]
        options = [(gap, q) for gap, q in gaps if gap > 0]
        if not options:
            raise NoResonanceError(f"no positive gap puts {wl_nm} nm on resonance near {target_gap_nm} nm")
        return min(options, key=lambda option: abs(option[0] - target_gap_nm))

    def nearest_resonance(self, wl_nm: float, gap_nm: float) -> tuple[float, int]:
        """(wavelength, q) of the resonance closest to wl at this gap."""
        q = self._orders_around(wl_nm, gap_nm)
        roots, found = self.solve_wavelengths(q, gap_nm)
        if not found.any():
            raise NoResonanceError(f"no resonance near {wl_nm} nm at gap {gap_nm} nm")
        i = np.argmin(np.where(found, np.abs(roots - wl_nm), np.inf))
        return float(roots[i]), int(q[i])
