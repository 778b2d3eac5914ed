"""Resonance structure of the assembled cavity, from one cut at the fiber-side gap.

Cut open at the fiber-coating surface, the cavity is two reflectors facing
the air gap t_g: the fiber mirror, and everything beyond the gap (membrane,
second gap, plane mirror).  Neither depends on t_g.  The two coatings are
swept with the TMM (``tmm``'s fold of Airy steps) once per wavelength grid,
and the second gap and the membrane are composed in front of the plane
coating by two more of the same steps (van Dam et al., NJP 20, 115004
(2018); Janitz et al., PRA 92, 043844 (2015)):

* the full-stack transmission, which is what a spectrometer sees, is the
  Airy composition ``t = t1 t2 e^{ik t_g} / (1 - r1 r2 e^{2ik t_g})``;
  ``dispersion_map`` broadcasts it over a gap x wavelength grid;
* ``PhaseModel`` caches, from the two reflections, the round-trip phase
  ``Phi = 4 pi t_g / lambda + arg r1(lambda) + arg r2(lambda)``, and a mode of
  order q resonates where ``Phi = 2 pi (q + 1)``.  The mirror phases are
  unwrapped continuously in wavelength and anchored to their principal
  values at the mirror design wavelength, so mode orders are reproducible
  across calls for a given geometry;
* ``find_resonances`` solves that condition for every order in the window
  and every gap at once, then moves each root to the transmission maximum
  next to it (a three-point parabola on log T), so a resonance is a
  transmission maximum labelled by its root's order;
* ``StandingWave`` builds the field at every gap of a sweep from three
  per-layer solves of the same two halves (the fiber coating driven from
  either side, the rest driven from the gap), joined through the gap's
  forward and backward amplitudes; L_eff, the emitter overlap and the
  membrane-interface weight are read from it.

The mode order convention q = round(phase / 2pi) - 1 counts out the two
~pi mirror reflection phases; for an ideal empty cavity it reproduces
lambda_q = 2 L / q exactly.  Labels increment by exactly 1 between
adjacent fundamental resonances.

Air-like vs diamond-like classification compares |d lambda / d t_g|, the
implicit slope -(dPhi/dt_g) / (dPhi/dlambda) on the cached phase, with the
slope lambda/t_g of an empty cavity whose whole length is the gap: above
60% of it -> air-like, below 25% -> diamond-like, else mixed.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from . import constants
from .stack import AIR, CavityAssembly, GeometryError, Layer, split_at_gap
from .tmm import _airy_step, _phase, _wave_amplitudes, amplitude_coefficients


class NoResonanceError(RuntimeError):
    """No resonance exists in the requested window."""


class OffResonanceError(RuntimeError):
    """Field-based quantities requested too far from a resonance."""


@dataclass(frozen=True)
class ResonancePoint:
    """One transmission resonance of the assembled cavity."""

    gap_nm: float
    wavelength_nm: float
    q_gap: int
    character: str  # "air-like" | "diamond-like" | "mixed"

    def to_dict(self) -> dict:
        return {
            "gap_nm": self.gap_nm,
            "wavelength_nm": self.wavelength_nm,
            "q_gap": self.q_gap,
            "character": self.character,
        }


@dataclass(frozen=True)
class SplitResponse:
    """The two halves of the cavity cut open at the fiber-side gap, on one grid.

    ``r_fiber`` is the fiber coating's reflection seen from the gap and
    ``t_fiber`` its transmission from the fiber substrate into the gap;
    ``r_rest`` and ``t_rest`` are those of everything beyond the gap, for
    light arriving from the gap.  ``power_ratio`` is Re(n_exit) / Re(n_entry)
    of the whole cavity, which turns |t|^2 into transmitted power.
    """

    wl: np.ndarray
    r_fiber: np.ndarray
    t_fiber: np.ndarray
    r_rest: np.ndarray
    t_rest: np.ndarray
    power_ratio: float

    def transmission(self, gap_nm):
        """Power transmission of the whole cavity; ``gap_nm`` broadcasts against ``wl``.

        The gap is air, so |e^{ik t_g}| = 1 and only the round trip's phase
        enters the Airy denominator.
        """
        round_trip = self.r_fiber * self.r_rest * np.exp(4j * np.pi * np.asarray(gap_nm, dtype=float) / self.wl)
        return self.power_ratio * np.abs(self.t_fiber * self.t_rest) ** 2 / np.abs(1.0 - round_trip) ** 2


def _rest_response(assembly: CavityAssembly, wl, r_plane, t_plane):
    """(r, t) beyond the fiber-side gap from the plane coating's, seen from air: the second gap, then the membrane."""
    mem = assembly.membrane
    n_front = AIR.nc if mem is None else mem.material.nc
    r, t, _, _ = _airy_step(n_front, AIR.nc, _phase(AIR.nc, assembly.gap2_nm, wl), r_plane, t_plane)
    if mem is None:
        return r, t
    return _airy_step(AIR.nc, n_front, _phase(n_front, mem.thickness_nm, wl), r, t)[:2]


def split_response(assembly: CavityAssembly, wavelength_nm) -> SplitResponse:
    """r and t of the fiber coating and of the rest of the stack, seen from the gap."""
    wl = np.asarray(wavelength_nm, dtype=float)
    fiber, plane = assembly.fiber_mirror.as_stack(AIR), assembly.plane_mirror.as_stack(AIR)
    r_fiber, t_gap_side = amplitude_coefficients(fiber, wl)
    # reciprocity: from its substrate the coating transmits n_sub / n_gap
    # times the amplitude it transmits from the gap
    t_fiber = t_gap_side * (fiber.exit.nc / fiber.entry.nc)
    r_rest, t_rest = _rest_response(assembly, wl, *amplitude_coefficients(plane, wl))
    return SplitResponse(wl, r_fiber, t_fiber, r_rest, t_rest, plane.exit.nc.real / fiber.exit.nc.real)


def _cell_roots(x0, x1, p0, p1, target, gap_nm):
    """Root inside [x0, x1] of 4 pi gap / x + p(x) = target, p linear on the cell.

    With p = p0 + s (x - x0), x * miss = s x^2 + (p0 - s x0 - target) x + 4 pi gap;
    of the two roots of its cancellation-free form the one nearer the cell's
    middle is taken.  Vectorized over every argument.
    """
    s = (p1 - p0) / (x1 - x0)
    b, c = p0 - s * x0 - target, 4.0 * np.pi * gap_nm
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * s * c, 0.0)), b))
        mid = 0.5 * (x0 + x1)
        near, far = h / s, c / h
        root = np.where(np.abs(near - mid) <= np.abs(far - mid), near, far)
        return np.where(s == 0.0, -c / b, root)


# anchor for phase unwrapping; any fixed wavelength works, the mirror
# design wavelength keeps mode orders stable across call sites
_ANCHOR_NM = constants.MIRROR_CENTER_NM
# A gap from ``solve_gap`` at a grid node leaves a phase miss of a few ulp of
# the ~300 rad round trip there, which puts the root up to ~1e-13 nm (1e-16
# of lambda) to either side of the node; 1e-12 of lambda covers that
_EDGE_ROUNDING = 1e-12


class PhaseModel:
    """Cached mirror reflections and unwrapped phases for one geometry over one window.

    All resonance solving reduces to interpolation on two dense phase
    grids, so repeated solves (dispersion fits, lifetime curves) stay
    cheap.  The gap itself enters analytically and is not part of the
    cache, so one model serves every gap value.  A build sweeps the two
    coatings with the TMM on the grid and keeps their responses; the membrane
    and second gap are composed in closed form, so ``with_membrane`` swaps
    them without a TMM sweep.
    """

    def __init__(self, assembly: CavityAssembly, wl_min_nm: float, wl_max_nm: float, step_nm: float = 0.02):
        lo = min(wl_min_nm, _ANCHOR_NM - 2.0)
        hi = max(wl_max_nm, _ANCHOR_NM + 2.0)
        n = int(np.ceil((hi - lo) / step_nm)) + 1
        self.wl = np.linspace(lo, hi, n)
        self.r_fiber, _ = amplitude_coefficients(assembly.fiber_mirror.as_stack(AIR), self.wl)
        self._phi_fiber = self._anchored_unwrap(self.r_fiber)
        self._plane = amplitude_coefficients(assembly.plane_mirror.as_stack(AIR), self.wl)
        self._compose(assembly)

    def _compose(self, assembly: CavityAssembly) -> None:
        self.assembly = assembly
        r_rest, _ = _rest_response(assembly, self.wl, *self._plane)
        self.mag = np.abs(self.r_fiber) * np.abs(r_rest)
        self.phi_mirrors = self._phi_fiber + self._anchored_unwrap(r_rest)

    def with_membrane(self, t_d_nm: float, t_g2_nm: float) -> PhaseModel:
        """This model with membrane thickness t_d (the implant depth clamped to it) and second gap t_g2; no TMM."""
        asm = self.assembly
        if asm.membrane is None:
            raise ValueError("the assembly has no membrane to set t_d and t_g2 of")
        model = copy.copy(self)
        model._compose(replace(asm, membrane=replace(asm.membrane, thickness_nm=t_d_nm), gap2_nm=t_g2_nm,
                               implant_depth_nm=min(asm.implant_depth_nm, t_d_nm)))
        return model

    def _anchored_unwrap(self, r: np.ndarray) -> np.ndarray:
        phi = np.unwrap(np.angle(r))
        i0 = int(np.argmin(np.abs(self.wl - _ANCHOR_NM)))
        # anchor to the principal value in [0, 2pi): mirrors reflecting with
        # phase ~pi must not flip to ~-pi, or mode orders would shift by 2
        principal = np.angle(r[i0]) % (2.0 * np.pi)
        return phi + 2.0 * np.pi * np.round((principal - phi[i0]) / (2.0 * np.pi))

    # -- continuous quantities ------------------------------------------------

    def mirror_phase(self, wl_nm):
        return np.interp(wl_nm, self.wl, self.phi_mirrors)

    def round_trip_phase(self, wl_nm, gap_nm: float):
        return 4.0 * np.pi * gap_nm / np.asarray(wl_nm, dtype=float) + self.mirror_phase(wl_nm)

    def mode_order(self, wl_nm, gap_nm):
        """Mode order q = round(Phi / 2pi) - 1 through (wl, gap); vectorized."""
        return np.round(self.round_trip_phase(wl_nm, gap_nm) / (2.0 * np.pi) - 1.0).astype(int)

    def group_length_nm(self, wl_nm):
        """Optical length of everything except the gap, (dphi/dk) / 2."""
        k = 2.0 * np.pi / self.wl
        dphi_dk = np.gradient(self.phi_mirrors, k)
        return np.interp(wl_nm, self.wl, 0.5 * dphi_dk)

    def linewidth_nm(self, wl_nm, gap_nm):
        """Airy FWHM estimate from the round-trip amplitude |r_L r_R|; vectorized."""
        rho = np.minimum(np.interp(wl_nm, self.wl, self.mag), 1.0 - 1e-12)
        finesse = np.pi * np.sqrt(rho) / (1.0 - rho)
        l_opt = gap_nm + self.group_length_nm(wl_nm)
        fsr = wl_nm**2 / (2.0 * l_opt)
        return fsr / finesse

    def tuning_slope(self, wl_nm, gap_nm):
        """d lambda / d t_g of the resonance through (wl, gap); vectorized.

        Implicit differentiation of Phi(lambda, t_g) = 2 pi (q + 1):
        -(dPhi/dt_g) / (dPhi/dlambda), with dPhi/dt_g = 4 pi / lambda and the
        mirror phase's slope taken on the grid cell that holds lambda.
        """
        wl = np.asarray(wl_nm, dtype=float)
        i = np.clip(np.searchsorted(self.wl, wl, side="right") - 1, 0, self.wl.size - 2)
        dphi = (self.phi_mirrors[i + 1] - self.phi_mirrors[i]) / (self.wl[i + 1] - self.wl[i])
        return -(4.0 * np.pi / wl) / (dphi - 4.0 * np.pi * gap_nm / wl**2)

    # -- solving --------------------------------------------------------------

    def solve_wavelengths(self, q, gap_nm, window: tuple[float, float] | None = None):
        """(wavelengths, bracketed) of mode orders q at gaps ``gap_nm``, broadcast together.

        Per row the root lies in the first grid cell of the window where the
        phase miss changes sign or is zero at a node (``_cell_roots``).  A row
        with no such cell takes the window's edge cell nearer in |miss| and
        continues the phase linearly along that cell, so its root moves
        smoothly off the window as trial parameters push it out.  Such a root
        within ``_EDGE_ROUNDING`` (relative) of the window's edge is rounding
        of a root on the edge node: it is ``bracketed`` and clamped to the
        edge.  Any other is not ``bracketed``.
        """
        in_window = slice(None) if window is None else slice(np.searchsorted(self.wl, window[0], side="left"),
                                                             np.searchsorted(self.wl, window[1], side="right"))
        wl, phi = self.wl[in_window], self.phi_mirrors[in_window]
        if wl.size < 2:
            raise NoResonanceError("window outside the cached phase grid")
        q, gap = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(gap_nm, dtype=float))
        target = 2.0 * np.pi * (q + 1.0)
        miss = 4.0 * np.pi * gap[..., None] / wl + phi - target[..., None]
        # a cell brackets a root where the miss changes sign or is zero at either node
        change = np.diff(np.signbit(miss), axis=-1) | (miss[..., :-1] == 0.0) | (miss[..., 1:] == 0.0)
        bracketed = change.any(axis=-1)
        edge = np.where(np.abs(miss[..., -1]) < np.abs(miss[..., 0]), wl.size - 2, 0)
        i = np.where(bracketed, change.argmax(axis=-1), edge)
        root = _cell_roots(wl[i], wl[i + 1], phi[i], phi[i + 1], target, gap)
        on_edge = ~bracketed & (np.minimum(np.abs(root - wl[0]), np.abs(root - wl[-1])) <= _EDGE_ROUNDING * wl[-1])
        return np.where(on_edge, np.clip(root, wl[0], wl[-1]), root), bracketed | on_edge

    def solve_wavelength(self, q: int, gap_nm: float, window: tuple[float, float] | None = None) -> float:
        """Resonance wavelength of mode order q at a given gap (``solve_wavelengths``).

        Raises NoResonanceError if the mode misses the window.
        """
        root, bracketed = self.solve_wavelengths(q, gap_nm, window)
        if not bracketed:
            lo = self.wl[0] if window is None else max(window[0], self.wl[0])
            hi = self.wl[-1] if window is None else min(window[1], self.wl[-1])
            raise NoResonanceError(f"mode q={q} has no resonance in [{lo:.2f}, {hi:.2f}] nm at gap {gap_nm:.1f} nm")
        return float(root)

    def solve_gap(self, q: int, wl_nm: float) -> float:
        """Gap putting mode order q on resonance at a given wavelength."""
        gap = (2.0 * np.pi * (q + 1.0) - self.mirror_phase(wl_nm)) * wl_nm / (4.0 * np.pi)
        return float(gap)

    def retune_gap(self, wl_nm: float, target_gap_nm: float) -> tuple[float, int]:
        """(gap, q) of the resonance at wl nearest to a target gap."""
        q_float = self.round_trip_phase(wl_nm, target_gap_nm) / (2.0 * np.pi) - 1.0
        best = None
        for q in (int(np.floor(q_float)), int(np.ceil(q_float))):
            gap = self.solve_gap(q, wl_nm)
            if gap <= 0:
                continue
            if best is None or abs(gap - target_gap_nm) < abs(best[0] - target_gap_nm):
                best = (gap, q)
        if best is None:
            raise NoResonanceError(f"no positive gap puts {wl_nm} nm on resonance near {target_gap_nm} nm")
        return best

    def nearest_resonance(self, wl_nm: float, gap_nm: float) -> tuple[float, int]:
        """(wavelength, q) of the resonance closest to wl at this gap."""
        q_float = self.round_trip_phase(wl_nm, gap_nm) / (2.0 * np.pi) - 1.0
        best = None
        for q in (int(np.floor(q_float)), int(np.ceil(q_float))):
            try:
                w = self.solve_wavelength(q, gap_nm)
            except NoResonanceError:
                continue
            if best is None or abs(w - wl_nm) < abs(best[0] - wl_nm):
                best = (w, q)
        if best is None:
            raise NoResonanceError(f"no resonance near {wl_nm} nm at gap {gap_nm} nm")
        return best


def classify_character(pm: PhaseModel, gap_nm, wl_nm) -> np.ndarray:
    """Air-like / diamond-like / mixed from the dispersion slope d lambda/d t_g; vectorized."""
    wl = np.asarray(wl_nm, dtype=float)
    slope = np.abs(pm.tuning_slope(wl, gap_nm))
    # reference: slope wl / gap of an empty cavity of length gap, multiplied out so gap 0 is valid
    length = slope * np.asarray(gap_nm, dtype=float)
    return np.where(length >= 0.60 * wl, "air-like", np.where(length <= 0.25 * wl, "diamond-like", "mixed"))


def find_resonances(
    assembly: CavityAssembly,
    gap_nm,
    wavelength_window: tuple[float, float],
    rel_prominence: float = 1e-3,
) -> list[ResonancePoint]:
    """All transmission maxima in the window, for one gap or an array of gaps.

    One PhaseModel serves every gap.  On each cell of its phase grid, every
    integer q between the cell's two values of Phi/2pi - 1 has a root of the
    phase condition there (``_cell_roots``).  Each root is moved to the
    transmission maximum by a parabola on log T at +-linewidth/60, T from the
    split response, and labelled with its order q and its character.  A
    resonance whose T at the root is below ``rel_prominence`` times the
    largest T among its gap's resonances is dropped.  The list runs in
    order of gap, then wavelength.
    """
    lo, hi = wavelength_window
    if not hi > lo:
        raise ValueError("empty wavelength window")
    gaps = np.atleast_1d(np.asarray(gap_nm, dtype=float))
    if not np.all(gaps >= 0.0):
        raise GeometryError("gaps must be >= 0")
    pm = PhaseModel(assembly, lo - 5.0, hi + 5.0)

    # the grid cells that overlap the window, and Phi/2pi - 1 at their ends
    i0 = max(int(np.searchsorted(pm.wl, lo, side="right")) - 1, 0)
    i1 = min(int(np.searchsorted(pm.wl, hi, side="left")), pm.wl.size - 1)
    x, phi = pm.wl[i0:i1 + 1], pm.phi_mirrors[i0:i1 + 1]
    order = (4.0 * np.pi * gaps[:, None] / x + phi) / (2.0 * np.pi) - 1.0
    q_first = np.ceil(np.minimum(order[:, :-1], order[:, 1:]))
    count = (np.ceil(np.maximum(order[:, :-1], order[:, 1:])) - q_first).astype(int)
    g_idx, cell = np.nonzero(count > 0)
    n = count[g_idx, cell]
    # a cell holds more than one order only on a grid coarser than the FSR
    q = np.repeat(q_first[g_idx, cell], n) + np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    g_idx, cell = np.repeat(g_idx, n), np.repeat(cell, n)
    gap = gaps[g_idx]
    root = _cell_roots(x[cell], x[cell + 1], phi[cell], phi[cell + 1], 2.0 * np.pi * (q + 1.0), gap)

    # three-point parabola on log T around each root.  Its bias from the
    # peak's asymmetry grows as h^2: on a broad mode 50 nm from the coating's
    # design wavelength it is 6e-6 nm at +-linewidth/6, 6e-8 nm at /60
    h = pm.linewidth_nm(root, gap) / 60.0
    logt = np.log(np.maximum(split_response(assembly, root[:, None] + h[:, None] * np.array([-1.0, 0.0, 1.0]))
                             .transmission(gap[:, None]), 1e-300))
    curv = logt[:, 0] - 2.0 * logt[:, 1] + logt[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.where(curv < 0.0, 0.5 * (logt[:, 0] - logt[:, 2]) / curv, 0.0)
    wl_res = root + shift * h

    keep = (wl_res > lo) & (wl_res < hi)
    g_idx, q, gap, wl_res, logt0 = g_idx[keep], q[keep], gap[keep], wl_res[keep], logt[keep, 1]
    tallest = np.full(gaps.size, -np.inf)
    np.maximum.at(tallest, g_idx, logt0)
    keep = logt0 >= np.log(rel_prominence) + tallest[g_idx]
    g_idx, q, gap, wl_res = g_idx[keep], q[keep], gap[keep], wl_res[keep]
    character = classify_character(pm, gap, wl_res)
    return [ResonancePoint(float(gap[i]), float(wl_res[i]), int(q[i]), str(character[i]))
            for i in np.lexsort((wl_res, g_idx))]


@dataclass(frozen=True)
class DispersionMap:
    """Transmission T(gap, wavelength) on a dense rectangular grid.

    ``t`` has shape (len(gaps), len(wavelengths)); row i is the spectrum at
    ``gaps_nm[i]``.  ``columns()`` gives the (gap_nm, wavelength_nm, T) columns in
    gap-major order, the layout of the CSV export.
    """

    gaps_nm: np.ndarray
    wavelengths_nm: np.ndarray
    t: np.ndarray

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n_gaps, n_wl = self.t.shape
        return np.repeat(self.gaps_nm, n_wl), np.tile(self.wavelengths_nm, n_gaps), self.t.ravel()


def dispersion_map(
    assembly: CavityAssembly,
    gap_range_nm: tuple[float, float],
    gap_steps: int,
    wavelength_window: tuple[float, float],
    wavelength_steps: int,
) -> DispersionMap:
    """Dense transmission map over a gap x wavelength grid, one split response for every row."""
    if gap_steps < 2 or wavelength_steps < 2:
        raise ValueError("need at least 2 steps per axis")
    gaps = np.linspace(gap_range_nm[0], gap_range_nm[1], gap_steps)
    if not np.all(gaps >= 0.0):
        raise GeometryError("gaps must be >= 0")
    wls = np.linspace(wavelength_window[0], wavelength_window[1], wavelength_steps)
    return DispersionMap(gaps, wls, split_response(assembly, wls).transmission(gaps[:, None]))


# ---------------------------------------------------------------------------
# the standing wave at the operating points of a sweep, and what is read from it
# ---------------------------------------------------------------------------

# L_eff is defined within this many cavity linewidths of a resonance
_RESONANCE_TOLERANCE_LINEWIDTHS = 0.5
# an amplitude below this is zero for a layer's energy and peak
_TINY = 1e-140


def _expm1_over(c, d):
    """(exp(c d) - 1)/c with the c -> 0 limit; vectorized."""
    x = c * d
    small = np.abs(x) < 1e-12
    with np.errstate(over="ignore"):
        return np.where(small, d * (1.0 + 0.5 * x), np.expm1(x) / np.where(small, 1.0, c))


def _layer_energy(a, b, k, d):
    """Integral of |a e^{ikz} + b e^{-ikz}|^2 over z in [0, d]; vectorized."""
    has_a, has_b = np.abs(a) > _TINY, np.abs(b) > _TINY
    with np.errstate(invalid="ignore"):  # a dropped term may be 0 * inf
        total = (np.where(has_a, np.abs(a) ** 2 * _expm1_over(-2.0 * k.imag, d), 0.0)
                 + np.where(has_b, np.abs(b) ** 2 * _expm1_over(2.0 * k.imag, d), 0.0))
    cross = a * np.conj(b) * (np.exp(2j * k.real * d) - 1.0) / (2j * k.real)
    return total + np.where(has_a & has_b, 2.0 * cross.real, 0.0)


def _peak_intensity(a, b, k: complex, d):
    """Max of |a e^{ikz} + b e^{-ikz}|^2 over z in [0, d]; vectorized over a, b and d.

    Exact in a lossless layer; a lossy one is sampled at 2001 depths.
    """
    if abs(k.imag) > 1e-12:
        z = np.linspace(0.0, np.broadcast_to(d, np.shape(a)), 2001)
        return np.max(np.abs(a * np.exp(1j * k * z) + b * np.exp(-1j * k * z)) ** 2, axis=0)
    # the antinode, where cos(2 k z + arg(a b*)) = 1, folded into the first period
    period = np.pi / k.real
    z_star = -np.angle(a * np.conj(b)) / (2.0 * k.real)
    z_star -= np.floor(z_star / period) * period
    ends = np.maximum(np.abs(a + b) ** 2, np.abs(a * np.exp(1j * k.real * d) + b * np.exp(-1j * k.real * d)) ** 2)
    peak = np.where((0.0 <= z_star) & (z_star <= d), (np.abs(a) + np.abs(b)) ** 2, ends)
    return np.where((np.abs(a) < _TINY) | (np.abs(b) < _TINY), np.abs(a) ** 2 + np.abs(b) ** 2, peak)


class StandingWave:
    """The field at one wavelength and every gap of a sweep, from three sub-stack solves.

    The cavity is cut at the fiber-side gap (``split_at_gap``), and
    ``tmm._wave_amplitudes`` solves the fiber coating driven from its
    substrate, the fiber coating driven from the gap, and the rest of the
    stack driven from the gap, once each.  At gap t_g the gap carries
    ``a = t_s / (1 - r_f r_rest e^{2ik t_g})`` forward and
    ``b = r_rest e^{2ik t_g} a`` backward; by linearity a coating layer holds
    its substrate-driven field plus b times its gap-driven one, and a layer
    beyond the gap ``a e^{ik t_g}`` times its own.

    Layers run fiber coating (substrate first), gap, rest; ``i_gap`` and
    ``i_membrane`` (None without a membrane) index them.  At the g-th gap the
    field in layer j is ``a[j, g] e^{ik_j z} + b[j, g] e^{-ik_j z}``, z from
    the layer's fiber-side face, in units of the wave incident from the fiber.
    """

    def __init__(self, assembly: CavityAssembly, wavelength_nm: float, gaps_nm):
        fiber, rest = split_at_gap(assembly)
        self.assembly, self.gaps_nm = assembly, np.atleast_1d(np.asarray(gaps_nm, dtype=float))
        self.i_gap = len(assembly.fiber_mirror.layers)
        self.i_membrane = None if assembly.membrane is None else self.i_gap + 1
        layers = (*assembly.fiber_mirror.layers, Layer(AIR, 1.0), *rest.layers)  # the gap's thickness varies
        self.n = np.array([layer.material.n for layer in layers])
        self.k = 2.0 * np.pi * np.array([layer.material.nc for layer in layers]) / wavelength_nm
        thickness = np.array([layer.thickness_nm for layer in layers])
        self.d = np.repeat(thickness[:, None], self.gaps_nm.size, axis=1)
        self.d[self.i_gap] = self.gaps_nm

        a_substrate, b_substrate, _, t_s = _wave_amplitudes(fiber.reversed(), wavelength_nm)
        a_from_gap, b_from_gap, r_f, _ = _wave_amplitudes(fiber, wavelength_nm)
        a_rest, b_rest, r_rest, t_rest = _wave_amplitudes(rest, wavelength_nm)
        if t_s == 0.0 or t_rest == 0.0:  # an opaque coating passes no light to or from the gap
            raise ValueError(f"a coating is opaque at {wavelength_nm} nm: its transmission underflows")
        round_trip = r_rest * np.exp(2j * self.k[self.i_gap] * self.gaps_nm)
        a = t_s / (1.0 - r_f * round_trip)
        b = round_trip * a
        # the gap-driven coating field, turned to run substrate first: in each layer
        # a' e^{ik(d - z)} + b' e^{-ik(d - z)} is (b' e^{-ikd}) e^{ikz} + (a' e^{ikd}) e^{-ikz}
        phase = np.exp(1j * self.k[:self.i_gap] * thickness[:self.i_gap])
        turned_a, turned_b = b_from_gap[::-1] / phase, a_from_gap[::-1] * phase
        forward = a * np.exp(1j * self.k[self.i_gap] * self.gaps_nm)
        self.a = np.concatenate([a_substrate[:, None] + turned_a[:, None] * b, a[None], a_rest[:, None] * forward])
        self.b = np.concatenate([b_substrate[:, None] + turned_b[:, None] * b, b[None], b_rest[:, None] * forward])

    def intensity(self, j: int, z_nm):
        """|a e^{ikz} + b e^{-ikz}|^2 at depth ``z_nm`` into layer j, per gap."""
        return np.abs(self.a[j] * np.exp(1j * self.k[j] * z_nm) + self.b[j] * np.exp(-1j * self.k[j] * z_nm)) ** 2

    def peak_intensity(self, j: int):
        """Max of ``intensity(j, z)`` over the layer, per gap."""
        return _peak_intensity(self.a[j], self.b[j], self.k[j], self.d[j])

    def effective_length_um(self) -> np.ndarray:
        """2 * integral of n^2 |E|^2 over the stack / its peak in the host layer, in um, per gap.

        The host is the membrane when there is one, else the gap.
        """
        if self.i_membrane is None and not np.all(self.gaps_nm > 0):
            raise ValueError("an empty cavity needs a nonzero gap to host the mode")
        j = self.i_gap if self.i_membrane is None else self.i_membrane
        energy = self.n[:, None] ** 2 * _layer_energy(self.a, self.b, self.k[:, None], self.d)
        return 2e-3 * np.sum(energy, axis=0) / (self.n[j] ** 2 * self.peak_intensity(j))

    def membrane_interface_weight(self) -> np.ndarray:
        """n^2 |E|^2 at the membrane's fiber-facing surface over the peak intracavity n^2 |E|^2, per gap.

        The membrane-side index is used at the boundary; the peak runs over
        the gap, the membrane and the second gap, everything but the coatings.
        """
        if self.i_membrane is None:
            raise ValueError("assembly has no membrane")
        n2 = self.n**2
        j = self.i_membrane
        inner = range(self.i_gap, self.n.size - len(self.assembly.plane_mirror.layers))
        peak = np.max([n2[i] * self.peak_intensity(i) for i in inner], axis=0)
        return np.clip(n2[j] * np.abs(self.a[j] + self.b[j]) ** 2 / peak, 0.0, 1.0)


def effective_length(assembly: CavityAssembly, wavelength_nm: float, pm: PhaseModel | None = None) -> float:
    """Energy-weighted effective cavity length in um, at a resonant wavelength.

    L_eff = 2 * integral of n^2 |E|^2 over the stack (mirror penetration
    included) divided by the peak n^2 |E|^2 in the emitter's host layer
    (the membrane when present, else the gap).  The factor 2 makes an
    ideal hard-mirror empty cavity come out at its geometric length.
    Farther than half a cavity linewidth from a resonance the standing-wave
    normalization is ill-defined, and OffResonanceError is raised.  ``pm``,
    a PhaseModel of the same assembly at any gap, saves building one; the
    result does not change.
    """
    pm = pm if pm is not None else PhaseModel(assembly, wavelength_nm - 5.0, wavelength_nm + 5.0)
    try:
        wl_res, _ = pm.nearest_resonance(wavelength_nm, assembly.gap_nm)
    except NoResonanceError as exc:
        raise OffResonanceError(str(exc)) from exc
    width = pm.linewidth_nm(wl_res, assembly.gap_nm)
    if abs(wavelength_nm - wl_res) > _RESONANCE_TOLERANCE_LINEWIDTHS * width:
        raise OffResonanceError(
            f"{wavelength_nm} nm is {abs(wavelength_nm - wl_res):.4g} nm from the nearest "
            f"resonance at {wl_res:.4f} nm (linewidth {width:.4g} nm)"
        )
    return float(StandingWave(assembly, wavelength_nm, assembly.gap_nm).effective_length_um()[0])


def membrane_interface_intensity(assembly: CavityAssembly, wavelength_nm: float) -> float:
    """Standing-wave weight of the membrane's fiber-facing surface.

    Returns n^2 |E|^2 at that interface over the peak intracavity
    n^2 |E|^2 (:meth:`StandingWave.membrane_interface_weight`); this is the
    ``relative_intensity`` input of :func:`microcav.metrics.roughness_loss`.
    """
    return float(StandingWave(assembly, wavelength_nm, assembly.gap_nm).membrane_interface_weight()[0])
