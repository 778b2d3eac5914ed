"""Resonance structure of the assembled cavity, from one cut at the fiber-side gap.

Cut open at the fiber-coating surface, the cavity is two reflectors facing
the air gap t_g: the fiber mirror, and everything beyond the gap (membrane,
second gap, plane mirror).  Neither depends on t_g, so their TMM responses
are computed once on a wavelength grid and every gap reuses them
(van Dam et al., NJP 20, 115004 (2018); Janitz et al., PRA 92, 043844
(2015)):

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
  transmission maximum labelled by its root's order.

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

from dataclasses import dataclass

import numpy as np

from . import constants
from .stack import CavityAssembly, GeometryError, flatten_assembly, split_at_gap
from .tmm import _wave_amplitudes, amplitude_coefficients


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


def split_response(assembly: CavityAssembly, wavelength_nm) -> SplitResponse:
    """r and t of the fiber coating and of the rest of the stack, seen from the gap."""
    wl = np.asarray(wavelength_nm, dtype=float)
    fiber, rest, _, _ = split_at_gap(assembly)
    r_fiber, t_gap_side = amplitude_coefficients(fiber, wl)
    # reciprocity: from its substrate the coating transmits n_sub / n_gap
    # times the amplitude it transmits from the gap
    t_fiber = t_gap_side * (fiber.exit.nc / fiber.entry.nc)
    r_rest, t_rest = amplitude_coefficients(rest, wl)
    return SplitResponse(wl, r_fiber, t_fiber, r_rest, t_rest, rest.exit.nc.real / fiber.exit.nc.real)


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


class PhaseModel:
    """Cached mirror reflections and unwrapped phases for one geometry over one window.

    All resonance solving reduces to interpolation on two dense phase
    grids, so repeated solves (dispersion fits, lifetime curves) stay
    cheap.  The gap itself enters analytically and is not part of the
    cache, so one model serves every gap value.  ``fiber_from``, a model on
    the same grid of an assembly with the same fiber mirror, lends its
    fiber-coating reflection ``r_fiber`` (a dispersion fit builds many models
    that differ only beyond the gap).
    """

    def __init__(self, assembly: CavityAssembly, wl_min_nm: float, wl_max_nm: float, step_nm: float = 0.02,
                 fiber_from: PhaseModel | None = None):
        lo = min(wl_min_nm, _ANCHOR_NM - 2.0)
        hi = max(wl_max_nm, _ANCHOR_NM + 2.0)
        n = int(np.ceil((hi - lo) / step_nm)) + 1
        self.wl = np.linspace(lo, hi, n)
        self.assembly = assembly

        fiber, rest, _, _ = split_at_gap(assembly)
        if fiber_from is None:
            self.r_fiber, _ = amplitude_coefficients(fiber, self.wl)
        else:
            if fiber_from.assembly.fiber_mirror != assembly.fiber_mirror or not np.array_equal(fiber_from.wl, self.wl):
                raise ValueError("fiber_from must share the fiber mirror and the wavelength grid")
            self.r_fiber = fiber_from.r_fiber
        r_rest, _ = amplitude_coefficients(rest, self.wl)
        self.mag = np.abs(self.r_fiber) * np.abs(r_rest)
        self.phi_mirrors = self._anchored_unwrap(self.r_fiber) + self._anchored_unwrap(r_rest)

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

    def mode_order(self, wl_nm: float, gap_nm: float) -> int:
        return int(np.round(self.round_trip_phase(wl_nm, gap_nm) / (2.0 * np.pi) - 1.0))

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

    def solve_wavelength(self, q: int, gap_nm: float, window: tuple[float, float] | None = None) -> float:
        """Resonance wavelength of mode order q at a given gap.

        The root lies in the first grid cell where the phase miss changes
        sign (see ``_cell_roots``).  Raises NoResonanceError if the mode
        misses the window.
        """
        lo = self.wl[0] if window is None else max(window[0], self.wl[0])
        hi = self.wl[-1] if window is None else min(window[1], self.wl[-1])
        sel = (self.wl >= lo) & (self.wl <= hi)
        wl, phi = self.wl[sel], self.phi_mirrors[sel]
        if wl.size < 2:
            raise NoResonanceError("window outside the cached phase grid")
        target = 2.0 * np.pi * (q + 1.0)
        miss = 4.0 * np.pi * gap_nm / wl + phi - target
        sign_change = np.nonzero(np.diff(np.signbit(miss)))[0]
        if sign_change.size == 0:
            raise NoResonanceError(f"mode q={q} has no resonance in [{lo:.2f}, {hi:.2f}] nm at gap {gap_nm:.1f} nm")
        i = int(sign_change[0])
        return float(_cell_roots(wl[i], wl[i + 1], phi[i], phi[i + 1], target, gap_nm))

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
    # reference: slope of an empty cavity whose whole length is the gap
    slope_ref = wl / gap_nm
    return np.where(slope >= 0.60 * slope_ref, "air-like", np.where(slope <= 0.25 * slope_ref, "diamond-like", "mixed"))


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
# field-energy integrals and the effective length
# ---------------------------------------------------------------------------


def _expm1_over(c: float, d: float) -> float:
    """(exp(c d) - 1)/c with the c -> 0 limit."""
    x = c * d
    if abs(x) < 1e-12:
        return d * (1.0 + 0.5 * x)
    return float(np.expm1(x) / c)


def _layer_energy(a: complex, b: complex, k: complex, d: float) -> float:
    """Integral of |a e^{ikz} + b e^{-ikz}|^2 over a layer of thickness d."""
    tiny = 1e-140
    kp, kpp = k.real, k.imag
    total = 0.0
    if abs(a) > tiny:
        total += abs(a) ** 2 * _expm1_over(-2.0 * kpp, d)
    if abs(b) > tiny:
        total += abs(b) ** 2 * _expm1_over(2.0 * kpp, d)
    if abs(a) > tiny and abs(b) > tiny:
        if abs(kp) < 1e-12:
            cross = a * np.conj(b) * d
        else:
            cross = a * np.conj(b) * (np.exp(2j * kp * d) - 1.0) / (2j * kp)
        total += 2.0 * cross.real
    return total


def _layer_peak_intensity(a: complex, b: complex, k: complex, d: float) -> float:
    """Max of |a e^{ikz} + b e^{-ikz}|^2 over z in [0, d] (lossless k)."""
    if abs(k.imag) > 1e-12:
        z = np.linspace(0.0, d, 2001)
        e = a * np.exp(1j * k * z) + b * np.exp(-1j * k * z)
        return float(np.max(np.abs(e) ** 2))
    base = abs(a) ** 2 + abs(b) ** 2
    if abs(a) < 1e-140 or abs(b) < 1e-140:
        return base
    phi = np.angle(a * np.conj(b))
    kp = k.real
    # antinode where cos(2 k z + phi) = 1
    z_star = (-phi) / (2.0 * kp)
    period = np.pi / kp
    z_star -= np.floor(z_star / period) * period
    if 0.0 <= z_star <= d:
        return (abs(a) + abs(b)) ** 2
    ends = [abs(a * np.exp(1j * kp * z) + b * np.exp(-1j * kp * z)) ** 2 for z in (0.0, d)]
    return float(max(ends))


def _energy_ratio(assembly: CavityAssembly, wavelength_nm: float, normalize: str) -> float:
    """Integral of n^2 |E|^2 over the stack / its peak in the host layer.

    Per-layer log scales are referenced to the host layer, so extreme
    scale separation (opaque mirrors) degrades gracefully instead of
    over/underflowing.
    """
    stack = flatten_assembly(assembly)
    amps, log_scales, _, _ = _wave_amplitudes(stack, wavelength_nm)

    if normalize == "auto":
        normalize = "membrane" if assembly.membrane is not None else "gap"
    _, _, i_gap, i_membrane = split_at_gap(assembly)
    if normalize == "membrane":
        if i_membrane is None:
            raise ValueError("normalize='membrane' requires a membrane")
        j_norm = i_membrane
    elif normalize == "gap":
        if assembly.gap_nm <= 0:
            raise ValueError("normalize='gap' requires a nonzero gap")
        j_norm = i_gap
    else:
        raise ValueError(f"unknown normalize mode {normalize!r}")

    layer = stack.layers[j_norm]
    a, b = amps[j_norm]
    k = 2.0 * np.pi * layer.material.nc / wavelength_nm
    peak = layer.material.n**2 * _layer_peak_intensity(a, b, k, layer.thickness_nm)
    ls_norm = log_scales[j_norm]

    total = 0.0
    for layer, (a, b), ls in zip(stack.layers, amps, log_scales):
        k = 2.0 * np.pi * layer.material.nc / wavelength_nm
        energy = layer.material.n**2 * _layer_energy(a, b, k, layer.thickness_nm)
        if energy <= 0.0:
            continue
        log_term = 2.0 * (ls - ls_norm) + np.log(energy) - np.log(peak)
        if log_term < -745.0:
            continue
        total += np.inf if log_term > 700.0 else np.exp(log_term)
    return total


def effective_length(
    assembly: CavityAssembly,
    wavelength_nm: float,
    normalize: str = "auto",
    tolerance_linewidths: float = 0.5,
    pm: PhaseModel | None = None,
) -> float:
    """Energy-weighted effective cavity length in um.

    L_eff = 2 * integral of n^2 |E|^2 over the stack (mirror penetration
    included) divided by the peak n^2 |E|^2 in the emitter's host layer
    (the membrane when present, else the gap).  The factor 2 makes an
    ideal hard-mirror empty cavity come out at its geometric length.

    Requires the assembly to sit within ``tolerance_linewidths`` cavity
    linewidths of a resonance, else the standing-wave normalization is
    ill-defined and OffResonanceError is raised.  ``pm``, a PhaseModel of the
    same assembly at any gap, saves building one; the result does not change.
    """
    pm = pm if pm is not None else PhaseModel(assembly, wavelength_nm - 5.0, wavelength_nm + 5.0)
    try:
        wl_res, _ = pm.nearest_resonance(wavelength_nm, assembly.gap_nm)
    except NoResonanceError as exc:
        raise OffResonanceError(str(exc)) from exc
    width = pm.linewidth_nm(wl_res, assembly.gap_nm)
    if abs(wavelength_nm - wl_res) > tolerance_linewidths * width:
        raise OffResonanceError(
            f"{wavelength_nm} nm is {abs(wavelength_nm - wl_res):.4g} nm from the nearest "
            f"resonance at {wl_res:.4f} nm (linewidth {width:.4g} nm)"
        )
    return float(2.0 * _energy_ratio(assembly, wavelength_nm, normalize)) * 1e-3


def membrane_interface_intensity(assembly: CavityAssembly, wavelength_nm: float) -> float:
    """Standing-wave weight of the membrane's fiber-facing surface.

    Returns n^2 |E|^2 at that interface over the peak intracavity
    n^2 |E|^2, using the larger (membrane-side) index at the boundary;
    this is the ``relative_intensity`` input of
    :func:`microcav.metrics.roughness_loss`.
    """
    from .tmm import _scale_factors

    if assembly.membrane is None:
        raise ValueError("assembly has no membrane")
    stack = flatten_assembly(assembly)
    amps, log_scales, _, _ = _wave_amplitudes(stack, wavelength_nm)
    factors = _scale_factors(log_scales)
    _, _, i_gap, j_mem = split_at_gap(assembly)
    a, b = amps[j_mem]
    e2_if = abs((a + b) * factors[j_mem]) ** 2
    n_d = assembly.membrane.material.n

    peak = 0.0
    # the gap, the membrane and the second gap: all but the plane coating
    for j in range(i_gap, len(stack.layers) - len(assembly.plane_mirror.layers)):
        layer = stack.layers[j]
        k = 2.0 * np.pi * layer.material.nc / wavelength_nm
        aj, bj = amps[j]
        peak = max(peak, layer.material.n**2 * factors[j] ** 2 * _layer_peak_intensity(aj, bj, k, layer.thickness_nm))
    return float(np.clip(n_d**2 * e2_if / peak, 0.0, 1.0))
