"""Resonance structure of the assembled cavity, from one cut at the fiber-side gap.

Cut open at the fiber-coating surface, the cavity is two reflectors facing
the air gap t_g: the fiber mirror, and everything beyond the gap (membrane,
second gap, plane mirror).  Neither depends on t_g.  ``PhaseModel``
(``microcav.phase``) sweeps the two coatings' r and t with the TMM once, and
composes the second gap and the membrane in front of the plane coating by
two more Airy steps (van Dam et al., NJP 20, 115004 (2018); Janitz et al.,
PRA 92, 043844 (2015)).  It is the one model of the cavity's response:

* the full-stack transmission, which is what a spectrometer sees, is the
  Airy composition ``t = t1 t2 e^{ik t_g} / (1 - r1 r2 e^{2ik t_g})``;
  ``dispersion_map`` broadcasts it over a gap x wavelength grid;
* the round-trip phase is ``Phi = 4 pi t_g / lambda + arg r1(lambda) +
  arg r2(lambda)``; a mode of order q resonates where ``Phi = 2 pi (q + 1)``;
* ``find_resonances`` solves that condition for every order in the window
  and every gap at once, by a sign scan over the nodes and Newton steps,
  then moves each root to the transmission maximum next to it (a
  three-point parabola on log T), so a resonance is a transmission maximum
  labelled by its root's order;
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
implicit slope -(dPhi/dt_g) / (dPhi/dlambda), with the slope lambda/t_g of
an empty cavity whose whole length is the gap: above 60% of it ->
air-like, below 25% -> diamond-like, else mixed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .phase import NoResonanceError, PhaseModel
from .stack import AIR, CavityAssembly, GeometryError, Layer, split_at_gap
# amplitude_coefficients stays bound here, where the benchmark's tracer and its self-test wrap it
from .tmm import _wave_amplitudes, amplitude_coefficients  # noqa: F401


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
        return asdict(self)


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

    One PhaseModel serves every gap.  Every integer q between the two values
    of Phi/2pi - 1 at the ends of a node cell (cut in two where Phi turns) has
    a root there, which Newton solves from the cell's secant and
    ``_transmission_maxima`` moves to the transmission maximum.
    """
    lo, hi = wavelength_window
    if not hi > lo:
        raise ValueError("empty wavelength window")
    gaps = np.atleast_1d(np.asarray(gap_nm, dtype=float))
    if not np.all(gaps >= 0.0):
        raise GeometryError("gaps must be >= 0")
    pm = PhaseModel(assembly, lo - 5.0, hi + 5.0)

    # the node cells that overlap the window, as (gap, ends, Phi/2pi - 1 at the ends)
    i0 = max(int(np.searchsorted(pm.wl, lo, side="right")) - 1, 0)
    i1 = min(int(np.searchsorted(pm.wl, hi, side="left")), pm.wl.size - 1)
    x = pm.wl[i0:i1 + 1]
    phi, dphi = pm.phase(x)[:2]
    order = (4.0 * np.pi * gaps[:, None] / x + phi + 2.0 * np.pi * pm.turns) / (2.0 * np.pi) - 1.0
    rate = dphi - 4.0 * np.pi * gaps[:, None] / x**2
    g_idx, cell = np.divmod(np.arange(order.size - gaps.size), x.size - 1)
    a, b, oa, ob = x[cell], x[cell + 1], order[:, :-1].ravel(), order[:, 1:].ravel()
    # where Phi turns inside a cell, one order may cross it twice: the cell is cut
    # in two at the turn, found by a secant on dPhi/dlambda
    t = np.flatnonzero(np.signbit(rate[:, :-1]) != np.signbit(rate[:, 1:]))
    r0, r1 = rate[:, :-1].ravel()[t], rate[:, 1:].ravel()[t]
    cut = a[t] + (b[t] - a[t]) * r0 / (r0 - r1)
    o_cut = pm.round_trip_phase(cut, gaps[g_idx[t]]) / (2.0 * np.pi) - 1.0
    g_idx, a, oa, b, ob = (np.append(v, extra) for v, extra in
                           ((g_idx, g_idx[t]), (a, cut), (oa, o_cut), (b, b[t]), (ob, ob[t])))
    b[t], ob[t] = cut, o_cut

    q_first = np.ceil(np.minimum(oa, ob))
    count = (np.ceil(np.maximum(oa, ob)) - q_first).astype(int)
    seg = np.flatnonzero(count > 0)
    n = count[seg]
    # a cell holds more than one order only on a grid coarser than the FSR
    q = np.repeat(q_first[seg], n) + np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    seg = np.repeat(seg, n)
    g_idx, a, b, oa, ob = g_idx[seg], a[seg], b[seg], oa[seg], ob[seg]
    root = pm.newton(q - pm.turns, gaps[g_idx], a + (b - a) * (oa - q) / (oa - ob), a, b)
    return _transmission_maxima(pm, gaps, g_idx, q, root, wavelength_window, rel_prominence)


def _transmission_maxima(pm, gaps, g_idx, q, root, wavelength_window, rel_prominence: float) -> list[ResonancePoint]:
    """Roots of orders q at ``gaps[g_idx]``, moved to the transmission maxima and labelled with q and their character.

    Each root moves by a parabola on log T at +-linewidth/60 (T, the linewidth
    and the tuning slope from ``pm``).  A resonance outside the window, or whose T
    at the root is below ``rel_prominence`` times the largest T at its gap,
    is dropped.  The list runs in order of gap, then wavelength.
    """
    lo, hi = wavelength_window
    gap = gaps[g_idx]
    # three-point parabola on log T around each root.  Its bias from the
    # peak's asymmetry grows as h^2: on a broad mode 50 nm from the coating's
    # design wavelength it is 6e-6 nm at +-linewidth/6, 6e-8 nm at /60
    h = pm.linewidth_nm(root, gap) / 60.0
    logt = np.log(np.maximum(pm.transmission(root[:, None] + h[:, None] * np.array([-1.0, 0.0, 1.0]), gap[:, None]),
                             1e-300))
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
    """Dense transmission map over a gap x wavelength grid, from one PhaseModel over the window.

    A window given high to low maps the same wavelengths in falling order.
    """
    if gap_steps < 2 or wavelength_steps < 2:
        raise ValueError("need at least 2 steps per axis")
    gaps = np.linspace(gap_range_nm[0], gap_range_nm[1], gap_steps)
    if not np.all(gaps >= 0.0):
        raise GeometryError("gaps must be >= 0")
    wls = np.linspace(wavelength_window[0], wavelength_window[1], wavelength_steps)
    return DispersionMap(gaps, wls, PhaseModel(assembly, wls.min(), wls.max()).transmission(wls, gaps[:, None]))


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


def effective_length(assembly: CavityAssembly, wavelength_nm: float) -> float:
    """Energy-weighted effective cavity length in um, at a resonant wavelength.

    L_eff = 2 * integral of n^2 |E|^2 over the stack (mirror penetration
    included) divided by the peak n^2 |E|^2 in the emitter's host layer
    (the membrane when present, else the gap).  The factor 2 makes an
    ideal hard-mirror empty cavity come out at its geometric length.
    Farther than half a cavity linewidth from a resonance the standing-wave
    normalization is ill-defined, and OffResonanceError is raised.
    """
    pm = PhaseModel(assembly, wavelength_nm - 5.0, wavelength_nm + 5.0)
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
