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
  arg r2(lambda)``; a mode of order q resonates where ``Phi = 2 pi (q + 1)``,
  which the dispersion fit and the operating point solve;
* ``find_resonances`` returns the transmission maxima themselves, for every
  gap at once: a sign scan of the analytic slope |D|^2 d ln T / d lambda
  over the nodes brackets each maximum, false position solves it, and it
  is labelled by the order round(Phi / 2 pi) - 1 there;
* ``StandingWave`` reads the field at every gap of a sweep off the same
  halves in closed form: the stored energy from the whole cavity's r, t
  and their frequency derivatives (Winful, PRL 91, 260401 (2003)), the
  amplitudes from the Airy steps; L_eff, the emitter overlap and the
  membrane-interface weight follow, with no per-layer solve.

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

from .phase import NoResonanceError, PhaseModel, _rest_slopes, _rest_steps
from .stack import CavityAssembly, GeometryError
# amplitude_coefficients stays bound here, where the benchmark's tracer and its self-test wrap it
from .tmm import amplitude_coefficients  # noqa: F401


# Illinois false position on the transmission slope stops once a bracket's step is below the tolerance
_SECANT_STEPS = 60
_SECANT_TOL_NM = 1e-9


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
    """Air-like / diamond-like / mixed from the dispersion slope |d lambda / d t_g| = |dPhi/dt_g / dPhi/dlambda|."""
    wl, four_pi_gap = np.asarray(wl_nm, dtype=float), 4.0 * np.pi * np.asarray(gap_nm, dtype=float)
    # reference: slope wl / gap of an empty cavity of length gap, multiplied out so gap 0 is valid
    length = four_pi_gap / wl / np.abs(pm.phase(wl)[1] - four_pi_gap / wl**2)
    return np.where(length >= 0.60 * wl, "air-like", np.where(length <= 0.25 * wl, "diamond-like", "mixed"))


def find_resonances(
    assembly: CavityAssembly,
    gap_nm,
    wavelength_window: tuple[float, float],
    rel_prominence: float = 1e-3,
) -> list[ResonancePoint]:
    """All transmission maxima in the window, for one gap or an array of gaps, in order of gap, then wavelength.

    One PhaseModel serves every gap.  ``PhaseModel.transmission_slope`` h has
    the sign of dT/dlambda; each node cell where it goes from > 0 to <= 0
    brackets one maximum of T, while the FSR spans more than two cells, and
    Illinois false position on h solves every bracket at once.  A maximum
    is labelled with its mode order q = round(Phi/2pi) - 1, so where Phi
    turns two maxima may share a label.  A maximum whose T is below
    ``rel_prominence`` times the largest T in the window at its gap is dropped.
    """
    lo, hi = wavelength_window
    if not hi > lo:
        raise ValueError("empty wavelength window")
    gaps = np.atleast_1d(np.asarray(gap_nm, dtype=float))
    if not np.all(gaps >= 0.0):
        raise GeometryError("gaps must be >= 0")
    pm = PhaseModel(assembly, lo - 5.0, hi + 5.0)

    # the node cells that overlap the window, at every gap
    i0, i1 = np.searchsorted(pm.wl, [lo, hi])
    x = pm.wl[i0 - 1:i1 + 1]
    slope = pm.transmission_slope(x, gaps[:, None])
    g_idx, cell = np.nonzero((slope[:, :-1] > 0.0) & (slope[:, 1:] <= 0.0))
    gap = gaps[g_idx]
    # (b, fb) is the newest point, (a, fa) its bracket's other end, halved when kept twice in a row.  Each
    # bracket stops on its own step, so a maximum does not depend on which other gaps were asked for
    a, b, fa, fb = x[cell], x[cell + 1], slope[g_idx, cell], slope[g_idx, cell + 1]
    moving = np.ones(cell.shape, dtype=bool)
    for _ in range(_SECANT_STEPS):
        if not moving.any():
            break
        c = b - fb * (b - a) / (fb - fa)
        fc = pm.transmission_slope(c, gap)
        crossed = (fc > 0.0) != (fb > 0.0)
        a, fa = np.where(moving & crossed, b, a), np.where(moving, np.where(crossed, fb, 0.5 * fa), fa)
        b, fb, moving = np.where(moving, c, b), np.where(moving, fc, fb), moving & (np.abs(c - b) >= _SECANT_TOL_NM)

    inside = (b > lo) & (b < hi)
    t = np.where(inside, pm.transmission(b, gap), 0.0)
    tallest = np.zeros(gaps.size)
    np.maximum.at(tallest, g_idx, t)
    keep = inside & (t >= rel_prominence * tallest[g_idx])
    gap, wl = gap[keep], b[keep]
    return [ResonancePoint(float(g), float(w), int(q), str(c))
            for g, w, q, c in zip(gap, wl, pm.mode_order(wl, gap), classify_character(pm, gap, wl))]


@dataclass(frozen=True, eq=False)
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


def _absorbing(assembly: CavityAssembly) -> list[str]:
    """Each medium with kappa > 0, by where it sits; coating layers count from their substrate."""
    media = [("membrane", assembly.membrane.material)] if assembly.membrane is not None else []
    for side, mirror in (("fiber", assembly.fiber_mirror), ("plane", assembly.plane_mirror)):
        media += [(f"{side} substrate", mirror.substrate)]
        media += [(f"{side} coating layer {i}", layer.material) for i, layer in enumerate(mirror.layers)]
    return [f"{where} ({m.name!r}, kappa {m.kappa:g})" for where, m in media if m.kappa > 0.0]


class StandingWave:
    """The field at one wavelength and every gap of a sweep, in closed form on the caller's ``PhaseModel``.

    From the fiber substrate (index n_s) the cavity reflects ``r = -r_f* t_f / t_f* + n_s t_f^2 r_rest e^{2ik t_g} / D``
    and transmits ``t = n_s t_f t_rest e^{ik t_g} / D``, ``D = 1 - r_f r_rest e^{2ik t_g}``, with (r_f, t_f) the fiber
    coating's and (r_rest, t_rest) the rest's, from the gap.  In a lossless stack they fix the stored energy per
    unit incident wave (Winful, PRL 91, 260401 (2003)): ``integral n^2 |E|^2 dz = n_s Im(r* dr/dk) + n_p Im(t* dt/dk)
    + n_s Im(r) / k``, k the vacuum wavenumber, with every d/dlambda analytic from ``pm``.  An absorbing layer
    breaks the identity and raises ``ValueError``.

    Layers 0, 1 and 2 are the gap, the membrane (of zero thickness, and ``i_membrane`` None, without one) and the
    second gap.  At the g-th gap layer j holds ``a[j, g] e^{ik_j z} + b[j, g] e^{-ik_j z}``, z from its fiber-side
    face: ``a = n_s t_f / D`` and ``b = r_rest e^{2ik t_g} a`` in the gap; beyond it each forward amplitude is the
    arriving one times the layer's Airy-step g, and the backward one R times that (``tmm._airy_step``).
    """

    def __init__(self, pm: PhaseModel, wavelength_nm: float, gaps_nm):
        wl, absorbing = float(wavelength_nm), _absorbing(pm.assembly)
        if absorbing:
            raise ValueError(f"{absorbing[0]} absorbs: the standing wave in closed form needs lossless layers")
        if not pm.wl[0] <= wl <= pm.wl[-1]:
            raise ValueError(f"{wl} nm is outside the phase model's {pm.wl[0]:.2f}-{pm.wl[-1]:.2f} nm")
        self.assembly, self.gaps_nm = pm.assembly, np.atleast_1d(np.asarray(gaps_nm, dtype=float))
        self.i_membrane = None if pm.assembly.membrane is None else 1
        self.n = np.array([1.0, pm._n.real, 1.0])
        self.k = 2.0 * np.pi * self.n / wl
        self.d = np.array(np.broadcast_arrays(self.gaps_nm, pm.t_d_nm, pm.t_g2_nm))

        _, coatings, slopes = pm._coatings_at(np.asarray(wl))
        (r_f, r_plane, t_f, t_plane), (dln_r_f, dln_r_plane, dln_t_f, dln_t_plane) = coatings, slopes / coatings
        steps = _rest_steps(pm._n, pm.t_d_nm, pm.t_g2_nm, wl, r_plane, t_plane)
        dln_r_rest, dln_t_rest, _ = _rest_slopes(pm._n, pm.t_d_nm, pm.t_g2_nm, wl, steps, dln_r_plane, dln_t_plane)
        (_, _, big_r2, g2), (r_rest, t_rest, big_r_d, g_d) = steps
        e, dln_e = np.exp(1j * self.k[0] * self.gaps_nm), -1j * self.k[0] * self.gaps_nm / wl
        round_trip = r_f * r_rest * e * e
        denom = 1.0 - round_trip
        dln_denom = -round_trip * (dln_r_f + dln_r_rest + 2.0 * dln_e) / denom

        n_s, n_p = pm._n_substrate.real
        r_coating, r_cavity = -np.conj(r_f) * t_f / np.conj(t_f), n_s * t_f * t_f * r_rest * e * e / denom
        r = r_coating + r_cavity
        dr = (r_coating * (np.conj(dln_r_f) + 2j * dln_t_f.imag)
              + r_cavity * (2.0 * dln_t_f + dln_r_rest + 2.0 * dln_e - dln_denom))
        t = n_s * t_f * t_rest * e / denom
        dt = t * (dln_t_f + dln_t_rest + dln_e - dln_denom)
        # d/dk = -lambda^2 / (2 pi) d/dlambda
        self.energy = n_s * r.imag / self.k[0] - wl * wl / (2.0 * np.pi) * (n_s * (np.conj(r) * dr).imag
                                                                             + n_p * (np.conj(t) * dt).imag)
        a = n_s * t_f / denom
        a_d = g_d * a * e
        a_2 = g2 * a_d * np.exp(1j * self.k[1] * pm.t_d_nm)
        self.a, self.b = np.array([a, a_d, a_2]), np.array([r_rest * e * e * a, big_r_d * a_d, big_r2 * a_2])

    def intensity(self, j: int, z_nm):
        """|a e^{ikz} + b e^{-ikz}|^2 at depth ``z_nm`` into layer j, per gap."""
        return np.abs(self.a[j] * np.exp(1j * self.k[j] * z_nm) + self.b[j] * np.exp(-1j * self.k[j] * z_nm)) ** 2

    def peak_intensity(self, j: int):
        """Max of ``intensity(j, z)`` over the layer, per gap: (|a| + |b|)^2 at an antinode inside it, else at a face."""
        a, b, k, d = self.a[j], self.b[j], self.k[j], self.d[j]
        # the first antinode, where cos(2 k z + arg(a b*)) = 1
        z_star = -np.angle(a * np.conj(b)) / (2.0 * k) % (np.pi / k)
        return np.where(z_star <= d, (np.abs(a) + np.abs(b)) ** 2, np.maximum(self.intensity(j, 0.0), self.intensity(j, d)))

    def effective_length_um(self) -> np.ndarray:
        """2 * integral of n^2 |E|^2 over the stack / its peak in the host layer, in um, per gap.

        The host is the membrane when there is one, else the gap.
        """
        if self.i_membrane is None and not np.all(self.gaps_nm > 0):
            raise ValueError("an empty cavity needs a nonzero gap to host the mode")
        j = 0 if self.i_membrane is None else self.i_membrane
        return 2e-3 * self.energy / (self.n[j] ** 2 * self.peak_intensity(j))

    def membrane_interface_weight(self) -> np.ndarray:
        """n^2 |E|^2 at the membrane's fiber-facing surface over the peak intracavity n^2 |E|^2, per gap.

        The membrane-side index is used at the boundary; the peak runs over
        the gap, the membrane and the second gap, everything but the coatings.
        """
        if self.i_membrane is None:
            raise ValueError("assembly has no membrane")
        n2, j = self.n**2, self.i_membrane
        peak = np.max([n2[i] * self.peak_intensity(i) for i in range(3)], axis=0)
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
    return float(StandingWave(pm, wavelength_nm, assembly.gap_nm).effective_length_um()[0])
