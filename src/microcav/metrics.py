"""Gaussian-mode geometry, loss budgets, finesse and quality factor.

Conventions
-----------
* Finesse: F = 2 pi / (total fractional round-trip loss).
* Quality factor: Q = 2 L_eff F / lambda, with the energy-weighted
  effective length (not the geometric gap).
* Mode volume: V_m = (pi/4) w0^2 L_eff for the fundamental Gaussian mode.
* Roughness scattering: scalar Davies-type small-exponent expansion for one
  rough interface crossed twice per round trip.  Each crossing loses
  ``(1-R_if) ((k1-k2) sigma)^2`` from the transmitted wave and
  ``R_if (2 k sigma)^2`` from the reflected one (k on the incidence side,
  R_if the Fresnel intensity reflectance of the interface), and the sum is
  weighted by the interface's position in the standing wave via
  ``relative_intensity`` (1 at an intracavity antinode, ~0 at a node).
  This is an order-of-magnitude estimate by construction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np


class UnstableResonatorError(ValueError):
    """Cavity length at or beyond the stability limit (L >= r_c)."""


@dataclass(frozen=True)
class LossBudget:
    """Per-round-trip optical losses, all in ppm.

    ``transmission1/2`` are the two mirror transmissions, ``excess1/2``
    their absorption + scatter, ``membrane`` the membrane's excess
    round-trip loss and ``other`` anything else.
    """

    transmission1_ppm: float
    transmission2_ppm: float
    excess1_ppm: float = 0.0
    excess2_ppm: float = 0.0
    membrane_ppm: float = 0.0
    other_ppm: float = 0.0

    def __post_init__(self):
        for name, v in self.__dict__.items():
            if v < 0:
                raise ValueError(f"loss budget entry {name} < 0")

    @property
    def total_ppm(self) -> float:
        return (
            self.transmission1_ppm
            + self.transmission2_ppm
            + self.excess1_ppm
            + self.excess2_ppm
            + self.membrane_ppm
            + self.other_ppm
        )

    def to_dict(self) -> dict:
        return {**asdict(self), "total_ppm": self.total_ppm}


@dataclass(frozen=True)
class ModeGeometry:
    """Transverse/longitudinal mode geometry of one operating point."""

    waist_um: float
    mode_volume_um3: float
    mode_volume_lambda3: float
    effective_length_um: float
    mode_order: int


def mode_waist(length_um: float, r_c_um: float, wavelength_nm: float) -> float:
    """Fundamental-mode waist of a plano-concave resonator, in um.

    w0^2 = (lambda/pi) sqrt(L (r_c - L)); the waist sits on the plane
    mirror.  Raises UnstableResonatorError when L >= r_c.
    """
    if length_um <= 0:
        raise UnstableResonatorError(f"length must be > 0, got {length_um}")
    if length_um >= r_c_um:
        raise UnstableResonatorError(
            f"unstable resonator: length {length_um} um >= r_c {r_c_um} um"
        )
    wl_um = wavelength_nm * 1e-3
    w0_sq = (wl_um / np.pi) * np.sqrt(length_um * (r_c_um - length_um))
    return float(np.sqrt(w0_sq))


def mode_volume(waist_um: float, effective_length_um: float) -> float:
    """Gaussian-mode volume V_m = (pi/4) w0^2 L_eff, in um^3."""
    if waist_um <= 0 or effective_length_um <= 0:
        raise ValueError("waist and effective length must be > 0")
    return float(np.pi / 4.0 * waist_um**2 * effective_length_um)


def mode_volume_lambda3(v_m_um3: float, wavelength_nm: float) -> float:
    """Mode volume in units of lambda^3."""
    return v_m_um3 / (wavelength_nm * 1e-3) ** 3


def roughness_loss(
    sigma_rms_nm: float,
    n_left: float,
    n_right: float,
    wavelength_nm: float,
    relative_intensity: float = 1.0,
) -> float:
    """Round-trip scattering loss of one rough interface, in ppm.

    See the module docstring for the convention.  ``relative_intensity``
    is n^2 |E|^2 at the interface normalized to the intracavity antinode
    value; 1.0 gives the worst-case placement.
    """
    if sigma_rms_nm < 0:
        raise ValueError("sigma_rms must be >= 0")
    if not 0.0 <= relative_intensity <= 1.0:
        raise ValueError("relative_intensity must lie in [0, 1]")
    k_l = 2.0 * np.pi * n_left / wavelength_nm
    k_r = 2.0 * np.pi * n_right / wavelength_nm
    r_if = ((n_left - n_right) / (n_left + n_right)) ** 2
    transmitted = 2.0 * (1.0 - r_if) * ((k_l - k_r) * sigma_rms_nm) ** 2
    reflected = r_if * ((2.0 * k_l * sigma_rms_nm) ** 2 + (2.0 * k_r * sigma_rms_nm) ** 2)
    return float((transmitted + reflected) * relative_intensity * 1e6)


def finesse_from_losses(budget: LossBudget) -> float:
    """F = 2 pi / total fractional round-trip loss."""
    total = budget.total_ppm * 1e-6
    if total <= 0:
        raise ValueError("total round-trip loss must be > 0")
    return float(2.0 * np.pi / total)


def quality_factor(effective_length_um: float, wavelength_nm: float, finesse: float) -> float:
    """Q = nu/delta-nu = 2 L_eff F / lambda."""
    if effective_length_um <= 0 or wavelength_nm <= 0 or finesse <= 0:
        raise ValueError("inputs must be > 0")
    return float(2.0 * effective_length_um * 1e3 * finesse / wavelength_nm)


def loss_budget(pm, wavelength_nm: float, membrane_loss_ppm: float) -> LossBudget:
    """Round-trip loss budget of the cavity of the PhaseModel ``pm`` at one wavelength.

    T1 and T2 are the coatings' Re(n_sub) |t|^2 from the gap, from ``pm``'s coating
    sweep (exact at its nodes); the excess losses are the mirrors' ``excess_loss_ppm``, and
    ``membrane_loss_ppm`` counts only when the cavity holds a membrane.
    """
    a = pm.assembly
    t1, t2 = (float(t) * 1e6 for t in pm.coating_transmittance(wavelength_nm))
    return LossBudget(t1, t2, a.fiber_mirror.excess_loss_ppm, a.plane_mirror.excess_loss_ppm,
                      membrane_loss_ppm if a.membrane is not None else 0.0)
