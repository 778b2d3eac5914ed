"""Physical constants and default model parameters.

Every physical constant and tunable default used across the toolkit lives
here, so that simulation, metrics and fitting all draw from one source and
CLI outputs can echo the exact values they were produced with.

Unit conventions (used consistently everywhere):
    * layer thicknesses, gaps, wavelengths ........ nm
    * cavity lengths, waists, radii of curvature .. um
    * mode volumes ................................ um^3
    * optical frequencies, linewidths ............. GHz
    * per-round-trip losses ....................... ppm (1e-6 fractions)
    * decay times ................................. ns
"""

from __future__ import annotations

TOOLKIT_VERSION = "0.1.0"

#: speed of light in vacuum, m/s (exact)
C_M_PER_S = 299_792_458.0

#: speed of light in nm/s, convenient for nm-wavelength conversions
C_NM_PER_S = C_M_PER_S * 1e9

#: refractive index of diamond at the SiV- zero-phonon line (config-overridable)
N_DIAMOND = 2.417

#: default Debye-Waller factor of the SiV- center (config-overridable)
DEBYE_WALLER_DEFAULT = 0.84

#: SiV- zero-phonon-line reference wavelengths, nm (low-temperature doublet
#: centers and the cold-limit center of the ensemble studied here)
SIV_ZPL_AB_NM = 736.57
SIV_ZPL_CD_NM = 737.25
SIV_ZPL_COLD_NM = 736.86

#: inhomogeneous ensemble linewidth at liquid-He temperature, GHz
SIV_ENSEMBLE_LINEWIDTH_GHZ = 310.0

#: default mirror-coating design: quarter-wave Ta2O5/SiO2 pairs on silica.
#: The high index is tuned (see design_mirror_index in tests/test_stack.py)
#: so that the coating transmits MIRROR_TRANSMISSION_PPM at MIRROR_CENTER_NM;
#: the pair count comes from sweeping integer pair numbers until the
#: transmission first drops below the target.
MIRROR_CENTER_NM = 736.0
MIRROR_TRANSMISSION_PPM = 1480.0
MIRROR_N_LOW = 1.46
MIRROR_PAIRS = 11
#: tuned value, frozen from design_mirror_index(736, 11, 1.46, 1480)
MIRROR_N_HIGH = 2.055221
#: absorption + scatter per mirror beyond the design transmission
MIRROR_EXCESS_LOSS_PPM = 20.0

#: membrane excess round-trip loss attributed to the diamond in the
#: best-case cavity position, ppm
MEMBRANE_EXCESS_LOSS_PPM = 2100.0


def wavelength_nm_to_ghz(wavelength_nm: float) -> float:
    """Optical frequency in GHz for a vacuum wavelength in nm."""
    return C_NM_PER_S / wavelength_nm / 1e9


def splitting_ghz(wl1_nm: float, wl2_nm: float) -> float:
    """Frequency splitting in GHz between two vacuum wavelengths (exact c/lambda)."""
    return abs(wavelength_nm_to_ghz(wl1_nm) - wavelength_nm_to_ghz(wl2_nm))
