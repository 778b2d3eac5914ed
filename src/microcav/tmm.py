"""1D multilayer solver by Airy steps: complex r/t, power coefficients, per-layer fields.

Normal incidence with the exp(+ikz - iwt) convention.  A stack is folded
from its exit medium to its entry medium one layer at a time (Rouard's
method: P. Rouard, Ann. Phys. (Paris) 7, 291 (1937)).  A layer of complex
index n and thickness d, entered from a medium n_out, in front of a
reflector (r, t) seen from inside the layer, is itself a reflector::

    R = r e^{2ikd}            g = tau / (1 + rho R)
    r' = (rho + R) / (1 + rho R)        t' = g e^{ikd} t

with k = 2 pi n / lambda and rho = (n_out - n) / (n_out + n),
tau = 2 n_out / (n_out + n) the Fresnel coefficients of the layer's entry
face.  R is the reflection seen from inside the layer at that face and g
the forward amplitude that enters the layer per unit forward amplitude
arriving there.  The exit medium is the first step, a layer of zero
thickness in front of nothing (r = 0, t = 1).  In a passive stack
|e^{ikd}| <= 1 and the reflections stay bounded, so no factor grows with
depth and nothing is rescaled; an opaque layer makes t underflow to 0.

The per-layer field comes from the same fold: forward amplitudes are the
products a_0 = g_0, a_{j+1} = g_{j+1} a_j e^{ik_j d_j}, backward ones
b_j = R_j a_j; ``field_profile`` samples it.  All wavelength arguments
accept scalars or arrays (vectorized over wavelength).  The package runs
the TMM in one place, ``phase.PhaseModel``'s sweep of the two coatings;
``resonance.StandingWave`` reads L_eff and the overlaps off that model in
closed form (Winful, PRL 91, 260401 (2003)), with no per-layer solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stack import LayerStack

__all__ = ["FieldProfile", "amplitude_coefficients", "field_profile"]


@dataclass(frozen=True, eq=False)
class FieldProfile:
    """Sampled standing-wave amplitude through a stack at one wavelength.

    ``z_nm`` runs from the entry surface (0) to the exit surface; ``E`` is
    the complex field normalized so that max |E| over the samples is 1;
    ``n_of_z`` is the local refractive index (real part).  ``segments``
    lists (z_start, z_end, material_name) per layer for locating e.g. the
    membrane.
    """

    z_nm: np.ndarray
    E: np.ndarray
    n_of_z: np.ndarray
    segments: tuple[tuple[float, float, str], ...]
    wavelength_nm: float

    def segment(self, name: str) -> tuple[float, float]:
        """(z_start, z_end) of the first layer made of material ``name``."""
        for z0, z1, label in self.segments:
            if label == name:
                return z0, z1
        raise KeyError(f"no segment of material {name!r} in profile")


def _phase(n: complex, d_nm: float, wl):
    """e^{ikd} = e^{2 pi i n d / lambda} of a layer; |e^{ikd}| <= 1 when Im n >= 0."""
    return np.exp(2j * np.pi * n * d_nm / wl)


def _phases(stack: LayerStack, wl):
    """e^{ikd} of every layer; layers of equal index and thickness share one array."""
    distinct = {}
    for layer in stack.layers:
        key = (layer.material.nc, layer.thickness_nm)
        if key not in distinct:
            distinct[key] = _phase(*key, wl)
    return [distinct[layer.material.nc, layer.thickness_nm] for layer in stack.layers]


def _airy_step(n_out: complex, n: complex, phase, r, t):
    """A layer (index n, e^{ikd} = ``phase``) entered from medium ``n_out``, in front of a reflector (r, t) seen from n.

    Returns (r, t) of the layer with the reflector behind it, and the
    layer's R and g (module docstring).
    """
    rho = (n_out - n) / (n_out + n)
    R = r * phase**2
    denom = 1.0 + rho * R
    g = 2.0 * n_out / (n_out + n) / denom
    return (rho + R) / denom, g * phase * t, R, g


def _fold(stack: LayerStack, wl):
    """Airy steps from the exit face to the entry face; yields (e^{ikd}, R, g, r, t) per step.

    The exit face comes first, then one step per layer, last layer first;
    (r, t) after a step are those of everything from the step's layer on,
    so the last yield carries the stack's.
    """
    if np.any(np.asarray(wl) <= 0):
        raise ValueError("wavelength must be > 0")
    media = [stack.entry.nc, *(layer.material.nc for layer in stack.layers), stack.exit.nc]
    phases = [*_phases(stack, wl), 1.0]
    r, t = 0.0, 1.0
    for j in range(len(stack.layers), -1, -1):
        r, t, R, g = _airy_step(media[j], media[j + 1], phases[j], r, t)
        yield phases[j], R, g, r, t


def amplitude_coefficients(stack: LayerStack, wavelength_nm):
    """Complex (r, t) for incidence from the entry medium."""
    for _, _, _, r, t in _fold(stack, np.asarray(wavelength_nm, dtype=float)):
        pass
    return r, t


def _wave_amplitudes(stack: LayerStack, wavelength_nm: float):
    """Forward and backward amplitudes per layer, and the stack's t, at one wavelength: ``(a, b, t)``.

    In layer j the field is ``a[j] exp(ik(z - z_j)) + b[j] exp(-ik(z - z_j))``
    in units of the incident wave (amplitude 1 in the entry medium), read
    off the fold as a_0 = g_0, a_{j+1} = g_{j+1} a_j e^{ik_j d_j} and
    b_j = R_j a_j.  In an opaque stack the layers past the opaque one hold 0.
    """
    steps = list(_fold(stack, float(wavelength_nm)))[::-1]  # layer 0 first, the exit face last
    phase, R, g, _, t = np.array(steps).T
    a = np.cumprod(g * np.concatenate(([1.0], phase[:-1])))[:-1]
    return a, R[:-1] * a, complex(t[0])


def field_profile(stack: LayerStack, wavelength_nm: float, samples_per_layer: int = 50) -> FieldProfile:
    """Standing-wave profile sampled through every layer.

    Each layer contributes ``samples_per_layer`` points (its entry boundary
    included, exit boundary excluded to keep the grid strictly increasing);
    the stack's exit surface is appended.  |E| is normalized to 1 at its
    maximum over the samples.
    """
    if samples_per_layer < 2:
        raise ValueError("samples_per_layer must be >= 2")
    a, b, t = _wave_amplitudes(stack, wavelength_nm)
    edges = stack.boundaries_nm()
    zs, Es, ns, segs = [], [], [], []
    for j, layer in enumerate(stack.layers):
        k = 2.0 * np.pi * layer.material.nc / wavelength_nm
        dz = np.linspace(0.0, layer.thickness_nm, samples_per_layer, endpoint=False)
        zs.append(edges[j] + dz)
        Es.append(a[j] * np.exp(1j * k * dz) + b[j] * np.exp(-1j * k * dz))
        ns.append(np.full(dz.shape, layer.material.n))
        segs.append((edges[j], edges[j + 1], layer.material.name))
    # exit surface: by continuity the field there is the transmitted wave
    zs.append(np.array([edges[-1]]))
    Es.append(np.array([t]))
    ns.append(np.array([stack.layers[-1].material.n]))

    z = np.concatenate(zs)
    E = np.concatenate(Es)
    n_of_z = np.concatenate(ns)
    E = E / np.max(np.abs(E))
    return FieldProfile(z, E, n_of_z, tuple(segs), float(wavelength_nm))
