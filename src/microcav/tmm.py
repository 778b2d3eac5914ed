"""1D transfer-matrix solver: complex r/t, power coefficients, field profiles.

Characteristic-matrix formalism at normal incidence with the
exp(+ikz - iwt) convention.  For a layer of complex index n and thickness
d the field-transfer matrix (fields at the entry face in terms of fields
at the exit face) is::

    [ cos(delta)          -i sin(delta)/n ]       delta = 2 pi n d / lambda
    [ -i n sin(delta)      cos(delta)     ]

and the stack matrix is the ordered product over layers, entry side first.
All wavelength arguments accept scalars or arrays (vectorized over
wavelength).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stack import LayerStack

__all__ = ["StackResponse", "FieldProfile", "stack_response", "field_profile", "interface_mismatch"]


@dataclass(frozen=True)
class StackResponse:
    """Complex amplitude and power coefficients of one stack at one wavelength.

    ``r``/``t`` are field coefficients for incidence from the entry medium;
    ``R``/``T`` the reflected/transmitted power fractions and ``A`` whatever
    the stack absorbed or lost (zero for lossless stacks within 1e-9).
    """

    r: complex
    t: complex
    R: float
    T: float
    A: float


@dataclass(frozen=True)
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


# max|m| above which a wavelength point is rescaled; the check is skipped
# while an a-priori bound on max|m| stays below half of it (rounding headroom)
_RESCALE_AT = 1e120
_LOG_SKIP_BELOW = np.log(0.5 * _RESCALE_AT)


def _layer_factors(stack: LayerStack, wl: np.ndarray):
    """Per layer: (cos delta, -i sin delta / n, -i n sin delta, log row-sum bound).

    Layers of equal complex index and thickness share one entry.  The bound
    holds over all of ``wl``: |cos delta|, |sin delta| <= cosh(Im delta),
    largest at the shortest wavelength.
    """
    lam_min = float(np.min(wl)) if wl.size else 1.0
    distinct = {}
    for layer in stack.layers:
        n, d = layer.material.nc, layer.thickness_nm
        if (n, d) not in distinct:
            delta = 2.0 * np.pi * n * d / wl
            c, s = np.cos(delta), np.sin(delta)
            x = 2.0 * np.pi * abs(n.imag) * d / lam_min
            log_cosh = x + np.log1p(np.exp(-2.0 * x)) - np.log(2.0)
            distinct[n, d] = (c, -1j * s / n, -1j * n * s, log_cosh + np.log1p(max(abs(n), 1.0 / abs(n))))
    return [distinct[l.material.nc, l.thickness_nm] for l in stack.layers]


def _scaled_stack_matrix(stack: LayerStack, wavelength_nm):
    """Overflow-safe ordered product (entry side first), planar layout.

    Returns the columns ``[m00, m10]`` and ``[m01, m11]`` of matrix /
    e^log_scale, each of shape (2,) + wavelength shape, and ``log_scale``.
    Strongly absorbing layers make entries grow like e^{Im delta}; wherever
    max|m| exceeds 1e120 after a multiply, that point is divided by it.  r is
    a ratio of matrix entries and never sees the scale; t recovers it.
    """
    wl = np.asarray(wavelength_nm, dtype=float)
    factors = _layer_factors(stack, wl.reshape(-1))
    c, b, g, log_bound = factors[0]
    left, right = np.array([c, g]), np.array([b, c])
    log_scale = np.zeros(c.shape)
    tmp = np.empty_like(left)
    for c, b, g, log_norm in factors[1:]:
        # [left right] <- [left right] @ [[c, b], [g, c]]
        new_right = left * b
        new_right += np.multiply(right, c, out=tmp)
        left *= c
        left += np.multiply(right, g, out=tmp)
        right = new_right
        log_bound += log_norm
        if not log_bound < _LOG_SKIP_BELOW:
            peak = np.max(np.abs([left, right]), axis=(0, 1))
            big = peak > _RESCALE_AT
            if np.any(big):
                scale = np.where(big, peak, 1.0)
                left /= scale
                right /= scale
                log_scale += np.log(scale)
                peak = np.where(big, 1.0, peak)
            # a row sum is at most twice the row's largest entry
            log_bound = np.log(2.0 * np.max(peak, initial=1.0))
    shape = (2,) + wl.shape
    return left.reshape(shape), right.reshape(shape), log_scale.reshape(wl.shape)


def amplitude_coefficients(stack: LayerStack, wavelength_nm):
    """Complex (r, t) for incidence from the entry medium."""
    if np.any(np.asarray(wavelength_nm) <= 0):
        raise ValueError("wavelength must be > 0")
    (m11, m21), (m12, m22), log_scale = _scaled_stack_matrix(stack, wavelength_nm)
    n0 = stack.entry.nc
    ns = stack.exit.nc
    denom = n0 * m11 + n0 * ns * m12 + m21 + ns * m22
    r = (n0 * m11 + n0 * ns * m12 - m21 - ns * m22) / denom
    # restore the scale on t; underflow to 0 is the honest answer for
    # opaque structures
    with np.errstate(under="ignore"):
        t = 2.0 * n0 / denom * np.exp(-log_scale)
    return r, t


def transmission(stack: LayerStack, wavelength_nm):
    """Power transmission T(lambda); vectorized over wavelength."""
    r, t = amplitude_coefficients(stack, wavelength_nm)
    n_ratio = stack.exit.nc.real / stack.entry.nc.real
    return n_ratio * np.abs(t) ** 2


def stack_response(stack: LayerStack, wavelength_nm: float) -> StackResponse:
    """Full response record at a single wavelength."""
    r, t = amplitude_coefficients(stack, float(wavelength_nm))
    R = float(np.abs(r) ** 2)
    T = float(stack.exit.nc.real / stack.entry.nc.real * np.abs(t) ** 2)
    return StackResponse(r=complex(r), t=complex(t), R=R, T=T, A=1.0 - R - T)


def _wave_amplitudes(stack: LayerStack, wavelength_nm: float):
    """Forward/backward amplitudes per layer, with per-layer log scales.

    Returns ``(amps, log_scales, r, t)``.  In layer j the field is
    ``(a_j exp(ik(z - z_j)) + b_j exp(-ik(z - z_j))) * exp(log_scales[j])``
    in units of the incident wave (amplitude 1 in the entry medium).
    Obtained by propagating (t, 0) backwards from the exit medium, which
    enforces field and derivative continuity at every interface; the
    explicit scale keeps strongly absorbing layers from over/underflowing.
    For opaque stacks (t underflows to 0) the overall scale is arbitrary
    but relative amplitudes stay exact.
    """
    r, t = amplitude_coefficients(stack, wavelength_nm)
    n_next = stack.exit.nc
    a, b = complex(t), 0.0 + 0.0j  # amplitudes at the exit-medium boundary
    ls = 0.0
    if abs(a) == 0.0:
        a = 1.0 + 0.0j  # absolute normalization lost; keep relative fields
    out = []
    scales = []
    for layer in reversed(stack.layers):
        n = layer.material.nc
        # continuity at the layer's exit boundary
        a_end = 0.5 * ((1 + n_next / n) * a + (1 - n_next / n) * b)
        b_end = 0.5 * ((1 - n_next / n) * a + (1 + n_next / n) * b)
        # translate to the layer's entry boundary; bleed large exponential
        # growth into the running log scale before it can overflow
        delta = 2.0 * np.pi * n * layer.thickness_nm / wavelength_nm
        grow = delta.imag
        shift = grow if grow > 200.0 else 0.0
        with np.errstate(under="ignore"):
            a = a_end * np.exp(-1j * delta.real) * np.exp(grow - shift)
            b = b_end * np.exp(1j * delta.real) * np.exp(-grow - shift)
        ls += shift
        peak = max(abs(a), abs(b))
        if peak > 1e100 or (0.0 < peak < 1e-100):
            a, b = a / peak, b / peak
            ls += np.log(peak)
        n_next = n
        out.append((a, b))
        scales.append(ls)
    out.reverse()
    scales.reverse()
    return out, np.asarray(scales), complex(r), complex(t)


def _scale_factors(log_scales: np.ndarray) -> np.ndarray:
    """Per-layer amplitude factors; absolute units when representable."""
    ref = np.max(log_scales) if np.max(np.abs(log_scales)) > 600.0 else 0.0
    with np.errstate(under="ignore"):
        return np.exp(log_scales - ref)


def field_profile(stack: LayerStack, wavelength_nm: float, samples_per_layer: int = 50) -> FieldProfile:
    """Standing-wave profile sampled through every layer.

    Each layer contributes ``samples_per_layer`` points (its entry boundary
    included, exit boundary excluded to keep the grid strictly increasing);
    the stack's exit surface is appended.  |E| is normalized to 1 at its
    maximum over the samples.
    """
    if samples_per_layer < 2:
        raise ValueError("samples_per_layer must be >= 2")
    amps, log_scales, _, _ = _wave_amplitudes(stack, wavelength_nm)
    factors = _scale_factors(log_scales)
    edges = stack.boundaries_nm()
    zs, Es, ns, segs = [], [], [], []
    for j, layer in enumerate(stack.layers):
        k = 2.0 * np.pi * layer.material.nc / wavelength_nm
        dz = np.linspace(0.0, layer.thickness_nm, samples_per_layer, endpoint=False)
        a, b = amps[j]
        zs.append(edges[j] + dz)
        Es.append((a * np.exp(1j * k * dz) + b * np.exp(-1j * k * dz)) * factors[j])
        ns.append(np.full(dz.shape, layer.material.n))
        segs.append((edges[j], edges[j + 1], layer.material.name))
    # exit surface, evaluated in the last layer
    last = stack.layers[-1]
    k = 2.0 * np.pi * last.material.nc / wavelength_nm
    a, b = amps[-1]
    zs.append(np.array([edges[-1]]))
    Es.append(np.array([(a * np.exp(1j * k * last.thickness_nm) + b * np.exp(-1j * k * last.thickness_nm)) * factors[-1]]))
    ns.append(np.array([last.material.n]))

    z = np.concatenate(zs)
    E = np.concatenate(Es)
    n_of_z = np.concatenate(ns)
    E = E / np.max(np.abs(E))
    return FieldProfile(z, E, n_of_z, tuple(segs), float(wavelength_nm))


def interface_mismatch(stack: LayerStack, wavelength_nm: float) -> float:
    """Max |E| discontinuity across interior interfaces (should be ~0).

    Evaluates the analytic per-layer solutions at both sides of every
    interior boundary; tangential-field continuity makes the true jump
    zero, so this measures only numerical error.
    """
    amps, log_scales, _, _ = _wave_amplitudes(stack, wavelength_nm)
    factors = _scale_factors(log_scales)
    worst = 0.0
    for j in range(len(stack.layers) - 1):
        layer = stack.layers[j]
        k = 2.0 * np.pi * layer.material.nc / wavelength_nm
        a, b = amps[j]
        left = (a * np.exp(1j * k * layer.thickness_nm) + b * np.exp(-1j * k * layer.thickness_nm)) * factors[j]
        a2, b2 = amps[j + 1]
        right = (a2 + b2) * factors[j + 1]
        worst = max(worst, abs(abs(left) - abs(right)))
    return worst
