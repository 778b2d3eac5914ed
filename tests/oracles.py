"""Test oracles: the kernels and full-stack forms the package replaced, kept to check it against.

The package folds every stack with Airy steps and cuts the cavity open at
the fiber-side gap; these are independent references:

* ``matrix_coefficients``: r and t from the characteristic-matrix product,
  rescaled per wavelength point past max|m| = 1e120;
* ``backward_amplitudes``: per-layer amplitudes by propagating (t, 0)
  backwards from the exit medium, with per-layer log scales;
* ``flatten_assembly``: fiber coating, gap, membrane, second gap and plane
  coating as one ``LayerStack``;
* ``transmission`` of a stack from its matrix product;
* ``interface_mismatch``: the |E| jump across the interior interfaces of a
  backward-propagated solution;
* ``stack_response``: r, t and the power coefficients of one stack;
* ``SplitResponse``: the cavity cut at the fiber-side gap, exact at every wavelength;
* ``FlatStandingWave``: one backward-propagated solve of the flattened
  cavity at one gap, and L_eff, the emitter overlap and the
  membrane-interface weight read from it layer by layer;
* ``GridPhaseModel``: the mirrors' phase on a dense grid, linear between
  nodes and rooted per cell in closed form;
* ``exact_transmission_maxima``: the local maxima of the exact split's T,
  found on a grid and refined by golden section;
* ``full_record_lines``: the spectral lines of a series, read off one
  Hann-windowed periodogram of the whole record.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from microcav.phase import _ANCHOR_NM, _rest_steps
from microcav.stack import AIR, CavityAssembly, Layer, LayerStack, split_at_gap
from microcav.tmm import amplitude_coefficients


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


def scaled_stack_matrix(stack: LayerStack, wavelength_nm):
    """Overflow-safe characteristic-matrix product (entry side first), planar layout.

    For a layer of complex index n and thickness d the field-transfer matrix
    is [[cos delta, -i sin delta / n], [-i n sin delta, cos delta]], delta =
    2 pi n d / lambda.  Returns the columns ``[m00, m10]`` and ``[m01, m11]``
    of matrix / e^log_scale, each of shape (2,) + wavelength shape, and
    ``log_scale``: wherever max|m| exceeds 1e120 after a multiply, that
    point is divided by it.
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


def matrix_coefficients(stack: LayerStack, wavelength_nm):
    """Complex (r, t) for incidence from the entry medium, from ``scaled_stack_matrix``."""
    (m11, m21), (m12, m22), log_scale = scaled_stack_matrix(stack, wavelength_nm)
    n0 = stack.entry.nc
    ns = stack.exit.nc
    denom = n0 * m11 + n0 * ns * m12 + m21 + ns * m22
    r = (n0 * m11 + n0 * ns * m12 - m21 - ns * m22) / denom
    # restore the scale on t; underflow to 0 is the honest answer for
    # opaque structures
    with np.errstate(under="ignore"):
        t = 2.0 * n0 / denom * np.exp(-log_scale)
    return r, t


def backward_amplitudes(stack: LayerStack, wavelength_nm: float):
    """Forward/backward amplitudes per layer, with per-layer log scales: ``(amps, log_scales)``.

    In layer j the field is
    ``(a_j exp(ik(z - z_j)) + b_j exp(-ik(z - z_j))) * exp(log_scales[j])``
    in units of the incident wave.  Obtained by propagating (t, 0) backwards
    from the exit medium, which enforces field and derivative continuity at
    every interface; the explicit scale keeps strongly absorbing layers from
    over/underflowing.  For opaque stacks (t underflows to 0) the overall
    scale is arbitrary but relative amplitudes stay exact.
    """
    _, t = matrix_coefficients(stack, wavelength_nm)
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
    return out, np.asarray(scales)


def _scale_factors(log_scales: np.ndarray) -> np.ndarray:
    """Per-layer amplitude factors; absolute units when representable."""
    ref = np.max(log_scales) if np.max(np.abs(log_scales)) > 600.0 else 0.0
    with np.errstate(under="ignore"):
        return np.exp(log_scales - ref)


def flatten_assembly(assembly: CavityAssembly) -> LayerStack:
    """Full cavity as one stack, fiber substrate -> plane-mirror substrate.

    Order: fiber coating, air gap, membrane, second air gap, plane coating.
    Zero-width gaps are omitted (a membrane with ``gap2_nm = 0`` sits
    directly on the plane-mirror cap layer).  Total geometric thickness is
    preserved exactly.
    """
    _, rest = split_at_gap(assembly)
    gap = (Layer(AIR, assembly.gap_nm),) if assembly.gap_nm > 0 else ()
    return LayerStack(assembly.fiber_mirror.substrate, assembly.fiber_mirror.layers + gap + rest.layers, rest.exit)


def transmission(stack: LayerStack, wavelength_nm):
    """Power transmission T(lambda); vectorized over wavelength."""
    _, t = matrix_coefficients(stack, wavelength_nm)
    return stack.exit.nc.real / stack.entry.nc.real * np.abs(t) ** 2


def interface_mismatch(stack: LayerStack, wavelength_nm: float) -> float:
    """Max |E| discontinuity across interior interfaces (should be ~0).

    Evaluates the analytic per-layer solutions at both sides of every
    interior boundary; tangential-field continuity makes the true jump
    zero, so this measures only numerical error.
    """
    amps, log_scales = backward_amplitudes(stack, wavelength_nm)
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


def stack_response(stack: LayerStack, wavelength_nm: float) -> SimpleNamespace:
    """r, t, R, T and A = 1 - R - T (what the stack absorbed) at one wavelength, for incidence from the entry medium."""
    r, t = amplitude_coefficients(stack, float(wavelength_nm))
    R, T = float(np.abs(r) ** 2), float(stack.exit.nc.real / stack.entry.nc.real * np.abs(t) ** 2)
    return SimpleNamespace(r=complex(r), t=complex(t), R=R, T=T, A=1.0 - R - T)


class SplitResponse:
    """The cavity cut open at the fiber-side gap, from a TMM solve at every wavelength: ``r_fiber`` seen from the gap,
    ``t_fiber`` from the fiber substrate (reciprocity), and ``r_rest``, ``t_rest`` of all beyond the gap, seen from it."""

    def __init__(self, assembly: CavityAssembly, wavelength_nm):
        self.wl = wl = np.asarray(wavelength_nm, dtype=float)
        fiber, plane = assembly.fiber_mirror.as_stack(AIR), assembly.plane_mirror.as_stack(AIR)
        self.r_fiber, t_gap_side = amplitude_coefficients(fiber, wl)
        self.t_fiber = t_gap_side * (fiber.exit.nc / fiber.entry.nc)
        n_front = AIR.nc if assembly.membrane is None else assembly.membrane.material.nc
        self.r_rest, self.t_rest, _, _ = _rest_steps(n_front, assembly.membrane_thickness_nm, assembly.gap2_nm, wl,
                                                     *amplitude_coefficients(plane, wl))[1]
        self.power_ratio = plane.exit.nc.real / fiber.exit.nc.real

    def transmission(self, gap_nm):
        """Power transmission of the whole cavity; ``gap_nm`` broadcasts against ``wl``.  The gap is air."""
        round_trip = self.r_fiber * self.r_rest * np.exp(4j * np.pi * np.asarray(gap_nm, dtype=float) / self.wl)
        return self.power_ratio * np.abs(self.t_fiber * self.t_rest) ** 2 / np.abs(1.0 - round_trip) ** 2


def _expm1_over(c: float, d: float) -> float:
    """(exp(c d) - 1)/c with the c -> 0 limit."""
    x = c * d
    if abs(x) < 1e-12:
        return d * (1.0 + 0.5 * x)
    return float(np.expm1(x) / c)


def _layer_energy(a: complex, b: complex, k: complex, d: float) -> float:
    """Integral of |a e^{ikz} + b e^{-ikz}|^2 over a layer of thickness d."""
    tiny = 1e-140
    total = 0.0
    if abs(a) > tiny:
        total += abs(a) ** 2 * _expm1_over(-2.0 * k.imag, d)
    if abs(b) > tiny:
        total += abs(b) ** 2 * _expm1_over(2.0 * k.imag, d)
    if abs(a) > tiny and abs(b) > tiny:
        total += 2.0 * (a * np.conj(b) * (np.exp(2j * k.real * d) - 1.0) / (2j * k.real)).real
    return total


def _layer_peak_intensity(a: complex, b: complex, k: complex, d: float) -> float:
    """Max of |a e^{ikz} + b e^{-ikz}|^2 over z in [0, d]; sampled at 2001 depths in a lossy layer."""
    if abs(k.imag) > 1e-12:
        z = np.linspace(0.0, d, 2001)
        return float(np.max(np.abs(a * np.exp(1j * k * z) + b * np.exp(-1j * k * z)) ** 2))
    if abs(a) < 1e-140 or abs(b) < 1e-140:
        return abs(a) ** 2 + abs(b) ** 2
    kp = k.real
    # antinode where cos(2 k z + phi) = 1
    z_star = -np.angle(a * np.conj(b)) / (2.0 * kp)
    period = np.pi / kp
    z_star -= np.floor(z_star / period) * period
    if 0.0 <= z_star <= d:
        return (abs(a) + abs(b)) ** 2
    return float(max(abs(a * np.exp(1j * kp * z) + b * np.exp(-1j * kp * z)) ** 2 for z in (0.0, d)))


class FlatStandingWave:
    """The field of the flattened assembly at its own gap, from one per-layer solve.

    In layer j the field is ``a_j e^{ik_j z} + b_j e^{-ik_j z}`` times the
    layer's scale, z measured from the layer's entry face.  ``i_gap`` and
    ``i_membrane`` are the flattened layer indices of the gap (when
    ``gap_nm > 0``) and of the membrane (None without one).
    """

    def __init__(self, assembly: CavityAssembly, wavelength_nm: float):
        self.assembly = assembly
        self.wavelength_nm = wavelength_nm
        self.stack = flatten_assembly(assembly)
        self.amps, self.log_scales = backward_amplitudes(self.stack, wavelength_nm)
        self.i_gap = len(assembly.fiber_mirror.layers)
        self.i_membrane = None if assembly.membrane is None else self.i_gap + (1 if assembly.gap_nm > 0 else 0)

    def _layer(self, j: int):
        """(a, b, k, thickness) of layer j."""
        layer = self.stack.layers[j]
        a, b = self.amps[j]
        return a, b, 2.0 * np.pi * layer.material.nc / self.wavelength_nm, layer.thickness_nm

    def peak_intensity(self, j: int) -> float:
        return _layer_peak_intensity(*self._layer(j))

    def xi(self, implant_depth_nm: float, dipole_angle_rad: float = 0.0) -> float:
        """|E| at the implant depth over its peak in the membrane, times |cos(angle)|."""
        a, b, k, _ = self._layer(self.i_membrane)
        e2 = abs(a * np.exp(1j * k * implant_depth_nm) + b * np.exp(-1j * k * implant_depth_nm)) ** 2
        return float(np.sqrt(e2 / self.peak_intensity(self.i_membrane)) * abs(np.cos(dipole_angle_rad)))

    def effective_length_um(self) -> float:
        """2 * integral of n^2 |E|^2 over the stack / its peak in the host layer, in um."""
        if self.i_membrane is not None:
            j_host = self.i_membrane
        elif self.assembly.gap_nm > 0:
            j_host = self.i_gap
        else:
            raise ValueError("an empty cavity needs a nonzero gap to host the mode")
        peak = self.stack.layers[j_host].material.n**2 * self.peak_intensity(j_host)
        ls_host = self.log_scales[j_host]
        total = 0.0
        for j, (layer, ls) in enumerate(zip(self.stack.layers, self.log_scales)):
            energy = layer.material.n**2 * _layer_energy(*self._layer(j))
            if energy <= 0.0:
                continue
            log_term = 2.0 * (ls - ls_host) + np.log(energy) - np.log(peak)
            if log_term < -745.0:
                continue
            total += np.inf if log_term > 700.0 else np.exp(log_term)
        return float(2.0 * total) * 1e-3

    def membrane_interface_weight(self) -> float:
        """n^2 |E|^2 at the membrane's fiber-facing surface over the peak over gap, membrane and second gap."""
        factors = _scale_factors(self.log_scales)
        a, b = self.amps[self.i_membrane]
        e2_if = abs((a + b) * factors[self.i_membrane]) ** 2
        n_d = self.assembly.membrane.material.n
        peak = 0.0
        for j in range(self.i_gap, len(self.stack.layers) - len(self.assembly.plane_mirror.layers)):
            peak = max(peak, self.stack.layers[j].material.n**2 * factors[j] ** 2 * self.peak_intensity(j))
        return float(np.clip(n_d**2 * e2_if / peak, 0.0, 1.0))


def _cell_roots(x0, x1, p0, p1, target, gap_nm):
    """Root inside [x0, x1] of 4 pi gap / x + p(x) = target, p = p0 + s (x - x0) linear on the cell; vectorized.

    x * miss = s x^2 + (p0 - s x0 - target) x + 4 pi gap; of the two roots of
    its cancellation-free form the one nearer the cell's middle is taken.
    """
    s = (p1 - p0) / (x1 - x0)
    b, c = p0 - s * x0 - target, 4.0 * np.pi * gap_nm
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4.0 * s * c, 0.0)), b))
        mid = 0.5 * (x0 + x1)
        near, far = h / s, c / h
        root = np.where(np.abs(near - mid) <= np.abs(far - mid), near, far)
        return np.where(s == 0.0, -c / b, root)


class GridPhaseModel:
    """Mirror phases unwrapped on a grid and anchored at its node nearest ``_ANCHOR_NM``, linear between nodes; T exact."""

    def __init__(self, assembly: CavityAssembly, wl_min_nm: float, wl_max_nm: float, step_nm: float = 0.02):
        self.assembly = assembly
        lo, hi = min(wl_min_nm, _ANCHOR_NM - 2.0), max(wl_max_nm, _ANCHOR_NM + 2.0)
        self.wl = np.linspace(lo, hi, int(np.ceil((hi - lo) / step_nm)) + 1)
        split, i0 = SplitResponse(assembly, self.wl), int(np.argmin(np.abs(self.wl - _ANCHOR_NM)))
        phis = [(r, np.unwrap(np.angle(r))) for r in (split.r_fiber, split.r_rest)]
        self.phi_mirrors = sum(phi + 2.0 * np.pi * np.round((np.angle(r[i0]) % (2.0 * np.pi) - phi[i0]) / (2.0 * np.pi))
                               for r, phi in phis)

    def mirror_phase(self, wl_nm):
        return np.interp(wl_nm, self.wl, self.phi_mirrors)

    def transmission(self, wl_nm, gap_nm):
        return SplitResponse(self.assembly, wl_nm).transmission(gap_nm)

    def round_trip_phase(self, wl_nm, gap_nm):
        return 4.0 * np.pi * gap_nm / np.asarray(wl_nm, dtype=float) + self.mirror_phase(wl_nm)

    def solve_wavelengths(self, q, gap_nm, window=None):
        """(wavelengths, found): per row the root on the window's first cell where the phase miss changes sign or is 0 at a node."""
        sel = slice(None) if window is None else slice(np.searchsorted(self.wl, window[0], side="left"),
                                                       np.searchsorted(self.wl, window[1], side="right"))
        wl, phi = self.wl[sel], self.phi_mirrors[sel]
        q, gap = np.broadcast_arrays(np.asarray(q, dtype=float), np.asarray(gap_nm, dtype=float))
        miss = 4.0 * np.pi * gap[..., None] / wl + phi - 2.0 * np.pi * (q[..., None] + 1.0)
        change = np.diff(np.signbit(miss), axis=-1) | (miss[..., :-1] == 0.0) | (miss[..., 1:] == 0.0)
        found, i = change.any(axis=-1), change.argmax(axis=-1)
        return np.where(found, _cell_roots(wl[i], wl[i + 1], phi[i], phi[i + 1], 2.0 * np.pi * (q + 1.0), gap), np.nan), found


def exact_transmission_maxima(assembly: CavityAssembly, gap_nm, wavelength_window, rel_prominence=1e-3,
                              step_nm=0.02, tol_nm=1e-11):
    """(gaps, wavelengths) of the maxima of exact T (``SplitResponse``) in the window, in order of gap, then wavelength.

    Every local maximum of T on a grid ``step_nm`` apart (one step past each end
    of the window) is refined by golden section on exact T between its two grid
    neighbours, to ``tol_nm``.  A maximum whose T is below ``rel_prominence``
    times the largest T in the window at its gap is dropped.
    """
    lo, hi = wavelength_window
    gaps = np.atleast_1d(np.asarray(gap_nm, dtype=float))
    x = np.linspace(lo - step_nm, hi + step_nm, int(np.ceil((hi - lo) / step_nm)) + 3)
    t = SplitResponse(assembly, x).transmission(gaps[:, None])
    g_idx, i = np.nonzero((t[:, 1:-1] > t[:, :-2]) & (t[:, 1:-1] >= t[:, 2:]))
    gap, a, b = gaps[g_idx], x[i], x[i + 2]

    def exact(wl):
        return SplitResponse(assembly, wl).transmission(gap)

    inv = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = exact(c), exact(d)
    while a.size and np.max(b - a) > tol_nm:
        left = fc > fd  # the maximum is in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        new = np.where(left, b - inv * (b - a), a + inv * (b - a))
        f_new = exact(new)
        c, fc, d, fd = (np.where(left, new, d), np.where(left, f_new, fd),
                        np.where(left, c, new), np.where(left, fc, f_new))
    wl = 0.5 * (a + b)
    keep = (wl > lo) & (wl < hi)
    g_idx, gap, wl = g_idx[keep], gap[keep], wl[keep]
    peak = SplitResponse(assembly, wl).transmission(gap)
    tallest = np.zeros(gaps.size)
    np.maximum.at(tallest, g_idx, peak)
    keep = peak >= rel_prominence * tallest[g_idx]
    return gap[keep], wl[keep]


def full_record_lines(x, sample_rate_hz: float) -> list[tuple[float, float]]:
    """(frequency_hz, amplitude) of the lines standing 8x above the median ASD of x's whole-record periodogram.

    The Hann-windowed one-sided density of x - mean(x) as one expression;
    each line's amplitude is sqrt(2 P), P the PSD summed over +-3 bins
    times the bin width.  Lines are the ASD's peaks by ``scipy.signal``.
    """
    from scipy import signal

    n = x.size
    w = np.hanning(n)
    psd = 2.0 * np.abs(np.fft.rfft((x - np.mean(x)) * w)) ** 2 / (sample_rate_hz * np.sum(w**2))
    psd[0] /= 2.0
    if n % 2 == 0:
        psd[-1] /= 2.0
    freq = np.fft.rfftfreq(n, d=1.0 / sample_rate_hz)
    asd = np.sqrt(psd)
    floor = np.median(asd)
    if not floor > 0:
        return []
    df = freq[1] - freq[0]
    idx, _ = signal.find_peaks(asd, height=8.0 * floor)
    return [(float(freq[i]), float(np.sqrt(2.0 * float(np.sum(psd[max(i - 3, 0):i + 4]) * df)))) for i in idx]
