"""Peaks of sampled 1-D traces, as SciPy's find_peaks and peak_widths define them.

A peak is a sample whose neighbours are both strictly lower, or the floor of
the midpoint of a flat run whose neighbours are; the first and last samples
are never peaks.  Its prominence is its height above the higher of the two
minima that lie between it and the nearest strictly higher sample on each
side (or that end of the trace).  Its width, in samples, is taken half a
prominence below the peak and interpolated linearly between samples.
"""

from __future__ import annotations

import numpy as np


def find_peaks(x, height: float | None = None, prominence: float | None = None):
    """(indices, prominences, widths) of the peaks with x >= height and prominence >= prominence.

    Prominences and widths are None unless ``prominence`` is given.

    Working set of the peak search: about 2.5 arrays of x's length (the
    differences, the indices of the nonzero ones and two boolean masks);
    the prominence and width pass adds arrays as long as the peak list.
    x is not modified.
    """
    x = np.asarray(x, dtype=float)
    dx = np.diff(x)
    steps = np.flatnonzero(dx)
    rising = (dx > 0)[steps]
    del dx
    at = np.flatnonzero(rising[:-1] & ~rising[1:])
    peaks = (steps[at] + 1 + steps[at + 1]) // 2
    if height is not None:
        peaks = peaks[x[peaks] >= height]
    if prominence is None:
        return peaks, None, None
    # a prominence never exceeds x[p] - min(x): lower peaks cannot pass, and
    # the nearest higher sample on either side rises to a peak that is kept
    peaks = peaks[x[peaks] - np.min(x) >= prominence]
    left, left_min = _higher_to_left(x, peaks)
    right, right_min = _higher_to_left(x[::-1], x.size - 1 - peaks[::-1])
    right, right_min = x.size - 1 - right[::-1], right_min[::-1]
    prominences = x[peaks] - np.maximum(left_min, right_min)
    keep = prominences >= prominence
    peaks, prominences, left, right = peaks[keep], prominences[keep], left[keep], right[keep]
    widths = np.empty(peaks.size)
    for k, (p, lo, hi) in enumerate(zip(peaks.tolist(), left.tolist(), right.tolist())):
        h = x[p] - prominences[k] * 0.5
        base = p - int(np.argmin(x[lo + 1 : p + 1][::-1]))
        below = np.flatnonzero(x[base + 1 : p + 1] <= h)
        i = base + 1 + int(below[-1]) if below.size else base
        left_ip = i + (h - x[i]) / (x[i + 1] - x[i]) if x[i] < h else i
        base = p + int(np.argmin(x[p:hi]))
        below = np.flatnonzero(x[p:base] <= h)
        i = p + int(below[0]) if below.size else base
        right_ip = i - (h - x[i]) / (x[i - 1] - x[i]) if x[i] < h else i
        widths[k] = right_ip - left_ip
    return peaks, prominences, widths


def _higher_to_left(x: np.ndarray, peaks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For ascending peaks: the nearest of them strictly higher on the left
    (-1 if none) and the minimum of x after it up to the peak.

    x[0] is no entry: where it is the nearest higher sample, -1 comes back
    and the minimum runs from x[0], which changes nothing as x[0] exceeds
    the peak.  A monotonic stack over the peaks, each entry holding the
    minimum of x since the entry below it, makes the work scale with
    len(peaks).
    """
    starts = np.concatenate(([0], peaks[:-1] + 1))
    gap_min = np.minimum.reduceat(x[: peaks[-1] + 1], starts).tolist() if peaks.size else []
    stack = [(-1, np.inf, np.inf)]  # (index, value, minimum since the entry below)
    higher = np.empty(peaks.size, dtype=int)
    minima = np.empty(peaks.size)
    for k, (p, v) in enumerate(zip(peaks.tolist(), x[peaks].tolist())):
        m = gap_min[k]
        while stack[-1][1] <= v:
            m = min(m, stack.pop()[2])
        higher[k], minima[k] = stack[-1][0], m
        stack.append((p, v, m))
    return higher, minima
