"""Corner and vessel-bifurcation detection on intensity maps.

Pipeline: central-difference gradients, Gaussian-windowed structure tensor,
the determinant-minus-scaled-trace response, then local-maximum selection
with a response threshold and a border margin.  All stages are pure
functions of their inputs and safe to run concurrently on separate maps.

Non-maximum suppression is array code over the above-threshold candidates:
one gather and compare per neighbour offset, with equal neighbours at
offsets before (0, 0) in (y, x) order breaking plateaus, then one lexsort.
Its output is identical to a per-pixel window scan (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_K = 0.17
DEFAULT_THRESHOLD = 7e4


@dataclass(frozen=True)
class HarrisParams:
    """Detector knobs.  border_margin must leave room for the tensor window."""

    k: float = DEFAULT_K
    threshold: float = DEFAULT_THRESHOLD
    sigma: float = 1.5
    window_radius: int = 4
    nms_radius: int = 3
    border_margin: int = 5

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValueError("k must be positive and finite")
        if not (math.isfinite(self.threshold) and self.threshold >= 0):
            raise ValueError("threshold must be non-negative and finite")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive and finite")
        if self.window_radius < 1:
            raise ValueError("window_radius must be at least 1")
        if self.nms_radius < 1:
            raise ValueError("nms_radius must be at least 1")
        if self.border_margin < self.window_radius + 1:
            raise ValueError("border_margin must be at least window_radius + 1")


@dataclass(frozen=True)
class Corner:
    x: int
    y: int
    response: float


@dataclass(frozen=True)
class StructureTensorField:
    """Windowed second-moment sums per pixel: a = sum(gx^2), b = sum(gy^2),
    c = sum(gx*gy)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


def gradients(intensity: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central differences with replicated edges.

    gx(x, y) = I(x+1, y) - I(x-1, y) and likewise for gy along y.
    """
    m = np.asarray(intensity, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 3 or m.shape[1] < 3:
        raise ValueError("map too small for gradients; need at least 3x3")
    padded = np.pad(m, 1, mode="edge")
    gx = padded[1:-1, 2:] - padded[1:-1, :-2]
    gy = padded[2:, 1:-1] - padded[:-2, 1:-1]
    return gx, gy


def gaussian_window(sigma: float, radius: int) -> np.ndarray:
    """1-D profile of the unnormalised separable window exp(-t^2 / 2 sigma^2).

    The 2-D window is the outer product of this profile with itself, i.e.
    exp(-(u^2 + v^2) / 2 sigma^2) on a (2 radius + 1) square.
    """
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    return np.exp(-(t * t) / (2.0 * sigma * sigma))


def separable_window_sum(arr: np.ndarray, profile: np.ndarray) -> np.ndarray:
    """Correlate a 2-D array with the outer product of a 1-D profile,
    replicating edges.  Implemented as a horizontal then vertical pass with
    a fixed tap order, so results are deterministic across runs."""
    arr = np.asarray(arr, dtype=np.float64)
    h, w = arr.shape
    r = (profile.size - 1) // 2
    padded = np.pad(arr, r, mode="edge")
    rows = np.zeros((h + 2 * r, w), dtype=np.float64)
    for k in range(profile.size):
        rows += profile[k] * padded[:, k:k + w]
    out = np.zeros((h, w), dtype=np.float64)
    for k in range(profile.size):
        out += profile[k] * rows[k:k + h, :]
    return out


def structure_tensor(gx: np.ndarray, gy: np.ndarray, params: HarrisParams | None = None) -> StructureTensorField:
    params = params or HarrisParams()
    gx = np.asarray(gx, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    if gx.shape != gy.shape:
        raise ValueError("gradient grids differ in shape")
    profile = gaussian_window(params.sigma, params.window_radius)
    return StructureTensorField(
        a=separable_window_sum(gx * gx, profile),
        b=separable_window_sum(gy * gy, profile),
        c=separable_window_sum(gx * gy, profile),
    )


def response(field: StructureTensorField, k: float = DEFAULT_K) -> np.ndarray:
    """R = (a b - c^2) - k (a + b)^2, i.e. det minus k * trace squared."""
    a, b, c = field.a, field.b, field.c
    return (a * b - c * c) - k * (a + b) ** 2


def local_maxima(resp: np.ndarray, params: HarrisParams | None = None) -> list[Corner]:
    """Select pixels that meet the threshold, sit inside the border margin,
    and are maximal within a Chebyshev nms_radius neighbourhood.

    Equal-valued neighbours are resolved in favour of the smallest (y, x),
    so plateaus yield exactly one corner.  Output is sorted by descending
    response, ties by ascending (y, x).

    The test runs on all candidates at once: for each neighbour offset a
    candidate drops out when that neighbour is larger, or, for offsets
    that come before (0, 0) in (y, x) order, when it is equal.  The map is
    padded with -inf, which stands in for the clamped window, and NaN reads
    as -inf; since candidates are at least threshold >= 0, neither can beat
    or tie one, just as a NaN never compares true.
    """
    params = params or HarrisParams()
    r = np.asarray(resp, dtype=np.float64)
    if r.ndim != 2:
        raise ValueError("response map must be 2-D")
    h, w = r.shape
    bm = params.border_margin
    # Offsets past the map's extent would only read padding.
    nr = min(params.nms_radius, max(h, w) - 1)
    if h <= 2 * bm or w <= 2 * bm:
        return []
    ys, xs = np.nonzero(r[bm:h - bm, bm:w - bm] >= params.threshold)
    pw = w + 2 * nr
    padded = np.full((h + 2 * nr, pw), -np.inf)
    padded[nr:nr + h, nr:nr + w] = r
    np.copyto(padded, -np.inf, where=np.isnan(padded))
    flat = padded.ravel()
    idx = (ys + (bm + nr)) * pw + (xs + (bm + nr))
    v = flat[idx]
    for dy in range(-nr, nr + 1):
        keep = np.ones(idx.size, dtype=bool)
        for dx in range(-nr, nr + 1):
            if (dy, dx) == (0, 0):
                continue
            nb = flat[idx + (dy * pw + dx)]
            keep &= (nb < v) if (dy, dx) < (0, 0) else (nb <= v)
        idx = idx[keep]
        v = v[keep]
    ys, xs = np.divmod(idx, pw)
    order = np.lexsort((xs, ys, -v))
    return [
        Corner(x=x - nr, y=y - nr, response=resp_v)
        for y, x, resp_v in zip(ys[order].tolist(), xs[order].tolist(), v[order].tolist())
    ]


def detect_corners(intensity: np.ndarray, params: HarrisParams | None = None) -> list[Corner]:
    """Full detection pipeline on one intensity map."""
    params = params or HarrisParams()
    m = np.asarray(intensity, dtype=np.float64)
    need = 2 * params.border_margin + 1
    if m.ndim != 2 or m.shape[0] < max(need, 3) or m.shape[1] < max(need, 3):
        raise ValueError("map too small for corner detection")
    gx, gy = gradients(m)
    field = structure_tensor(gx, gy, params)
    return local_maxima(response(field, params.k), params)
