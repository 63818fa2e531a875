"""Corner and vessel-bifurcation detection on intensity maps.

Pipeline: central-difference gradients, Gaussian-windowed structure tensor,
the determinant-minus-scaled-trace response, then local-maximum selection
with a response threshold and a border margin.  All stages are pure
functions of their inputs and safe to run concurrently on separate maps.

`detect_corners` runs the stages only on the box it is asked for plus the
margin they read: the image chain (encoder.gated_template) asks for the
optic-disc gate's box, the `detect` command for the whole map.

Non-maximum suppression is array code over the above-threshold candidates:
one gather and compare per neighbour offset, with equal neighbours at
offsets before (0, 0) in (y, x) order breaking plateaus, then one lexsort.
Its output is identical to a per-pixel window scan (tests/oracles.py).
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass

import numpy as np

DEFAULT_K = 0.17
DEFAULT_THRESHOLD = 7e4


def is_finite(value) -> bool:
    """True for a number in the float range.  It compares without converting,
    so an int too large for a float is False rather than an OverflowError."""
    return -sys.float_info.max <= value <= sys.float_info.max


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
        if not (is_finite(self.k) and self.k > 0):
            raise ValueError("k must be positive and finite")
        if not (is_finite(self.threshold) and self.threshold >= 0):
            raise ValueError("threshold must be non-negative and finite")
        if not (is_finite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive and finite")
        for name in ("window_radius", "nms_radius", "border_margin"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if self.window_radius < 1:
            raise ValueError("window_radius must be at least 1")
        # gaussian_window's window_radius^2 / (2 sigma^2) must stay finite.
        if self.window_radius > self.sigma * sys.float_info.max ** 0.5:
            raise ValueError("sigma is too small for window_radius")
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


def gaussian_pass(region: np.ndarray, profile: np.ndarray, ys: range, xs: range) -> np.ndarray:
    """Correlate with the outer product of a 1-D profile at cells (ys, xs)
    only: cell (y, x) is the window region[y:y + n, x:x + n], n = profile.size.

    A horizontal then a vertical pass, taps in profile order, so every cell
    is bit-identical whatever cells are asked for.  Each horizontal tap is
    a strided view of the rows of a transposed copy.
    """
    ny, nx = ys.stop - ys.start, xs.stop - xs.start
    across = np.ascontiguousarray(region[ys.start:, xs.start:].T)
    rows = np.zeros((len(xs), across.shape[1]))
    for t, tap in enumerate(profile):
        rows += tap * across[t:t + nx:xs.step]
    rows = np.ascontiguousarray(rows.T)
    out = np.zeros((len(ys), len(xs)))
    for t, tap in enumerate(profile):
        out += tap * rows[t:t + ny:ys.step]
    return out


def structure_tensor(gx: np.ndarray, gy: np.ndarray, params: HarrisParams | None = None) -> StructureTensorField:
    params = params or HarrisParams()
    gx = np.asarray(gx, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    if gx.shape != gy.shape:
        raise ValueError("gradient grids differ in shape")
    r = params.window_radius
    profile = gaussian_window(params.sigma, r)
    cells = range(gx.shape[0]), range(gx.shape[1])
    a, b, c = (gaussian_pass(np.pad(u * v, r, mode="edge"), profile, *cells)
               for u, v in ((gx, gx), (gy, gy), (gx, gy)))
    return StructureTensorField(a=a, b=b, c=c)


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


def detect_corners(intensity: np.ndarray, params: HarrisParams | None = None,
                   rows: slice = slice(None), cols: slice = slice(None)) -> list[Corner]:
    """Full detection pipeline on one intensity map, returning only the
    corners in the box map[rows, cols] (by default the whole map).

    The stages run on the box padded by max(nms_radius + window_radius + 1,
    border_margin) and clipped to the map.  A corner in the box reads the
    response within nms_radius, each response reads gradients within
    window_radius, and each gradient one pixel further, so every value it
    reads is the whole map's, bit for bit.  The crop's own edges lie at
    least border_margin from the box unless they are the map's edges, so
    the border margin and the NMS padding act as on the whole map.  The
    result is the whole map's corners inside the box, in the same order.
    """
    params = params or HarrisParams()
    m = np.asarray(intensity, dtype=np.float64)
    need = 2 * params.border_margin + 1
    if m.ndim != 2 or m.shape[0] < max(need, 3) or m.shape[1] < max(need, 3):
        raise ValueError("map too small for corner detection")
    ys, xs = range(m.shape[0])[rows], range(m.shape[1])[cols]
    if ys.step != 1 or xs.step != 1:
        raise ValueError("rows and cols must select a contiguous box")
    if not (ys and xs):
        return []
    pad = max(params.nms_radius + params.window_radius + 1, params.border_margin)
    y0, x0 = max(ys.start - pad, 0), max(xs.start - pad, 0)
    crop = m[y0:ys.stop + pad, x0:xs.stop + pad]
    gx, gy = gradients(crop)
    field = structure_tensor(gx, gy, params)
    found = local_maxima(response(field, params.k), params)
    return [Corner(x=c.x + x0, y=c.y + y0, response=c.response)
            for c in found if c.y + y0 in ys and c.x + x0 in xs]
