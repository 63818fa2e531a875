"""Optic-disc localisation.

The disc shows up as the brightest roughly circular region of a fundus
image.  A radially symmetric Gaussian bright-blob template matched with
zero-mean normalised cross-correlation finds it; the normalisation makes
the score invariant to affine intensity changes.  A coarse stride grid is
searched first, then refined at stride 1 around the best coarse hit.

The correlation with the template is a separable Gaussian pass; the patch
sum and sum of squares are box sums made of block-wise running sums
(cumsum).  Each partial sum covers at most 2 radius + 1 samples along an
axis, so on maps of 8-bit integers every partial sum is an integer below
2^53 and the box sums are exact, bit-identical to a direct sum in any
order.  On other float maps the rounding matches that of a direct
(2 radius + 1)-term sum.

A patch is flat when s2 - s1^2 / n is at most max(VARIANCE_FLOOR, 1e-10 s2):
on float maps the rounding noise of that difference grows with brightness.
On 8-bit maps it is exactly 0 or at least (n - 1) / n, so the relative
floor changes nothing there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .harris import gaussian_window, separable_window_sum

# Patch variance below this is treated as flat and excluded from matching.
VARIANCE_FLOOR = 1e-6


@dataclass(frozen=True)
class OdParams:
    template_radius: int = 40
    search_stride: int = 4
    margin: int = 40

    def __post_init__(self):
        for name in ("template_radius", "search_stride", "margin"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.template_radius < 4:
            raise ValueError("template_radius must be at least 4")
        if self.search_stride < 1:
            raise ValueError("search_stride must be at least 1")
        if self.margin < self.template_radius:
            raise ValueError("margin must be at least template_radius")


@dataclass(frozen=True)
class OdCenter:
    x: float
    y: float
    score: float
    source: str  # "detected" or "manual"

    def __post_init__(self):
        if self.source not in ("detected", "manual"):
            raise ValueError(f"unknown od source {self.source!r}")


def disc_template(radius: int) -> np.ndarray:
    """Bright-blob template exp(-(u^2+v^2) / (2 (radius/2)^2)) on a
    (2 radius + 1) square."""
    g = gaussian_window(radius / 2.0, radius)
    return np.outer(g, g)


def correlation_surface(intensity: np.ndarray, template_radius: int) -> np.ndarray:
    """Zero-mean normalised cross-correlation of the bright-disc template
    against every pixel-centred patch.  Scores are clamped to [-1, 1]; flat
    patches (see the module docstring) are NaN.  Only centres at least
    template_radius away from every border carry meaningful values."""
    m = np.asarray(intensity, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("intensity map must be 2-D")
    template = disc_template(template_radius)
    t_mean = template.mean()
    t_var_sum = float(((template - t_mean) ** 2).sum())
    n = template.size

    corr_t = separable_window_sum(m, gaussian_window(template_radius / 2.0, template_radius))
    s1 = _box_sum(m, template_radius)
    s2 = _box_sum(m * m, template_radius)

    numerator = corr_t - t_mean * s1
    var_sum = s2 - (s1 * s1) / n
    surface = np.full(m.shape, np.nan)
    valid = var_sum > np.maximum(VARIANCE_FLOOR, 1e-10 * s2)
    surface[valid] = numerator[valid] / np.sqrt(var_sum[valid] * t_var_sum)
    np.clip(surface, -1.0, 1.0, out=surface)
    return surface


def _box_sum(arr: np.ndarray, radius: int) -> np.ndarray:
    """Sum over the (2 radius + 1)-square around each pixel, edges
    replicated, as a sliding sum down the columns and then along the rows."""
    k = 2 * radius + 1
    return _sliding_sum(_sliding_sum(np.pad(arr, radius, mode="edge"), k).T, k).T


def _sliding_sum(arr: np.ndarray, k: int) -> np.ndarray:
    """Sums of every k consecutive rows.

    The rows are cut into blocks of k.  The window starting at row i is the
    running sum from i to the end of its block plus the running sum of the
    next block up to row i + k - 1, so every partial sum covers at most k
    rows: exact for integer samples, and as accurate as a direct k-term
    sum otherwise, where a whole-map integral image would lose flat patches
    to cancellation.
    """
    n = arr.shape[0]
    blocks = -(-n // k)
    prefix = np.zeros((blocks * k,) + arr.shape[1:])
    prefix[:n] = arr
    suffix = np.empty_like(prefix)
    p3 = prefix.reshape((blocks, k) + arr.shape[1:])
    np.cumsum(p3[:, ::-1], axis=1, out=suffix.reshape(p3.shape)[:, ::-1])
    np.cumsum(p3, axis=1, out=p3)
    p3[:, -1] = 0.0  # a window starting on a block edge is its block's suffix alone
    m = n - k + 1
    return suffix[:m] + prefix[k - 1:k - 1 + m]


def _argmax_lex(surface: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> tuple[int, int] | None:
    """Highest-scoring (y, x) over the candidate grid; ties and equal maxima
    resolve to the smallest (y, x).  None when every candidate is flat."""
    sub = surface[np.ix_(ys, xs)]
    if np.all(np.isnan(sub)):
        return None
    flat = int(np.nanargmax(sub))
    iy, ix = divmod(flat, sub.shape[1])
    return int(ys[iy]), int(xs[ix])


def locate_od(intensity: np.ndarray, params: OdParams | None = None) -> OdCenter:
    """Coarse-to-fine template search for the optic-disc centre.

    Raises ValueError when the map is too small for the margin or when no
    candidate patch has contrast (e.g. an all-constant map).
    """
    params = params or OdParams()
    m = np.asarray(intensity, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("intensity map must be 2-D")
    h, w = m.shape
    if w <= 2 * params.margin or h <= 2 * params.margin:
        raise ValueError("map too small for optic-disc search")
    surface = correlation_surface(m, params.template_radius)

    lo = params.margin
    x_hi = w - params.margin  # exclusive
    y_hi = h - params.margin
    coarse = _argmax_lex(
        surface,
        np.arange(lo, y_hi, params.search_stride),
        np.arange(lo, x_hi, params.search_stride),
    )
    if coarse is None:
        raise ValueError("no od contrast")
    by, bx = coarse
    s = params.search_stride
    refined = _argmax_lex(
        surface,
        np.arange(max(by - s, lo), min(by + s, y_hi - 1) + 1),
        np.arange(max(bx - s, lo), min(bx + s, x_hi - 1) + 1),
    )
    ry, rx = refined  # box contains the valid coarse best, never None
    return OdCenter(x=float(rx), y=float(ry), score=float(surface[ry, rx]), source="detected")


def manual_od(x: float, y: float, intensity: np.ndarray) -> OdCenter:
    """Operator-supplied centre; bypasses detection."""
    m = np.asarray(intensity)
    if m.ndim != 2:
        raise ValueError("intensity map must be 2-D")
    h, w = m.shape
    if not (0 <= x <= w - 1 and 0 <= y <= h - 1):
        raise ValueError(f"manual od centre ({x}, {y}) outside the map")
    return OdCenter(x=float(x), y=float(y), score=1.0, source="manual")


def od_from_sidecar(image_path, intensity: np.ndarray) -> OdCenter | None:
    """Honour an operator-placed `<image>.od` sidecar holding `x y` on one
    line; returns None when the sidecar is absent."""
    sidecar = Path(str(image_path) + ".od")
    if not sidecar.exists():
        return None
    tokens = sidecar.read_text(encoding="utf-8").split()
    if len(tokens) < 2:
        raise ValueError(f"{sidecar}: expected 'x y'")
    return manual_od(float(tokens[0]), float(tokens[1]), intensity)


def resolve_od(intensity: np.ndarray, image_path, params: OdParams | None = None,
               manual: tuple[float, float] | None = None) -> OdCenter:
    """The optic-disc centre of one image: the `manual` (x, y) when given,
    else the image's `.od` sidecar, else detection with `params`."""
    if manual is not None:
        return manual_od(*manual, intensity)
    return od_from_sidecar(image_path, intensity) or locate_od(intensity, params)
