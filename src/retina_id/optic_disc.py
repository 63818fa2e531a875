"""Optic-disc localisation.

The disc shows up as the brightest roughly circular region of a fundus
image.  A radially symmetric Gaussian bright-blob template matched with
zero-mean normalised cross-correlation finds it; the normalisation makes
the score invariant to affine intensity changes.  A coarse stride grid is
searched first, then refined at stride 1 around the best coarse hit.
The surface is evaluated only at the requested cells (the grid, then the
box), with the same arithmetic per cell as on the whole map.

The correlation with the template is a separable Gaussian pass
(harris.gaussian_pass) over the columns, then the rows, that those cells
read.  The patch sum and sum of squares are box sums made of block-wise
running sums (cumsum) over the blocks of 2 radius + 1 rows, at fixed
boundaries, that hold those cells' windows.  Each partial sum covers at
most 2 radius + 1 samples along an axis, so on maps of 8-bit integers
every partial sum is an integer below 2^53 and the box sums are exact,
bit-identical to a direct sum in any order.  On other float maps the rounding matches that of a direct
(2 radius + 1)-term sum, whatever cells are requested.

A patch is flat when s2 - s1^2 / n is at most max(VARIANCE_FLOOR, 1e-10 s2):
on float maps the rounding noise of that difference grows with brightness.
On 8-bit maps it is exactly 0 or at least (n - 1) / n, so the relative
floor changes nothing there.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .harris import gaussian_pass, gaussian_window, is_finite

# Patch variance below this is treated as flat and excluded from matching.
VARIANCE_FLOOR = 1e-6


@dataclass(frozen=True)
class OdParams:
    template_radius: int = 40
    search_stride: int = 4
    margin: int = 40

    def __post_init__(self):
        for name in ("template_radius", "search_stride", "margin"):
            if not is_finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
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
        if not (is_finite(self.x) and is_finite(self.y)):
            raise ValueError("od centre must be finite")


def disc_template(radius: int) -> np.ndarray:
    """Bright-blob template exp(-(u^2+v^2) / (2 (radius/2)^2)) on a
    (2 radius + 1) square."""
    g = gaussian_window(radius / 2.0, radius)
    return np.outer(g, g)


def correlation_surface(intensity: np.ndarray, template_radius: int,
                        rows: slice = slice(None), cols: slice = slice(None)) -> np.ndarray:
    """Zero-mean normalised cross-correlation of the bright-disc template
    against the pixel-centred patches at surface[rows, cols], computing
    only those cells.  Scores are clamped to [-1, 1]; flat patches (see the
    module docstring) are NaN.  Only centres at least template_radius away
    from every border carry meaningful values."""
    m = np.asarray(intensity, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("intensity map must be 2-D")
    ys, xs = range(m.shape[0])[rows], range(m.shape[1])[cols]
    if not (ys and xs and ys.step > 0 and xs.step > 0):
        raise ValueError("rows and cols must select cells in increasing order")
    r = template_radius
    k = 2 * r + 1
    # Cell (y, x) is the window padded[y:y + k, x:x + k].  Crop to the windows
    # read, from a multiple of k, so _sliding_sum's blocks keep their edges.
    y0, x0 = ys[0] // k * k, xs[0] // k * k
    region = np.pad(m, r, mode="edge")[y0:ys[-1] + k, x0:xs[-1] + k]
    ys = range(ys.start - y0, ys.stop - y0, ys.step)
    xs = range(xs.start - x0, xs.stop - x0, xs.step)
    template = disc_template(r)
    t_mean = template.mean()
    t_var_sum = float(((template - t_mean) ** 2).sum())

    corr_t = gaussian_pass(region, gaussian_window(r / 2.0, r), ys, xs)
    # Patch sums of the samples and of their squares: a sliding sum down
    # the columns, then along the rows.
    s1, s2 = (_sliding_sum(_sliding_sum(a, k, ys).T, k, xs).T for a in (region, region * region))

    numerator = corr_t - t_mean * s1
    var_sum = s2 - (s1 * s1) / template.size
    surface = np.full(var_sum.shape, np.nan)
    valid = var_sum > np.maximum(VARIANCE_FLOOR, 1e-10 * s2)
    surface[valid] = numerator[valid] / np.sqrt(var_sum[valid] * t_var_sum)
    np.clip(surface, -1.0, 1.0, out=surface)
    return surface


def _taps(cells: range, shift: int) -> slice:
    """The cells' indices moved by shift, as a slice (a view, not a gather)."""
    return slice(cells.start + shift, cells.stop + shift, cells.step)


def _sliding_sum(arr: np.ndarray, k: int, starts: range) -> np.ndarray:
    """Sums of the k consecutive rows from each of starts.

    The rows are cut into blocks of k from row 0.  The window starting at
    row i is the running sum from i to the end of its block plus the
    running sum of the next block up to row i + k - 1, so every partial sum
    covers at most k rows: exact for integer samples, and as accurate as a
    direct k-term sum otherwise, where a whole-map integral image would
    lose flat patches to cancellation.  Callers may crop arr at block edges.
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
    return suffix[_taps(starts, 0)] + prefix[_taps(starts, k - 1)]


def _argmax_lex(sub: np.ndarray, rows: slice, cols: slice) -> tuple[int, int, float] | None:
    """Best (y, x, score) of sub = surface[rows, cols], ties to the smallest
    (y, x); None when every cell is flat."""
    if np.all(np.isnan(sub)):
        return None
    iy, ix = divmod(int(np.nanargmax(sub)), sub.shape[1])
    return rows.start + iy * (rows.step or 1), cols.start + ix * (cols.step or 1), float(sub[iy, ix])


def locate_od(intensity: np.ndarray, params: OdParams | None = None) -> OdCenter:
    """Coarse-to-fine template search for the optic-disc centre: the
    stride grid inside the margins, then the box around its best cell.

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
    lo, s, r = params.margin, params.search_stride, params.template_radius
    y_hi, x_hi = h - lo, w - lo  # exclusive
    grid = slice(lo, y_hi, s), slice(lo, x_hi, s)
    coarse = _argmax_lex(correlation_surface(m, r, *grid), *grid)
    if coarse is None:
        raise ValueError("no od contrast")
    by, bx, _ = coarse
    box = (slice(max(by - s, lo), min(by + s, y_hi - 1) + 1),
           slice(max(bx - s, lo), min(bx + s, x_hi - 1) + 1))
    ry, rx, score = _argmax_lex(correlation_surface(m, r, *box), *box)  # box holds a valid cell
    return OdCenter(x=float(rx), y=float(ry), score=score, source="detected")


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
    """Honour an operator-placed `<image>.od` sidecar holding exactly the two
    tokens `x y`; returns None when the sidecar is absent."""
    sidecar = Path(str(image_path) + ".od")
    if not sidecar.exists():
        return None
    tokens = sidecar.read_text(encoding="utf-8").split()
    if len(tokens) != 2:
        raise ValueError(f"{sidecar}: expected 'x y'")
    return manual_od(float(tokens[0]), float(tokens[1]), intensity)


def resolve_od(intensity: np.ndarray, image_path, params: OdParams | None = None,
               manual: tuple[float, float] | None = None) -> OdCenter:
    """The optic-disc centre of one image: the `manual` (x, y) when given,
    else the image's `.od` sidecar, else detection with `params`."""
    if manual is not None:
        return manual_od(*manual, intensity)
    return od_from_sidecar(image_path, intensity) or locate_od(intensity, params)
