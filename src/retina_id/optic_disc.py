"""Optic-disc localisation.

The disc shows up as the brightest roughly circular region of a fundus
image.  A radially symmetric Gaussian bright-blob template matched with
zero-mean normalised cross-correlation finds it; the normalisation makes
the score invariant to affine intensity changes.  A coarse stride grid is
searched first, then refined at stride 1 around the best coarse hit.

Exact surface.  correlation_surface evaluates the surface only at the
requested cells, with the same arithmetic per cell as on the whole map.
The correlation with the template is a separable Gaussian pass
(harris.gaussian_pass) over the columns, then the rows, that those cells
read.  The patch sum and sum of squares are box sums made of block-wise
running sums (cumsum) over the blocks of 2 radius + 1 rows, at fixed
boundaries, that hold those cells' windows.  Each partial sum covers at
most 2 radius + 1 samples along an axis, so on maps of 8-bit integers
every partial sum is an integer below 2^53 and the box sums are exact,
bit-identical to a direct sum in any order.  On other float maps the
rounding matches that of a direct (2 radius + 1)-term sum, whatever cells
are requested.

A patch is flat when s2 - s1^2 / n is at most max(VARIANCE_FLOOR, 1e-10 s2):
on float maps the rounding noise of that difference grows with brightness.
On 8-bit maps it is exactly 0 or at least (n - 1) / n, so the relative
floor changes nothing there.

Grid screen.  locate_od does not evaluate the whole stride grid exactly.
grid_screen computes the grid's correlation c, patch sum s1 and sum of
squares s2 as banded matrix products through numpy's matmul (BLAS): a
horizontal, then a vertical band of the Gaussian profile, and bands of
ones.  From them it derives, per cell, an interval [lo, hi] that holds the
cell's exact score.  A cell is a candidate when it is not surely flat and
its hi reaches the best lo of the surely valid cells.  Every other cell is
surely flat or surely below the exact score of the cell holding that best
lo, so the coarse cell, its ties included, is a candidate.  A lone
candidate that is surely valid is the coarse cell.  Otherwise the
candidates are re-scored with correlation_surface, in one call over their
sub-grid at the grid's stride, and the coarse cell is the best of those
exact scores.  correlation_surface stays the exact kernel, for the
re-score and for the refinement box.

The bound.  Write u = 2^-53 and gamma(N) = N u / (1 - N u).  A matrix
product computes each entry as a dot product, and a dot product of
length N in floating point is within gamma(N) sum |w| |a| of the real
one, whatever the summation order, the use of FMA, the blocking or the
number of BLAS threads (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., sections 3.1 and 3.5).  The screen's products have
inner lengths at most H and W, the rows and columns of the map the
grid's windows read.  With N = H + W, each of c, s1 and s2 is therefore
within gamma(N) T of its real-arithmetic value, where T is the same sum
taken over |map|, i.e. sum |w| |a|.  The exact kernel sums at most
2 radius + 1 terms per axis, 2 (2 radius + 1) <= N in all, so it too is
within gamma(N) T of that value, and the two differ by at most
2 gamma(N) T.  T is computed by the same products (on maps with no
negative sample it is the screened sum itself, and s2 sums squares), so
the computed T' is within gamma(N) T of T.  Each screened sum is widened
by e = 4 gamma(N) T' + N^2 2^-1074.  The factor 4 covers
2 gamma(N) / (1 - gamma(N)) and the rounding of the widened ends.  The
last term covers gradual underflow: at most half the smallest subnormal
per rounding, and fewer than N^2 / 2 roundings reach one entry on either
side.  The dot-product bound also needs no overflow, so a cell is covered
only when its s2 is at most SCREEN_LIMIT.  Then no exact intermediate
below can overflow.

The rest of the exact arithmetic is the numerator c - t_mean s1, the
variance s2 - s1^2 / n, the flatness threshold, the square root, the
division and the clip.  Each step is monotone in each input on the
intervals involved, and rounding to nearest is monotone.  So the same
expressions, evaluated on the interval ends, bound the exact kernel's
results with no further slack.  A cell is surely flat when its largest
variance is at most its smallest threshold, and surely valid when its
smallest variance exceeds its largest threshold.  A surely valid cell's
exact score lies in the quotient interval of its numerator and
denominator intervals, clipped.  The screen does not place cells that are
neither surely flat nor surely valid, cells with a non-finite screened
value, or cells the bound does not cover: their interval is
[-inf, inf], so they are candidates.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .harris import gaussian_pass, gaussian_window, is_finite
from .imaging import read_input

# Patch variance below this is treated as flat and excluded from matching.
VARIANCE_FLOOR = 1e-6
# The grid screen's bound covers a cell only when its s2 is at most this.
# Every exact intermediate, s1^2 and var_sum * t_var_sum the largest, is
# then about n SCREEN_LIMIT at most, far from overflow for any n a map can have.
SCREEN_LIMIT = 2.0 ** 900
# Grid cells per banded matrix product of the screen.
_BAND_CELLS = 32


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


def _template_moments(radius: int) -> tuple[np.ndarray, float, float, int]:
    """The template's 1-D profile, mean, sum of squared deviations and size."""
    template = disc_template(radius)
    t_mean = template.mean()
    return (gaussian_window(radius / 2.0, radius), t_mean,
            float(((template - t_mean) ** 2).sum()), template.size)


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
    # Cell (y, x) is the window padded[y:y + k, x:x + k] of the map edge-padded
    # by r.  Take the windows read, from a multiple of k, so _sliding_sum's
    # blocks keep their edges.
    y0, x0 = ys[0] // k * k, xs[0] // k * k
    region = _edge_padded(m, r, range(y0, ys[-1] + k), range(x0, xs[-1] + k))
    ys = range(ys.start - y0, ys.stop - y0, ys.step)
    xs = range(xs.start - x0, xs.stop - x0, xs.step)
    profile, t_mean, t_var_sum, n = _template_moments(r)

    corr_t = gaussian_pass(region, profile, ys, xs)
    # Patch sums of the samples and of their squares: a sliding sum down
    # the columns, then along the rows.
    s1, s2 = (_sliding_sum(_sliding_sum(a, k, ys).T, k, xs).T for a in (region, region * region))

    numerator = corr_t - t_mean * s1
    var_sum = s2 - (s1 * s1) / n
    surface = np.full(var_sum.shape, np.nan)
    valid = var_sum > np.maximum(VARIANCE_FLOOR, 1e-10 * s2)
    surface[valid] = numerator[valid] / np.sqrt(var_sum[valid] * t_var_sum)
    np.clip(surface, -1.0, 1.0, out=surface)
    return surface


def _edge_padded(m: np.ndarray, pad: int, rows: range, cols: range) -> np.ndarray:
    """np.pad(m, pad, mode="edge")[rows, cols] for unit-step ranges that
    overlap the map, padding only the part of the map they read."""
    (h, w), (y0, y1), (x0, x1) = m.shape, (rows.start, rows.stop), (cols.start, cols.stop)
    inner = m[max(y0 - pad, 0):min(y1 - pad, h), max(x0 - pad, 0):min(x1 - pad, w)]
    return np.pad(inner, ((max(pad - y0, 0), max(y1 - pad - h, 0)),
                          (max(pad - x0, 0), max(x1 - pad - w, 0))), mode="edge")


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


def _band_sums(x: np.ndarray, profiles: tuple[np.ndarray, ...], step: int, count: int) -> np.ndarray:
    """For each profile p (all of one length k), the (rows of x, count)
    array whose column i is sum_t p[t] x[:, i step + t].  These are matrix
    products of x's columns with a band holding the profiles, _BAND_CELLS
    cells at a time, so that most of the band's zeros are skipped."""
    k, c = profiles[0].size, min(count, _BAND_CELLS)
    span = (c - 1) * step + k
    cols = np.arange(len(profiles) * c)
    band = np.zeros((span, cols.size))
    band[cols % c * step + np.arange(k)[:, None], cols] = np.repeat(np.stack(profiles), c, axis=0).T
    out = np.empty((len(profiles), x.shape[0], count))
    for i in [*range(0, count - c, c), count - c]:
        part = x[:, i * step:i * step + span] @ band
        out[:, :, i:i + c] = part.reshape(x.shape[0], len(profiles), c).transpose(1, 0, 2)
    return out


@np.errstate(all="ignore")  # overflow and NaN only leave cells unplaced
def grid_screen(intensity: np.ndarray, template_radius: int,
                rows: slice, cols: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lo, hi, flat) over the cells [rows, cols], whose windows must lie
    inside the map: each cell not flat has its correlation_surface score in
    [lo, hi], and each flat cell is surely flat (NaN there).  Cells the
    screen cannot place have lo = -inf, hi = inf and flat False (see the
    module docstring)."""
    m = np.asarray(intensity, dtype=np.float64)
    ys, xs = range(m.shape[0])[rows], range(m.shape[1])[cols]
    r = template_radius
    if not (ys and xs and ys.step > 0 and xs.step > 0 and ys[0] >= r and xs[0] >= r
            and ys[-1] + r < m.shape[0] and xs[-1] + r < m.shape[1]):
        raise ValueError("the grid's windows must lie inside the map")
    a = m[ys[0] - r:ys[-1] + r + 1, xs[0] - r:xs[-1] + r + 1]
    profile, t_mean, t_var_sum, n = _template_moments(r)
    ones = np.ones_like(profile)

    def grid_sums(x, profiles):
        """Each profile's separable window sums of x at the grid cells."""
        across = _band_sums(x, profiles, xs.step, len(xs))
        return [_band_sums(h.T, (p,), ys.step, len(ys))[0].T for h, p in zip(across, profiles)]

    corr, s1 = grid_sums(a, (profile, ones))
    s2, = grid_sums(a * a, (ones,))
    # T' of each sum: the same products over |a|, or the sums themselves
    t_corr, t_s1 = (corr, s1) if a.min() >= 0 else grid_sums(np.abs(a), (profile, ones))
    big_n = a.shape[0] + a.shape[1]
    gamma = big_n * 2.0 ** -53 / (1 - big_n * 2.0 ** -53)
    floor = big_n * big_n * np.finfo(np.float64).smallest_subnormal

    def widened(v, t):
        e = 4 * gamma * t + floor
        return v - e, v + e

    (c_lo, c_hi), (p_lo, p_hi), (q_lo, q_hi) = widened(corr, t_corr), widened(s1, t_s1), widened(s2, s2)

    # Interval ends of the exact kernel's later steps, each monotone.
    abs_lo = np.where((p_lo <= 0) & (p_hi >= 0), 0.0, np.minimum(abs(p_lo), abs(p_hi)))
    abs_hi = np.maximum(abs(p_lo), abs(p_hi))
    num_lo, num_hi = c_lo - t_mean * p_hi, c_hi - t_mean * p_lo
    var_lo, var_hi = q_lo - (abs_hi * abs_hi) / n, q_hi - (abs_lo * abs_lo) / n
    covered = s2 <= SCREEN_LIMIT
    valid = covered & (var_lo > np.maximum(VARIANCE_FLOOR, 1e-10 * q_hi))
    flat = covered & (var_hi <= np.maximum(VARIANCE_FLOOR, 1e-10 * q_lo))
    den_lo, den_hi = np.sqrt(var_lo * t_var_sum), np.sqrt(var_hi * t_var_sum)
    lo = np.clip(num_lo / np.where(num_lo >= 0, den_hi, den_lo), -1.0, 1.0)
    hi = np.clip(num_hi / np.where(num_hi >= 0, den_lo, den_hi), -1.0, 1.0)
    return np.where(valid, lo, -np.inf), np.where(valid, hi, np.inf), flat


def _coarse_cell(m: np.ndarray, r: int, rows: slice, cols: slice) -> tuple[int, int] | None:
    """The (y, x) that _argmax_lex picks on correlation_surface(m, r, rows,
    cols), None when every cell is flat, scoring exactly only the cells
    that grid_screen cannot rule out."""
    lo, hi, flat = grid_screen(m, r, rows, cols)
    best = lo.max()
    candidates = ~flat & (hi >= best)
    iy, ix = np.nonzero(candidates)
    ys, xs = range(m.shape[0])[rows], range(m.shape[1])[cols]
    if iy.size == 1 and best > -np.inf:
        return ys[iy[0]], xs[ix[0]]  # the surely valid cell of the best lo; no other reaches it
    if iy.size == 0:
        return None
    box = slice(iy.min(), iy.max() + 1), slice(ix.min(), ix.max() + 1)
    sub = tuple(slice(c[b].start, c[b].stop, c[b].step) for c, b in zip((ys, xs), box))
    exact = correlation_surface(m, r, *sub)
    exact[~candidates[box]] = np.nan
    found = _argmax_lex(exact, *sub)
    return None if found is None else found[:2]


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
    coarse = _coarse_cell(m, r, *grid)
    if coarse is None:
        raise ValueError("no od contrast")
    by, bx = coarse
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
    """Honour an `<image>.od` sidecar of exactly the two tokens `x y`, read by
    imaging.read_input; None when absent.  Every ValueError names it."""
    sidecar = f"{image_path}.od"
    try:
        tokens = read_input(sidecar).decode("utf-8").split()
        if len(tokens) != 2:
            raise ValueError("expected 'x y'")
        return manual_od(float(tokens[0]), float(tokens[1]), intensity)
    except FileNotFoundError:
        return None
    except ValueError as exc:
        raise ValueError(f"{sidecar}: {exc}") from exc


def resolve_od(intensity: np.ndarray, image_path, params: OdParams | None = None,
               manual: tuple[float, float] | None = None) -> OdCenter:
    """The optic-disc centre of one image: the `manual` (x, y) when given,
    else the image's `.od` sidecar, else detection with `params`."""
    if manual is not None:
        return manual_od(*manual, intensity)
    return od_from_sidecar(image_path, intensity) or locate_od(intensity, params)
