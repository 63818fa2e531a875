"""Reference implementations used as test oracles.

Everything here is deliberately naive (double loops, closed forms, direct
formulas) and independent of the production code paths it checks.  The
evaluation oracles score every probe against every record with the exact
kernel (`identify`, itself checked against the double loop), as the rotation
protocol and the FAR/FRR sweep did before they screened by FFT.  load_fundus
gives tests the benchmark's seeded DRIVE-size image generator, and
special_file and run_cli_limited the untrusted files that are not regular
(a FIFO, a device) and a CLI run that survives one.
"""

from __future__ import annotations

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import retina_id
from retina_id.evaluation import sample_angle
from retina_id.matcher import identify, total_si

FUNDUS = Path(__file__).resolve().parent.parent / "perfbench" / "fundus.py"
SPECIAL_FILES = ["fifo", "/dev/zero symlink"]


def load_fundus():
    """perfbench/fundus.py, the benchmark's seeded DRIVE-size image generator."""
    if "perfbench_fundus" not in sys.modules:
        spec = importlib.util.spec_from_file_location("perfbench_fundus", FUNDUS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules["perfbench_fundus"]


def special_file(path: Path, kind: str) -> None:
    """Make `path` one of SPECIAL_FILES: a FIFO or a symlink to /dev/zero."""
    if kind == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("no os.mkfifo")
        os.mkfifo(path)
    else:
        if not Path("/dev/zero").exists():
            pytest.skip("no /dev/zero")
        path.symlink_to("/dev/zero")


def run_cli_limited(*argv):
    """`retina-id *argv` in a child with a time limit and an address-space
    limit, for an input that would block a read or never end one: a
    regression fails in seconds instead of hanging or taking the host's
    memory."""
    child = ("import resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
             "from retina_id import cli\n"
             "sys.exit(cli.main(sys.argv[1:]))\n")
    src = str(Path(retina_id.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", child, *map(str, argv)], capture_output=True,
                          text=True, env=env, timeout=20)


def rotate_nearest(m: np.ndarray, center: tuple[float, float], angle_deg: float) -> np.ndarray:
    """Nearest-neighbour rotation under the package convention: content
    turns counter-clockwise in the y-negated plane.  Out-of-bounds reads 0."""
    m = np.asarray(m, dtype=np.float64)
    h, w = m.shape
    cx, cy = center
    a = math.radians(angle_deg)
    out = np.zeros_like(m)
    for y in range(h):
        for x in range(w):
            dx = x - cx
            dy = y - cy
            sx = cx + dx * math.cos(a) - dy * math.sin(a)
            sy = cy + dx * math.sin(a) + dy * math.cos(a)
            xi = int(round(sx))
            yi = int(round(sy))
            if 0 <= xi < w and 0 <= yi < h:
                out[y, x] = m[yi, xi]
    return out


def window_correlate_brute(arr: np.ndarray, sigma: float, radius: int) -> np.ndarray:
    """Direct double-loop correlation with the unnormalised Gaussian window
    exp(-(u^2+v^2)/(2 sigma^2)), edges replicated."""
    arr = np.asarray(arr, dtype=np.float64)
    h, w = arr.shape
    out = np.zeros_like(arr)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for v in range(-radius, radius + 1):
                for u in range(-radius, radius + 1):
                    yy = min(max(y + v, 0), h - 1)
                    xx = min(max(x + u, 0), w - 1)
                    weight = math.exp(-(u * u + v * v) / (2.0 * sigma * sigma))
                    acc += weight * arr[yy, xx]
            out[y, x] = acc
    return out


def separable_window_sum(arr: np.ndarray, profile: np.ndarray) -> np.ndarray:
    """Correlate a 2-D array with the outer product of a 1-D profile over the
    whole array, replicating edges: a full horizontal then vertical pass,
    taps in profile order.  harris.gaussian_pass must match it bit for bit
    at whatever cells it is asked for."""
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


def detect_corners_full(m: np.ndarray, params=None):
    """Corner detection over the whole map: gradients, the whole-map
    structure tensor from separable_window_sum, the response and
    non-maximum suppression.  harris.detect_corners asked for a box must
    return exactly these corners that lie in it, in this order."""
    from retina_id.harris import (
        HarrisParams, StructureTensorField, gaussian_window, gradients, local_maxima, response)

    params = params or HarrisParams()
    gx, gy = gradients(m)
    profile = gaussian_window(params.sigma, params.window_radius)
    field = StructureTensorField(
        a=separable_window_sum(gx * gx, profile),
        b=separable_window_sum(gy * gy, profile),
        c=separable_window_sum(gx * gy, profile),
    )
    return local_maxima(response(field, params.k), params)


def eigen_response(a: np.ndarray, b: np.ndarray, c: np.ndarray, k: float) -> np.ndarray:
    """Corner response from the closed-form eigenvalues of the 2x2 tensor
    [[a, c], [c, b]]: alpha*beta - k*(alpha+beta)^2."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    half_tr = (a + b) / 2.0
    disc = np.sqrt(((a - b) / 2.0) ** 2 + c * c)
    alpha = half_tr + disc
    beta = half_tr - disc
    return alpha * beta - k * (alpha + beta) ** 2


def zncc_surface_brute(m: np.ndarray, radius: int, variance_floor: float = 1e-6) -> np.ndarray:
    """Exhaustive zero-mean normalised cross-correlation of the Gaussian
    bright-disc template at every fully interior centre; NaN elsewhere and
    at flat patches."""
    m = np.asarray(m, dtype=np.float64)
    h, w = m.shape
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    uu, vv = np.meshgrid(t, t)
    template = np.exp(-(uu * uu + vv * vv) / (2.0 * (radius / 2.0) ** 2))
    t0 = template - template.mean()
    t_norm = math.sqrt(float((t0 * t0).sum()))
    out = np.full((h, w), np.nan)
    for y in range(radius, h - radius):
        for x in range(radius, w - radius):
            patch = m[y - radius:y + radius + 1, x - radius:x + radius + 1]
            p0 = patch - patch.mean()
            var_sum = float((p0 * p0).sum())
            if var_sum <= variance_floor:
                continue
            score = float((p0 * t0).sum()) / (math.sqrt(var_sum) * t_norm)
            out[y, x] = min(1.0, max(-1.0, score))
    return out


def paint_pulses_brute(polar_corners) -> np.ndarray:
    """Slot painting by explicit claim simulation: order claims by the
    painting rule, then walk each pulse and take only unclaimed slots."""
    durations = {1: 2, 2: 3, 3: 4}

    def distance_class(d):
        if d < 25.0:
            return 1
        if d < 50.0:
            return 2
        if d < 80.0:
            return 3
        raise ValueError("beyond gate")

    vectors = np.zeros((3, 360))
    claimed = [set(), set(), set()]
    order = sorted(polar_corners, key=lambda p: (-p.response, p.orientation, p.distance))
    for pc in order:
        cls = distance_class(pc.distance)
        start = math.floor(pc.orientation)
        amp = pc.orientation if pc.orientation > 0.0 else 360.0
        for i in range(durations[cls]):
            slot = (start + i) % 360
            if slot not in claimed[cls - 1]:
                claimed[cls - 1].add(slot)
                vectors[cls - 1][slot] = amp
    return vectors


def shift_remap(vectors: np.ndarray, delta_deg: float) -> np.ndarray:
    """How an encoded template transforms when its constellation rotates by
    an integer number of degrees: slots shift circularly by delta and every
    occupied amplitude advances by delta modulo 360, with the 0 alias stored
    as 360."""
    delta = int(delta_deg)
    out = np.zeros_like(np.asarray(vectors, dtype=np.float64))
    for cls in range(out.shape[0]):
        for slot in range(360):
            amp = vectors[cls][slot]
            if amp == 0.0:
                continue
            new_amp = (amp + delta) % 360.0
            if new_amp == 0.0:
                new_amp = 360.0
            out[cls][(slot + delta) % 360] = new_amp
    return out


def sim_profile_brute(vin, vout) -> np.ndarray:
    """Plain double loop over (shift, slot) with 1-based cyclic indices.

    Gated terms: a slot pair contributes only when the slot product is
    positive.  Index j of the result holds shift phi = j + 1.
    """
    vin = list(vin)
    vout = list(vout)
    profile = np.zeros(360)
    for phi in range(1, 361):
        acc = 0.0
        for tau in range(1, 361):
            a = vin[tau - 1]
            b = vout[(tau + phi - 1) % 360]
            if a * b > 0.0:
                acc += math.cos(2.0 * ((a - b) * math.pi / 180.0))
        profile[phi - 1] = acc
    return profile


def local_maxima_brute(r: np.ndarray, threshold: float, nms_radius: int, border_margin: int):
    """Per-pixel non-maximum suppression over the clamped Chebyshev window:
    a candidate survives when no neighbour is larger and no equal neighbour
    has a smaller (y, x).  Returns (x, y, response) sorted by descending
    response, then ascending (y, x)."""
    r = np.asarray(r, dtype=np.float64)
    h, w = r.shape
    bm = border_margin
    nr = nms_radius
    found = []
    if h <= 2 * bm or w <= 2 * bm:
        return found
    interior = r[bm:h - bm, bm:w - bm]
    for iy, ix in np.argwhere(interior >= threshold):
        y = int(iy) + bm
        x = int(ix) + bm
        v = r[y, x]
        y0 = max(y - nr, 0)
        x0 = max(x - nr, 0)
        window = r[y0:min(y + nr + 1, h), x0:min(x + nr + 1, w)]
        if (window > v).any():
            continue
        if any((int(ty) + y0, int(tx) + x0) < (y, x) for ty, tx in np.argwhere(window == v)):
            continue
        found.append((x, y, float(v)))
    found.sort(key=lambda c: (-c[2], c[1], c[0]))
    return found


def od_surface_full(m: np.ndarray, radius: int) -> np.ndarray:
    """The optic-disc correlation surface over the whole map, in the
    whole-map form: one full separable Gaussian pass (horizontal, then
    vertical, taps in order) and full block-wise box sums.
    optic_disc.correlation_surface must match it cell for cell, bit for
    bit, at whatever cells it is asked for."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("intensity map must be 2-D")
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    sigma = radius / 2.0
    g = np.exp(-(t * t) / (2.0 * sigma * sigma))
    template = np.outer(g, g)
    t_mean = template.mean()
    t_var_sum = float(((template - t_mean) ** 2).sum())
    h, w = m.shape
    padded = np.pad(m, radius, mode="edge")
    rows = np.zeros((h + 2 * radius, w), dtype=np.float64)
    for k in range(g.size):
        rows += g[k] * padded[:, k:k + w]
    corr_t = np.zeros((h, w), dtype=np.float64)
    for k in range(g.size):
        corr_t += g[k] * rows[k:k + h, :]
    s1 = _box_sum_full(m, radius)
    s2 = _box_sum_full(m * m, radius)
    numerator = corr_t - t_mean * s1
    var_sum = s2 - (s1 * s1) / template.size
    surface = np.full(m.shape, np.nan)
    valid = var_sum > np.maximum(1e-6, 1e-10 * s2)
    surface[valid] = numerator[valid] / np.sqrt(var_sum[valid] * t_var_sum)
    np.clip(surface, -1.0, 1.0, out=surface)
    return surface


def _box_sum_full(arr: np.ndarray, radius: int) -> np.ndarray:
    """Sum over the (2 radius + 1)-square around each pixel, edges
    replicated: a sliding sum down the columns, then along the rows."""
    k = 2 * radius + 1
    return _sliding_sum_full(_sliding_sum_full(np.pad(arr, radius, mode="edge"), k).T, k).T


def _sliding_sum_full(arr: np.ndarray, k: int) -> np.ndarray:
    """Sums of every k consecutive rows, each the running sum from its first
    row to the end of its block of k plus the next block's running sum up
    to its last row (blocks cut from row 0)."""
    n = arr.shape[0]
    blocks = -(-n // k)
    prefix = np.zeros((blocks * k,) + arr.shape[1:])
    prefix[:n] = arr
    suffix = np.empty_like(prefix)
    p3 = prefix.reshape((blocks, k) + arr.shape[1:])
    np.cumsum(p3[:, ::-1], axis=1, out=suffix.reshape(p3.shape)[:, ::-1])
    np.cumsum(p3, axis=1, out=p3)
    p3[:, -1] = 0.0
    m = n - k + 1
    return suffix[:m] + prefix[k - 1:k - 1 + m]


def locate_od_full(m: np.ndarray, params):
    """Coarse-to-fine optic-disc search read off the whole-map surface: the
    best stride-grid cell inside the margins, then the best cell of the
    (2 stride + 1) box around it, ties to the smallest (y, x).  Returns an
    optic_disc.OdCenter."""
    from retina_id.optic_disc import OdCenter

    m = np.asarray(m, dtype=np.float64)
    h, w = m.shape
    if w <= 2 * params.margin or h <= 2 * params.margin:
        raise ValueError("map too small for optic-disc search")
    surface = od_surface_full(m, params.template_radius)
    lo, s = params.margin, params.search_stride
    y_hi, x_hi = h - lo, w - lo

    def best(ys, xs):
        sub = surface[np.ix_(ys, xs)]
        if np.all(np.isnan(sub)):
            return None
        iy, ix = divmod(int(np.nanargmax(sub)), sub.shape[1])
        return int(ys[iy]), int(xs[ix])

    coarse = best(np.arange(lo, y_hi, s), np.arange(lo, x_hi, s))
    if coarse is None:
        raise ValueError("no od contrast")
    by, bx = coarse
    ry, rx = best(np.arange(max(by - s, lo), min(by + s, y_hi - 1) + 1),
                  np.arange(max(bx - s, lo), min(bx + s, x_hi - 1) + 1))
    return OdCenter(x=float(rx), y=float(ry), score=float(surface[ry, rx]), source="detected")


def rotation_counts_exact(records, probe_fn, spec, counts, weights):
    """(hits, misidentified, hits_normalized) per count, each probe ranked
    by one identify call over the whole gallery.  Probes come from the seed
    tree leaves [rng_seed, 1, count, subject, trial]; the normalised rank-1
    is the largest total / self total (0 when the self total is not
    positive), ties by subject id."""
    self_totals = {rec.subject_id: total_si(rec.template, rec.template, weights).total
                   for rec in records}

    def normalized_key(item):
        sid, ms = item
        st = self_totals[sid]
        return (-(ms.total / st) if st > 0 else 0.0, sid)

    out = []
    for count in counts:
        hits = 0
        hits_norm = 0
        missed = []
        for subject, rec in enumerate(records):
            for trial in range(count):
                rng = np.random.default_rng(
                    np.random.SeedSequence([spec.rng_seed, 1, count, subject, trial]))
                angle = sample_angle(spec, rng)
                ranked = identify(probe_fn(subject, angle, rng), records, weights)
                if ranked[0][0] == rec.subject_id:
                    hits += 1
                else:
                    missed.append((rec.subject_id, angle))
                if min(ranked, key=normalized_key)[0] == rec.subject_id:
                    hits_norm += 1
        out.append((hits, tuple(missed), hits_norm))
    return out


def far_frr_sweep_exact(records, probes, thresholds, weights):
    """(threshold, far_pct, frr_pct) rows from one identify call per probe
    over the whole gallery."""
    genuine = []
    impostor = []
    for sid, template in probes:
        for rid, score in identify(template, records, weights):
            (genuine if rid == sid else impostor).append(score.total)
    gen = np.array(genuine, dtype=np.float64)
    imp = np.array(impostor, dtype=np.float64)
    rows = []
    for t in thresholds:
        t = float(t)
        far = 100.0 * float(np.count_nonzero(imp >= t)) / imp.size if imp.size else 0.0
        frr = 100.0 * float(np.count_nonzero(gen < t)) / gen.size if gen.size else 0.0
        rows.append((t, far, frr))
    return rows
