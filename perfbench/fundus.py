"""Seeded synthetic fundus images at the DRIVE size (565 x 584).

An image is a smooth background with a vignette, a bright Gaussian optic
disc, a branching tree of dark vessels grown outward from the disc, and
pixel noise.  Two regimes set how much work the corner detector gets:

* sparse: low vessel contrast and faint noise, so only vessel bends and
  branch points pass the detector threshold (hundreds of candidates);
* dense: higher vessel contrast plus a grainy choroid-like texture, so tens
  of thousands of pixels pass the threshold.

The texture fades out inside TEXTURE_CLEAR px of the disc centre.  Corners
there feed the template, and a ring holds at most 360 slots, so texture
corners inside the 80 px gate would fill every ring and make all subjects
look alike; outside the gate they cost detector time but never reach the
template.

A subject is a noise-free scene; each capture (the enrolment image, a
rotated probe) adds its own noise and texture.  The disc centre is planted
on whole pixels at least DISC_MARGIN px from every border, so a probe
rotated about the centre keeps the centre in place and a CROP_HALF crop
around it stays inside the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WIDTH = 565
HEIGHT = 584
DISC_MARGIN = 150
DISC_SIGMA = 20.0
CROP_HALF = 100
TEXTURE_CLEAR = 95.0
ROOTS = 10
STEP_PX = 8.0
ROOT_STEPS = 35
BRANCH_STEPS = 9
FORKS = 3
BRANCH_LEN = 20


@dataclass(frozen=True)
class Regime:
    name: str
    vessel_contrast: float
    noise_sigma: float
    texture_sigma: float


SPARSE = Regime("sparse", vessel_contrast=20.0, noise_sigma=1.0, texture_sigma=0.0)
DENSE = Regime("dense", vessel_contrast=35.0, noise_sigma=1.0, texture_sigma=4.0)


def _vessel_segments(rng: np.random.Generator, cx: float, cy: float) -> np.ndarray:
    """Vessel centre-line segments (x0, y0, x1, y1, width), grown as random
    walks from the disc.  Every root vessel forks FORKS times within its
    first BRANCH_STEPS steps and its branches do not fork again, so each
    eye carries a similar number of bifurcations inside the 80 px gate."""
    segments = []
    walks = []
    base = rng.uniform(0.0, 2.0 * math.pi)
    for i in range(ROOTS):
        angle = base + 2.0 * math.pi * i / ROOTS + rng.normal(0.0, 0.2)
        forks = set(rng.choice(np.arange(1, BRANCH_STEPS), size=FORKS, replace=False).tolist())
        walks.append((cx + 10.0 * math.cos(angle), cy + 10.0 * math.sin(angle), angle, 3.5, ROOT_STEPS, forks))
    while walks:
        x, y, angle, width, steps, forks = walks.pop()
        for n in range(steps):
            angle += rng.normal(0.0, 0.12)
            nx, ny = x + STEP_PX * math.cos(angle), y + STEP_PX * math.sin(angle)
            if not (0.0 <= nx < WIDTH and 0.0 <= ny < HEIGHT):
                break
            segments.append((x, y, nx, ny, width))
            x, y = nx, ny
            if n in forks:
                side = 1.0 if rng.random() < 0.5 else -1.0
                walks.append((x, y, angle + side * rng.uniform(0.8, 1.3), width * 0.75, BRANCH_LEN, set()))
                angle -= side * rng.uniform(0.1, 0.3)
    return np.array(segments)


def _vessel_depth(segments: np.ndarray, contrast: float) -> np.ndarray:
    """Darkening map: per pixel the strongest Gaussian cross-section profile
    of any segment, evaluated in a fixed window around each segment."""
    half = int(math.ceil(STEP_PX / 2 + 2.5 * 3.5))
    offs = np.arange(-half, half + 1)
    x0, y0, x1, y1, width = (segments[:, k, None, None] for k in range(5))
    xs = np.rint((x0 + x1) / 2).astype(np.int64) + offs[None, None, :]
    ys = np.rint((y0 + y1) / 2).astype(np.int64) + offs[None, :, None]
    dx, dy = x1 - x0, y1 - y0
    t = np.clip(((xs - x0) * dx + (ys - y0) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
    ex = xs - (x0 + t * dx)
    ey = ys - (y0 + t * dy)
    profile = contrast * np.exp(-(ex * ex + ey * ey) / (2.0 * (width / 2.0) ** 2))
    xs, ys = np.broadcast_arrays(xs, ys)
    inside = (xs >= 0) & (xs < WIDTH) & (ys >= 0) & (ys < HEIGHT)
    depth = np.zeros((HEIGHT, WIDTH))
    np.maximum.at(depth, (ys[inside], xs[inside]), profile[inside])
    return depth


def make_scene(rng: np.random.Generator, regime: Regime) -> tuple[np.ndarray, tuple[int, int]]:
    """Draw one eye without capture noise: float intensities indexed [y, x]
    and the planted disc centre.  The draw order is fixed, so a seed fixes
    the scene."""
    cx = int(rng.integers(DISC_MARGIN, WIDTH - DISC_MARGIN + 1))
    cy = int(rng.integers(DISC_MARGIN, HEIGHT - DISC_MARGIN + 1))
    ys, xs = np.mgrid[0:HEIGHT, 0:WIDTH].astype(np.float64)
    img = 95.0 + 35.0 * np.exp(-((xs - WIDTH / 2) ** 2 + (ys - HEIGHT / 2) ** 2) / (2.0 * 260.0 ** 2))
    img += 95.0 * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * DISC_SIGMA ** 2))
    img -= _vessel_depth(_vessel_segments(rng, cx, cy), regime.vessel_contrast)
    return img, (cx, cy)


def capture(scene: np.ndarray, center: tuple[int, int], rng: np.random.Generator,
            regime: Regime) -> np.ndarray:
    """One 8-bit capture of a scene: fresh pixel noise and, in the dense
    regime, a grain texture that fades out near the disc centre."""
    img = scene + rng.normal(0.0, regime.noise_sigma, scene.shape)
    if regime.texture_sigma > 0:
        ys, xs = np.mgrid[0:HEIGHT, 0:WIDTH]
        r = np.hypot(xs - center[0], ys - center[1])
        grain = rng.normal(0.0, 1.0, scene.shape)
        # A 2x2 box blur makes grains larger than a pixel.
        grain = (grain + np.roll(grain, 1, 0) + np.roll(grain, 1, 1) + np.roll(grain, (1, 1), (0, 1))) / 2.0
        img += regime.texture_sigma * np.clip((r - TEXTURE_CLEAR) / 20.0, 0.0, 1.0) * grain
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def crop(pixels: np.ndarray, center: tuple[int, int]) -> np.ndarray:
    """The (2 CROP_HALF)-square crop whose pixel (CROP_HALF, CROP_HALF) is `center`."""
    cx, cy = center
    return pixels[cy - CROP_HALF:cy + CROP_HALF, cx - CROP_HALF:cx + CROP_HALF].copy()


def pgm_bytes(pixels: np.ndarray, ascii_p2: bool) -> bytes:
    """Encode 8-bit gray pixels as a binary P5 or an ASCII P2 file."""
    h, w = pixels.shape
    if not ascii_p2:
        return f"P5 {w} {h} 255\n".encode("ascii") + pixels.tobytes()
    rows = [" ".join(map(str, row)) for row in pixels.tolist()]
    return (f"P2\n{w} {h}\n255\n" + "\n".join(rows) + "\n").encode("ascii")
