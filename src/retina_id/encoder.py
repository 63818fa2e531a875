"""Polar feature encoding.

Corners are re-expressed as (distance, orientation) around the optic-disc
centre, bucketed into three distance classes, and painted as rectangular
pulses onto three 360-slot circular vectors (one slot per degree):

    class 1: distance in [0, 25)   pulse spans 2 slots
    class 2: distance in [25, 50)  pulse spans 3 slots
    class 3: distance in [50, 80)  pulse spans 4 slots

Corners at 80 px or further are discarded.  A pulse starts at the slot
floor(orientation) and its amplitude is the orientation itself, except that
orientation 0 is stored as amplitude 360 so that an occupied slot is always
nonzero.  Stronger corners paint first and occupied slots are never
overwritten, which makes the template a pure function of the corner
multiset.

`gated_template` is the whole image-to-template chain for one map and its
optic-disc centre: it detects corners only in the smallest pixel box that
holds the gate, then polarizes and encodes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harris import HarrisParams, detect_corners

SLOTS = 360
CLASS_UPPER_BOUNDS = (25.0, 50.0, 80.0)
GATE_RADIUS = CLASS_UPPER_BOUNDS[-1]
PULSE_DURATIONS = (2, 3, 4)


@dataclass(frozen=True)
class PolarCorner:
    distance: float
    orientation: float  # degrees in [0, 360)
    response: float

    def __post_init__(self):
        if self.distance < 0:
            raise ValueError("distance must be non-negative")
        if not 0.0 <= self.orientation < 360.0:
            raise ValueError(f"orientation {self.orientation} outside [0, 360)")


def valid_amplitudes(v: np.ndarray) -> bool:
    """True when every slot is 0 or in (0, 360]; NaN fails."""
    return bool(((v >= 0) & (v <= 360)).all())


@dataclass(frozen=True, eq=False)
class FeatureTemplate:
    """Three 360-slot amplitude vectors; 0 marks an empty slot, occupied
    slots hold values in (0, 360]."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.float64)
        if v.shape != (3, SLOTS):
            raise ValueError(f"expected vectors shaped (3, {SLOTS})")
        if not valid_amplitudes(v):
            raise ValueError("slot amplitudes must be 0 or in (0, 360]")
        object.__setattr__(self, "vectors", v)

    def nonzero_counts(self) -> tuple[int, int, int]:
        return tuple(int(np.count_nonzero(row)) for row in self.vectors)


def classify(distance: float) -> int | None:
    """Distance class 1..3, or None beyond the 80 px gate."""
    if distance < 0:
        raise ValueError("distance must be non-negative")
    for cls, bound in enumerate(CLASS_UPPER_BOUNDS, start=1):
        if distance < bound:
            return cls
    return None


def wrap_orientation(degrees: float) -> float:
    """degrees modulo 360, in [0, 360): an angle a hair below 0, which the
    modulo rounds up to 360.0, folds to 0.0."""
    theta = degrees % 360.0
    return 0.0 if theta == 360.0 else theta


def polarize(corners, od) -> list[PolarCorner]:
    """Convert pixel corners to polar coordinates about the od centre,
    dropping corners at GATE_RADIUS or further.

    Orientation is counter-clockwise from the +x axis with y pointing down,
    so a corner straight above the centre is at 90 degrees.
    """
    out = []
    for c in corners:
        dx = c.x - od.x
        dy = c.y - od.y
        dist = math.hypot(dx, dy)
        if dist >= GATE_RADIUS:
            continue
        theta = wrap_orientation(math.degrees(math.atan2(-dy, dx)))
        out.append(PolarCorner(distance=dist, orientation=theta, response=c.response))
    return out


def encode(polar_corners) -> FeatureTemplate:
    """Paint pulses into the three class vectors.

    Corners paint in descending response order (ties broken by ascending
    orientation then distance) and never overwrite an occupied slot.
    """
    vectors = np.zeros((3, SLOTS), dtype=np.float64)
    ordered = sorted(polar_corners, key=lambda p: (-p.response, p.orientation, p.distance))
    for pc in ordered:
        cls = classify(pc.distance)
        if cls is None:
            raise ValueError(f"corner at distance {pc.distance} is beyond the {GATE_RADIUS:.0f} px gate")
        row = vectors[cls - 1]
        start = int(pc.orientation)
        amplitude = pc.orientation if pc.orientation > 0.0 else 360.0
        for i in range(PULSE_DURATIONS[cls - 1]):
            slot = (start + i) % SLOTS
            if row[slot] == 0.0:
                row[slot] = amplitude
    return FeatureTemplate(vectors)


def gated_template(intensity: np.ndarray, od, params: HarrisParams | None = None) -> FeatureTemplate:
    """The template of one intensity map about the od centre.

    Corners are detected only in the smallest integer box that holds every
    pixel closer than GATE_RADIUS to od (detect_corners clips it to the
    map).  detect_corners returns exactly the whole map's corners there and
    polarize drops the rest anyway, so the template is the whole-map
    chain's, bit for bit.
    """
    def span(c):
        return slice(max(math.floor(c - GATE_RADIUS) + 1, 0), max(math.ceil(c + GATE_RADIUS), 0))

    return encode(polarize(detect_corners(intensity, params, span(od.y), span(od.x)), od))
