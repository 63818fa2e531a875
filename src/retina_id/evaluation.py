"""Desk-scale evaluation harness.

Two probe sources are supported: seeded synthetic corner constellations,
and a directory of fundus images that are rotated about their optic-disc
centre and re-detected.  For every gallery subject the harness runs a fixed
number of randomly rotated probes per configured rotation count, records
rank-1 identification accuracy (raw and self-match-normalised), and renders
a three-column accuracy table plus a stable CSV.  A FAR/FRR sweep over
verification thresholds is rendered as CSV for synthetic galleries.

Every random draw derives from the experiment seed through a fixed-shape
seed tree, so identical specs reproduce byte-identical reports.  Each leaf
`SeedSequence([seed, *path])` seeds one generator; the three branches are
`[seed, 0, subject]` for a synthetic gallery constellation, `[seed, 1,
count, subject, trial]` for the rotation protocol's probes at each count,
and `[seed, 2, subject, trial]` for the FAR/FRR sweep's probes.  A probe
draws its angle (sample_angle), then its jitter (perturb, synthetic only);
subjects are walked in gallery order, trials in order within each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoder import PolarCorner, encode, polarize
from .harris import DEFAULT_THRESHOLD, HarrisParams, detect_corners
from .imaging import load_image, rotate_about, to_intensity
from .matcher import Weights, identify, total_si
from .optic_disc import OdCenter, OdParams, resolve_od
from .store import GalleryRecord

DEFAULT_COUNTS = (5, 10, 20)
MIN_DISTANCE = 5.0
MAX_DISTANCE = 79.999


@dataclass(frozen=True)
class ExperimentSpec:
    angle_range: float = 15.0
    jitter_px: float = 0.5
    jitter_deg: float = 0.5
    rng_seed: int = 42
    integer_angles: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.angle_range) and self.angle_range > 0):
            raise ValueError("angle_range must be positive and finite")
        for name in ("jitter_px", "jitter_deg"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ValueError(f"{name} must be non-negative and finite")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")


@dataclass(frozen=True)
class SyntheticSource:
    n_subjects: int
    n_corners: int = 20


@dataclass(frozen=True)
class ImageSource:
    directory: Path
    harris: HarrisParams = field(default_factory=HarrisParams)
    od: OdParams = field(default_factory=OdParams)


@dataclass(frozen=True)
class RotationAccuracy:
    rotations: int
    trials: int
    hits: int
    hits_normalized: int
    misidentified: tuple = ()

    @property
    def accuracy(self) -> float:
        return 100.0 * self.hits / self.trials

    @property
    def accuracy_normalized(self) -> float:
        return 100.0 * self.hits_normalized / self.trials


@dataclass(frozen=True)
class AccuracyReport:
    entries: tuple
    subjects: int

    @property
    def probes(self) -> int:
        return sum(e.trials for e in self.entries)

    @property
    def mean_accuracy(self) -> float:
        return sum(e.accuracy for e in self.entries) / len(self.entries)

    @property
    def mean_accuracy_normalized(self) -> float:
        return sum(e.accuracy_normalized for e in self.entries) / len(self.entries)

    def to_table(self) -> str:
        """Aligned plain-text accuracy table plus probe bookkeeping."""
        header = ["Times of rotation"] + [str(e.rotations) for e in self.entries] + ["Mean"]
        raw = ["Accuracy"] + [fmt_num(e.accuracy) + "%" for e in self.entries]
        raw.append(fmt_num(self.mean_accuracy) + "%")
        norm = ["Accuracy (normalized)"] + [fmt_num(e.accuracy_normalized) + "%" for e in self.entries]
        norm.append(fmt_num(self.mean_accuracy_normalized) + "%")
        widths = [max(len(row[i]) for row in (header, raw, norm)) for i in range(len(header))]
        lines = [
            "   ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in (header, raw, norm)
        ]
        lines.append("")
        lines.append(f"subjects: {self.subjects}   probes: {self.probes}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["rotations,accuracy_percent"]
        for e in self.entries:
            lines.append(f"{e.rotations},{fmt_num(e.accuracy)}")
        lines.append(f"mean,{fmt_num(self.mean_accuracy)}")
        return "\n".join(lines) + "\n"


def fmt_num(v: float) -> str:
    s = f"{v:.6f}".rstrip("0").rstrip(".")
    return s if s else "0"


def synth_constellation(n_corners: int, rng: np.random.Generator) -> list[PolarCorner]:
    """Random constellation: distances uniform [5, 79], orientations uniform
    [0, 360), responses uniform over a decade above the detector threshold.
    Draw order (distances, orientations, responses) is part of the
    reproducibility contract."""
    if n_corners < 1:
        raise ValueError("n_corners must be at least 1")
    distances = rng.uniform(MIN_DISTANCE, 79.0, n_corners)
    orientations = rng.uniform(0.0, 360.0, n_corners) % 360.0
    responses = rng.uniform(DEFAULT_THRESHOLD, 10.0 * DEFAULT_THRESHOLD, n_corners)
    return [
        PolarCorner(distance=float(d), orientation=float(o), response=float(r))
        for d, o, r in zip(distances, orientations, responses)
    ]


def perturb(corners, angle_deg: float, spec: ExperimentSpec, rng: np.random.Generator) -> list[PolarCorner]:
    """Rotate a constellation by angle_deg and add the spec's jitter.

    Orientations wrap modulo 360; distances clamp to [0, MAX_DISTANCE] so
    perturbed corners stay inside the encoding gate.  With zero jitter and
    zero angle the output equals the input exactly.
    """
    n = len(corners)
    d_theta = rng.uniform(-spec.jitter_deg, spec.jitter_deg, n)
    d_dist = rng.uniform(-spec.jitter_px, spec.jitter_px, n)
    out = []
    for i, pc in enumerate(corners):
        theta = (pc.orientation + angle_deg + d_theta[i]) % 360.0
        dist = min(max(pc.distance + d_dist[i], 0.0), MAX_DISTANCE)
        out.append(PolarCorner(distance=dist, orientation=theta, response=pc.response))
    return out


def build_synthetic_gallery(n_subjects: int, n_corners: int, seed: int):
    """Seeded gallery of synthetic subjects s001..; returns (records,
    constellations) with constellations kept for probe generation."""
    if n_subjects < 1:
        raise ValueError("n_subjects must be at least 1")
    records = []
    constellations = []
    for i in range(n_subjects):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0, i]))
        pcs = synth_constellation(n_corners, rng)
        constellations.append(pcs)
        records.append(GalleryRecord(
            subject_id=f"s{i + 1:03d}",
            template=encode(pcs),
            source_image="synthetic",
            od=OdCenter(0.0, 0.0, 1.0, "manual"),
        ))
    return records, constellations


def sample_angle(spec: ExperimentSpec, rng: np.random.Generator) -> float:
    if spec.integer_angles:
        r = int(round(spec.angle_range))
        return float(rng.integers(-r, r + 1))
    return float(rng.uniform(-spec.angle_range, spec.angle_range))


def _probes(spec: ExperimentSpec, branch: tuple, records, trials: int, probe_fn):
    """Yield (subject_id, angle, probe) for the seed-tree leaves
    [rng_seed, *branch, subject, trial], subject-major."""
    for subject, rec in enumerate(records):
        for trial in range(trials):
            rng = np.random.default_rng(
                np.random.SeedSequence([spec.rng_seed, *branch, subject, trial]))
            angle = sample_angle(spec, rng)
            yield rec.subject_id, angle, probe_fn(subject, angle, rng)


def _self_totals(records, weights: Weights) -> dict[str, float]:
    return {rec.subject_id: total_si(rec.template, rec.template, weights).total
            for rec in records}


def _run_count(records, self_totals, probe_fn, count: int, spec: ExperimentSpec,
               weights: Weights) -> RotationAccuracy:
    def normalized_key(item):
        sid, ms = item
        st = self_totals[sid]
        return (-(ms.total / st) if st > 0 else 0.0, sid)

    hits = 0
    hits_norm = 0
    missed = []
    for sid, angle, probe in _probes(spec, (1, count), records, count, probe_fn):
        ranked = identify(probe, records, weights)
        if ranked[0][0] == sid:
            hits += 1
        else:
            missed.append((sid, angle))
        if min(ranked, key=normalized_key)[0] == sid:
            hits_norm += 1
    return RotationAccuracy(rotations=count, trials=count * len(records),
                            hits=hits, hits_normalized=hits_norm,
                            misidentified=tuple(missed))


def _sanitize_subject(stem: str) -> str:
    cleaned = "".join(ch if ch.isalnum() or ch in "_-" else "_" for ch in stem)
    return cleaned[:64] or "img"


def _build_image_gallery(source: ImageSource):
    directory = Path(source.directory)
    files = sorted([*directory.glob("*.pgm"), *directory.glob("*.ppm")], key=lambda f: f.name)
    if not files:
        raise ValueError(f"no .pgm/.ppm images under {directory}")
    records = []
    maps = []
    for f in files:
        m = to_intensity(load_image(f))
        od = resolve_od(m, f, source.od)
        corners = detect_corners(m, source.harris)
        sid = _sanitize_subject(f.stem)
        if any(r.subject_id == sid for r in records):
            raise ValueError(f"duplicate subject id {sid!r} from {f.name}")
        records.append(GalleryRecord(
            subject_id=sid,
            template=encode(polarize(corners, od)),
            source_image=f.name,
            od=od,
        ))
        maps.append(m)
    return records, maps


def _gallery(source, spec: ExperimentSpec):
    """Gallery records of a probe source plus its probe builder
    probe_fn(subject, angle, rng) -> FeatureTemplate."""
    if isinstance(source, SyntheticSource):
        records, constellations = build_synthetic_gallery(
            source.n_subjects, source.n_corners, spec.rng_seed)

        def probe_fn(i, angle, rng):
            return encode(perturb(constellations[i], angle, spec, rng))
    elif isinstance(source, ImageSource):
        records, maps = _build_image_gallery(source)

        # The rotation itself is the perturbation on the image path; pixel
        # resampling supplies the noise, so spec jitters do not apply here.
        def probe_fn(i, angle, rng):
            od = records[i].od
            rotated = rotate_about(maps[i], (od.x, od.y), angle)
            corners = detect_corners(rotated, source.harris)
            return encode(polarize(corners, od))
    else:
        raise TypeError("source must be SyntheticSource or ImageSource")
    if len(records) < 2:
        raise ValueError("identification needs at least 2 subjects")
    return records, probe_fn


def check_counts(counts) -> tuple:
    """The rotation counts as a non-empty tuple of positive ints."""
    counts = tuple(counts)
    if not counts or any(c < 1 for c in counts):
        raise ValueError("counts must be a non-empty sequence of positive ints")
    return counts


def rotation_protocol(source, spec: ExperimentSpec, counts=DEFAULT_COUNTS,
                      weights: Weights | None = None) -> AccuracyReport:
    """Run the rotation experiment for each count in `counts` over one
    shared gallery and merge the results into a single report."""
    counts = check_counts(counts)
    weights = weights or Weights()
    records, probe_fn = _gallery(source, spec)
    self_totals = _self_totals(records, weights)
    entries = tuple(_run_count(records, self_totals, probe_fn, c, spec, weights) for c in counts)
    return AccuracyReport(entries=entries, subjects=len(records))


def far_frr_sweep(gallery, probes, thresholds, weights: Weights | None = None) -> list[tuple[float, float, float]]:
    """False-accept / false-reject rates over verification thresholds.

    `probes` is an iterable of (subject_id, FeatureTemplate); each probe is
    scored against the whole gallery in one identify call, then each
    threshold is applied to the same scores, which makes FAR non-increasing
    and FRR non-decreasing in the threshold by construction.  Returns (threshold, far_pct, frr_pct)
    rows in input threshold order.
    """
    records = list(gallery)
    probes = list(probes)
    thresholds = [float(t) for t in thresholds]
    if not records or not probes or not thresholds:
        raise ValueError("gallery, probes and thresholds must be non-empty")
    genuine = []
    impostor = []
    for sid, template in probes:
        for rid, score in identify(template, records, weights):
            (genuine if rid == sid else impostor).append(score.total)
    gen = np.array(genuine, dtype=np.float64)
    imp = np.array(impostor, dtype=np.float64)
    rows = []
    for t in thresholds:
        far = 100.0 * float(np.count_nonzero(imp >= t)) / imp.size if imp.size else 0.0
        frr = 100.0 * float(np.count_nonzero(gen < t)) / gen.size if gen.size else 0.0
        rows.append((t, far, frr))
    return rows


def far_frr_csv(source: SyntheticSource, spec: ExperimentSpec, probes_per_subject: int,
                points: int, weights: Weights) -> str:
    """FAR/FRR sweep of a synthetic gallery as CSV text.

    Each subject gets `probes_per_subject` probes from seed-tree branch 2;
    the `points` thresholds run evenly from 0 to 1.05 times the largest
    self-match total.  Rows are `threshold,far_percent,frr_percent`.
    """
    if not isinstance(source, SyntheticSource):
        raise ValueError("the FAR/FRR sweep supports synthetic galleries only")
    if probes_per_subject < 1 or points < 1:
        raise ValueError("sweep probes and points must be at least 1")
    records, probe_fn = _gallery(source, spec)
    probes = [(sid, probe) for sid, _, probe in _probes(spec, (2,), records, probes_per_subject, probe_fn)]
    thresholds = np.linspace(0.0, 1.05 * max(_self_totals(records, weights).values()), points)
    rows = far_frr_sweep(records, probes, thresholds, weights)
    lines = ["threshold,far_percent,frr_percent"]
    lines += [f"{fmt_num(t)},{fmt_num(far)},{fmt_num(frr)}" for t, far, frr in rows]
    return "\n".join(lines) + "\n"
