"""Desk-scale evaluation harness.

Two probe sources are supported: seeded synthetic corner constellations,
and a directory of fundus images that are rotated about their optic-disc
centre and re-detected.  For every gallery subject the harness runs a fixed
number of randomly rotated probes per configured rotation count, records
rank-1 identification accuracy (raw and self-match-normalised), and renders
a three-column accuracy table plus a stable CSV.  A FAR/FRR sweep over
verification thresholds is rendered as CSV for either source.

Every random draw derives from the experiment seed through a fixed-shape
seed tree, so identical specs reproduce byte-identical reports.  Each leaf
`SeedSequence([seed, *path])` seeds one generator; the three branches are
`[seed, 0, subject]` for a synthetic gallery constellation, `[seed, 1,
count, subject, trial]` for the rotation protocol's probes at each count,
and `[seed, 2, subject, trial]` for the FAR/FRR sweep's probes.  A probe
draws its angle (sample_angle), then its jitter (perturb, synthetic only);
subjects are walked in gallery order, trials in order within each.

The protocol and the sweep run on one EvalGallery, built once per run by
build_eval_gallery: its spec and weights, its records as a store.Gallery,
probe builder, exact self-match totals and the matcher.GalleryScreen of its
records; rotation_protocol and far_frr_csv take it alone.  Both rank probes
by screened totals (the sweep with a GalleryScreen of its own), then
re-score with the exact kernel every record that the screen's bound cannot
place (see _rank1 and far_frr_sweep), so every hit, miss, tie, FAR and FRR
is the exact kernel's.  The protocol takes a lone record that the bound
cannot rule out of first place from the screen, since it is first whatever
its exact total; it calls identify only when two or more remain.

Synthetic distances stay inside the encoder's GATE_RADIUS; an image stem's
characters outside the store's subject-id rule become `_`.  MAX_CORNERS and
MAX_SWEEP_POINTS bound the counts that size an allocation.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoder import GATE_RADIUS, SLOTS, PolarCorner, encode, gated_template, wrap_orientation
from .harris import DEFAULT_THRESHOLD, HarrisParams, is_finite
from .imaging import load_image, rotate_about, to_intensity
from .matcher import GalleryScreen, Weights, identify, total_si
from .optic_disc import OdCenter, OdParams, resolve_od
from .store import Gallery, GalleryRecord, valid_subject_id

DEFAULT_COUNTS = (5, 10, 20)
MIN_DISTANCE = 5.0
MAX_DISTANCE = GATE_RADIUS - 1e-3
# No more corners than template slots: a corner changes a template only by
# filling an empty slot.
MAX_CORNERS = 3 * SLOTS
MAX_SWEEP_POINTS = 10_000


@dataclass(frozen=True)
class ExperimentSpec:
    angle_range: float = 15.0
    jitter_px: float = 0.5
    jitter_deg: float = 0.5
    rng_seed: int = 42
    integer_angles: bool = False

    def __post_init__(self):
        if not (is_finite(self.angle_range) and self.angle_range > 0):
            raise ValueError("angle_range must be positive and finite")
        for name in ("jitter_px", "jitter_deg"):
            if not (is_finite(getattr(self, name)) and getattr(self, name) >= 0):
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
    """Random constellation of 1 to MAX_CORNERS corners: distances uniform
    [MIN_DISTANCE, GATE_RADIUS - 1], orientations uniform [0, 360), responses
    uniform over a decade above the detector threshold.  Draw order
    (distances, orientations, responses) is part of the reproducibility contract."""
    if not 1 <= n_corners <= MAX_CORNERS:
        raise ValueError(f"n_corners must be between 1 and {MAX_CORNERS}")
    distances = rng.uniform(MIN_DISTANCE, GATE_RADIUS - 1.0, n_corners)
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
        theta = wrap_orientation(pc.orientation + angle_deg + d_theta[i])
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


def _probes(spec: ExperimentSpec, branch: tuple, subject_ids, trials: int, probe_fn):
    """Yield (subject_id, angle, probe) for the seed-tree leaves
    [rng_seed, *branch, subject, trial], subject-major."""
    for subject, subject_id in enumerate(subject_ids):
        for trial in range(trials):
            rng = np.random.default_rng(
                np.random.SeedSequence([spec.rng_seed, *branch, subject, trial]))
            angle = sample_angle(spec, rng)
            yield subject_id, angle, probe_fn(subject, angle, rng)


def _rank1(gallery: EvalGallery, probe) -> tuple[str, str]:
    """Subject ids ranked first by raw and by self-match-normalised total.

    Both rankings start from the screened totals.  Every record the screen's
    bound B cannot rule out of first place in either ranking is a candidate.
    A lone candidate is first in both rankings, as an identify call on it
    alone would rank it whatever its score, so it is taken from the screen.
    Two or more are re-scored in one exact identify call on the subset of
    the gallery holding them, which reads its slots in place, and both
    winners are taken from its exact totals: the raw one by descending
    total, ties by subject id, and the normalised one by descending total /
    self total (0 when the self total is not positive), ties by subject id.
    """
    screened, bound = gallery.screen.totals(probe, gallery.weights)
    self_totals = gallery.self_totals
    positive = self_totals > 0
    # A tiny self total can overflow a ratio to inf, and inf - inf is NaN;
    # ~(x < cutoff) keeps every record when a NaN reaches the cutoff.
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.divide(screened, self_totals, out=np.zeros_like(screened), where=positive)
        slack = np.divide(bound, self_totals, out=np.zeros_like(screened), where=positive)
        keep = ~(screened < float(screened.max()) - 2 * bound)
        keep |= ~(norm + slack < float((norm - slack).max()))
    candidates = np.flatnonzero(keep)
    if candidates.size == 1:
        sid = gallery.records.subject_ids[candidates[0]]
        return sid, sid
    view = gallery.records.subset(candidates)
    ranked = identify(probe, view, gallery.weights)
    self_total = dict(zip(view.subject_ids, self_totals[candidates].tolist()))

    def normalized_key(item):
        sid, ms = item
        st = self_total[sid]
        return (-(ms.total / st) if st > 0 else 0.0, sid)

    return ranked[0][0], min(ranked, key=normalized_key)[0]


def _run_count(gallery: EvalGallery, count: int) -> RotationAccuracy:
    hits = 0
    hits_norm = 0
    missed = []
    for sid, angle, probe in _probes(gallery.spec, (1, count), gallery.records.subject_ids, count,
                                     gallery.probe_fn):
        raw, normalized = _rank1(gallery, probe)
        if raw == sid:
            hits += 1
        else:
            missed.append((sid, angle))
        if normalized == sid:
            hits_norm += 1
    return RotationAccuracy(rotations=count, trials=count * len(gallery.records),
                            hits=hits, hits_normalized=hits_norm,
                            misidentified=tuple(missed))


def _sanitize_subject(stem: str) -> str:
    cleaned = "".join(ch if valid_subject_id(ch) else "_" for ch in stem)
    return cleaned[:64] or "img"


def _build_image_gallery(source: ImageSource):
    directory = Path(source.directory)
    files = sorted([*directory.glob("*.pgm"), *directory.glob("*.ppm")], key=lambda f: f.name)
    if not files:
        raise ValueError(f"no .pgm/.ppm images under {directory}")
    records = []
    maps = []
    for f in files:
        m = to_intensity(load_image(f))  # a decode error names the image itself
        try:
            od = resolve_od(m, f, source.od)
            template = gated_template(m, od, source.harris)
        except ValueError as exc:
            raise ValueError(f"{f}: {exc}") from exc
        records.append(GalleryRecord(
            subject_id=_sanitize_subject(f.stem),
            template=template,
            source_image=f.name,
            od=od,
        ))
        # The map holds the 8-bit samples, and rotate_about converts it back
        # to float64 itself: a 565x584 capture keeps 0.33 MB, not 2.6 MB.
        maps.append(m.astype(np.uint8))
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
            return gated_template(rotated, od, source.harris)
    else:
        raise TypeError("source must be SyntheticSource or ImageSource")
    if len(records) < 2:
        raise ValueError("identification needs at least 2 subjects")
    return records, probe_fn


@dataclass(frozen=True, eq=False)
class EvalGallery:
    """One probe source's gallery, built once for a spec and weights and
    shared by the rotation protocol and the FAR/FRR sweep: the store.Gallery
    of the records, which owns their amplitudes, their probe builder, and
    the exact self-match totals and the protocol's FFT screen computed here
    from that Gallery and the weights, so neither can belong to another
    gallery.  Like its screen, an EvalGallery is not thread-safe."""

    spec: ExperimentSpec
    weights: Weights
    records: Gallery
    probe_fn: Callable
    self_totals: np.ndarray = field(init=False)
    screen: GalleryScreen = field(init=False)

    def __post_init__(self):
        records = Gallery(self.records)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "self_totals", np.array(
            [total_si(rec.template, rec.template, self.weights).total for rec in records]))
        object.__setattr__(self, "screen", GalleryScreen(records))


def build_eval_gallery(source, spec: ExperimentSpec, weights: Weights | None = None) -> EvalGallery:
    """The EvalGallery of a SyntheticSource or ImageSource for a spec and
    weights (default Weights())."""
    return EvalGallery(spec, weights or Weights(), *_gallery(source, spec))


def check_counts(counts) -> tuple:
    """The rotation counts as a non-empty tuple of positive ints."""
    counts = tuple(counts)
    if not counts or any(c < 1 for c in counts):
        raise ValueError("counts must be a non-empty sequence of positive ints")
    return counts


def check_sweep(probes_per_subject: int, points: int) -> None:
    """Reject sweep counts below 1 and more than MAX_SWEEP_POINTS points."""
    if probes_per_subject < 1 or points < 1:
        raise ValueError("sweep probes and points must be at least 1")
    if points > MAX_SWEEP_POINTS:
        raise ValueError(f"sweep points must be at most {MAX_SWEEP_POINTS}")


def rotation_protocol(gallery: EvalGallery, counts=DEFAULT_COUNTS) -> AccuracyReport:
    """Run the rotation experiment for each count in `counts` over the
    gallery, with its spec and weights, and merge the results into a single
    report."""
    counts = check_counts(counts)
    entries = tuple(_run_count(gallery, c) for c in counts)
    return AccuracyReport(entries=entries, subjects=len(gallery.records))


def far_frr_sweep(records, probes, thresholds, weights: Weights | None = None) -> list[tuple[float, float, float]]:
    """False-accept / false-reject rates over verification thresholds.

    `records` is a store.Gallery, read as it is, or an iterable of records,
    read as their Gallery (so a repeated id raises DuplicateSubjectError);
    either is screened by a GalleryScreen of that Gallery.  `probes` is an
    iterable of (subject_id, FeatureTemplate), read once.  Every record
    whose screened total against a probe lies within the screen's bound B
    of a threshold is re-scored with total_si, and each threshold is
    applied to the same totals.  So every accept and reject is the exact total's, and FAR is
    non-increasing and FRR non-decreasing in the threshold by construction.
    Returns (threshold, far_pct, frr_pct) rows in input threshold order.
    """
    records = records if isinstance(records, Gallery) else Gallery(records)
    screen = GalleryScreen(records)
    thresholds = [float(t) for t in thresholds]
    if not records or not thresholds:
        raise ValueError("gallery, probes and thresholds must be non-empty")
    ids = np.array(records.subject_ids)
    ordered = np.sort(thresholds)
    genuine = []
    impostor = []
    for sid, template in probes:
        totals, bound = screen.totals(template, weights)
        near = (np.searchsorted(ordered, totals - bound)
                < np.searchsorted(ordered, totals + bound, side="right"))
        near |= ~np.isfinite(totals)
        for i in np.flatnonzero(near):
            totals[i] = total_si(records[i].template, template, weights).total
        own = ids == sid
        genuine.append(totals[own])
        impostor.append(totals[~own])
    if not genuine:
        raise ValueError("gallery, probes and thresholds must be non-empty")
    gen = np.concatenate(genuine)
    imp = np.concatenate(impostor)
    rows = []
    for t in thresholds:
        far = 100.0 * float(np.count_nonzero(imp >= t)) / imp.size if imp.size else 0.0
        frr = 100.0 * float(np.count_nonzero(gen < t)) / gen.size if gen.size else 0.0
        rows.append((t, far, frr))
    return rows


def far_frr_csv(gallery: EvalGallery, probes_per_subject: int, points: int) -> str:
    """FAR/FRR sweep of the gallery's records, with its spec and weights, as
    CSV text.

    Each subject gets `probes_per_subject` probes from seed-tree branch 2;
    `points` thresholds (at most MAX_SWEEP_POINTS) run evenly from 0 to 1.05
    times the largest self-match total.  Rows are `threshold,far_percent,frr_percent`.
    """
    check_sweep(probes_per_subject, points)
    probes = ((sid, probe) for sid, _, probe in _probes(
        gallery.spec, (2,), gallery.records.subject_ids, probes_per_subject, gallery.probe_fn))
    thresholds = np.linspace(0.0, 1.05 * float(gallery.self_totals.max()), points)
    rows = far_frr_sweep(gallery.records, probes, thresholds, gallery.weights)
    lines = ["threshold,far_percent,frr_percent"]
    lines += [f"{fmt_num(t)},{fmt_num(far)},{fmt_num(frr)}" for t, far, frr in rows]
    return "\n".join(lines) + "\n"
