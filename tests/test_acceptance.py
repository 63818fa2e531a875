"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with `pytest -s` to see them).  Tolerances and runtime budgets are
pinned here and must not be loosened.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from retina_id.encoder import FeatureTemplate, PolarCorner, encode
from retina_id.evaluation import (
    ExperimentSpec,
    ImageSource,
    SyntheticSource,
    build_eval_gallery,
    build_synthetic_gallery,
    far_frr_sweep,
    perturb,
    rotation_protocol,
)
from retina_id.harris import HarrisParams, detect_corners, gradients, response, structure_tensor
from retina_id.matcher import sim_profile, total_si
from retina_id.store import GalleryRecord, load_gallery, save_template

from oracles import eigen_response, shift_remap, sim_profile_brute


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:2d}] FAIL — {label}")
        raise
    print(f"\n[criterion {num:2d}] PASS — {label}")


def random_constellation(rng, n=20):
    return [
        PolarCorner(
            distance=float(rng.uniform(1.0, 79.0)),
            orientation=float(rng.uniform(0.0, 360.0) % 360.0),
            response=float(rng.uniform(7e4, 7e5)),
        )
        for _ in range(n)
    ]


def random_vector(rng, n_pulses):
    v = np.zeros(360)
    slots = rng.choice(360, size=n_pulses, replace=False)
    amps = rng.uniform(0.0, 360.0, n_pulses)
    amps[amps == 0.0] = 360.0
    v[slots] = amps
    return v


def test_criterion_01_response_equals_eigenvalue_form():
    with criterion(1, "corner response equals its eigenvalue form on 100 random maps (rel 1e-9, <5s)"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        for _ in range(100):
            m = rng.uniform(0.0, 255.0, (32, 32))
            gx, gy = gradients(m)
            field = structure_tensor(gx, gy, HarrisParams())
            got = response(field, 0.17)
            want = eigen_response(field.a, field.b, field.c, 0.17)
            scale = np.maximum(np.abs(want), 1.0)
            assert np.max(np.abs(got - want) / scale) <= 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_02_constant_and_square_detections():
    with criterion(2, "no corners on a constant map; four golden vertex corners on the bright square"):
        assert detect_corners(np.full((64, 64), 128.0)) == []
        m = np.full((64, 64), 10.0)
        m[20:44, 20:44] = 200.0
        got = detect_corners(m)
        assert len(got) == 4
        golden = {(20, 20), (43, 20), (20, 43), (43, 43)}  # frozen from first run
        assert {(c.x, c.y) for c in got} == golden
        vertices = ((20, 20), (43, 20), (20, 43), (43, 43))
        for c in got:
            assert min(max(abs(c.x - vx), abs(c.y - vy)) for vx, vy in vertices) <= 2


def test_criterion_03_encoding_commutes_with_rotation_exhaustively():
    with criterion(3, "encoding commutes with every integer rotation on 100 constellations (exact, <30s)"):
        rng = np.random.default_rng(2025)
        start = time.perf_counter()
        for _ in range(100):
            pcs = random_constellation(rng)
            base = encode(pcs).vectors
            for delta in range(360):
                spun = [
                    PolarCorner(pc.distance, (pc.orientation + delta) % 360.0, pc.response)
                    for pc in pcs
                ]
                assert np.array_equal(encode(spun).vectors, shift_remap(base, delta))
        assert time.perf_counter() - start < 30.0


def test_criterion_04_similarity_profile_bit_for_bit():
    with criterion(4, "similarity profile equals the plain double loop bit for bit on 1000 pairs"):
        rng = np.random.default_rng(2026)
        for _ in range(1000):
            vin = random_vector(rng, int(rng.integers(1, 40)))
            vout = random_vector(rng, int(rng.integers(1, 40)))
            got = sim_profile(vin, vout)
            want = sim_profile_brute(vin, vout)
            assert np.array_equal(got, want)


def test_criterion_05_noiseless_rotation_score():
    with criterion(5, "a 10-degree rotated copy scores m*cos(20 deg) per class at shift 10 (1e-9)"):
        rng = np.random.default_rng(2027)
        delta = 10
        c = math.cos(2.0 * delta * math.pi / 180.0)
        for _ in range(20):
            t = encode(random_constellation(rng))
            q = FeatureTemplate(shift_remap(t.vectors, delta))
            score = total_si(t, q)
            for si, m, shift in zip((score.si1, score.si2, score.si3),
                                    t.nonzero_counts(), score.best_shift):
                if m == 0:
                    continue
                assert abs(si - m * c) <= 1e-9
                assert shift % 360 == delta


def test_criterion_06_rotation_protocol_accuracy():
    with criterion(6, "50-subject rotation protocol reaches >=99% rank-1 per count (<60s)"):
        spec = ExperimentSpec(angle_range=15.0, jitter_px=0.5, jitter_deg=0.5, rng_seed=42)
        start = time.perf_counter()
        report = rotation_protocol(build_eval_gallery(SyntheticSource(50, 20), spec), counts=(5, 10, 20))
        elapsed = time.perf_counter() - start
        print()
        print(report.to_table())
        for entry in report.entries:
            assert entry.accuracy >= 99.0
        # golden hit counts frozen from the first seeded run
        assert [e.hits for e in report.entries] == [250, 500, 1000]
        assert report.to_csv() == (
            "rotations,accuracy_percent\n5,100\n10,100\n20,100\nmean,100\n")
        assert elapsed < 60.0


def test_criterion_07_real_image_protocol_optional():
    data_dir = os.environ.get("RETINA_DRIVE_DIR", "")
    candidates = [Path(data_dir)] if data_dir else []
    candidates.append(Path(__file__).parent / "data" / "drive")
    found = None
    for d in candidates:
        if d.is_dir() and len(list(d.glob("*.pgm")) + list(d.glob("*.ppm"))) >= 2:
            found = d
            break
    if found is None:
        print("\n[criterion  7] SKIP — no real fundus images present (set RETINA_DRIVE_DIR)")
        pytest.skip("real fundus image directory not available")
    with criterion(7, f"real-image rotation protocol on {found} reaches >=95% rank-1"):
        spec = ExperimentSpec(angle_range=15.0, rng_seed=42)
        report = rotation_protocol(build_eval_gallery(ImageSource(found), spec), counts=(5,))
        print()
        print(report.to_table())
        assert report.entries[0].accuracy >= 95.0


def test_criterion_08_thousand_template_round_trips(tmp_path):
    with criterion(8, "1000 random templates survive save/load exactly"):
        rng = np.random.default_rng(2028)
        path = tmp_path / "t.rtpl"
        for i in range(1000):
            v = np.zeros((3, 360))
            for row in v:
                slots = rng.choice(360, size=int(rng.integers(0, 30)), replace=False)
                amps = np.round(rng.uniform(0.0, 360.0, slots.size), 9)
                amps[amps == 0.0] = 360.0
                row[slots] = amps
            rec = GalleryRecord(subject_id=f"s{i:04d}", template=FeatureTemplate(v))
            save_template(rec, path)
            loaded = load_gallery(path).records[0]
            assert loaded.subject_id == rec.subject_id
            assert np.array_equal(loaded.template.vectors, rec.template.vectors)


def test_criterion_09_seeded_eval_is_byte_identical(tmp_path):
    with criterion(9, "two seeded eval runs emit byte-identical CSV"):
        args = [sys.executable, "-m", "retina_id", "eval",
                "--subjects", "8", "--corners", "12", "--rotations", "2,3",
                "--seed", "77"]
        a = subprocess.run(args + ["--csv", str(tmp_path / "a.csv")],
                           capture_output=True, text=True)
        b = subprocess.run(args + ["--csv", str(tmp_path / "b.csv")],
                           capture_output=True, text=True)
        assert a.returncode == 0 and b.returncode == 0
        assert a.stdout == b.stdout
        bytes_a = (tmp_path / "a.csv").read_bytes()
        bytes_b = (tmp_path / "b.csv").read_bytes()
        assert bytes_a == bytes_b
        assert bytes_a.startswith(b"rotations,accuracy_percent\n")


def test_criterion_10_threshold_sweep_monotone():
    with criterion(10, "FAR never increases and FRR never decreases over 100 thresholds"):
        records, constellations = build_synthetic_gallery(8, 15, seed=2029)
        spec = ExperimentSpec(rng_seed=2029)
        probes = []
        for i, rec in enumerate(records):
            for k in range(2):
                rng = np.random.default_rng(np.random.SeedSequence([2029, 5, i, k]))
                angle = float(rng.uniform(-15.0, 15.0))
                probes.append((rec.subject_id,
                               encode(perturb(constellations[i], angle, spec, rng))))
        self_totals = [total_si(r.template, r.template).total for r in records]
        thresholds = np.linspace(0.0, 1.05 * max(self_totals), 100)
        rows = far_frr_sweep(records, probes, thresholds)
        assert len(rows) == 100
        fars = [r[1] for r in rows]
        frrs = [r[2] for r in rows]
        assert all(a >= b for a, b in zip(fars, fars[1:]))
        assert all(a <= b for a, b in zip(frrs, frrs[1:]))
        assert fars[0] == 100.0 and frrs[0] == 0.0
