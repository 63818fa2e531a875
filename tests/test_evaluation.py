import numpy as np
import pytest

from retina_id import evaluation
from retina_id.encoder import PolarCorner, encode
from retina_id.evaluation import (
    MAX_CORNERS,
    MAX_SWEEP_POINTS,
    ExperimentSpec,
    ImageSource,
    SyntheticSource,
    build_eval_gallery,
    build_synthetic_gallery,
    far_frr_csv,
    far_frr_sweep,
    fmt_num,
    perturb,
    rotation_protocol,
    synth_constellation,
)
from retina_id.matcher import Weights, identify, total_si
from retina_id.store import GalleryRecord

from oracles import far_frr_sweep_exact


def rng_for(seed):
    return np.random.default_rng(seed)


class TestSynth:
    def test_bounds(self):
        pcs = synth_constellation(200, rng_for(70))
        for pc in pcs:
            assert 5.0 <= pc.distance <= 79.0
            assert 0.0 <= pc.orientation < 360.0
            assert 7e4 <= pc.response <= 7e5

    def test_deterministic_for_equal_seed(self):
        a = synth_constellation(20, rng_for(71))
        b = synth_constellation(20, rng_for(71))
        assert a == b

    def test_zero_corners_rejected(self):
        with pytest.raises(ValueError, match="n_corners"):
            synth_constellation(0, rng_for(72))

    def test_corner_bound(self):
        # No count above the template's slot total can change a template,
        # and an unbounded count sizes an unbounded draw.
        assert len(synth_constellation(MAX_CORNERS, rng_for(73))) == MAX_CORNERS
        rng = rng_for(74)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"between 1 and {MAX_CORNERS}"):
            synth_constellation(MAX_CORNERS + 1, rng)
        assert rng.bit_generator.state == state

    def test_gallery_ids_and_determinism(self):
        r1, c1 = build_synthetic_gallery(4, 10, seed=9)
        r2, c2 = build_synthetic_gallery(4, 10, seed=9)
        assert [r.subject_id for r in r1] == ["s001", "s002", "s003", "s004"]
        assert c1 == c2
        for a, b in zip(r1, r2):
            assert np.array_equal(a.template.vectors, b.template.vectors)

    def test_empty_gallery_rejected(self):
        with pytest.raises(ValueError, match="n_subjects must be at least 1"):
            build_synthetic_gallery(0, 10, seed=9)


class TestPerturb:
    def test_identity_when_no_angle_no_jitter(self):
        spec = ExperimentSpec(jitter_px=0.0, jitter_deg=0.0)
        pcs = synth_constellation(15, rng_for(73))
        assert perturb(pcs, 0.0, spec, rng_for(74)) == pcs

    def test_pure_rotation_adds_angle_exactly(self):
        spec = ExperimentSpec(jitter_px=0.0, jitter_deg=0.0)
        pcs = synth_constellation(15, rng_for(75))
        got = perturb(pcs, 90.0, spec, rng_for(76))
        for before, after in zip(pcs, got):
            assert after.orientation == (before.orientation + 90.0) % 360.0
            assert after.distance == before.distance
            assert after.response == before.response

    def test_jitter_is_bounded_and_seeded(self):
        spec = ExperimentSpec(jitter_px=0.5, jitter_deg=0.5)
        pcs = synth_constellation(40, rng_for(77))
        a = perturb(pcs, 3.0, spec, rng_for(78))
        b = perturb(pcs, 3.0, spec, rng_for(78))
        assert a == b
        for before, after in zip(pcs, a):
            d_theta = (after.orientation - (before.orientation + 3.0)) % 360.0
            d_theta = min(d_theta, 360.0 - d_theta)
            assert d_theta <= 0.5 + 1e-12
            assert abs(after.distance - before.distance) <= 0.5 + 1e-12

    def test_angle_a_hair_below_zero_folds_to_zero(self):
        # 0.3 - 0.30000000000000004 is about -5.6e-17, which modulo 360
        # rounds to 360.0.
        spec = ExperimentSpec(jitter_px=0.0, jitter_deg=0.0)
        (pc,) = perturb([PolarCorner(10.0, 0.3, 1.0)], -0.30000000000000004, spec, rng_for(79))
        assert pc.orientation == 0.0

    def test_distance_clamped_inside_gate(self):
        spec = ExperimentSpec(jitter_px=2.0, jitter_deg=0.0)
        pcs = [PolarCorner(79.0, 10.0, 1e5)]
        for trial in range(50):
            got = perturb(pcs, 0.0, spec, rng_for(100 + trial))
            assert got[0].distance <= 79.999


class TestRotationProtocol:
    def test_small_noiseless_run_is_perfect(self):
        spec = ExperimentSpec(angle_range=15.0, jitter_px=0.0, jitter_deg=0.0,
                              rng_seed=5, integer_angles=True)
        report = rotation_protocol(build_eval_gallery(SyntheticSource(6, 12), spec), counts=(3,))
        assert report.entries[0].accuracy == 100.0
        assert report.entries[0].misidentified == ()

    def test_hits_plus_misses_equal_trials(self):
        spec = ExperimentSpec(rng_seed=6)
        report = rotation_protocol(build_eval_gallery(SyntheticSource(5, 8), spec), counts=(4,))
        e = report.entries[0]
        assert e.hits + len(e.misidentified) == e.trials == 20

    def test_one_subject_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            rotation_protocol(build_eval_gallery(SyntheticSource(1, 10), ExperimentSpec()), counts=(2,))

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError, match="counts"):
            rotation_protocol(build_eval_gallery(SyntheticSource(3, 10), ExperimentSpec()), counts=())

    def test_non_source_rejected(self):
        with pytest.raises(TypeError, match="source must be"):
            build_eval_gallery([SyntheticSource(3, 10)], ExperimentSpec())

    def test_eval_gallery_is_not_a_source(self):
        spec = ExperimentSpec(rng_seed=11)
        gallery = build_eval_gallery(SyntheticSource(3, 10), spec)
        with pytest.raises(TypeError, match="source must be"):
            build_eval_gallery(gallery, spec)

    def test_reports_are_reproducible(self):
        spec = ExperimentSpec(rng_seed=8)
        a = rotation_protocol(build_eval_gallery(SyntheticSource(5, 10), spec), counts=(2, 3))
        b = rotation_protocol(build_eval_gallery(SyntheticSource(5, 10), spec), counts=(2, 3))
        assert a.to_csv() == b.to_csv()
        assert a.to_table() == b.to_table()

    def test_table_layout(self):
        spec = ExperimentSpec(rng_seed=9)
        report = rotation_protocol(build_eval_gallery(SyntheticSource(4, 10), spec), counts=(2, 3))
        table = report.to_table()
        lines = table.splitlines()
        assert lines[0].split() == ["Times", "of", "rotation", "2", "3", "Mean"]
        assert lines[1].startswith("Accuracy")
        assert lines[2].startswith("Accuracy (normalized)")
        assert lines[-1] == "subjects: 4   probes: 20"

    def test_near_ties_rescore_a_view_of_the_gallerys_blocks(self, monkeypatch):
        # The twin probes of the tracer test in test_module_surface.py: s003
        # is s001's twin, so every probe of either leaves two candidates,
        # whose records identify re-scores.
        spec = ExperimentSpec(rng_seed=3)
        records, constellations = build_synthetic_gallery(2, 8, seed=3)
        records.append(GalleryRecord("s003", records[0].template))

        def probe_fn(subject, angle, rng):
            return encode(perturb(constellations[subject % 2], angle, spec, rng))

        twins = evaluation.EvalGallery(spec, Weights(), records, probe_fn)
        views = []

        def spy_identify(query, gallery, weights=None, top_k=None):
            views.append(gallery)
            return identify(query, gallery, weights, top_k)

        monkeypatch.setattr(evaluation, "identify", spy_identify)
        report = rotation_protocol(twins, counts=(1, 2))
        assert [e.hits for e in report.entries] == [2, 4]
        assert len(views) == 2 * (1 + 2)
        for view in views:
            assert [r.subject_id for r in view] == ["s001", "s003"]

    def test_csv_layout(self):
        spec = ExperimentSpec(rng_seed=10)
        report = rotation_protocol(build_eval_gallery(SyntheticSource(4, 10), spec), counts=(2, 3))
        lines = report.to_csv().splitlines()
        assert lines[0] == "rotations,accuracy_percent"
        assert lines[1].startswith("2,") and lines[2].startswith("3,")
        assert lines[3].startswith("mean,")


class TestFarFrr:
    def setup_sweep(self):
        records, constellations = build_synthetic_gallery(6, 15, seed=14)
        spec = ExperimentSpec(rng_seed=14)
        probes = []
        for i, rec in enumerate(records):
            rng = rng_for(1000 + i)
            angle = float(rng.uniform(-15, 15))
            probes.append((rec.subject_id, encode(perturb(constellations[i], angle, spec, rng))))
        return records, probes

    def test_boundary_thresholds(self):
        records, probes = self.setup_sweep()
        rows = far_frr_sweep(records, probes, [0.0, 1e9])
        assert rows[0][1] == 100.0 and rows[0][2] == 0.0   # accept everything
        assert rows[1][1] == 0.0 and rows[1][2] == 100.0   # reject everything

    def test_monotone_in_threshold(self):
        records, probes = self.setup_sweep()
        rows = far_frr_sweep(records, probes, np.linspace(0, 200, 60))
        fars = [r[1] for r in rows]
        frrs = [r[2] for r in rows]
        assert all(a >= b for a, b in zip(fars, fars[1:]))
        assert all(a <= b for a, b in zip(frrs, frrs[1:]))

    def test_separating_threshold_exists(self):
        # genuine scores here sit far above impostor scores, so some
        # threshold must classify perfectly
        records, probes = self.setup_sweep()
        rows = far_frr_sweep(records, probes, np.linspace(0, 200, 400))
        assert any(far == 0.0 and frr == 0.0 for _, far, frr in rows)

    def test_eval_gallery_scores_with_its_own_weights(self, monkeypatch):
        # far_frr_csv sweeps the gallery's own Gallery, not a copy, with the
        # gallery's weights; so do its thresholds, from its self totals.
        weights = Weights(5.0, 0.0, 0.0)
        gallery = build_eval_gallery(SyntheticSource(4, 8), ExperimentSpec(rng_seed=3), weights)
        calls = []

        def spy(records, probes, thresholds, weights=None):
            probes = list(probes)
            calls.append((records, probes, weights))
            return far_frr_sweep(records, probes, thresholds, weights)

        monkeypatch.setattr(evaluation, "far_frr_sweep", spy)
        csv = far_frr_csv(gallery, 1, 3)
        [(records, probes, used)] = calls
        assert records is gallery.records and used is gallery.weights
        top = 1.05 * max(total_si(rec.template, rec.template, weights).total
                         for rec in gallery.records)
        thresholds = np.linspace(0.0, top, 3)
        want = far_frr_sweep_exact(list(gallery.records), probes, thresholds, weights)
        assert csv.splitlines()[1:] == [
            f"{fmt_num(t)},{fmt_num(far)},{fmt_num(frr)}" for t, far, frr in want]
        assert want != far_frr_sweep_exact(list(gallery.records), probes, thresholds, Weights())

    def test_empty_inputs_rejected(self):
        records, probes = self.setup_sweep()
        with pytest.raises(ValueError, match="non-empty"):
            far_frr_sweep(records, probes, [])
        with pytest.raises(ValueError, match="non-empty"):
            far_frr_sweep([], probes, [1.0])
        with pytest.raises(ValueError, match="non-empty"):
            far_frr_sweep(records, iter(()), [1.0])


class TestFarFrrCsv:
    @pytest.mark.parametrize("probes,points", [(0, 5), (1, 0), (-1, 5), (1, -1)])
    def test_counts_below_one_rejected(self, probes, points):
        with pytest.raises(ValueError, match="at least 1"):
            far_frr_csv(build_eval_gallery(SyntheticSource(3, 10), ExperimentSpec()), probes, points)

    def test_one_subject_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            far_frr_csv(build_eval_gallery(SyntheticSource(1, 10), ExperimentSpec()), 1, 5)

    def test_points_above_bound_rejected_before_gallery(self, monkeypatch):
        def no_gallery(*args):
            raise AssertionError("gallery built before the points check")

        monkeypatch.setattr(evaluation, "build_synthetic_gallery", no_gallery)
        with pytest.raises(ValueError, match=f"at most {MAX_SWEEP_POINTS}"):
            far_frr_csv(None, 1, MAX_SWEEP_POINTS + 1)


class TestImagePath:
    def make_image(self, tmp_path, name, marks):
        """A bright od blob at the centre plus small bright squares at the
        given polar positions (distance, degrees)."""
        import math
        size = 160
        cx = cy = 80.0
        ys, xs = np.mgrid[0:size, 0:size]
        m = 20.0 + 120.0 * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * 8.0 ** 2))
        for dist, deg in marks:
            mx = int(round(cx + dist * math.cos(math.radians(deg))))
            my = int(round(cy - dist * math.sin(math.radians(deg))))
            m[my - 3:my + 4, mx - 3:mx + 4] = 230.0
        from retina_id.imaging import RasterImage, save_image
        img = RasterImage(np.clip(m, 0, 255).astype(np.uint8))
        path = tmp_path / name
        save_image(img, path)
        (tmp_path / f"{name}.od").write_text("80 80\n")
        return path

    def test_image_gallery_round(self, tmp_path):
        self.make_image(tmp_path, "subj_a.pgm", [(40, 0), (55, 95), (62, 200)])
        self.make_image(tmp_path, "subj_b.pgm", [(45, 48), (58, 140), (66, 275)])
        spec = ExperimentSpec(angle_range=10.0, rng_seed=15)
        source = ImageSource(tmp_path)
        report = rotation_protocol(build_eval_gallery(source, spec), counts=(3,))
        assert report.subjects == 2
        assert report.entries[0].trials == 6
        assert report.entries[0].accuracy == 100.0

    def test_kept_maps_are_the_8_bit_samples(self, tmp_path):
        from retina_id.imaging import load_image, to_intensity
        paths = [self.make_image(tmp_path, "subj_a.pgm", [(40, 0), (55, 95), (62, 200)]),
                 self.make_image(tmp_path, "subj_b.pgm", [(45, 48), (58, 140), (66, 275)])]
        _, maps = evaluation._build_image_gallery(ImageSource(tmp_path))
        for path, m in zip(paths, maps):
            assert m.dtype == np.uint8
            assert np.array_equal(m.astype(np.float64), to_intensity(load_image(path)))

    @pytest.mark.parametrize("stem", ["café", "x²", "٣d"])
    def test_non_ascii_name_becomes_valid_id(self, tmp_path, stem):
        # Letters and digits outside ASCII fail the store's id rule, so each
        # becomes `_`.
        self.make_image(tmp_path, f"{stem}.pgm", [(40, 0), (55, 95), (62, 200)])
        self.make_image(tmp_path, "plain.pgm", [(45, 48), (58, 140), (66, 275)])
        report = rotation_protocol(
            build_eval_gallery(ImageSource(tmp_path), ExperimentSpec(angle_range=10.0)), counts=(1,))
        assert report.subjects == 2
        assert report.entries[0].trials == 2

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="images"):
            rotation_protocol(build_eval_gallery(ImageSource(tmp_path), ExperimentSpec()), counts=(2,))

    def test_far_frr_sweep(self, tmp_path):
        self.make_image(tmp_path, "subj_a.pgm", [(40, 0), (55, 95), (62, 200)])
        self.make_image(tmp_path, "subj_b.pgm", [(45, 48), (58, 140), (66, 275)])
        csv = far_frr_csv(build_eval_gallery(ImageSource(tmp_path), ExperimentSpec(angle_range=10.0)),
                          2, 7)
        lines = csv.splitlines()
        assert lines[0] == "threshold,far_percent,frr_percent"
        assert len(lines) == 8
        rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
        fars = [far for _, far, _ in rows]
        frrs = [frr for _, _, frr in rows]
        assert all(a >= b for a, b in zip(fars, fars[1:]))
        assert all(a <= b for a, b in zip(frrs, frrs[1:]))


class TestSpecGuards:
    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            ExperimentSpec(angle_range=0.0)
        with pytest.raises(ValueError):
            ExperimentSpec(jitter_px=-0.1)
        with pytest.raises(ValueError):
            ExperimentSpec(rng_seed=-1)

    @pytest.mark.parametrize("name", ["angle_range", "jitter_px", "jitter_deg"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be .*finite"):
            ExperimentSpec(**{name: value})
