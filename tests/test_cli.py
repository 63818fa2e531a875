"""End-to-end command-line checks, run through subprocess for honest exit
codes and stream handling."""

import subprocess
import sys

import numpy as np
import pytest

from retina_id.imaging import RasterImage, save_image


def run_cli(*argv, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "retina_id", *map(str, argv)],
        capture_output=True, text=True, cwd=cwd,
    )


@pytest.fixture
def eye_image(tmp_path):
    """Bright od blob centred at (80, 80) plus three bright squares."""
    size = 160
    ys, xs = np.mgrid[0:size, 0:size]
    m = 20.0 + 120.0 * np.exp(-((xs - 80.0) ** 2 + (ys - 80.0) ** 2) / (2.0 * 8.0 ** 2))
    for mx, my in ((120, 80), (80, 30), (40, 120)):
        m[my - 3:my + 4, mx - 3:mx + 4] = 230.0
    path = tmp_path / "eye.pgm"
    save_image(RasterImage(np.clip(m, 0, 255).astype(np.uint8)), path)
    return path


@pytest.fixture
def square_image(tmp_path):
    m = np.full((64, 64), 10.0)
    m[20:44, 20:44] = 200.0
    path = tmp_path / "square.pgm"
    save_image(RasterImage(m.astype(np.uint8)), path)
    return path


class TestDetect:
    def test_constant_image_prints_nothing(self, tmp_path):
        path = tmp_path / "flat.pgm"
        save_image(RasterImage(np.full((64, 64), 128, dtype=np.uint8)), path)
        r = run_cli("detect", path)
        assert r.returncode == 0
        assert r.stdout == ""

    def test_square_prints_four_rows(self, square_image):
        r = run_cli("detect", square_image)
        assert r.returncode == 0
        rows = r.stdout.strip().splitlines()
        assert len(rows) == 4
        responses = []
        for row in rows:
            x, y, resp = row.split()
            int(x), int(y)
            responses.append(float(resp))
        assert responses == sorted(responses, reverse=True)

    def test_missing_file_is_input_error(self, tmp_path):
        r = run_cli("detect", tmp_path / "absent.pgm")
        assert r.returncode == 2
        assert "error:" in r.stderr

    def test_malformed_image_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P9 nonsense")
        r = run_cli("detect", bad)
        assert r.returncode == 2

    def test_threshold_flag_overrides_config(self, square_image, tmp_path):
        cfg = tmp_path / "detector.conf"
        cfg.write_text("threshold = 1e18\n")
        silent = run_cli("detect", square_image, "--config", cfg)
        assert silent.stdout == ""
        loud = run_cli("detect", square_image, "--config", cfg, "--det-threshold", "7e4")
        assert len(loud.stdout.strip().splitlines()) == 4

    def test_nan_k_flag_is_input_error(self, square_image):
        r = run_cli("detect", square_image, "--k", "nan")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "k must be" in r.stderr

    def test_infinite_sigma_config_is_input_error(self, square_image, tmp_path):
        cfg = tmp_path / "detector.conf"
        cfg.write_text("sigma = inf\n")
        r = run_cli("detect", square_image, "--config", cfg)
        assert r.returncode == 2
        assert "sigma must be" in r.stderr

    def test_unknown_config_key_is_input_error(self, square_image, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("nonsense = 1\n")
        r = run_cli("detect", square_image, "--config", cfg)
        assert r.returncode == 2
        assert "unknown key" in r.stderr


class TestEnroll:
    def test_enroll_writes_template(self, eye_image, tmp_path):
        gal = tmp_path / "gal"
        r = run_cli("enroll", eye_image, "alice", "--gallery", gal, "--od", "80,80")
        assert r.returncode == 0, r.stderr
        assert (gal / "alice.rtpl").exists()
        text = (gal / "alice.rtpl").read_text()
        assert text.splitlines()[2] == "od 80 80 manual"

    def test_duplicate_enroll_rejected_and_unchanged(self, eye_image, tmp_path):
        gal = tmp_path / "gal"
        assert run_cli("enroll", eye_image, "bob", "--gallery", gal, "--od", "80,80").returncode == 0
        before = (gal / "bob.rtpl").read_bytes()
        r = run_cli("enroll", eye_image, "bob", "--gallery", gal, "--od", "80,80")
        assert r.returncode == 2
        assert "already enrolled" in r.stderr
        assert (gal / "bob.rtpl").read_bytes() == before

    def test_invalid_subject_id_rejected(self, eye_image, tmp_path):
        r = run_cli("enroll", eye_image, "no spaces", "--gallery", tmp_path / "g")
        assert r.returncode == 2

    def test_sidecar_od_used(self, eye_image, tmp_path):
        (tmp_path / "eye.pgm.od").write_text("80 80\n")
        gal = tmp_path / "gal"
        r = run_cli("enroll", eye_image, "carol", "--gallery", gal)
        assert r.returncode == 0, r.stderr
        assert "od 80 80 manual" in (gal / "carol.rtpl").read_text()

    def test_auto_detected_od_recorded(self, eye_image, tmp_path):
        gal = tmp_path / "gal"
        r = run_cli("enroll", eye_image, "dave", "--gallery", gal,
                    "--od-template-radius", "8", "--od-margin", "20")
        assert r.returncode == 0, r.stderr
        od_line = (gal / "dave.rtpl").read_text().splitlines()[2]
        parts = od_line.split()
        assert parts[3] == "detected"
        assert abs(float(parts[1]) - 80) <= 3 and abs(float(parts[2]) - 80) <= 3


class TestIdentifyVerify:
    def enroll_two(self, tmp_path):
        gal = tmp_path / "gal"
        size = 160
        ys, xs = np.mgrid[0:size, 0:size]
        base = 20.0 + 120.0 * np.exp(-((xs - 80.0) ** 2 + (ys - 80.0) ** 2) / (2.0 * 8.0 ** 2))
        images = {}
        for name, marks in (
            ("ann", ((120, 80), (80, 30), (40, 120))),
            ("ben", ((110, 40), (50, 60), (95, 130))),
        ):
            m = base.copy()
            for mx, my in marks:
                m[my - 3:my + 4, mx - 3:mx + 4] = 230.0
            path = tmp_path / f"{name}.pgm"
            save_image(RasterImage(np.clip(m, 0, 255).astype(np.uint8)), path)
            assert run_cli("enroll", path, name, "--gallery", gal, "--od", "80,80").returncode == 0
            images[name] = path
        return gal, images

    def test_identify_ranks_self_first(self, tmp_path):
        gal, images = self.enroll_two(tmp_path)
        r = run_cli("identify", images["ann"], "--gallery", gal, "--od", "80,80")
        assert r.returncode == 0, r.stderr
        rows = r.stdout.strip().splitlines()
        assert len(rows) == 2
        first = rows[0].split()
        assert first[0] == "1" and first[1] == "ann"
        assert len(first) == 9  # rank id total si1 si2 si3 bs1 bs2 bs3

    def test_identify_top_k(self, tmp_path):
        gal, images = self.enroll_two(tmp_path)
        r = run_cli("identify", images["ann"], "--gallery", gal, "--od", "80,80", "--top-k", "1")
        assert len(r.stdout.strip().splitlines()) == 1

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_identify_top_k_below_one_exit_2(self, tmp_path, top_k):
        gal, images = self.enroll_two(tmp_path)
        r = run_cli("identify", images["ann"], "--gallery", gal, "--od", "80,80", "--top-k", top_k)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "--top-k" in r.stderr

    def test_identify_empty_gallery_exit_3(self, eye_image, tmp_path):
        r = run_cli("identify", eye_image, "--gallery", tmp_path / "nowhere", "--od", "80,80")
        assert r.returncode == 3
        assert "error:" in r.stderr

    def test_verify_accept_and_reject(self, tmp_path):
        gal, images = self.enroll_two(tmp_path)
        ok = run_cli("verify", images["ann"], "ann", "--gallery", gal,
                     "--od", "80,80", "--threshold", "1")
        assert ok.returncode == 0
        assert ok.stdout.startswith("accept ann")
        no = run_cli("verify", images["ann"], "ann", "--gallery", gal,
                     "--od", "80,80", "--threshold", "1e9")
        assert no.returncode == 1
        assert no.stdout.startswith("reject ann")

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_verify_non_finite_threshold_exit_2(self, tmp_path, threshold):
        gal, images = self.enroll_two(tmp_path)
        r = run_cli("verify", images["ann"], "ann", "--gallery", gal,
                    "--od", "80,80", "--threshold", threshold)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "threshold" in r.stderr

    def test_identify_nan_weight_exit_2(self, tmp_path):
        gal, images = self.enroll_two(tmp_path)
        r = run_cli("identify", images["ann"], "--gallery", gal, "--od", "80,80", "--w1", "nan")
        assert r.returncode == 2
        assert "weights" in r.stderr

    def test_identify_nan_amplitude_in_gallery_exit_2(self, tmp_path):
        gal, images = self.enroll_two(tmp_path)
        path = gal / "ben.rtpl"
        lines = path.read_text().split("\n")
        tokens = lines[6].split()
        tokens[0] = "nan"
        lines[6] = " ".join(tokens)
        path.write_text("\n".join(lines))
        r = run_cli("identify", images["ann"], "--gallery", gal, "--od", "80,80")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "ben.rtpl:7:" in r.stderr

    def test_identify_nan_od_in_gallery_exit_2(self, tmp_path):
        gal, images = self.enroll_two(tmp_path)
        path = gal / "ben.rtpl"
        lines = path.read_text().split("\n")
        lines[2] = "od nan nan manual"
        path.write_text("\n".join(lines))
        r = run_cli("identify", images["ann"], "--gallery", gal, "--od", "80,80")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "ben.rtpl:3: od coordinates must be finite" in r.stderr

    def test_verify_unknown_subject_exit_2(self, tmp_path):
        gal, images = self.enroll_two(tmp_path)
        r = run_cli("verify", images["ann"], "zoe", "--gallery", gal,
                    "--od", "80,80", "--threshold", "1")
        assert r.returncode == 2
        assert "not enrolled" in r.stderr


class TestSynthEval:
    def test_synth_writes_gallery(self, tmp_path):
        out = tmp_path / "g"
        r = run_cli("synth", "--subjects", "3", "--out", out, "--seed", "5")
        assert r.returncode == 0
        assert sorted(p.name for p in out.glob("*.rtpl")) == ["s001.rtpl", "s002.rtpl", "s003.rtpl"]

    def test_synth_zero_subjects_usage_error(self, tmp_path):
        r = run_cli("synth", "--subjects", "0", "--out", tmp_path / "g")
        assert r.returncode == 2

    def test_eval_table_and_seeded_csv_identical(self, tmp_path):
        args = ("eval", "--subjects", "6", "--corners", "12", "--rotations", "2,3",
                "--seed", "21")
        a = run_cli(*args, "--csv", tmp_path / "a.csv")
        b = run_cli(*args, "--csv", tmp_path / "b.csv")
        assert a.returncode == 0 and b.returncode == 0
        assert "Times of rotation" in a.stdout
        assert a.stdout == b.stdout
        csv_a = (tmp_path / "a.csv").read_bytes()
        csv_b = (tmp_path / "b.csv").read_bytes()
        assert csv_a == csv_b
        assert csv_a.startswith(b"rotations,accuracy_percent\n")

    def test_eval_far_frr_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        r = run_cli("eval", "--subjects", "4", "--corners", "10", "--rotations", "2",
                    "--seed", "22", "--far-frr-csv", out, "--sweep-points", "20")
        assert r.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "threshold,far_percent,frr_percent"
        assert len(lines) == 21
        fars = [float(l.split(",")[1]) for l in lines[1:]]
        frrs = [float(l.split(",")[2]) for l in lines[1:]]
        assert all(a >= b for a, b in zip(fars, fars[1:]))
        assert all(a <= b for a, b in zip(frrs, frrs[1:]))

    def test_eval_seeded_output_pinned(self, tmp_path):
        # Exact bytes of a seeded run whose accuracy is below 100%, so the
        # probe draws, both rankings, the weights and the sweep thresholds
        # all show in the output.
        acc = tmp_path / "acc.csv"
        sweep = tmp_path / "sweep.csv"
        r = run_cli("eval", "--subjects", "8", "--corners", "4", "--rotations", "2,3",
                    "--seed", "23", "--jitter-px", "3", "--jitter-deg", "4",
                    "--angle-range", "40", "--w3", "2", "--csv", acc,
                    "--far-frr-csv", sweep, "--sweep-points", "5", "--sweep-probes", "2")
        assert r.returncode == 0, r.stderr
        assert r.stdout == (
            "Times of rotation       2        3            Mean\n"
            "Accuracy                68.75%   75%          71.875%\n"
            "Accuracy (normalized)   62.5%    79.166667%   70.833333%\n"
            "\n"
            "subjects: 8   probes: 40\n")
        assert acc.read_bytes() == b"rotations,accuracy_percent\n2,68.75\n3,75\nmean,71.875\n"
        assert sweep.read_bytes() == (
            b"threshold,far_percent,frr_percent\n"
            b"0,100,0\n6.825,49.107143,25\n13.65,0,62.5\n20.475,0,93.75\n27.3,0,100\n")

    @pytest.mark.parametrize("flag,value", [
        ("--angle-range", "nan"), ("--angle-range", "inf"),
        ("--jitter-px", "nan"), ("--jitter-deg", "inf"),
    ])
    def test_eval_non_finite_spec_is_input_error(self, flag, value):
        r = run_cli("eval", "--subjects", "3", "--corners", "5", "--rotations", "1", flag, value)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "finite" in r.stderr

    @pytest.mark.parametrize("extra", [
        ("--images", "IMAGES"),
        ("--sweep-points", "-1"),
        ("--sweep-points", "0"),
        ("--sweep-probes", "0"),
    ], ids=["images", "points-1", "points0", "probes0"])
    def test_eval_bad_sweep_input_fails_before_output(self, tmp_path, eye_image, extra):
        images = tmp_path / "images"
        images.mkdir()
        for name in ("a.pgm", "b.pgm"):
            (images / name).write_bytes(eye_image.read_bytes())
            (images / f"{name}.od").write_text("80 80\n")
        extra = [images if tok == "IMAGES" else tok for tok in extra]
        acc = tmp_path / "acc.csv"
        r = run_cli("eval", "--subjects", "3", "--corners", "5", "--rotations", "1",
                    "--csv", acc, "--far-frr-csv", tmp_path / "sweep.csv", *extra)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "error:" in r.stderr
        assert not acc.exists()
        assert not (tmp_path / "sweep.csv").exists()

    def test_missing_subcommand_usage_error(self):
        r = run_cli()
        assert r.returncode == 2
