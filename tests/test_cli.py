"""End-to-end command-line checks, run through subprocess for honest exit
codes and stream handling; the few that watch the CLI's internal calls run
`cli.main` in-process."""

import re
import subprocess
import sys
import threading
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from retina_id import cli
from retina_id.encoder import FeatureTemplate
from retina_id.evaluation import (
    DEFAULT_COUNTS,
    MAX_CORNERS,
    MAX_SWEEP_POINTS,
    ExperimentSpec,
    SyntheticSource,
    build_synthetic_gallery,
)
from retina_id.harris import HarrisParams
from retina_id.imaging import RasterImage, load_image, save_image
from retina_id.matcher import Weights
from retina_id.optic_disc import OdParams
from retina_id.store import (
    SNAPSHOT_NAME,
    GalleryRecord,
    add_records,
    gallery_lock,
    load_gallery,
    render_record,
)

from oracles import load_fundus

README = Path(__file__).resolve().parent.parent / "README.md"


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

    def test_huge_int_od_flag_is_input_error(self, square_image, tmp_path):
        r = run_cli("enroll", square_image, "a", "--gallery", tmp_path / "g",
                    "--od-margin", "9" * 400)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "margin must be finite" in r.stderr
        assert not (tmp_path / "g").exists()

    def test_huge_int_od_config_is_input_error(self, square_image, tmp_path):
        cfg = tmp_path / "od.conf"
        cfg.write_text(f"od_search_stride = {'9' * 400}\n")
        r = run_cli("detect", square_image, "--config", cfg)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "search_stride must be finite" in r.stderr

    def test_unknown_config_key_is_input_error(self, square_image, tmp_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("nonsense = 1\n")
        r = run_cli("detect", square_image, "--config", cfg)
        assert r.returncode == 2
        assert "unknown key" in r.stderr

    @pytest.mark.parametrize("setting", ["k = x", "window_radius = 2.5", "seed = 1e3"])
    def test_bad_config_value_names_file_line_and_key(self, square_image, tmp_path, setting):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# detector\nsigma = 1.5\n{setting}\n")
        r = run_cli("detect", square_image, "--config", cfg)
        assert r.returncode == 2
        assert r.stdout == ""
        key = setting.split()[0]
        assert r.stderr.startswith(f"error: {cfg}:3: bad value for {key!r}: ")

    @pytest.mark.parametrize("lines,line,key,reason", [
        (["od_margin = 10"], 2, "od_margin", "margin must be at least template_radius"),
        (["sigma = inf"], 2, "sigma", "sigma must be positive and finite"),
        (["k = 0.05", "w3 = -1"], 3, "w3", "class weights must be finite and non-negative"),
        (["w1 = 1e308"], 2, "w1", "class weights too large"),
        # Valid on their own, refused together: the line whose removal helps.
        (["od_template_radius = 60", "od_margin = 50"], 2, "od_template_radius",
         "margin must be at least template_radius"),
        (["od_margin = 10", "od_template_radius = 5", "od_search_stride = 0"], 4,
         "od_search_stride", "search_stride must be at least 1"),
        # Two bad lines: the first is named.
        (["sigma = inf", "k = nan"], 2, "sigma", "sigma must be positive and finite"),
    ], ids=["margin", "sigma", "weight", "weight-overflow", "pair", "fixed-pair", "two-bad"])
    def test_out_of_range_config_value_names_file_line_and_key(self, square_image, tmp_path,
                                                                lines, line, key, reason):
        cfg = tmp_path / "range.cfg"
        cfg.write_text("\n".join(["# settings", *lines]) + "\n")
        r = run_cli("detect", square_image, "--config", cfg)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith(f"error: {cfg}:{line}: bad value for {key!r}: {reason}")

    def test_out_of_range_flag_names_no_config_line(self, square_image, tmp_path):
        # The flag's value is at fault, so no config line is named.
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("od_margin = 50\n")
        r = run_cli("detect", square_image, "--config", cfg)
        assert r.returncode == 0, r.stderr
        r = run_cli("enroll", square_image, "a", "--gallery", tmp_path / "g", "--config", cfg,
                    "--od-template-radius", "60")
        assert r.returncode == 2
        assert r.stderr == "error: margin must be at least template_radius\n"


# config key, flag, config value, flag value, resolved attribute
SETTINGS = [
    ("k", "--k", "0.1", "0.2", "harris.k"),
    ("threshold", "--det-threshold", "10", "20", "harris.threshold"),
    ("sigma", "--sigma", "1", "2", "harris.sigma"),
    ("window_radius", "--window-radius", "2", "3", "harris.window_radius"),
    ("nms_radius", "--nms-radius", "2", "5", "harris.nms_radius"),
    ("border_margin", "--border-margin", "7", "9", "harris.border_margin"),
    ("od_template_radius", "--od-template-radius", "20", "30", "od_params.template_radius"),
    ("od_search_stride", "--od-search-stride", "2", "3", "od_params.search_stride"),
    ("od_margin", "--od-margin", "50", "60", "od_params.margin"),
    ("w1", "--w1", "0.5", "3", "weights.w1"),
    ("w2", "--w2", "0.5", "3", "weights.w2"),
    ("w3", "--w3", "0.5", "3", "weights.w3"),
    ("gallery", "--gallery", "cfg-gallery", "flag-gallery", "gallery"),
    ("seed", "--seed", "7", "8", "seed"),
]
DEFAULTS = cli.Settings(HarrisParams(), OdParams(), Weights(), Path("gallery"), 42)


class TestSettings:
    @pytest.mark.parametrize("key,flag,cfg_value,flag_value,attr", SETTINGS,
                             ids=[case[0] for case in SETTINGS])
    def test_flag_beats_config_beats_default(self, tmp_path, key, flag, cfg_value, flag_value, attr):
        get = attrgetter(attr)
        cfg = tmp_path / "settings.conf"
        cfg.write_text(f"{key} = {cfg_value}\n")

        # a command whose flags include this setting's flag
        if key == "seed":
            command = ["eval"]
        elif cli._SETTINGS[key][0] is HarrisParams:
            command = ["detect", "x.pgm"]
        else:
            command = ["identify", "x.pgm"]

        def resolve(*argv):
            args = cli._build_parser().parse_args([*command, *map(str, argv)])
            return get(cli._resolve_settings(args))

        default = get(DEFAULTS)
        cast = type(default)
        assert cast(cfg_value) != default and cast(flag_value) != default
        assert resolve() == default
        assert resolve("--config", cfg) == cast(cfg_value)
        assert resolve(flag, flag_value) == cast(flag_value)
        assert resolve("--config", cfg, flag, flag_value) == cast(flag_value)

    def test_readme_example_lists_every_key(self, tmp_path, square_image):
        block = README.read_text(encoding="utf-8").split("```ini\n", 1)[1].split("```", 1)[0]
        lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
        keys = [line.split("=", 1)[0].strip() for line in lines if line]
        assert sorted(keys) == sorted(case[0] for case in SETTINGS)
        cfg = tmp_path / "readme.conf"
        cfg.write_text(block)
        r = run_cli("detect", square_image, "--config", cfg)
        assert r.returncode == 0, r.stderr
        assert r.stdout == run_cli("detect", square_image).stdout

    def test_verify_threshold_and_detector_threshold_stay_apart(self, eye_image, tmp_path, monkeypatch):
        gal = tmp_path / "gal"
        assert cli.main(["enroll", str(eye_image), "alice", "--gallery", str(gal), "--od", "80,80"]) == 0
        seen = []

        def detect_spy(m, od, params):
            seen.append(("det", params.threshold))
            return gated_template(m, od, params)

        def verify_spy(template, record, threshold, weights):
            seen.append(("verify", threshold))
            return verify(template, record, threshold, weights)

        gated_template, verify = cli.gated_template, cli.verify
        monkeypatch.setattr(cli, "gated_template", detect_spy)
        monkeypatch.setattr(cli, "verify", verify_spy)
        argv = ["verify", str(eye_image), "alice", "--gallery", str(gal), "--od", "80,80"]
        cli.main(argv + ["--threshold", "5"])
        cli.main(argv + ["--det-threshold", "9", "--threshold", "5"])
        cli.main(argv + ["--threshold", "5", "--det-threshold", "9"])
        default = HarrisParams().threshold
        assert seen == [("det", default), ("verify", 5.0)] + [("det", 9.0), ("verify", 5.0)] * 2


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

    def test_enroll_onto_multi_subject_file_refused(self, eye_image, tmp_path):
        gal = tmp_path / "gal"
        gal.mkdir()
        records, _ = build_synthetic_gallery(2, 10, seed=3)
        team = gal / "team.rtpl"
        team.write_text("".join(render_record(rec) for rec in records))
        before = team.read_bytes()
        r = run_cli("enroll", eye_image, "team", "--gallery", gal, "--od", "80,80")
        assert r.returncode == 2
        assert "already exists" in r.stderr
        assert team.read_bytes() == before
        assert sorted(p.name for p in gal.glob("*.rtpl")) == ["team.rtpl"]
        assert load_gallery(gal).subject_ids == ["s001", "s002"]

    def test_invalid_subject_id_rejected(self, eye_image, tmp_path):
        r = run_cli("enroll", eye_image, "no spaces", "--gallery", tmp_path / "g")
        assert r.returncode == 2

    def test_sidecar_od_used(self, eye_image, tmp_path):
        (tmp_path / "eye.pgm.od").write_text("80 80\n")
        gal = tmp_path / "gal"
        r = run_cli("enroll", eye_image, "carol", "--gallery", gal)
        assert r.returncode == 0, r.stderr
        assert "od 80 80 manual" in (gal / "carol.rtpl").read_text()

    @pytest.mark.parametrize("text", ["80 80 junk\n", "1 2 3 4\n"])
    def test_sidecar_with_extra_tokens_exit_2(self, eye_image, tmp_path, text):
        (tmp_path / "eye.pgm.od").write_text(text)
        gal = tmp_path / "gal"
        r = run_cli("enroll", eye_image, "carol", "--gallery", gal)
        assert r.returncode == 2
        assert "eye.pgm.od: expected 'x y'" in r.stderr
        assert not (gal / "carol.rtpl").exists()

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

    def test_identify_output_does_not_depend_on_the_snapshot(self, eye_image, tmp_path,
                                                            monkeypatch, capsysbinary):
        # The gallery snapshot is a memo: deleting it changes no byte.
        monkeypatch.chdir(tmp_path)
        assert cli.main(["synth", "--subjects", "50", "--out", "gal", "--seed", "7"]) == 0
        argv = ["identify", str(eye_image), "--gallery", "gal", "--od", "80,80", "--top-k", "5"]
        capsysbinary.readouterr()
        assert cli.main(argv) == 0
        with_snapshot = capsysbinary.readouterr()
        (tmp_path / "gal" / SNAPSHOT_NAME).unlink()
        assert cli.main(argv) == 0
        assert capsysbinary.readouterr() == with_snapshot
        assert len(with_snapshot.out.splitlines()) == 5

    def test_identify_top_k_rows_are_the_exact_rankings_head(self, eye_image, tmp_path,
                                                            monkeypatch, capsys):
        # Twins of the probe's own template hold places 1-3 and twins of a
        # weaker copy places 4-7, so the cuts at k = 1, 2 and 5 each fall
        # between two equal totals.
        monkeypatch.chdir(tmp_path)
        assert cli.main(["enroll", str(eye_image), "a0", "--gallery", "gal", "--od", "80,80"]) == 0
        own = load_gallery(Path("gal")).get("a0").template
        weaker = own.vectors.copy()
        weaker[0] = 0.0
        others = build_synthetic_gallery(3, 20, 17)[0]
        records = [GalleryRecord(f"a{i}", own) for i in (1, 2)]
        records += [GalleryRecord(f"b{i}", FeatureTemplate(weaker)) for i in range(4)]
        records += [GalleryRecord(f"c{i}", rec.template) for i, rec in enumerate(others)]
        add_records(Path("gal"), records)
        add_records(Path("small"), records[:2] + records[3:4])
        argv = ["identify", str(eye_image), "--od", "80,80", "--top-k"]
        capsys.readouterr()

        def rows(gallery, k):
            assert cli.main([*argv, str(k), "--gallery", gallery]) == 0
            return capsys.readouterr().out.splitlines()

        # top_k at least the gallery size ranks every record exactly.
        exact = rows("gal", 10)
        assert [row.split()[1] for row in exact[:7]] == ["a0", "a1", "a2", "b0", "b1", "b2", "b3"]
        for k in (1, 2, 5):
            assert exact[k - 1].split()[2:] == exact[k].split()[2:]
            assert rows("gal", k) == exact[:k]
        assert rows("small", 5) == rows("small", 3)
        assert len(rows("small", 5)) == 3

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

    def test_identify_overflowing_weights_exit_2(self, tmp_path):
        # Each weight is finite, but the totals would all be inf and rank by id.
        gal, images = self.enroll_two(tmp_path)
        r = run_cli("identify", images["ann"], "--gallery", gal, "--od", "80,80",
                    "--w1", "1e308", "--w2", "1e308", "--w3", "1e308")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "weights too large" in r.stderr
        assert "Warning" not in r.stderr

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

    def test_identify_carriage_return_in_provenance_exit_2(self, tmp_path):
        gal, images = self.enroll_two(tmp_path)
        path = gal / "ben.rtpl"
        lines = path.read_text().split("\n")
        lines[3] = "image syn\rthetic"
        path.write_bytes("\n".join(lines).encode("utf-8"))
        r = run_cli("identify", images["ann"], "--gallery", gal, "--od", "80,80")
        assert r.returncode == 2
        assert r.stdout == ""
        # The gallery is read without newline translation: the CR stays in
        # the image line, which the error names.
        assert "ben.rtpl:4: provenance" in r.stderr

    def test_identify_non_utf8_gallery_file_exit_2(self, tmp_path):
        gal, images = self.enroll_two(tmp_path)
        path = gal / "ben.rtpl"
        lines = path.read_bytes().split(b"\n")
        lines[3] = b"image caf\xe9.pgm"
        path.write_bytes(b"\n".join(lines))
        r = run_cli("identify", images["ann"], "--gallery", gal, "--od", "80,80")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "ben.rtpl:4: not valid UTF-8" in r.stderr

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

    def test_synth_onto_enrolled_id_exit_2_and_unchanged(self, tmp_path):
        gal = tmp_path / "gal"
        gal.mkdir()
        records, _ = build_synthetic_gallery(2, 10, seed=3)
        (gal / "team.rtpl").write_text("".join(render_record(rec) for rec in records))
        before = {p.name: p.read_bytes() for p in gal.iterdir()}
        r = run_cli("synth", "--subjects", "3", "--out", gal, "--seed", "5")
        assert r.returncode == 2
        assert "already enrolled" in r.stderr
        assert {p.name: p.read_bytes() for p in gal.iterdir() if p.name != ".lock"} == before
        assert load_gallery(gal).subject_ids == ["s001", "s002"]

    def test_synth_onto_existing_file_exit_2_and_unchanged(self, tmp_path):
        gal = tmp_path / "gal"
        gal.mkdir()
        records, _ = build_synthetic_gallery(1, 10, seed=3)
        (gal / "s002.rtpl").write_text(render_record(records[0]).replace("s001", "other"))
        before = {p.name: p.read_bytes() for p in gal.iterdir()}
        r = run_cli("synth", "--subjects", "3", "--out", gal, "--seed", "5")
        assert r.returncode == 2
        assert "s002.rtpl already exists" in r.stderr
        assert {p.name: p.read_bytes() for p in gal.iterdir() if p.name != ".lock"} == before

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_synth_writes_to_gallery_setting(self, tmp_path, monkeypatch, how):
        monkeypatch.chdir(tmp_path)
        gal = tmp_path / "D"
        if how == "flag":
            extra = ["--gallery", str(gal)]
        else:
            (tmp_path / "cfg").write_text(f"gallery = {gal}\n")
            extra = ["--config", "cfg"]
        assert cli.main(["synth", "--subjects", "2", *extra]) == 0
        assert load_gallery(gal).subject_ids == ["s001", "s002"]
        assert not (tmp_path / "gallery").exists()

    def test_synth_waits_for_the_gallery_lock(self, tmp_path):
        gal = tmp_path / "gal"
        codes = []
        writer = threading.Thread(
            target=lambda: codes.append(cli.main(["synth", "--subjects", "1", "--out", str(gal)])))
        with gallery_lock(gal):
            writer.start()
            writer.join(timeout=1.0)
            assert writer.is_alive()
            assert not (gal / "s001.rtpl").exists()
        writer.join(timeout=30)
        assert codes == [0]
        assert load_gallery(gal).subject_ids == ["s001"]

    def test_synth_zero_subjects_usage_error(self, tmp_path):
        r = run_cli("synth", "--subjects", "0", "--out", tmp_path / "g")
        assert r.returncode == 2

    def test_eval_images_sharing_an_id_exit_2(self, eye_image, tmp_path):
        images = tmp_path / "imgs"
        images.mkdir()
        for name in ("a.pgm", "a.ppm"):
            (images / name).write_bytes(eye_image.read_bytes())
            (images / f"{name}.od").write_text("80 80\n")
        r = run_cli("eval", "--images", images, "--rotations", "1")
        assert r.returncode == 2
        assert "duplicate subject" in r.stderr and "'a'" in r.stderr
        assert r.stdout == ""

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

    def test_eval_image_far_frr_sweep(self, tmp_path, eye_image):
        images = tmp_path / "images"
        images.mkdir()
        pixels = load_image(eye_image).pixels
        for name, m in (("a.pgm", pixels), ("b.pgm", pixels.T.copy())):
            save_image(RasterImage(m), images / name)
            (images / f"{name}.od").write_text("80 80\n")
        out = tmp_path / "sweep.csv"
        r = run_cli("eval", "--images", images, "--rotations", "1", "--angle-range", "10",
                    "--far-frr-csv", out, "--sweep-points", "5")
        assert r.returncode == 0, r.stderr
        assert "subjects: 2" in r.stdout
        lines = out.read_text().splitlines()
        assert lines[0] == "threshold,far_percent,frr_percent"
        assert len(lines) == 6
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

    def test_eval_images_output_pinned(self, tmp_path):
        # Four seeded DRIVE-size captures, sparse and dense, with no .od
        # sidecars, so every OD, the enrolment's and each probe's, is searched.
        fundus = load_fundus()
        images = tmp_path / "images"
        images.mkdir()
        for seed, regime in enumerate((fundus.SPARSE, fundus.DENSE) * 2, start=1):
            rng = np.random.default_rng(seed)
            scene, centre = fundus.make_scene(rng, regime)
            (images / f"e{seed}.pgm").write_bytes(
                fundus.pgm_bytes(fundus.capture(scene, centre, rng, regime), False))
        acc = tmp_path / "acc.csv"
        sweep = tmp_path / "sweep.csv"
        r = run_cli("eval", "--images", images, "--rotations", "1,2", "--sweep-probes", "1",
                    "--sweep-points", "11", "--csv", acc, "--far-frr-csv", sweep)
        assert r.returncode == 0, r.stderr
        assert r.stdout == (
            "Times of rotation       1      2      Mean\n"
            "Accuracy                100%   100%   100%\n"
            "Accuracy (normalized)   100%   100%   100%\n"
            "\n"
            "subjects: 4   probes: 12\n")
        assert acc.read_bytes() == b"rotations,accuracy_percent\n1,100\n2,100\nmean,100\n"
        assert sweep.read_bytes() == (
            b"threshold,far_percent,frr_percent\n"
            b"0,100,0\n70.98,100,0\n141.96,100,0\n212.94,50,0\n283.92,0,0\n354.9,0,25\n"
            b"425.88,0,25\n496.86,0,50\n567.84,0,100\n638.82,0,100\n709.8,0,100\n")

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
        ("--sweep-points", "-1"),
        ("--sweep-points", "0"),
        ("--sweep-probes", "0"),
    ], ids=["points-1", "points0", "probes0"])
    def test_eval_bad_sweep_input_fails_before_output(self, tmp_path, extra):
        acc = tmp_path / "acc.csv"
        r = run_cli("eval", "--subjects", "3", "--corners", "5", "--rotations", "1",
                    "--csv", acc, "--far-frr-csv", tmp_path / "sweep.csv", *extra)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "error:" in r.stderr
        assert not acc.exists()
        assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("rotations", ["0", "5,-1"])
    def test_eval_bad_rotations_fail_before_sweep(self, tmp_path, monkeypatch, rotations):
        calls = []
        monkeypatch.setattr(cli, "far_frr_csv", lambda *args: calls.append(args) or "")
        sweep = tmp_path / "sweep.csv"
        assert cli.main(["eval", "--rotations", rotations, "--far-frr-csv", str(sweep)]) == 2
        assert calls == []
        assert not sweep.exists()

    def test_missing_subcommand_usage_error(self):
        r = run_cli()
        assert r.returncode == 2


# Flags listed by `--help`: each command offers the flags of only the settings
# it reads.  The parsed defaults of the subcommands whose inputs the
# evaluation module owns were recorded before their flags were derived from
# ExperimentSpec, SyntheticSource and DEFAULT_COUNTS.
BASE_FLAGS = ["--config", "--help", "-h"]
HARRIS_FLAGS = ["--border-margin", "--det-threshold", "--k", "--nms-radius", "--sigma",
                "--window-radius"]
OD_PARAM_FLAGS = ["--od-margin", "--od-search-stride", "--od-template-radius"]
WEIGHT_FLAGS = ["--w1", "--w2", "--w3"]
QUERY_FLAGS = BASE_FLAGS + HARRIS_FLAGS + OD_PARAM_FLAGS + ["--od", "--gallery"]
HELP_FLAGS = {
    "detect": BASE_FLAGS + HARRIS_FLAGS,
    "enroll": QUERY_FLAGS,
    "identify": QUERY_FLAGS + WEIGHT_FLAGS + ["--top-k"],
    "verify": QUERY_FLAGS + WEIGHT_FLAGS + ["--threshold"],
    "eval": BASE_FLAGS + HARRIS_FLAGS + OD_PARAM_FLAGS + WEIGHT_FLAGS + [
        "--seed", "--angle-range", "--corners", "--csv", "--far-frr-csv", "--images",
        "--integer-angles", "--jitter-deg", "--jitter-px", "--rotations", "--subjects",
        "--sweep-points", "--sweep-probes"],
    "synth": BASE_FLAGS + ["--gallery", "--seed", "--corners", "--out", "--subjects"],
}
SETTING_DESTS = {
    "eval": [case[0] for case in SETTINGS if case[0] != "gallery"],
    "synth": ["gallery", "seed"],
}
OWN_DEFAULTS = {
    "eval": {"subjects": 50, "corners": 20, "rotations": "5,10,20", "angle_range": 15.0,
             "jitter_px": 0.5, "jitter_deg": 0.5, "integer_angles": False, "images": None,
             "csv": None, "far_frr_csv": None, "sweep_points": 100, "sweep_probes": 3},
    "synth": {"subjects": 1, "corners": 20},
}


class TestEvalInputs:
    @pytest.mark.parametrize("command", sorted(HELP_FLAGS))
    def test_help_flags_unchanged(self, command):
        r = run_cli(command, "--help")
        assert r.returncode == 0
        flags = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", r.stdout))
        assert flags == set(HELP_FLAGS[command])

    @pytest.mark.parametrize("command", sorted(OWN_DEFAULTS))
    def test_parsed_defaults_unchanged(self, command):
        extra = ["--subjects", "1"] if command == "synth" else []
        parsed = vars(cli._build_parser().parse_args([command, *extra]))
        del parsed["func"]
        assert parsed == {"command": command, "config": None,
                          **dict.fromkeys(SETTING_DESTS[command]),
                          **OWN_DEFAULTS[command]}

    def protocol_calls(self, monkeypatch, argv):
        calls = []

        def protocol(source, spec, counts, weights):
            calls.append((source, spec, counts))
            return SimpleNamespace(to_table=lambda: "")

        monkeypatch.setattr(cli, "rotation_protocol", protocol)
        assert cli.main(["eval", *argv]) == 0
        return calls

    def test_eval_defaults_come_from_the_library(self, monkeypatch):
        assert self.protocol_calls(monkeypatch, []) == [(
            SyntheticSource(50, SyntheticSource.n_corners),
            ExperimentSpec(rng_seed=ExperimentSpec.rng_seed),
            DEFAULT_COUNTS,
        )]

    @pytest.mark.parametrize("argv,field", [
        (["--angle-range", "7"], {"angle_range": 7.0}),
        (["--jitter-px", "0.25"], {"jitter_px": 0.25}),
        (["--jitter-deg", "2"], {"jitter_deg": 2.0}),
        (["--integer-angles"], {"integer_angles": True}),
        (["--seed", "5"], {"rng_seed": 5}),
    ], ids=["angle-range", "jitter-px", "jitter-deg", "integer-angles", "seed"])
    def test_eval_spec_flags_reach_the_spec(self, monkeypatch, argv, field):
        [(_, spec, _)] = self.protocol_calls(monkeypatch, argv)
        assert spec == ExperimentSpec(**field)

    def test_synth_corners_default_from_the_library(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(cli, "build_synthetic_gallery",
                            lambda *args: calls.append(args) or ([], []))
        assert cli.main(["synth", "--subjects", "2", "--out", str(tmp_path / "g")]) == 0
        assert calls == [(2, SyntheticSource.n_corners, ExperimentSpec.rng_seed)]

    @pytest.mark.parametrize("command", ["synth", "eval"])
    def test_corners_above_bound_exit_2(self, tmp_path, command):
        out = tmp_path / "out"
        extra = (["--subjects", "1", "--out", out] if command == "synth"
                 else ["--subjects", "3", "--rotations", "1", "--csv", out])
        r = run_cli(command, "--corners", MAX_CORNERS + 1, *extra)
        assert r.returncode == 2
        assert r.stdout == ""
        assert f"n_corners must be between 1 and {MAX_CORNERS}" in r.stderr
        assert not out.exists()

    def test_sweep_points_above_bound_exit_2(self, tmp_path):
        acc = tmp_path / "acc.csv"
        sweep = tmp_path / "sweep.csv"
        r = run_cli("eval", "--subjects", "3", "--corners", "5", "--rotations", "1",
                    "--csv", acc, "--far-frr-csv", sweep,
                    "--sweep-points", MAX_SWEEP_POINTS + 1)
        assert r.returncode == 2
        assert r.stdout == ""
        assert f"at most {MAX_SWEEP_POINTS}" in r.stderr
        assert not acc.exists() and not sweep.exists()


class TestFlagSurface:
    """Each command parses the flags of only the settings it reads, and only
    by their full names."""

    def test_eval_images_with_manual_od_exit_2(self, tmp_path, eye_image):
        images = tmp_path / "imgs"
        images.mkdir()
        (images / "a.pgm").write_bytes(eye_image.read_bytes())
        acc = tmp_path / "acc.csv"
        r = run_cli("eval", "--images", images, "--rotations", "1", "--csv", acc, "--od", "5,5")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "unrecognized arguments: --od 5,5" in r.stderr
        assert not acc.exists()

    def test_synth_detector_flag_exit_2(self, tmp_path):
        out = tmp_path / "G"
        r = run_cli("synth", "--subjects", "1", "--k", "0.2", "--out", out)
        assert r.returncode == 2
        assert "unrecognized arguments: --k 0.2" in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["detect", "IMG", "--w1", "3"],
        ["enroll", "IMG", "a", "--seed", "3"],
        ["identify", "IMG", "--top", "1"],
    ], ids=["detect-w1", "enroll-seed", "identify-prefix"])
    def test_unread_or_abbreviated_flag_exit_2(self, tmp_path, monkeypatch, capsys,
                                               eye_image, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main([str(eye_image) if tok == "IMG" else tok for tok in argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
        assert not (tmp_path / "gallery").exists()

    @pytest.mark.parametrize("argv", [
        ["eval", "--od", "5,5"],
        ["identify", "IMG", "--top", "1"],
    ], ids=["eval-od", "identify-prefix"])
    def test_unknown_flag_shows_subcommand_usage(self, tmp_path, monkeypatch, capsys,
                                                 eye_image, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main([str(eye_image) if tok == "IMG" else tok for tok in argv])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"usage: retina-id {argv[0]} ")

    @pytest.mark.parametrize("command", ["enroll", "verify"])
    def test_invalid_subject_id_fails_before_any_file_is_read(self, tmp_path, monkeypatch,
                                                              capsys, command):
        for name in ("load_image", "load_gallery"):
            monkeypatch.setattr(cli, name, lambda *args, name=name: pytest.fail(f"{name} called"))
        argv = [command, "eye.pgm", "bad id", "--gallery", str(tmp_path / "g")]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + (["--threshold", "1"] if command == "verify" else []))
        assert exc.value.code == 2
        assert "invalid subject_id 'bad id'" in capsys.readouterr().err

    def test_synth_out_is_the_gallery_setting(self):
        parse = cli._build_parser().parse_args
        args = parse(["synth", "--subjects", "1", "--out", "A"])
        assert "out" not in vars(args)
        assert cli._resolve_settings(args).gallery == Path("A")
        assert parse(["synth", "--subjects", "1", "--gallery", "B", "--out", "A"]).gallery == "A"
        assert parse(["synth", "--subjects", "1", "--out", "A", "--gallery", "B"]).gallery == "B"
