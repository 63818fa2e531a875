"""End-to-end command-line checks, run through subprocess for honest exit
codes and stream handling; the few that watch the CLI's internal calls run
`cli.main` in-process."""

import re
import subprocess
import sys
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from retina_id import cli
from retina_id.evaluation import (
    DEFAULT_COUNTS,
    MAX_CORNERS,
    MAX_SWEEP_POINTS,
    ExperimentSpec,
    SyntheticSource,
    build_synthetic_gallery,
)
from retina_id.harris import HarrisParams
from retina_id.imaging import RasterImage, save_image
from retina_id.matcher import Weights
from retina_id.optic_disc import OdParams
from retina_id.store import load_gallery, render_record

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

    def test_huge_int_od_flag_is_input_error(self, square_image):
        # detect never reads the OD setting, but every command builds it.
        r = run_cli("detect", square_image, "--od-margin", "9" * 400)
        assert r.returncode == 2
        assert r.stdout == ""
        assert "margin must be finite" in r.stderr

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

        def resolve(*argv):
            args = cli._build_parser().parse_args(["detect", "x.pgm", *map(str, argv)])
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

        def detect_spy(m, params):
            seen.append(("det", params.threshold))
            return detect_corners(m, params)

        def verify_spy(template, record, threshold, weights):
            seen.append(("verify", threshold))
            return verify(template, record, threshold, weights)

        detect_corners, verify = cli.detect_corners, cli.verify
        monkeypatch.setattr(cli, "detect_corners", detect_spy)
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


# Flags listed by `--help` and the parsed defaults of the subcommands whose
# inputs the evaluation module owns, recorded before their flags were
# derived from ExperimentSpec, SyntheticSource and DEFAULT_COUNTS.
COMMON_FLAGS = ["--border-margin", "--config", "--det-threshold", "--gallery", "--help", "--k",
                "--nms-radius", "--od", "--od-margin", "--od-search-stride",
                "--od-template-radius", "--seed", "--sigma", "--w1", "--w2", "--w3",
                "--window-radius", "-h"]
HELP_FLAGS = {
    "eval": COMMON_FLAGS + ["--angle-range", "--corners", "--csv", "--far-frr-csv", "--images",
                            "--integer-angles", "--jitter-deg", "--jitter-px", "--rotations",
                            "--subjects", "--sweep-points", "--sweep-probes"],
    "synth": COMMON_FLAGS + ["--corners", "--out", "--subjects"],
}
OWN_DEFAULTS = {
    "eval": {"subjects": 50, "corners": 20, "rotations": "5,10,20", "angle_range": 15.0,
             "jitter_px": 0.5, "jitter_deg": 0.5, "integer_angles": False, "images": None,
             "csv": None, "far_frr_csv": None, "sweep_points": 100, "sweep_probes": 3},
    "synth": {"subjects": 1, "corners": 20, "out": "gallery"},
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
        assert parsed == {"command": command, "config": None, "od": None,
                          **dict.fromkeys(case[0] for case in SETTINGS),
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
