"""The benchmark's workloads: inputs, set-up, validation and operations.

Every workload is a closed loop with one client.  `block()` lists a fixed
set of CLI calls (a fixed mix of image regime, file format and command);
the loop repeats the whole block, so every run measures the same mix
whatever its length, and each call has repeats to take the fastest of.

* fundus-cli   - enroll / identify / verify on DRIVE-size images with
                 automatic optic-disc search against a 20-subject gallery.
* gallery-cli  - the same commands on 200x200 optic-disc crops with `.od`
                 sidecars against 1000 synthetic records plus 20 subjects.
* rotation-eval - `retina-id eval`, the 50-subject rotation protocol with a
                 FAR/FRR sweep.

See README.md beside this file for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import math
import multiprocessing
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import fundus
from retina_id import cli
from retina_id.encoder import encode, polarize
from retina_id.harris import detect_corners
from retina_id.imaging import load_image, rotate_about, to_intensity
from retina_id.matcher import identify, total_si
from retina_id.optic_disc import OdCenter, locate_od
from retina_id.store import load_gallery

OD_TOLERANCE_PX = 3.0
MIN_ROTATION_DEG = 3.0
MAX_ROTATION_DEG = 10.0
CROP_OD = (float(fundus.CROP_HALF), float(fundus.CROP_HALF))
ENROLL_ID = "bench_new"
_ENROLLED = re.compile(
    r"enrolled (\S+) from (\S+) \(od (\S+),(\S+) (detected|manual); slots (\d+)/(\d+)/(\d+)\)\n\Z")


@dataclass(frozen=True)
class Scale:
    """Input sizes.  FULL is the benchmark; the harness self-test uses a tiny one."""

    subjects: int = 20
    probes: int | None = None  # probe subjects per block; None: one per command slot
    synth: int = 1000
    setup_reps: int = 3
    eval_subjects: int = 50
    eval_rotations: tuple = (5, 10, 20)


FULL = Scale()


@dataclass
class Op:
    """One CLI call.  `check(code, stdout)` returns (error or None, rank-1
    hits, rank-1 trials); `cleanup` runs untimed after the call."""

    kind: str
    argv: list
    check: Callable
    meta: dict = field(default_factory=dict)
    probes: int = 1
    cleanup: Callable | None = None
    extra_output: Callable | None = None


@dataclass
class Capture:
    """A generated subject: its upright and rotated full-size captures."""

    sid: str
    regime: str
    center: tuple
    base: np.ndarray
    rotated: np.ndarray


@dataclass
class Subject:
    """What the measuring process keeps of a subject: the rotated
    capture's optic-disc crop, for validation."""

    sid: str
    regime: str
    center: tuple
    probe_crop: np.ndarray


def subject_id(i: int) -> str:
    return f"eye{i + 1:02d}"


def make_captures(seed: int, regimes) -> list[Capture]:
    """One scene per regime entry; the enrolment capture is upright, the
    probe capture is rotated about the disc centre by 3 to 10 degrees either
    way (near-zero angles would leave the probe almost unresampled)."""
    out = []
    for i, regime in enumerate(regimes):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7, i]))
        scene, center = fundus.make_scene(rng, regime)
        angle = float(rng.uniform(MIN_ROTATION_DEG, MAX_ROTATION_DEG)) * (1 if rng.random() < 0.5 else -1)
        rotated = rotate_about(scene, center, angle)
        out.append(Capture(
            sid=subject_id(i), regime=regime.name, center=center,
            base=fundus.capture(scene, center, rng, regime),
            rotated=fundus.capture(rotated, center, rng, regime)))
    return out


def in_child(fn, *args):
    """`fn(*args)` in a forked child process that sends the result back, so
    that the child's allocations do not count in this process's peak memory."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def target():
        try:
            send.send((None, fn(*args)))
        except BaseException as exc:  # noqa: BLE001 - reported by the parent
            send.send((f"{type(exc).__name__}: {exc}", None))

    child = ctx.Process(target=target)
    child.start()
    send.close()
    try:
        error, result = recv.recv()
    except EOFError:
        error, result = "the child process died", None
    child.join()
    if error is not None:
        raise RuntimeError(error)
    return result


def _call(argv) -> None:
    """Run one set-up CLI command in-process; raise on failure."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"set-up command {argv[0]} exited {code}: {err.getvalue().strip()}")


def _write_sidecar(image_path: Path) -> None:
    Path(f"{image_path}.od").write_text(f"{fundus.CROP_HALF} {fundus.CROP_HALF}\n", encoding="ascii")


def _template(m: np.ndarray, od: OdCenter):
    return encode(polarize(detect_corners(m), od))


class CliWorkload:
    """Shared shape of the two CLI workloads: a gallery of enrolled subjects,
    rotated probes, and blocks of identify / verify / enroll calls."""

    name = ""
    # Per probe slot: (regime, ascii P2 file?) and the command it runs.
    # Subjects past the probe slots are gallery-only and alternate regimes.
    probe_mix: tuple = ()
    kinds: tuple = ()

    def __init__(self, seed: int, workdir: Path, scale: Scale = FULL):
        self.n_probes = len(self.kinds) if scale.probes is None else scale.probes
        if not 2 <= self.n_probes <= scale.subjects:
            raise ValueError("a CLI workload needs 2 to `subjects` probe subjects")
        self.seed = seed
        self.workdir = workdir
        self.scale = scale
        self.gallery: Path | None = None
        self.thresholds: dict = {}

    # -- inputs --------------------------------------------------------------
    def prepare(self) -> None:
        """Generate the inputs in a child process, so that the generator's
        full-size arrays do not set this process's peak memory."""
        n_probe = self.n_probes
        mix = [self.probe_mix[j % len(self.probe_mix)] for j in range(n_probe)]
        self.p2 = [p2 for _, p2 in mix]
        regimes = [fundus.DENSE if r == "dense" else fundus.SPARSE for r, _ in mix]
        regimes += [fundus.SPARSE if i % 2 == 0 else fundus.DENSE
                    for i in range(self.scale.subjects - n_probe)]
        (self.workdir / "enroll").mkdir(parents=True)
        (self.workdir / "probe").mkdir()
        self.subjects = in_child(self.write_inputs, regimes)

    def write_inputs(self, regimes) -> list[Subject]:
        """Write the enrolment crops with sidecars and the probe files."""
        captures = make_captures(self.seed, regimes)
        for c in captures:
            path = self.workdir / "enroll" / f"{c.sid}.pgm"
            path.write_bytes(fundus.pgm_bytes(fundus.crop(c.base, c.center), ascii_p2=False))
            _write_sidecar(path)
        for j in range(self.n_probes):
            self.write_probe(captures[j], self.probe_path(j), self.p2[j])
        return [Subject(c.sid, c.regime, c.center, fundus.crop(c.rotated, c.center)) for c in captures]

    def probe_path(self, j: int) -> Path:
        return self.workdir / "probe" / f"{subject_id(j)}.pgm"

    def write_probe(self, capture: Capture, path: Path, ascii_p2: bool) -> None:
        raise NotImplementedError

    def shares(self) -> dict:
        n = self.n_probes
        return {"dense_pct": 100.0 * sum(self.subjects[j].regime == "dense" for j in range(n)) / n,
                "p2_pct": 100.0 * sum(self.p2) / n}

    # -- set-up (timed) ------------------------------------------------------
    def setup(self, rep: int) -> None:
        gallery = self.workdir / f"gallery-{rep}"
        for s in self.subjects:
            _call(["enroll", self.workdir / "enroll" / f"{s.sid}.pgm", s.sid, "--gallery", gallery])
        self.gallery = gallery

    def drop_gallery(self, rep: int) -> None:
        shutil.rmtree(self.workdir / f"gallery-{rep}")

    # -- validation ----------------------------------------------------------
    def probe_template(self, j: int):
        """The rotated probe's template from its optic-disc crop and the
        planted centre.  A crop covers the 80 px gate plus the detector's
        reach, so this equals the template of the full rotated image with
        that centre."""
        m = self.subjects[j].probe_crop.astype(np.float64)
        return _template(m, OdCenter(*CROP_OD, 1.0, "manual"))

    def validate(self) -> dict:
        """Check the inputs in a child process, which also keeps the
        checks' allocations out of this process's peak memory."""
        self.thresholds, details = in_child(self.check_inputs)
        return details

    def check_inputs(self) -> tuple[dict, dict]:
        """(verify thresholds, details); raises if an input is unfit."""
        records = list(load_gallery(self.gallery))
        by_id = {r.subject_id: r for r in records}
        enrolled = [by_id[s.sid] for s in self.subjects]
        probes = [self.probe_template(j) for j in range(len(self.subjects))]
        n = self.n_probes
        thresholds = {}
        for j, s in enumerate(self.subjects):
            # Probes the operations use must win against the whole gallery;
            # the others against the enrolled subjects.
            top = identify(probes[j], records if j < n else enrolled)[0][0]
            if top != s.sid:
                raise RuntimeError(f"validation: rotated probe of {s.sid} ranks {top} first")
        for j in range(n):
            claimed = self.subjects[j].sid
            prev = (j - 1) % n
            genuine = total_si(by_id[claimed].template, probes[j]).total
            impostor = total_si(by_id[claimed].template, probes[prev]).total
            if not genuine > impostor:
                raise RuntimeError(f"validation: impostor score on {claimed} reaches the genuine one")
            thresholds[claimed] = 0.5 * (genuine + impostor)
        return thresholds, {}

    # -- operations ----------------------------------------------------------
    def expected_od(self, j: int) -> tuple:
        raise NotImplementedError

    def block(self) -> list[Op]:
        ops = []
        n = self.n_probes
        g = str(self.gallery)
        for j in range(n):
            kind = self.kinds[j % len(self.kinds)]
            path = str(self.probe_path(j))
            sid = self.subjects[j].sid
            meta = {"od": self.expected_od(j)[:2]}
            if kind == "identify":
                ops.append(Op("identify", ["identify", path, "--gallery", g, "--top-k", "3"],
                              _check_identify(sid), meta))
            elif kind == "verify-accept":
                ops.append(Op("verify", ["verify", path, sid, "--gallery", g,
                                         "--threshold", f"{self.thresholds[sid]:.4f}"],
                              _check_verify(sid, accept=True), meta))
            elif kind == "verify-reject":
                other = self.subjects[(j + 1) % n].sid
                ops.append(Op("verify", ["verify", path, other, "--gallery", g,
                                         "--threshold", f"{self.thresholds[other]:.4f}"],
                              _check_verify(other, accept=False), meta))
            else:
                target = self.gallery / f"{ENROLL_ID}.rtpl"
                ops.append(Op("enroll", ["enroll", path, ENROLL_ID, "--gallery", g],
                              _check_enroll(self.expected_od(j)), meta,
                              cleanup=lambda t=target: t.unlink()))
        return ops


class FundusCli(CliWorkload):
    name = "fundus-cli"
    # dense 5/8 and ASCII P2 1/8 of the probe files.
    probe_mix = (("dense", False), ("sparse", True), ("dense", False), ("dense", False),
                 ("sparse", False), ("dense", False), ("sparse", False), ("dense", False))
    kinds = ("identify", "verify-accept", "verify-reject", "enroll") * 2

    def write_probe(self, capture, path, ascii_p2):
        path.write_bytes(fundus.pgm_bytes(capture.rotated, ascii_p2))

    def expected_od(self, j):
        cx, cy = self.subjects[j].center
        return (float(cx), float(cy), "detected")

    def probe_template(self, j: int):
        """Probes the block uses: the template the CLI computes, from the
        full image with the OD search, which must find the planted centre."""
        if j >= self.n_probes:
            return super().probe_template(j)
        m = to_intensity(load_image(self.probe_path(j)))
        od = locate_od(m)
        cx, cy, _ = self.expected_od(j)
        err = math.hypot(od.x - cx, od.y - cy)
        if err > OD_TOLERANCE_PX:
            raise RuntimeError(f"validation: od of {self.subjects[j].sid} off by {err:.2f} px")
        self.od_errors.append(err)
        return _template(m, od)

    def check_inputs(self):
        self.od_errors = []
        thresholds, _ = super().check_inputs()
        return thresholds, {"od_error_px_max": max(self.od_errors)}


class GalleryCli(CliWorkload):
    name = "gallery-cli"
    probe_mix = (("dense", False), ("sparse", False))
    # 9 of 12 calls identify, so the median call is a 1:N identify.
    kinds = ("identify", "verify-accept", "verify-reject", "enroll", "identify", "identify",
             "identify", "identify", "identify", "identify", "identify", "identify")

    def write_probe(self, capture, path, ascii_p2):
        path.write_bytes(fundus.pgm_bytes(fundus.crop(capture.rotated, capture.center), ascii_p2))
        _write_sidecar(path)

    def expected_od(self, j):
        return (*CROP_OD, "manual")

    def setup(self, rep: int) -> None:
        # Enrol before the synthetic write: each enroll loads the gallery,
        # which is cheap while it holds only the enrolled subjects.
        super().setup(rep)
        _call(["synth", "--subjects", self.scale.synth, "--out", self.gallery, "--seed", self.seed])


class RotationEval:
    name = "rotation-eval"

    def __init__(self, seed: int, workdir: Path, scale: Scale = FULL):
        self.seed = seed
        self.workdir = workdir
        self.scale = scale

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True)

    def setup(self, rep: int) -> None:
        pass

    def drop_gallery(self, rep: int) -> None:
        pass

    def validate(self) -> dict:
        return {}

    def shares(self) -> dict:
        return {"dense_pct": 0.0, "p2_pct": 0.0}

    def block(self) -> list[Op]:
        acc = self.workdir / "accuracy.csv"
        sweep = self.workdir / "far_frr.csv"
        counts = self.scale.eval_rotations
        subjects = self.scale.eval_subjects
        argv = ["eval", "--subjects", str(subjects), "--corners", "20",
                "--rotations", ",".join(map(str, counts)), "--seed", str(self.seed),
                "--csv", str(acc), "--far-frr-csv", str(sweep)]
        trials = subjects * sum(counts)
        golden = "rotations,accuracy_percent\n" + "".join(f"{c},100\n" for c in counts) + "mean,100\n"

        def check(code, out):
            if code != 0:
                return f"eval exited {code}", 0, trials
            if f"subjects: {subjects}   probes: {trials}\n" not in out:
                return "eval table lacks the probe count", 0, trials
            text = acc.read_text(encoding="utf-8")
            rows = [line.split(",") for line in text.splitlines()[1:-1]]
            hits = sum(round(float(pct) * subjects * int(c) / 100.0) for c, pct in rows)
            if text != golden:
                return f"accuracy CSV differs from 100% on every count: {text!r}", hits, trials
            error = _check_sweep(sweep.read_text(encoding="utf-8"))
            return error, hits, trials

        return [Op("eval", argv, check, probes=trials,
                   extra_output=lambda: acc.read_text() + sweep.read_text())]


def _check_sweep(text: str) -> str | None:
    lines = text.splitlines()
    if not lines or lines[0] != "threshold,far_percent,frr_percent" or len(lines) != 101:
        return "FAR/FRR CSV has the wrong shape"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    far = [r[1] for r in rows]
    frr = [r[2] for r in rows]
    if far != sorted(far, reverse=True) or frr != sorted(frr):
        return "FAR/FRR CSV is not monotone in the threshold"
    return None


def _check_identify(truth: str):
    def check(code, out):
        if code != 0:
            return f"identify exited {code}", 0, 1
        first = out.split("\n", 1)[0].split()
        if len(first) != 9 or first[0] != "1":
            return f"identify printed {out[:80]!r}", 0, 1
        if first[1] != truth:
            return f"identify ranked {first[1]} first, expected {truth}", 0, 1
        return None, 1, 1
    return check


def _check_verify(claimed: str, accept: bool):
    want_code, verdict = (0, "accept") if accept else (1, "reject")

    def check(code, out):
        if code != want_code or not out.startswith(f"{verdict} {claimed} total="):
            return f"verify {claimed}: exit {code}, printed {out.strip()!r}, expected {verdict}", 0, 0
        return None, 0, 0
    return check


def _check_enroll(expected):
    ex, ey, source = expected

    def check(code, out):
        m = _ENROLLED.match(out)
        if code != 0 or m is None:
            return f"enroll: exit {code}, printed {out.strip()!r}", 0, 0
        err = math.hypot(float(m.group(3)) - ex, float(m.group(4)) - ey)
        if m.group(1) != ENROLL_ID or m.group(5) != source or err > OD_TOLERANCE_PX:
            return f"enroll printed {out.strip()!r}, expected od near {ex:g},{ey:g} {source}", 0, 0
        return None, 0, 0
    return check


WORKLOADS = {w.name: w for w in (FundusCli, GalleryCli, RotationEval)}
