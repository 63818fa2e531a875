import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retina_id.encoder as encoder
import retina_id.imaging as imaging
import retina_id.store as store
from retina_id import cli
from retina_id.encoder import FeatureTemplate, encode, polarize
from retina_id.evaluation import build_synthetic_gallery
from retina_id.harris import Corner
from retina_id.matcher import BLOCK_ROWS, GalleryScreen, Weights, identify, verify
from retina_id.optic_disc import OdCenter
from retina_id.store import (
    SNAPSHOT_NAME,
    DuplicateSubjectError,
    EmptyGalleryError,
    Gallery,
    GalleryRecord,
    TemplateFormatError,
    add_records,
    format_amplitude,
    gallery_lock,
    load_gallery,
    parse_records,
    render_record,
    save_template,
    valid_subject_id,
)

from oracles import SPECIAL_FILES, run_cli_limited, special_file


def quantized_template(rng):
    v = np.zeros((3, 360))
    for row in v:
        slots = rng.choice(360, size=int(rng.integers(1, 25)), replace=False)
        amps = np.round(rng.uniform(0.0, 360.0, slots.size), 9)
        amps[amps == 0.0] = 360.0
        row[slots] = amps
    return FeatureTemplate(v)


def record(rng, sid="alice", image="left_eye.pgm"):
    return GalleryRecord(
        subject_id=sid,
        template=quantized_template(rng),
        source_image=image,
        od=OdCenter(270.0, 292.0, 1.0, "manual"),
    )


class TestFormat:
    def test_amplitude_formatting(self):
        assert format_amplitude(0.0) == "0"
        assert format_amplitude(360.0) == "360"
        assert format_amplitude(10.2) == "10.2"
        assert format_amplitude(0.123456789) == "0.123456789"

    def test_render_layout(self):
        rec = record(np.random.default_rng(60))
        text = render_record(rec)
        lines = text.split("\n")
        assert lines[0] == "RETINA-TEMPLATE v1"
        assert lines[1] == "subject alice"
        assert lines[2] == "od 270 292 manual"
        assert lines[3] == "image left_eye.pgm"
        assert all(len(lines[i].split()) == 360 for i in (4, 5, 6))
        assert text.endswith("\n")
        assert "\r" not in text

    def test_subject_id_validation(self):
        assert valid_subject_id("A-b_9")
        assert not valid_subject_id("")
        assert not valid_subject_id("x" * 65)
        assert not valid_subject_id("has space")
        with pytest.raises(ValueError, match="subject_id"):
            GalleryRecord(subject_id="bad id", template=quantized_template(np.random.default_rng(0)))


class TestRoundTrip:
    def test_save_load_exact(self, tmp_path):
        rng = np.random.default_rng(61)
        rec = record(rng)
        path = tmp_path / "alice.rtpl"
        save_template(rec, path)
        loaded = load_gallery(path).records[0]
        assert loaded.subject_id == rec.subject_id
        assert loaded.source_image == rec.source_image
        assert (loaded.od.x, loaded.od.y, loaded.od.source) == (270.0, 292.0, "manual")
        assert np.array_equal(loaded.template.vectors, rec.template.vectors)

    def test_many_random_round_trips(self, tmp_path):
        rng = np.random.default_rng(62)
        for i in range(100):
            rec = record(rng, sid=f"s{i:03d}")
            path = tmp_path / "t.rtpl"
            save_template(rec, path)
            loaded = load_gallery(path).records[0]
            assert np.array_equal(loaded.template.vectors, rec.template.vectors)

    def test_detected_od_round_trip_marks_unknown_score(self, tmp_path):
        rec = GalleryRecord(
            subject_id="bob",
            template=quantized_template(np.random.default_rng(63)),
            od=OdCenter(100.0, 120.0, 0.87, "detected"),
        )
        path = tmp_path / "bob.rtpl"
        save_template(rec, path)
        loaded = load_gallery(path).records[0]
        assert loaded.od.source == "detected"
        assert loaded.od.score == 0.0  # score is not persisted

    def test_empty_image_line(self, tmp_path):
        rec = GalleryRecord(subject_id="c", template=quantized_template(np.random.default_rng(64)))
        path = tmp_path / "c.rtpl"
        save_template(rec, path)
        assert load_gallery(path).records[0].source_image == ""

    def test_occupied_slot_below_precision_stays_occupied(self):
        # An OD centre 1e-10 px off the corner's row puts the corner at an
        # orientation of about 2.9e-10 degrees.
        od = OdCenter(80.0, 80.0000000001, 1.0, "manual")
        template = encode(polarize([Corner(x=100, y=80, response=1.0)], od))
        assert template.nonzero_counts() == (2, 0, 0)
        (loaded,) = parse_records(render_record(GalleryRecord("tiny", template)))
        assert loaded.template.nonzero_counts() == (2, 0, 0)
        assert format_amplitude(1e-300) == "0.000000001"
        assert format_amplitude(1e-9) == "0.000000001"

    @settings(max_examples=60, deadline=None)
    @given(cells=st.lists(st.tuples(
        st.integers(0, 3 * 360 - 1),
        st.one_of(st.sampled_from([0.0, -0.0, 1e-300, 5e-10, 1e-9, 359.9999999995, 360.0]),
                  st.floats(0.0, 360.0))), max_size=200))
    def test_amplitude_rows_render_as_every_slot_formatted(self, cells):
        v = np.zeros(3 * 360)
        for i, value in cells:
            v[i] = value
        text = render_record(GalleryRecord("rows", FeatureTemplate(v.reshape(3, 360))))
        rows = [" ".join(map(format_amplitude, row)) for row in v.reshape(3, 360).tolist()]
        assert text.split("\n")[4:7] == rows


class TestParse:
    def good_text(self):
        rng = np.random.default_rng(65)
        return render_record(record(rng))

    def test_blank_lines_between_blocks(self):
        text = self.good_text() + "\n\n" + self.good_text().replace("alice", "brian")
        records = parse_records(text)
        assert [r.subject_id for r in records] == ["alice", "brian"]

    def test_bad_magic(self):
        text = self.good_text().replace("RETINA-TEMPLATE v1", "RETINA-TEMPLATE v9", 1)
        with pytest.raises(TemplateFormatError, match=":1:"):
            parse_records(text)

    def test_wrong_amplitude_count(self):
        lines = self.good_text().split("\n")
        lines[4] = " ".join(lines[4].split()[:-1])
        with pytest.raises(TemplateFormatError, match="expected 360"):
            parse_records("\n".join(lines))

    def test_amplitude_out_of_range(self):
        lines = self.good_text().split("\n")
        tokens = lines[5].split()
        tokens[0] = "400"
        lines[5] = " ".join(tokens)
        with pytest.raises(TemplateFormatError, match=":6:"):
            parse_records("\n".join(lines))

    def test_nan_amplitude_rejected_with_line(self):
        lines = self.good_text().split("\n")
        tokens = lines[6].split()
        tokens[17] = "nan"
        lines[6] = " ".join(tokens)
        with pytest.raises(TemplateFormatError, match=":7: amplitudes"):
            parse_records("\n".join(lines))

    @pytest.mark.parametrize("coords", ["nan nan", "inf 3", "1 -inf"])
    def test_non_finite_od_rejected_with_line(self, coords):
        lines = self.good_text().split("\n")
        lines[2] = f"od {coords} manual"
        with pytest.raises(TemplateFormatError, match=":3: od coordinates must be finite"):
            parse_records("\n".join(lines))

    def test_carriage_return_in_provenance_rejected_with_line(self):
        # GalleryRecord refuses the character; the parser names the line first.
        lines = self.good_text().split("\n")
        lines[3] = "image syn\rthetic"
        with pytest.raises(TemplateFormatError, match=":4: provenance") as exc:
            parse_records("\n".join(lines))
        assert exc.value.lineno == 4

    def test_each_record_checks_its_amplitudes_once(self, monkeypatch):
        calls = []

        def counting(v):
            calls.append(np.shape(v))
            return encoder_check(v)

        text = "".join(self.good_text().replace("alice", f"s{i}") for i in range(4))
        encoder_check = encoder.valid_amplitudes
        monkeypatch.setattr(encoder, "valid_amplitudes", counting)
        monkeypatch.setattr(store, "valid_amplitudes", counting)
        assert len(parse_records(text)) == 4
        assert calls == [(3, 360)] * 4

    def test_bad_first_row_amplitude_names_its_line(self):
        # Rows 2 and 3 are covered above; the bad row is found only after
        # the whole record is read.
        lines = self.good_text().split("\n")
        tokens = lines[4].split()
        tokens[-1] = "-1"
        lines[4] = " ".join(tokens)
        with pytest.raises(TemplateFormatError, match=":5: amplitudes must be 0 or in"):
            parse_records("\n".join(lines))

    def test_truncated_record(self):
        lines = self.good_text().split("\n")
        with pytest.raises(TemplateFormatError, match="end of file"):
            parse_records("\n".join(lines[:4]))

    def test_bad_od_line(self):
        lines = self.good_text().split("\n")
        lines[2] = "od 1 2 somewhere"
        with pytest.raises(TemplateFormatError, match="od source"):
            parse_records("\n".join(lines))

    @pytest.mark.parametrize("lineno, line, message", [
        (2, "subject bad id", "invalid subject id 'bad id'"),
        (3, "od 1 2", "expected 'od <x> <y> <source>'"),
        (3, "od 1 north manual", "od coordinates must be numbers"),
        (4, "imagery", "expected 'image <provenance>'"),
    ])
    def test_bad_header_line_names_its_line(self, lineno, line, message):
        lines = self.good_text().split("\n")
        lines[lineno - 1] = line
        with pytest.raises(TemplateFormatError, match=f":{lineno}: {re.escape(message)}") as exc:
            parse_records("\n".join(lines))
        assert exc.value.lineno == lineno


class TestGalleryDir:
    def fill(self, tmp_path, ids):
        rng = np.random.default_rng(66)
        for sid in ids:
            save_template(record(rng, sid=sid), tmp_path / f"{sid}.rtpl")

    def test_crlf_file_fails_at_line_one(self, tmp_path):
        path = tmp_path / "crlf.rtpl"
        text = render_record(record(np.random.default_rng(67)))
        path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        with pytest.raises(TemplateFormatError, match="crlf.rtpl:1: ") as exc:
            load_gallery(tmp_path)
        assert exc.value.lineno == 1

    def test_lone_carriage_return_fails_at_its_own_line(self, tmp_path):
        path = tmp_path / "cr.rtpl"
        lines = render_record(record(np.random.default_rng(68))).split("\n")
        lines[3] = "image syn\rthetic"
        path.write_bytes("\n".join(lines).encode("utf-8"))
        for target in (path, tmp_path):
            with pytest.raises(TemplateFormatError, match="cr.rtpl:4: provenance") as exc:
                load_gallery(target)
            assert exc.value.lineno == 4

    def test_directory_loads_sorted_by_filename(self, tmp_path):
        self.fill(tmp_path, ["zeta", "alpha", "mid"])
        g = load_gallery(tmp_path)
        assert g.subject_ids == ["alpha", "mid", "zeta"]
        assert len(g) == 3

    def test_non_rtpl_files_ignored(self, tmp_path):
        self.fill(tmp_path, ["only"])
        (tmp_path / "notes.txt").write_text("not a template")
        assert load_gallery(tmp_path).subject_ids == ["only"]

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(EmptyGalleryError):
            load_gallery(tmp_path)

    def test_missing_path_rejected(self, tmp_path):
        with pytest.raises(EmptyGalleryError):
            load_gallery(tmp_path / "absent")

    def test_duplicate_ids_rejected(self, tmp_path):
        rng = np.random.default_rng(67)
        save_template(record(rng, sid="dup"), tmp_path / "a.rtpl")
        save_template(record(rng, sid="dup"), tmp_path / "b.rtpl")
        with pytest.raises(DuplicateSubjectError, match="dup"):
            load_gallery(tmp_path)

    def test_nan_slot_in_synthetic_gallery_rejected(self, tmp_path):
        records, _ = build_synthetic_gallery(20, 20, seed=7)
        for rec in records:
            save_template(rec, tmp_path / f"{rec.subject_id}.rtpl")
        path = tmp_path / "s001.rtpl"
        lines = path.read_text().split("\n")
        tokens = lines[6].split()
        tokens[int(np.flatnonzero(records[0].template.vectors[2])[0])] = "nan"
        lines[6] = " ".join(tokens)
        path.write_text("\n".join(lines))
        with pytest.raises(TemplateFormatError, match="s001.rtpl:7:"):
            load_gallery(tmp_path)

    def test_gallery_rejects_repeated_id(self):
        rng = np.random.default_rng(68)
        with pytest.raises(DuplicateSubjectError, match="'twin'"):
            Gallery([record(rng, sid="twin"), record(rng, sid="solo"), record(rng, sid="twin")])

    def test_gallery_get(self, tmp_path):
        self.fill(tmp_path, ["x1", "x2"])
        g = load_gallery(tmp_path)
        assert g.get("x2").subject_id == "x2"
        assert g.get("nope") is None


class TestGalleryListing:
    """Which directory entries a load reads: every name ending in `.rtpl`,
    hidden ones included, matched case-sensitively, as pathlib's
    glob("*.rtpl") listed them on Python 3.11, directories and dangling
    symlinks included."""

    def fill(self, gal, names):
        rng = np.random.default_rng(69)
        for name, sid in names.items():
            save_template(record(rng, sid=sid), gal / name)

    def test_hidden_files_are_listed_and_upper_case_ignored(self, tmp_path):
        self.fill(tmp_path, {"a.rtpl": "a", ".x.rtpl": "x", "X.RTPL": "upper"})
        (tmp_path / ".rtpl").write_bytes(b"")
        assert load_gallery(tmp_path).subject_ids == ["x", "a"]
        add_records(tmp_path, [record(np.random.default_rng(70), sid="b")])
        assert load_gallery(tmp_path).subject_ids == ["x", "a", "b"]

    @pytest.mark.parametrize("kind", ["directory", "dangling symlink"])
    def test_unreadable_entry_exits_2_naming_its_path(self, tmp_path, capsys, kind):
        gal = tmp_path / "gal"
        add_records(gal, [record(np.random.default_rng(71), sid="a")])
        if kind == "directory":
            bad = gal / "d.rtpl"
            bad.mkdir()
            message = f"Is a directory: '{bad}'"
        else:
            bad = gal / "y.rtpl"
            bad.symlink_to(tmp_path / "missing")
            message = f"No such file or directory: '{bad}'"
        assert cli.main(["verify", str(tmp_path / "probe.pgm"), "a", "--gallery", str(gal),
                         "--threshold", "1"]) == cli.EXIT_INPUT
        assert capsys.readouterr().err.endswith(message + "\n")

    @pytest.mark.parametrize("kind", SPECIAL_FILES)
    def test_special_file_is_refused_unopened(self, tmp_path, kind):
        """A FIFO would block the open and /dev/zero never end a read, so
        each load runs in a child with a time limit and an address-space
        limit: a regression fails in seconds instead of hanging or taking
        the host's memory."""
        gal = tmp_path / "gal"
        add_records(gal, [record(np.random.default_rng(75), sid="a")])
        bad = gal / "z.rtpl"
        special_file(bad, kind)
        done = run_cli_limited("verify", tmp_path / "probe.pgm", "a", "--gallery", gal,
                               "--threshold", "1")
        assert done.returncode == cli.EXIT_INPUT, done.stderr
        assert done.stderr == f"error: [Errno 22] Not a regular file: '{bad}'\n"

    @pytest.mark.parametrize("malformed, fifo", [("a.rtpl", "b.rtpl"), ("b.rtpl", "a.rtpl")])
    def test_errors_keep_filename_order(self, tmp_path, malformed, fifo):
        """Every file is stat'ed before any is read, yet a load raises the
        error of the first file in filename order: a malformed file's before
        a FIFO's after it, the FIFO's before a malformed file's after it.
        In a child, as the FIFO would block an open."""
        gal = tmp_path / "gal"
        add_records(gal, [record(np.random.default_rng(76), sid="c")])
        (gal / malformed).write_text("not a template\n")
        special_file(gal / fifo, "fifo")
        done = run_cli_limited("verify", tmp_path / "probe.pgm", "c", "--gallery", gal,
                               "--threshold", "1")
        assert done.returncode == cli.EXIT_INPUT, done.stderr
        assert done.stderr == ({
            "a.rtpl": f"error: {gal / 'a.rtpl'}:2: unexpected end of file inside a record\n",
            "b.rtpl": f"error: [Errno 22] Not a regular file: '{gal / 'a.rtpl'}'\n"}[malformed])


class TestReadFile:
    """A `.rtpl` file is read in fixed-size reads until one comes back
    short: a file longer than one read and one exactly one read long."""

    @pytest.mark.parametrize("reads", [1, 3])
    def test_reads_until_a_short_read(self, tmp_path, monkeypatch, reads):
        save_template(record(np.random.default_rng(74), sid="a"), tmp_path / "a.rtpl")
        data = (tmp_path / "a.rtpl").read_bytes()
        size = len(data) if reads == 1 else len(data) // 2 - 1
        monkeypatch.setattr(imaging, "_READ_BYTES", size)
        assert load_gallery(tmp_path).subject_ids == ["a"]
        asked = []
        real_read = os.read

        def read(fd, n):
            asked.append(n)
            return real_read(fd, n)

        monkeypatch.setattr(os, "read", read)
        dir_fd = os.open(tmp_path, os.O_RDONLY | os.O_DIRECTORY)
        try:
            got = store._in_directory(store.read_input, tmp_path, dir_fd, "a.rtpl")
        finally:
            os.close(dir_fd)
        assert got == data
        # A file exactly one read long needs a second, empty read to end.
        assert asked == [size] * (reads + (reads == 1))


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd (Linux)")
class TestNoDescriptorLeak:
    def open_fds(self):
        return len(os.listdir("/proc/self/fd"))

    @pytest.mark.parametrize("case", ["missing", "empty", "directory entry", "dangling symlink",
                                      "bad utf-8", "bad record", "duplicate ids",
                                      "snapshot is a directory", "single bad file"])
    def test_load_error_paths_close_every_descriptor(self, tmp_path, case):
        gal = tmp_path / "gal"
        add_records(gal, [record(np.random.default_rng(72), sid=sid) for sid in ("a", "b")])
        target = gal
        if case == "missing":
            target = tmp_path / "absent"
        elif case == "empty":
            target = tmp_path / "empty"
            target.mkdir()
        elif case == "directory entry":
            (gal / "d.rtpl").mkdir()
        elif case == "dangling symlink":
            (gal / "y.rtpl").symlink_to(tmp_path / "missing")
        elif case == "bad utf-8":
            (gal / "c.rtpl").write_bytes(b"\xff\n")
        elif case == "bad record":
            (gal / "c.rtpl").write_text("RETINA-TEMPLATE v1\n")
        elif case == "duplicate ids":
            (gal / "c.rtpl").write_bytes((gal / "a.rtpl").read_bytes())
        elif case == "snapshot is a directory":
            (gal / SNAPSHOT_NAME).unlink()
            (gal / SNAPSHOT_NAME).mkdir()
            (gal / "c.rtpl").write_bytes((gal / "a.rtpl").read_bytes())
        else:
            target = gal / "c.rtpl"
            target.write_bytes(b"\xff\n")
        before = self.open_fds()
        with pytest.raises((ValueError, OSError)):
            load_gallery(target)
        assert self.open_fds() == before


# A child that runs add_records(gallery, the records of the batch directory)
# and kills itself with SIGKILL at a seeded point: right after it unlinks the
# old snapshot, or before or after its k-th os.replace.
KILLED_WRITER = """\
import os, pathlib, signal, sys
from retina_id.store import add_records, load_gallery

gallery, batch, point, k = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
records = list(load_gallery(batch))
replace, unlink, renames = os.replace, pathlib.Path.unlink, 0

def kill():
    os.kill(os.getpid(), signal.SIGKILL)

def counted_replace(src, dst):
    global renames
    renames += 1
    if point == "before" and renames == k:
        kill()
    replace(src, dst)
    if point == "after" and renames == k:
        kill()

def watched_unlink(path, missing_ok=False):
    unlink(path, missing_ok=missing_ok)
    if point == "unlinked" and path.name == ".snapshot":
        kill()

os.replace, pathlib.Path.unlink = counted_replace, watched_unlink
add_records(gallery, records)
"""


class TestAddRecords:
    def test_writes_one_file_per_record(self, tmp_path):
        records, _ = build_synthetic_gallery(3, 10, seed=4)
        add_records(tmp_path / "new", records)
        assert sorted(p.name for p in (tmp_path / "new").glob("*.rtpl")) == [
            "s001.rtpl", "s002.rtpl", "s003.rtpl"]
        assert load_gallery(tmp_path / "new").subject_ids == ["s001", "s002", "s003"]

    def test_repeated_id_in_batch_writes_nothing(self, tmp_path):
        rng = np.random.default_rng(69)
        with pytest.raises(DuplicateSubjectError, match="'a'"):
            add_records(tmp_path, [record(rng, sid="a"), record(rng, sid="b"), record(rng, sid="a")])
        assert list(tmp_path.glob("*.rtpl")) == []

    def test_target_file_holding_another_id_is_refused(self, tmp_path):
        rng = np.random.default_rng(70)
        save_template(record(rng, sid="other"), tmp_path / "a.rtpl")
        before = (tmp_path / "a.rtpl").read_bytes()
        with pytest.raises(ValueError, match="a.rtpl already exists; gallery unchanged"):
            add_records(tmp_path, [record(rng, sid="a")])
        assert (tmp_path / "a.rtpl").read_bytes() == before
        assert load_gallery(tmp_path).subject_ids == ["other"]

    def test_enrol_removes_a_killed_writers_temporary_files(self, tmp_path):
        """A writer killed between creating a temporary file and renaming it
        leaves `.<name>.<pid>.<8 hex>.tmp`.  The next add_records removes
        every name of that form, and no other."""
        gal = TestSnapshot().gallery(tmp_path / "gal")
        stale = [".p0.rtpl.4242.0a1b2c3d.tmp", "..snapshot.17.ffffffff.tmp", ".q.rtpl.99999.00000000.tmp"]
        near_misses = [".p0.rtpl.4242.0A1B2C3D.tmp", ".p0.rtpl.4242.0a1b2c3.tmp", ".p0.rtpl.42x.0a1b2c3d.tmp",
                       "p0.rtpl.4242.0a1b2c3d.tmp", ".p0.rtpl.4242.0a1b2c3d.tmp.keep"]
        for name in stale + near_misses:
            (gal / name).write_bytes(b"partial")
        add_records(gal, [record(np.random.default_rng(71), sid="q")])
        assert sorted(p.name for p in gal.iterdir() if ".tmp" in p.name) == sorted(near_misses)
        assert load_gallery(gal).subject_ids == ["p0", "p1", "p2", "p3", "q"]

    @pytest.mark.parametrize("point, k", [("unlinked", 0), ("after", 1), ("after", 2), ("after", 4),
                                          ("before", 1), ("before", 3), ("before", 5)])
    def test_writer_killed_mid_batch_leaves_a_loadable_gallery(self, tmp_path, point, k):
        """A child enrolling a batch of four records kills itself: right
        after it unlinks the old snapshot, after its k-th rename, or just
        before it, leaving that rename's temporary file (the fifth renames
        the new snapshot).  The gallery loads as its text does and holds the
        old records plus whole files of a prefix of the batch; the next
        add_records removes the temporary file and writes a snapshot that
        loads as the text does."""
        gal = TestSnapshot().gallery(tmp_path / "gal")
        old = sorted(p.name for p in gal.glob("*.rtpl"))
        batch = tmp_path / "batch"
        batch.mkdir()
        rng = np.random.default_rng(72)
        for i in range(4):
            save_template(record(rng, sid=f"q{i}"), batch / f"q{i}.rtpl")
        src = str(Path(store.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run([sys.executable, "-c", KILLED_WRITER, str(gal), str(batch), point, str(k)],
                               capture_output=True, text=True, env=env, timeout=60)
        assert child.returncode == -signal.SIGKILL, child.stderr
        names = sorted(p.name for p in gal.glob("*.rtpl"))
        assert names[:len(old)] == old
        written = names[len(old):]
        assert written == [f"q{i}.rtpl" for i in range({"unlinked": 0, "after": k, "before": k - 1}[point])]
        for name in written:
            assert (gal / name).read_bytes() == (batch / name).read_bytes()
        assert len([p for p in gal.iterdir() if p.name.endswith(".tmp")]) == (point == "before")
        assert not (gal / SNAPSHOT_NAME).exists()
        got = load_outcome(gal)
        assert got == load_outcome_from_text(gal)
        assert [sid for sid, *_ in got] == [name[:-len(".rtpl")] for name in names]

        add_records(gal, [record(rng, sid="fresh")])
        assert [p for p in gal.iterdir() if p.name.endswith(".tmp")] == []
        assert (gal / SNAPSHOT_NAME).exists()
        got = load_outcome(gal)
        assert got == load_outcome_from_text(gal)
        assert [sid for sid, *_ in got] == sorted(["fresh", *(name[:-len(".rtpl")] for name in names)])


class TestLock:
    def test_lock_creates_and_releases(self, tmp_path):
        target = tmp_path / "gal"
        with gallery_lock(target):
            assert (target / ".lock").exists()
        # a second acquisition must not deadlock once released
        with gallery_lock(target):
            pass

    def test_lock_excludes_concurrent_holder(self, tmp_path):
        import fcntl
        import os
        with gallery_lock(tmp_path):
            fd = os.open(tmp_path / ".lock", os.O_RDWR)
            try:
                with pytest.raises(BlockingIOError):
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            finally:
                os.close(fd)


class TestAtomicSave:
    def test_reader_never_sees_a_partial_file(self, tmp_path):
        rng = np.random.default_rng(71)
        versions = [record(rng, sid="a"), record(rng, sid="a")]
        path = tmp_path / "a.rtpl"
        save_template(versions[0], path)
        stop = threading.Event()
        reads = []
        torn = []

        def reader():
            while not stop.is_set():
                try:
                    (got,) = load_gallery(tmp_path).records
                    reads.append(any(np.array_equal(got.template.vectors, v.template.vectors)
                                     for v in versions))
                except (OSError, ValueError) as exc:
                    torn.append(exc)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in readers:
                t.start()
            for i in range(300):
                save_template(versions[i % 2], path)
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers)
        assert torn == []
        assert len(reads) > 0 and all(reads)

    def test_failed_write_leaves_target_and_no_temp_file(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(72)
        path = tmp_path / "a.rtpl"
        save_template(record(rng, sid="a"), path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_template(record(rng, sid="a"), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.rtpl"]
        assert path.read_bytes() == before

    def test_saved_file_mode_follows_umask(self, tmp_path):
        save_template(record(np.random.default_rng(73), sid="a"), tmp_path / "a.rtpl")
        (tmp_path / "plain").write_bytes(b"")
        assert (tmp_path / "a.rtpl").stat().st_mode == (tmp_path / "plain").stat().st_mode


def loaded(gallery) -> list:
    """What a load yields, down to the amplitudes' bytes."""
    return [(r.subject_id, r.source_image, r.od, r.template.vectors.dtype,
             r.template.vectors.tobytes()) for r in gallery]


def load_outcome(directory):
    try:
        return loaded(load_gallery(directory))
    except ValueError as exc:
        return type(exc), str(exc)


def load_outcome_from_text(directory):
    """load_outcome with the snapshot deleted; the snapshot is put back,
    with its mtime, which dates the stat keys it holds."""
    snapshot = directory / SNAPSHOT_NAME
    saved = (snapshot.read_bytes(), snapshot.stat()) if snapshot.exists() else None
    snapshot.unlink(missing_ok=True)
    try:
        return load_outcome(directory)
    finally:
        if saved is not None:
            snapshot.write_bytes(saved[0])
            os.utime(snapshot, ns=(saved[1].st_atime_ns, saved[1].st_mtime_ns))


@pytest.fixture
def parses(monkeypatch):
    """Source names that load_gallery parses from text."""
    calls = []

    def counting(text, source="<string>"):
        calls.append(os.path.basename(source))
        return parse_records(text, source)

    monkeypatch.setattr(store, "parse_records", counting)
    return calls


@pytest.fixture
def reads(monkeypatch):
    """Names of the `.rtpl` files imaging.read_input reads, wherever it is
    bound (load_gallery's first call is on the gallery's own path)."""
    calls = []
    real = imaging.read_input

    def counting(path, dir_fd=None):
        if os.fspath(path).endswith(".rtpl"):
            calls.append(os.path.basename(path))
        return real(path, dir_fd)

    monkeypatch.setattr(imaging, "read_input", counting)
    monkeypatch.setattr(store, "read_input", counting)
    return calls


def settle(gallery: Path) -> int:
    """Wait until a file written in the gallery gets a ctime after every
    `.rtpl` file's mtime and ctime, then date the snapshot's mtime to that
    ctime, as if it had been written then; return it.  Every file is then
    older than the snapshot, and any later change moves a file's ctime."""
    newest = max(max(st.st_mtime_ns, st.st_ctime_ns)
                 for st in (path.stat() for path in gallery.glob("*.rtpl")))
    clock = gallery / "clock"
    while True:
        clock.write_bytes(b"")
        now = clock.stat().st_ctime_ns
        if now > newest:
            break
        time.sleep(0.001)
    clock.unlink()
    os.utime(gallery / SNAPSHOT_NAME, ns=(now, now))
    return now


SOURCES = ["detected", "manual"]
FILE_COLUMNS = {"bytes": "<u8", "inode": "<u8", "mtime_ns": "<i8", "ctime_ns": "<i8", "records": "<u8"}
RECORD_COLUMNS = ["subject", "od_x", "od_y", "od_source", "image", "counts"]


def split_snapshot(data: bytes):
    """(head, slots, index) of a version 5 snapshot's bytes: slots holds each
    record's (positions, values) in index order, and the index is its
    columns as lists: `digest` as hex, `od_x` and `od_y` apart, `od_source`
    as its byte, each record's class counts in `counts`, and the texts
    `subject` and `image` split into lines."""
    body = data[:-32]
    n = int.from_bytes(body[-8:], "little")
    raw = body[-8 - n:-8]
    files, records, id_bytes, image_bytes = np.frombuffer(raw, "<u8", 4).tolist()
    at = 32

    def take(dtype, rows, width=1):
        nonlocal at
        column = np.frombuffer(raw, dtype, rows * width, at)
        at += column.nbytes
        return column.reshape(rows, width) if width > 1 else column

    index = {"digest": [bytes(d).hex() for d in take("u1", files, 32)]}
    index.update((name, take(dtype, files).tolist()) for name, dtype in FILE_COLUMNS.items())
    od = take("<f8", records, 2)
    counts = take("<u2", records, 3)
    index.update(od_x=od[:, 0].tolist(), od_y=od[:, 1].tolist(), counts=counts.tolist(),
                 od_source=take("u1", records).tolist())
    ids, images = raw[at:at + id_bytes].decode("ascii"), raw[at + id_bytes:].decode("utf-8")
    assert at + id_bytes + image_bytes == n
    index.update(subject=ids.split("\n") if records else [], image=images.split("\n") if records else [])
    total = int(counts.sum())
    assert 24 + 10 * total == len(body) - 8 - n
    values = np.frombuffer(body, "<f8", total, 24)
    positions = np.frombuffer(body, "<u2", total, 24 + 8 * total)
    sizes = counts.sum(axis=1).tolist()
    slots = [(positions[end - size:end].copy(), values[end - size:end].copy())
             for end, size in zip(np.cumsum(sizes).tolist(), sizes)]
    return body[:24], slots, index


def join_snapshot(head, slots, index, tail=b"") -> bytes:
    """A version 5 snapshot with a valid trailer around whatever it is
    given: every record's values then every record's positions, then the
    index of the columns present, its counts those of `digest` and `counts`,
    a provenance given as bytes written as it is, and `tail` after the
    index."""
    values = np.concatenate([np.empty(0), *(v for _, v in slots)]).astype("<f8")
    positions = np.concatenate([np.empty(0), *(p for p, _ in slots)]).astype("<u2")
    ids = "\n".join(index["subject"]).encode("utf-8")
    images = b"\n".join(i if isinstance(i, bytes) else i.encode("utf-8") for i in index["image"])
    columns = [b"".join(map(bytes.fromhex, index["digest"]))]
    columns += [np.array(index[name], dtype).tobytes() for name, dtype in FILE_COLUMNS.items() if name in index]
    columns += [np.column_stack([index["od_x"], index["od_y"]]).astype("<f8").tobytes(),
                np.array(index["counts"], "<u2").tobytes(), np.array(index["od_source"], "u1").tobytes()]
    counts = np.array([len(index["digest"]), len(index["counts"]), len(ids), len(images)], "<u8")
    raw = b"".join([counts.tobytes(), *columns, ids, images, tail])
    body = head + values.tobytes() + positions.tobytes() + raw + len(raw).to_bytes(8, "little")
    return body + hashlib.sha256(body).digest()


def forge(head, slots, index, case):
    """Edit a split snapshot into one that must be ignored as a whole."""
    positions, values = slots[0]
    tail = b""
    if case == "foreign version":
        head = b"RETINA-SNAPSHOT v4\n".ljust(24, b"\0")
    elif case == "nan amplitude":
        values[0] = np.nan
    elif case == "amplitude over 360":
        values[1] = 360.5
    elif case == "nan od":
        index["od_x"][0] = float("nan")
    elif case == "source byte 2":
        index["od_source"][0] = 2
    elif case == "od source as number":
        # The source's text, not its number: the first letter of "manual".
        index["od_source"][0] = ord("m")
    elif case == "unknown od source":
        index["od_source"][0] = 255
    elif case == "provenance not text":
        index["image"][0] = b"left\xed\xa0\x80eye"  # a UTF-16 surrogate, encoded
    elif case == "non-UTF-8 provenance":
        index["image"][0] = "éil.pgm".encode("latin-1")
    elif case == "provenance with newline":
        index["image"][0] = "left\neye"
    elif case == "bad id":
        index["subject"][0] = "bad id"
    elif case == "non-ASCII id":
        index["subject"][0] = "pé"
    elif case == "duplicate ids":
        index["subject"][0] = index["subject"][1]
    elif case == "record missing amplitudes":
        slots = slots[:-1]
    elif case == "amplitudes missing a record":
        index["records"][-1] -= 1
        for name in RECORD_COLUMNS:
            del index[name][-1]
    elif case == "short row":
        del index["image"][0]
    elif case == "column one entry short":
        del index["ctime_ns"][-1]
    elif case == "ids one line short":
        del index["subject"][-1]
    elif case == "ids one line long":
        index["subject"].append("extra")
    elif case == "record counts not summing":
        index["records"][0] += 1
    elif case == "31-byte digest":
        index["digest"][0] = index["digest"][0][:62]
    elif case == "index one byte off":
        tail = b"\0"
    elif case == "position 1080":
        positions[-1] = 1080
    elif case == "repeated position":
        positions[1] = positions[0]
    elif case == "decreasing positions":
        positions[[0, 1]] = positions[[1, 0]]
    elif case == "slot outside its class":
        # The last class-1 slot counted in class 2: positions still increase.
        index["counts"][0][0] -= 1
        index["counts"][0][1] += 1
    elif case == "count one slot more":
        index["counts"][0][0] += 1
    elif case == "count one slot less":
        index["counts"][0][0] -= 1
    elif case == "class count 361":
        index["counts"][0][0] = 361
    elif case == "stat key missing":
        for name in ("inode", "mtime_ns", "ctime_ns"):
            del index[name]
    elif case == "stat key of two ints":
        del index["ctime_ns"]
    return join_snapshot(head, slots, index, tail)


FORGED = ["foreign version", "nan amplitude", "amplitude over 360", "nan od", "source byte 2",
          "od source as number", "unknown od source", "provenance not text", "non-UTF-8 provenance",
          "provenance with newline", "bad id", "non-ASCII id", "duplicate ids",
          "record missing amplitudes", "amplitudes missing a record", "short row",
          "column one entry short", "ids one line short", "ids one line long",
          "record counts not summing", "31-byte digest", "index one byte off", "position 1080",
          "repeated position", "decreasing positions", "slot outside its class",
          "count one slot more", "count one slot less", "class count 361", "stat key missing",
          "stat key of two ints"]


V4_SECTION_ROWS = 32  # records per section of a version 4 snapshot's body


def v4_snapshot(directory, version="v4") -> bytes:
    """The version 4 snapshot of a directory's version 5 one: its slots in
    sections of 32 records, each the section's values then its positions,
    and an ASCII JSON index of columns, digests as hex, od sources as text
    and each record's slot count in place of its class counts; or, for
    version "v3", an entry per file, `[digest hex, byte length, rows,
    [inode, mtime_ns, ctime_ns]]`, each row `[subject, od x, od y, od
    source, provenance, slot count]`; or, for "v2", the same entries without
    their stat key."""
    _, slots, columns = split_snapshot((directory / SNAPSHOT_NAME).read_bytes())
    columns.update(od_source=[SOURCES[s] for s in columns["od_source"]], slots=[len(p) for p, _ in slots])
    index = {name: columns[name] for name in ["digest", *FILE_COLUMNS, *RECORD_COLUMNS[:-1], "slots"]}
    if version != "v4":
        rows = [list(row) for row in zip(*(index[name] for name in
                                          ["subject", "od_x", "od_y", "od_source", "image", "slots"]))]
        starts = np.cumsum([0, *index["records"]]).tolist()
        index = [[digest, size, rows[lo:hi], [inode, mtime, ctime]][:4 if version == "v3" else 3]
                 for digest, size, inode, mtime, ctime, lo, hi in zip(
                     index["digest"], index["bytes"], index["inode"], index["mtime_ns"],
                     index["ctime_ns"], starts, starts[1:])]
    sections = []
    for lo in range(0, len(slots), V4_SECTION_ROWS):
        block = slots[lo:lo + V4_SECTION_ROWS]
        sections += [np.concatenate([v for _, v in block]).astype("<f8").tobytes(),
                     np.concatenate([p for p, _ in block]).astype("<u2").tobytes()]
    tail = json.dumps(index).encode("ascii")
    body = (f"RETINA-SNAPSHOT {version}\n".encode().ljust(24, b"\0") + b"".join(sections)
            + tail + len(tail).to_bytes(8, "little"))
    return body + hashlib.sha256(body).digest()


def file_columns(gallery):
    """The file rows of a directory load_gallery read, in filename order:
    each file's sha256 hex digest, byte length, stat key (byte length,
    inode, mtime_ns, ctime_ns) and record count."""
    files = gallery._files
    return ([digest.hex() for digest in files["digest"].tolist()], files["bytes"].tolist(),
            list(zip(*(files[name].tolist() for name in ("bytes", "inode", "mtime_ns", "ctime_ns")))),
            files["records"].tolist())


def v1_snapshot(gallery) -> bytes:
    """The version 1 snapshot of a gallery that add_records wrote in
    filename order: dense amplitudes and five-field index rows."""
    digests, sizes, _, counts = file_columns(gallery)
    starts = np.cumsum([0, *counts]).tolist()
    index = [[digest, size, [[r.subject_id, r.od.x, r.od.y, r.od.source, r.source_image]
                             for r in gallery.records[lo:hi]]]
             for digest, size, lo, hi in zip(digests, sizes, starts, starts[1:])]
    tail = json.dumps(index).encode("ascii")
    body = (b"RETINA-SNAPSHOT v1\n".ljust(24, b"\0")
            + b"".join(np.ascontiguousarray(r.template.vectors, "<f8").tobytes() for r in gallery)
            + tail + len(tail).to_bytes(8, "little"))
    return body + hashlib.sha256(body).digest()


class TestSnapshot:
    """The snapshot is a memo of parse_records keyed by file content: a load
    through it equals a load with it deleted, whatever happened to the
    files or to the snapshot."""

    def gallery(self, tmp_path, n=4):
        rng = np.random.default_rng(80)
        add_records(tmp_path, [record(rng, sid=f"p{i}", image=f"eye {i}.pgm ") for i in range(n)])
        return tmp_path

    def test_snapshot_serves_every_file_written_by_add_records(self, tmp_path, parses):
        gal = self.gallery(tmp_path)
        add_records(gal, build_synthetic_gallery(3, 12, seed=5)[0])
        assert (gal / SNAPSHOT_NAME).exists()
        parses.clear()
        got = load_outcome(gal)
        assert parses == []
        assert got == load_outcome_from_text(gal)
        assert [sid for sid, *_ in got] == ["p0", "p1", "p2", "p3", "s001", "s002", "s003"]

    def test_amplitudes_are_what_the_rendered_text_parses_to(self, tmp_path):
        rec = GalleryRecord("fine", FeatureTemplate(np.full((3, 360), 1 / 3)),
                            od=OdCenter(1 / 7, 2 / 7, 0.4, "detected"))
        add_records(tmp_path, [rec])
        ((_, _, od, _, vectors),) = load_outcome(tmp_path)
        assert load_outcome(tmp_path) == load_outcome_from_text(tmp_path)
        assert od == OdCenter(0.142857143, 0.285714286, 0.0, "detected")
        assert np.frombuffer(vectors)[0] == 0.333333333

    def test_file_edited_in_place_with_same_size_and_mtime(self, tmp_path, parses):
        gal = self.gallery(tmp_path)
        path = gal / "p2.rtpl"
        before = path.stat()
        data = path.read_bytes()
        path.write_bytes(data.replace(b"image eye 2.pgm ", b"image eye 9.pgm "))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert path.stat().st_size == before.st_size
        parses.clear()
        got = load_outcome(gal)
        assert parses == ["p2.rtpl"]
        assert got[2][1] == "eye 9.pgm "
        assert got == load_outcome_from_text(gal)

    def test_file_deleted_behind_the_writer(self, tmp_path, parses):
        gal = self.gallery(tmp_path)
        (gal / "p1.rtpl").unlink()
        parses.clear()
        got = load_outcome(gal)
        assert parses == []
        assert [sid for sid, *_ in got] == ["p0", "p2", "p3"]
        assert got == load_outcome_from_text(gal)

    def test_file_added_behind_the_writer(self, tmp_path, parses):
        gal = self.gallery(tmp_path)
        save_template(record(np.random.default_rng(81), sid="late"), gal / "late.rtpl")
        parses.clear()
        got = load_outcome(gal)
        assert parses == ["late.rtpl"]
        assert got == load_outcome_from_text(gal)
        # the next write takes the file into the snapshot
        add_records(gal, [record(np.random.default_rng(82), sid="next")])
        parses.clear()
        got = load_outcome(gal)
        assert parses == []
        assert got == load_outcome_from_text(gal)

    def test_file_copied_behind_the_writer_is_still_a_duplicate(self, tmp_path):
        gal = self.gallery(tmp_path)
        (gal / "p9.rtpl").write_bytes((gal / "p0.rtpl").read_bytes())
        with pytest.raises(DuplicateSubjectError, match="'p0'"):
            load_gallery(gal)
        assert load_outcome(gal) == load_outcome_from_text(gal)

    def test_a_file_that_fails_to_parse_still_fails(self, tmp_path):
        gal = self.gallery(tmp_path)
        path = gal / "p3.rtpl"
        path.write_bytes(path.read_bytes().replace(b"od 270 292 manual", b"od 270 nan manual"))
        with pytest.raises(TemplateFormatError, match="p3.rtpl:3: od coordinates must be finite"):
            load_gallery(gal)
        assert load_outcome(gal) == load_outcome_from_text(gal)

    def test_enroll_then_unlink_as_the_benchmark_does(self, tmp_path, parses):
        gal = self.gallery(tmp_path)
        rng = np.random.default_rng(83)
        new = record(rng, sid="bench_new")
        for _ in range(3):
            add_records(gal, [new])
            (gal / "bench_new.rtpl").unlink()
            parses.clear()
            got = load_outcome(gal)
            assert parses == []
            assert [sid for sid, *_ in got] == ["p0", "p1", "p2", "p3"]
            assert got == load_outcome_from_text(gal)
        # the entry of the unlinked file is dropped by the next write
        add_records(gal, [record(rng, sid="other")])
        assert split_snapshot((gal / SNAPSHOT_NAME).read_bytes())[2]["subject"] == [
            "p0", "p1", "p2", "p3", "other"]

    def test_enrol_writes_the_snapshot_in_filename_order(self, tmp_path):
        """add_records rewrites the snapshot's rows of the files it loaded in
        filename order, the gallery's own, whatever order they were written
        in, then the rows of the files it writes: records with no slot and a
        file saved behind the writer included."""
        rng = np.random.default_rng(94)
        empty = FeatureTemplate(np.zeros((3, 360)))
        add_records(tmp_path, [record(rng, sid="c"), GalleryRecord("b", empty), GalleryRecord("a", empty)])
        save_template(record(rng, sid="behind"), tmp_path / "behind.rtpl")
        add_records(tmp_path, [record(rng, sid="d")])
        index = split_snapshot((tmp_path / SNAPSHOT_NAME).read_bytes())[2]
        assert index["subject"] == ["a", "b", "behind", "c", "d"]

    def test_snapshot_out_of_filename_order_loads_unopened(self, tmp_path, reads):
        """A snapshot whose rows are not in filename order, as add_records
        once wrote it, serves every file unopened and loads as the text
        does; the next add_records rewrites it in filename order."""
        gal = self.gallery(tmp_path)
        (gal / "empty.rtpl").write_bytes(b"")
        add_records(gal, [record(np.random.default_rng(95), sid="late")])
        snapshot = gal / SNAPSHOT_NAME
        head, slots, index = split_snapshot(snapshot.read_bytes())
        # Each file holds at most one record, so reversing every column
        # keeps each file's records its own.
        assert max(index["records"]) == 1
        for column in index.values():
            column.reverse()
        snapshot.write_bytes(join_snapshot(head, slots[::-1], index))
        settle(gal)
        reads.clear()
        got = load_outcome(gal)
        assert reads == []
        assert [sid for sid, *_ in got] == ["late", "p0", "p1", "p2", "p3"]
        assert got == load_outcome_from_text(gal)
        add_records(gal, [record(np.random.default_rng(96), sid="q")])
        index = split_snapshot(snapshot.read_bytes())[2]
        names = ["empty", "late", "p0", "p1", "p2", "p3", "q"]
        assert index["digest"] == [hashlib.sha256((gal / f"{name}.rtpl").read_bytes()).hexdigest()
                                   for name in names]
        assert index["subject"] == names[1:]

    @pytest.mark.parametrize("damage", ["empty", "head only", "truncated", "half", "no trailer",
                                        "bit flipped", "last bit flipped", "appended", "text"])
    def test_damaged_snapshot_is_ignored(self, tmp_path, parses, damage):
        gal = self.gallery(tmp_path)
        snapshot = gal / SNAPSHOT_NAME
        data = snapshot.read_bytes()

        def flip(at):
            return data[:at] + bytes([data[at] ^ 0x04]) + data[at + 1:]

        snapshot.write_bytes({
            "empty": b"",
            "head only": data[:24],
            "truncated": data[:-1],
            "half": data[:len(data) // 2],
            "no trailer": data[:-40],
            "bit flipped": flip(24 + 8 * 3),
            "last bit flipped": flip(len(data) - 1),
            "appended": data + b"\0",
            "text": render_record(record(np.random.default_rng(84))).encode("utf-8"),
        }[damage])
        parses.clear()
        got = load_outcome(gal)
        assert sorted(parses) == ["p0.rtpl", "p1.rtpl", "p2.rtpl", "p3.rtpl"]
        assert got == load_outcome_from_text(gal)

    @pytest.mark.parametrize("case", FORGED)
    def test_snapshot_failing_a_record_check_is_ignored(self, tmp_path, parses, case):
        gal = self.gallery(tmp_path)
        snapshot = gal / SNAPSHOT_NAME
        head, amplitudes, index = split_snapshot(snapshot.read_bytes())
        assert join_snapshot(head, amplitudes, index) == snapshot.read_bytes()
        snapshot.write_bytes(forge(head, amplitudes, index, case))
        parses.clear()
        got = load_outcome(gal)
        assert sorted(parses) == ["p0.rtpl", "p1.rtpl", "p2.rtpl", "p3.rtpl"]
        assert got == load_outcome_from_text(gal)

    @pytest.mark.parametrize("version", ["v1", "v2", "v3", "v4"])
    def test_older_snapshot_is_ignored_and_rewritten_as_v5(self, tmp_path, parses, version):
        gal = self.gallery(tmp_path)
        snapshot = gal / SNAPSHOT_NAME
        snapshot.write_bytes(v1_snapshot(load_gallery(gal)) if version == "v1" else v4_snapshot(gal, version))
        parses.clear()
        got = load_outcome(gal)
        assert sorted(parses) == ["p0.rtpl", "p1.rtpl", "p2.rtpl", "p3.rtpl"]
        assert got == load_outcome_from_text(gal)
        add_records(gal, [record(np.random.default_rng(89), sid="v2")])
        assert snapshot.read_bytes().startswith(b"RETINA-SNAPSHOT v5\n")
        parses.clear()
        got = load_outcome(gal)
        assert parses == []
        assert got == load_outcome_from_text(gal)

    def test_entry_with_another_byte_length_is_not_used(self, tmp_path, parses):
        gal = self.gallery(tmp_path)
        snapshot = gal / SNAPSHOT_NAME
        head, amplitudes, index = split_snapshot(snapshot.read_bytes())
        index["bytes"][1] += 1
        snapshot.write_bytes(join_snapshot(head, amplitudes, index))
        parses.clear()
        got = load_outcome(gal)
        assert parses == ["p1.rtpl"]
        assert got == load_outcome_from_text(gal)

    def test_unreadable_snapshot_is_ignored(self, tmp_path, parses):
        gal = self.gallery(tmp_path)
        expected = load_outcome_from_text(gal)
        (gal / SNAPSHOT_NAME).unlink()
        (gal / SNAPSHOT_NAME).mkdir()
        parses.clear()
        assert load_outcome(gal) == expected
        assert len(parses) == 4

    @pytest.mark.parametrize("kind", SPECIAL_FILES)
    def test_special_snapshot_is_ignored_and_replaced(self, tmp_path, parses, kind):
        """A snapshot that is a FIFO or a device is ignored unread, like a
        damaged one: the load, in a child as in TestGalleryListing, takes the
        records from their text, and the next add_records writes a v5
        snapshot in its place."""
        gal = self.gallery(tmp_path)
        expected = load_outcome_from_text(gal)
        snapshot = gal / SNAPSHOT_NAME
        snapshot.unlink()
        special_file(snapshot, kind)
        done = run_cli_limited("synth", "--subjects", "1", "--out", gal)
        assert done.returncode == 0, done.stderr
        assert snapshot.is_file() and not snapshot.is_symlink()
        assert snapshot.read_bytes().startswith(b"RETINA-SNAPSHOT v5\n")
        parses.clear()
        got = load_outcome(gal)
        assert parses == []
        assert got == load_outcome_from_text(gal)
        assert got[:4] == expected and [sid for sid, *_ in got[4:]] == ["s001"]

    def test_single_file_gallery_has_no_snapshot(self, tmp_path):
        path = tmp_path / "one.rtpl"
        save_template(record(np.random.default_rng(85)), path)
        assert load_gallery(path).subject_ids == ["alice"]
        assert not (tmp_path / SNAPSHOT_NAME).exists()

    def test_refused_batch_leaves_the_snapshot(self, tmp_path):
        gal = self.gallery(tmp_path)
        before = (gal / SNAPSHOT_NAME).read_bytes()
        with pytest.raises(ValueError, match="already enrolled"):
            add_records(gal, [record(np.random.default_rng(86), sid="p1")])
        assert (gal / SNAPSHOT_NAME).read_bytes() == before
        assert sorted(p.name for p in gal.iterdir() if p.suffix == ".tmp") == []

    def test_unreplaceable_snapshot_fails_the_batch_before_any_write(self, tmp_path):
        gal = self.gallery(tmp_path, n=2)
        (gal / SNAPSHOT_NAME).unlink()
        (gal / SNAPSHOT_NAME).mkdir()
        batch = [record(np.random.default_rng(88), sid=sid) for sid in ("q0", "q1")]
        with pytest.raises(OSError):
            add_records(gal, batch)
        written = sorted(p.name for p in gal.iterdir() if p.suffix in (".rtpl", ".tmp"))
        assert written == ["p0.rtpl", "p1.rtpl"]
        (gal / SNAPSHOT_NAME).rmdir()
        add_records(gal, batch)
        assert load_gallery(gal).subject_ids == ["p0", "p1", "q0", "q1"]
        assert load_outcome(gal) == load_outcome_from_text(gal)

    def test_add_records_builds_no_gallery_sized_temporary(self, tmp_path):
        n = 300
        records, _ = build_synthetic_gallery(n, 20, seed=6)
        gallery_bytes = n * 3 * 360 * 8
        tracemalloc.start()
        try:
            add_records(tmp_path, records)
            _, new_batch = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            add_records(tmp_path, [record(np.random.default_rng(87), sid="one_more")])
            _, one_more = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Writing n new records holds one parsed copy at a time; adding one
        # record holds the loaded gallery once, never a second stacked copy.
        assert new_batch < 0.5 * gallery_bytes
        assert one_more < 1.5 * gallery_bytes
        assert len(load_gallery(tmp_path)) == n + 1

    def test_load_builds_no_gallery_sized_temporary(self, tmp_path):
        n = 300
        add_records(tmp_path, build_synthetic_gallery(n, 20, seed=6)[0])
        gallery_bytes = n * 3 * 360 * 8
        peaks = []
        for _ in range(2):
            tracemalloc.start()
            try:
                assert len(load_gallery(tmp_path)) == n
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            (tmp_path / SNAPSHOT_NAME).unlink(missing_ok=True)
        # Through the snapshot and from the text alone, the blocks are the
        # one gallery-sized allocation.
        assert max(peaks) < 1.5 * gallery_bytes

    def test_load_of_full_rows_builds_no_gallery_sized_temporary(self, tmp_path):
        # Every slot occupied: the body, 10 bytes a slot, is larger than the
        # dense amplitudes, and is still read a block at a time.
        n = 300
        rng = np.random.default_rng(7)
        add_records(tmp_path, [GalleryRecord(f"f{i:03d}", FeatureTemplate(
            np.round(rng.uniform(1.0, 360.0, (3, 360)), 9))) for i in range(n)])
        gallery_bytes = n * 3 * 360 * 8
        assert (tmp_path / SNAPSHOT_NAME).stat().st_size > 1.25 * gallery_bytes
        tracemalloc.start()
        try:
            gallery = load_gallery(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(gallery[n - 1].template.vectors) == 3 * 360
        assert loaded(gallery) == load_outcome_from_text(tmp_path)
        assert peak < 1.5 * gallery_bytes

    @settings(max_examples=25, deadline=None)
    @given(steps=st.lists(st.tuples(st.sampled_from(["add", "unlink", "edit", "foreign", "flip"]),
                                    st.integers(0, 10 ** 6)), max_size=8))
    def test_any_history_loads_as_the_text_does(self, steps):
        rng = np.random.default_rng(88)
        with tempfile.TemporaryDirectory() as tmp:
            gal = Path(tmp)
            add_records(gal, [record(rng, sid="first")])
            for step, (kind, k) in enumerate(steps):
                files = sorted(gal.glob("*.rtpl"))
                if kind == "add":
                    add_records(gal, [record(rng, sid=f"a{step}_{i}") for i in range(k % 3 + 1)])
                elif kind == "unlink" and files:
                    files[k % len(files)].unlink()
                elif kind == "edit" and files:
                    path = files[k % len(files)]
                    path.write_bytes(path.read_bytes().replace(b"od 270 ", b"od 271 ", 1))
                elif kind == "foreign":
                    save_template(record(rng, sid=f"f{step}"), gal / f"f{step}.rtpl")
                elif kind == "flip" and (gal / SNAPSHOT_NAME).exists():
                    data = bytearray((gal / SNAPSHOT_NAME).read_bytes())
                    data[k % len(data)] ^= 1 << (k % 8)
                    (gal / SNAPSHOT_NAME).write_bytes(bytes(data))
                assert load_outcome(gal) == load_outcome_from_text(gal)


class TestStatKey:
    """A file whose (inode, byte length, mtime_ns, ctime_ns) the snapshot
    holds, and whose mtime and ctime are older than the snapshot's, loads
    from the snapshot unopened; any other file is read, whatever kept its
    size or its mtime."""

    def gallery(self, tmp_path):
        return TestSnapshot().gallery(tmp_path / "gal")

    def test_after_synth_no_file_older_than_the_snapshot_is_opened(self, tmp_path, monkeypatch,
                                                                 capsys, reads):
        gal = tmp_path / "gal"
        assert cli.main(["synth", "--subjects", "5", "--out", str(gal)]) == 0
        capsys.readouterr()
        settle(gal)
        opened = []
        real_open = os.open

        def spy_open(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy_open)
        got = load_outcome(gal)
        monkeypatch.setattr(os, "open", real_open)
        assert reads == []
        assert SNAPSHOT_NAME in opened and not any(name.endswith(".rtpl") for name in opened)
        assert [sid for sid, *_ in got] == [f"s{i:03d}" for i in range(1, 6)]
        assert got == load_outcome_from_text(gal)

    def test_file_rewritten_in_place_with_its_mtime_restored_is_read(self, tmp_path, reads):
        gal = self.gallery(tmp_path)
        settle(gal)
        path = gal / "p2.rtpl"
        before = path.stat()
        path.write_bytes(path.read_bytes().replace(b"image eye 2.pgm ", b"image eye 9.pgm "))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
            before.st_ino, before.st_size, before.st_mtime_ns)
        reads.clear()
        got = load_outcome(gal)
        assert reads == ["p2.rtpl"]
        assert got[2][1] == "eye 9.pgm "
        assert got == load_outcome_from_text(gal)

    def test_file_replaced_by_rename_with_its_size_and_mtime_is_read(self, tmp_path, reads):
        gal = self.gallery(tmp_path)
        settle(gal)
        path = gal / "p2.rtpl"
        before = path.stat()
        new = gal / "p2.new"
        new.write_bytes(path.read_bytes().replace(b"image eye 2.pgm ", b"image eye 9.pgm "))
        os.utime(new, ns=(before.st_atime_ns, before.st_mtime_ns))
        os.replace(new, path)
        after = path.stat()
        assert after.st_ino != before.st_ino
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        reads.clear()
        got = load_outcome(gal)
        assert reads == ["p2.rtpl"]
        assert got[2][1] == "eye 9.pgm "
        assert got == load_outcome_from_text(gal)

    def test_file_not_older_than_the_snapshot_is_read(self, tmp_path, reads):
        """Git's racy rule: with the snapshot dated back to p2's mtime, p2 and
        p3, written after it by the second batch, are read; p0 and p1,
        written before the clock passed, are not."""
        gal = tmp_path / "gal"
        rng = np.random.default_rng(95)
        add_records(gal, [record(rng, sid="p0"), record(rng, sid="p1")])
        settle(gal)
        add_records(gal, [record(rng, sid="p2"), record(rng, sid="p3")])
        settle(gal)
        assert load_outcome(gal) and reads == []
        mtime = (gal / "p2.rtpl").stat().st_mtime_ns
        os.utime(gal / SNAPSHOT_NAME, ns=(mtime, mtime))
        got = load_outcome(gal)
        assert reads == ["p2.rtpl", "p3.rtpl"]
        assert got == load_outcome_from_text(gal)

    def test_file_whose_ctime_is_not_older_than_the_snapshot_is_read(self, tmp_path, reads):
        """An mtime set back by os.utime does not make a file clean: its
        ctime, which only root or a clock change can set, must be older
        than the snapshot too."""
        gal = self.gallery(tmp_path)
        settle(gal)
        path = gal / "p1.rtpl"
        before = path.stat()
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns - 10 ** 9))
        # The benchmark's enrol-and-unlink takes p1's new stat into the snapshot.
        add_records(gal, [record(np.random.default_rng(96), sid="bench_new")])
        (gal / "bench_new.rtpl").unlink()
        settle(gal)
        reads.clear()
        assert load_outcome(gal) and reads == []
        st = path.stat()
        assert st.st_mtime_ns < st.st_ctime_ns
        os.utime(gal / SNAPSHOT_NAME, ns=(st.st_ctime_ns, st.st_ctime_ns))
        got = load_outcome(gal)
        assert reads == ["p1.rtpl"]
        assert got == load_outcome_from_text(gal)

    def test_file_changed_during_the_writers_read_is_read_again(self, tmp_path, monkeypatch, reads):
        """add_records writes the stat its load took before the read: a
        change after that read misses the key on the next load."""
        gal = self.gallery(tmp_path)
        settle(gal)
        path = gal / "p2.rtpl"
        mtime = path.stat().st_mtime_ns
        os.utime(gal / SNAPSHOT_NAME, ns=(mtime, mtime))  # p2 is read by the next load
        real = store.read_input

        def changing(name, dir_fd=None):
            data = real(name, dir_fd)
            if name == "p2.rtpl":
                before = path.stat()
                path.write_bytes(data.replace(b"image eye 2.pgm ", b"image eye 9.pgm "))
                os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
            return data

        monkeypatch.setattr(store, "read_input", changing)
        add_records(gal, [record(np.random.default_rng(97), sid="q")])
        monkeypatch.setattr(store, "read_input", real)
        settle(gal)
        reads.clear()
        got = load_outcome(gal)
        assert reads == ["p2.rtpl"]
        assert got[2][1] == "eye 9.pgm "
        assert got == load_outcome_from_text(gal)

    def test_file_dated_before_1970_keeps_its_key(self, tmp_path, reads):
        gal = self.gallery(tmp_path)
        path = gal / "p0.rtpl"
        os.utime(path, ns=(-10 ** 9, -10 ** 9))
        add_records(gal, [record(np.random.default_rng(98), sid="q")])
        settle(gal)
        assert split_snapshot((gal / SNAPSHOT_NAME).read_bytes())[2]["mtime_ns"][0] == -10 ** 9
        reads.clear()
        got = load_outcome(gal)
        assert reads == []
        assert got == load_outcome_from_text(gal)

    def test_file_dated_past_2262_is_read_on_every_load(self, tmp_path, reads, parses):
        """An mtime_ns of 2**63 or more, which os.utime can set and `<i8`
        cannot hold, is stored as the largest `<i8`, which no snapshot's
        mtime passes: the file is read and hashed on every load, and its
        records still come from the snapshot by digest."""
        gal = self.gallery(tmp_path)
        path = gal / "p0.rtpl"
        late = 2 ** 63 + 10 ** 9
        os.utime(path, ns=(late, late))
        if path.stat().st_mtime_ns != late:
            pytest.skip("the filesystem clamps file times")
        add_records(gal, [record(np.random.default_rng(98), sid="q")])
        assert split_snapshot((gal / SNAPSHOT_NAME).read_bytes())[2]["mtime_ns"][0] == 2 ** 63 - 1
        # Dated as late as `<i8` allows, the snapshot vouches for every other file.
        os.utime(gal / SNAPSHOT_NAME, ns=(2 ** 63 - 2, 2 ** 63 - 2))
        for _ in range(2):
            reads.clear()
            parses.clear()
            got = load_outcome(gal)
            assert reads == ["p0.rtpl"] and parses == []
            assert got == load_outcome_from_text(gal)

    def test_edge_rows_load_as_the_text_does(self, tmp_path, reads):
        """An empty file, an empty, a non-ASCII and a spaced provenance with
        `#`, and a 64-character id come through the snapshot's columns as
        the text gives them."""
        gal = tmp_path / "gal"
        rng = np.random.default_rng(99)
        add_records(gal, [record(rng, sid="blank", image=""),
                          record(rng, sid="accent", image="œil gauche.pgm")])
        (gal / "empty.rtpl").write_bytes(b"")
        add_records(gal, [record(rng, sid="x" * 64, image=" eye # 2 .pgm "), record(rng, sid="plain")])
        settle(gal)
        reads.clear()
        got = load_outcome(gal)
        assert reads == []
        assert got == load_outcome_from_text(gal)
        assert [(sid, image) for sid, image, *_ in got] == [
            ("accent", "œil gauche.pgm"), ("blank", ""), ("plain", "left_eye.pgm"),
            ("x" * 64, " eye # 2 .pgm ")]
        index = split_snapshot((gal / SNAPSHOT_NAME).read_bytes())[2]
        assert sorted(index["records"]) == [0, 1, 1, 1, 1]  # the empty file has an entry

    def test_files_lists_each_files_stat_key(self, tmp_path):
        gal = self.gallery(tmp_path)
        digests, sizes, keys, counts = file_columns(load_gallery(gal))
        for start, digest, size, key in zip(np.cumsum([0, *counts]).tolist(), digests, sizes, keys):
            name = f"p{start}.rtpl"
            st = (gal / name).stat()
            assert (hashlib.sha256((gal / name).read_bytes()).hexdigest(), size) == (digest, st.st_size)
            assert key[1:] == (st.st_ino, st.st_mtime_ns, st.st_ctime_ns)


class TestLazyRecords:
    """A gallery loaded through the snapshot builds a record, and its od
    centre, only when a caller reads it."""

    def test_identify_builds_only_the_returned_records_centres(self, tmp_path, monkeypatch, capsys):
        gal = tmp_path / "gal"
        assert cli.main(["synth", "--subjects", "200", "--out", str(gal)]) == 0
        probe = tmp_path / "probe.pgm"
        m = np.full((160, 160), 20, np.uint8)
        for mx, my in ((120, 80), (80, 30), (40, 120), (100, 110)):
            m[my - 3:my + 4, mx - 3:mx + 4] = 230
        imaging.save_image(imaging.RasterImage(m), probe)
        built, galleries = [], []
        monkeypatch.setattr(store, "OdCenter", lambda *args: built.append(args) or OdCenter(*args))
        real_load = cli.load_gallery
        monkeypatch.setattr(cli, "load_gallery",
                            lambda path: galleries.append(real_load(path)) or galleries[-1])
        capsys.readouterr()
        assert cli.main(["identify", str(probe), "--gallery", str(gal), "--top-k", "3", "--od", "80,80"]) == 0
        ranked = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
        assert len(ranked) == 3 and built == []
        (gallery,) = galleries
        assert len(gallery) == 200
        ods = [gallery.get(sid).od for sid in ranked]
        assert built == [(od.x, od.y, od.score, od.source) for od in ods]

    def test_loaded_centres_are_the_texts(self, tmp_path, parses):
        rng = np.random.default_rng(100)
        add_records(tmp_path, [
            GalleryRecord("d", quantized_template(rng), od=OdCenter(1 / 7, 2 / 7, 0.4, "detected")),
            GalleryRecord("m", quantized_template(rng), od=OdCenter(30.5, 40.25, 0.9, "manual"))])
        parses.clear()
        gallery = load_gallery(tmp_path)
        assert parses == []
        for sid, score in (("d", 0.0), ("m", 1.0)):
            (text,) = parse_records((tmp_path / f"{sid}.rtpl").read_text())
            assert gallery.get(sid).od == text.od
            assert gallery.get(sid).od.score == score


SPECIAL_AMPLITUDES = [-0.0, 1e-300, 360.0]


def assert_slots_are_the_rows(gallery: Gallery, rng: np.random.Generator) -> None:
    """Gallery.slots of every position, out of order, and then of some
    repeated ones gives, scattered back, each record's template bit for bit,
    rows in the order asked for and each row's slots in slot order."""
    at = np.r_[rng.permutation(len(gallery)), rng.integers(0, len(gallery), 3)]
    values, positions, rows = gallery.slots(at)
    assert positions.dtype == rows.dtype == np.intp
    assert (np.diff(rows * 3 * 360 + positions) > 0).all()
    scattered = np.zeros((len(at), 3 * 360))
    scattered[rows, positions] = values
    want = np.array([gallery[i].template.vectors for i in at.tolist()])
    assert np.array_equal(scattered.view(np.uint64), want.reshape(len(at), -1).view(np.uint64))


def special_rows(rng: np.random.Generator, kind: str) -> np.ndarray:
    """(3, 360) amplitudes: empty, or some slots holding SPECIAL_AMPLITUDES
    over empty or fully occupied rows."""
    v = np.zeros(3 * 360)
    if kind == "full":
        v[:] = rng.uniform(1e-9, 360.0, v.size)
    if kind != "empty":
        k = int(rng.integers(1, 80))
        v[rng.choice(v.size, k, replace=False)] = rng.choice(SPECIAL_AMPLITUDES, k)
    return v.reshape(3, 360)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kinds=st.lists(st.sampled_from(["empty", "full", "mixed"]), min_size=1,
                      max_size=BLOCK_ROWS + 8))
def test_snapshot_rows_are_the_texts_bits(seed, kinds):
    """Rows mixing -0.0, 1e-300, 360.0, empty rows and rows with all 1080
    slots occupied load through the snapshot with the bits the text loads
    with, and Gallery.slots reads them back: of the records' Gallery, of
    the snapshot's load, of a load that appends a parsed file's slots and of
    the Gallery of its records in another order."""
    rng = np.random.default_rng(seed)
    records = [GalleryRecord(f"r{i:02d}", FeatureTemplate(special_rows(rng, kind)))
               for i, kind in enumerate(kinds)]
    with tempfile.TemporaryDirectory() as tmp:
        gal = Path(tmp)
        add_records(gal, records)
        snapshot = (gal / SNAPSHOT_NAME).read_bytes()
        with open(gal / SNAPSHOT_NAME, "rb") as fh:
            files, rows, _, _, values, positions, _ = store._parse_snapshot(fh)
        through_snapshot = load_gallery(gal)
        (gal / SNAPSHOT_NAME).unlink()
        text = load_gallery(gal)
        # A file the snapshot does not hold is parsed, its slots appended.
        save_template(GalleryRecord("zz", FeatureTemplate(special_rows(rng, "mixed"))), gal / "zz.rtpl")
        (gal / SNAPSHOT_NAME).write_bytes(snapshot)
        appended = load_gallery(gal)
    assert appended.subject_ids == text.subject_ids + ["zz"]
    assert appended._ranges[-1, 0] == len(values)
    for gallery in (Gallery(records), through_snapshot, appended,
                    Gallery([appended[i] for i in rng.permutation(len(appended)).tolist()])):
        assert_slots_are_the_rows(gallery, rng)
    assert len(files) == len(records)
    # The snapshot's slots, values bit for bit and in the same ranges, and
    # its class counts are the ones the text's records pack to.
    assert np.array_equal(rows["counts"], text._counts)
    bounds = np.cumsum([0, *rows["counts"].sum(axis=1)])
    assert np.array_equal(values.view(np.uint64), text._values.view(np.uint64))
    assert np.array_equal(positions, text._positions)
    assert np.array_equal(text._ranges, np.column_stack([bounds[:-1], bounds[1:]]))
    for i in range(len(records)):
        assert np.array_equal(through_snapshot[i].template.vectors.view(np.uint64),
                              text[i].template.vectors.view(np.uint64))
    assert loaded(through_snapshot) == loaded(text)
    assert loaded(appended)[:-1] == loaded(text)


def tiles(ranges, size: int) -> bool:
    """True when the [lo, hi) slot ranges, sorted, cover [0, size) with no
    gap and no overlap."""
    lo, hi = np.array(sorted(ranges.tolist()), dtype=np.intp).reshape(-1, 2).T
    return np.array_equal(lo, [0, *hi[:-1]]) and hi[-1] == size


def ranking_bits(ranking):
    return [(sid, *(float(x).hex() for x in (ms.si1, ms.si2, ms.si3, ms.total)), ms.best_shift)
            for sid, ms in ranking]


class TestBlockEquivalence:
    """A gallery loaded through the snapshot, as flat occupied slots with
    records built on demand, ranks, verifies and lists its files bit for bit
    as the same directory loaded from the text alone."""

    def gallery(self, tmp_path):
        """Snapshot entries out of file order, twins that tie near every
        cut, a stale entry of an unlinked file and a file added behind the
        writer."""
        gal = tmp_path / "gal"
        records, _ = build_synthetic_gallery(40, 20, seed=9)
        twin = GalleryRecord("t_twin", records[3].template, "twin.pgm", records[3].od)
        add_records(gal, list(reversed(records)) + [twin])
        add_records(gal, [record(np.random.default_rng(90), sid="bench_new")])
        (gal / "bench_new.rtpl").unlink()
        save_template(record(np.random.default_rng(91), sid="late"), gal / "late.rtpl")
        return gal

    def loads(self, gal):
        through_snapshot = load_gallery(gal)
        (gal / SNAPSHOT_NAME).unlink()
        return through_snapshot, load_gallery(gal)

    def test_the_case_is_out_of_order_with_a_stale_and_a_parsed_row(self, tmp_path):
        gal = self.gallery(tmp_path)
        _, slots, index = split_snapshot((gal / SNAPSHOT_NAME).read_bytes())
        block, text = self.loads(gal)
        # 42 snapshot records, the last one stale (bench_new), and one parsed
        # file (late) whose slots are appended after the snapshot's
        assert index["subject"][-1] == "bench_new"
        assert len(slots) == 42
        starts = block._ranges[:, 0].tolist()
        assert starts != sorted(starts)
        # The stale record's slots are in no record's range: the only gap
        # in the ranges, just before the parsed file's.
        lo, hi = np.array(sorted(block._ranges.tolist())).T
        assert lo[0] == 0 and hi[-1] == len(block._values)
        assert hi[-2] == block._ranges[block.subject_ids.index("late"), 0] - len(slots[-1][0])
        assert np.array_equal(lo[1:-1], hi[:-2])
        assert len(text) == 42
        assert np.array_equal(text._ranges[:, 0], [0, *text._ranges[:-1, 1]])
        assert text._ranges[-1, 1] == len(text._values)

    def test_identify_verify_get_and_files_agree(self, tmp_path):
        block, text = self.loads(self.gallery(tmp_path))
        n = len(text)
        assert block.subject_ids == text.subject_ids
        assert file_columns(block) == file_columns(text)
        assert loaded(block) == loaded(text)
        rng = np.random.default_rng(92)
        queries = [block.get("s004").template, block.get("late").template,
                   FeatureTemplate(np.roll(block.get("s007").template.vectors, 5, axis=1)),
                   quantized_template(rng)]
        weights = Weights(1.0, 2.0, 4.0)
        for q in queries:
            full = ranking_bits(identify(q, text, weights))
            assert ranking_bits(identify(q, block, weights)) == full
            assert ranking_bits(identify(q, list(text), weights)) == full
            for k in (1, 3, n - 1):
                assert ranking_bits(identify(q, block, weights, top_k=k)) == full[:k]
                assert ranking_bits(identify(q, text, weights, top_k=k)) == full[:k]
            for sid in text.subject_ids:
                ok, score = verify(q, block.get(sid), 10.0, weights)
                ok_text, score_text = verify(q, text.get(sid), 10.0, weights)
                assert ok == ok_text
                assert ranking_bits([(sid, score)]) == ranking_bits([(sid, score_text)])
        assert block.get("bench_new") is None and text.get("bench_new") is None

    def test_records_are_read_only_views_of_the_block(self, tmp_path):
        block, _ = self.loads(self.gallery(tmp_path))
        assert not block._values.flags.writeable and not block._positions.flags.writeable
        for i, rec in enumerate(block):
            assert not rec.template.vectors.flags.writeable
            assert block[i] is rec  # built once
        assert_slots_are_the_rows(block, np.random.default_rng(95))
        assert block.get("s002") is block.get("s002")
        # Gallery(records) packs the records' slots into read-only arrays of
        # its own, in record order.
        copy = Gallery(list(block))
        assert not copy._values.flags.writeable and not copy._positions.flags.writeable
        assert np.array_equal(copy._ranges[:, 0], [0, *copy._ranges[:-1, 1]])
        assert copy._ranges[-1, 1] == len(copy._values)
        for i, rec in enumerate(block):
            assert np.array_equal(copy[i].template.vectors, rec.template.vectors)
            assert not any(np.shares_memory(a, rec.template.vectors)
                           for a in (copy._values, copy._positions))

    def test_enrol_rewrites_the_snapshot_from_the_block(self, tmp_path):
        gal = self.gallery(tmp_path)
        before = loaded(load_gallery(gal))
        add_records(gal, [record(np.random.default_rng(93), sid="after")])
        head, amplitudes, index = split_snapshot((gal / SNAPSHOT_NAME).read_bytes())
        assert len(index["subject"]) == len(before) + 1
        g = load_gallery(gal)
        # The rewritten snapshot holds no stale record: the ranges cover
        # every slot.
        assert tiles(g._ranges, len(g._values))
        assert loaded(g) == load_outcome_from_text(gal)
        assert [r for r in loaded(g) if r[0] != "after"] == before


def test_class_counts_are_the_packed_counts(tmp_path):
    """Gallery.class_counts is, in record order and read-only, the class
    counts _pack gives the records' templates, a stored -0.0 included: of a
    Gallery of records, of a loaded gallery with records out of order, a
    stale record and a parsed one, of the Gallery of some of its records,
    and of a gallery loaded through the snapshot whose stored slots include
    -0.0."""
    records, _ = build_synthetic_gallery(5, 20, seed=11)
    loaded_gallery = load_gallery(TestBlockEquivalence().gallery(tmp_path))
    signed = records[0].template.vectors.copy()
    signed[[0, 2], [7, 300]] = -0.0
    add_records(tmp_path / "signed", [GalleryRecord("signed", FeatureTemplate(signed)), records[1]])
    signed_zeros = load_gallery(tmp_path / "signed")
    assert (tmp_path / "signed" / SNAPSHOT_NAME).exists()
    assert np.count_nonzero(np.signbit(signed_zeros._values)) == 2
    for g in (Gallery(records), loaded_gallery,
              Gallery([loaded_gallery[i] for i in (len(loaded_gallery) - 1, 3, 0, 17)]), signed_zeros):
        counts = g.class_counts()
        assert counts.shape == (len(g), 3)
        assert not counts.flags.writeable
        assert np.array_equal(counts, store._pack([r.template.vectors for r in g])[2])
    # The two -0.0 slots are counted, though no profile term reads them.
    at = signed_zeros.subject_ids.index("signed")
    assert signed_zeros.class_counts()[at].sum() == sum(FeatureTemplate(signed).nonzero_counts()) + 2
    screen = GalleryScreen(Gallery())
    assert screen._cos.shape == screen._sin.shape == (3, 0, 181)


def test_occupied_slots_are_the_nonzero_bits():
    """store.occupied_slots keeps, in row-major order, every slot whose bits
    are not those of +0.0: -0.0, NaN, a subnormal and 360 included; zero
    rows and rows of one class give the same form."""
    rows = np.zeros((2, 3, 360))
    rows[0, 2, 359] = 360.0
    rows[1, 0, 5] = -0.0
    rows[1, 1, 0] = np.nan
    rows[1, 2, 7] = 5e-324
    values, positions, row = store.occupied_slots(rows)
    assert positions.dtype == row.dtype == np.intp
    assert positions.tolist() == [1079, 5, 360, 727] and row.tolist() == [0, 1, 1, 1]
    assert values.view(np.uint64).tolist() == np.array([360.0, -0.0, np.nan, 5e-324]).view(np.uint64).tolist()
    values, positions, row = store.occupied_slots(rows[1:, 2:])
    assert (values.tolist(), positions.tolist(), row.tolist()) == ([5e-324], [7], [0])
    for empty in (np.zeros((0, 3, 360)), rows[:, :, :0]):
        assert all(len(a) == 0 for a in store.occupied_slots(empty))
