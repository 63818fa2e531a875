import os
import sys
import threading

import numpy as np
import pytest

from retina_id.encoder import FeatureTemplate
from retina_id.evaluation import build_synthetic_gallery
from retina_id.optic_disc import OdCenter
from retina_id.store import (
    DuplicateSubjectError,
    EmptyGalleryError,
    Gallery,
    GalleryRecord,
    TemplateFormatError,
    format_amplitude,
    gallery_lock,
    load_gallery,
    parse_records,
    render_record,
    save_template,
    valid_subject_id,
)


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

    def test_truncated_record(self):
        lines = self.good_text().split("\n")
        with pytest.raises(TemplateFormatError, match="end of file"):
            parse_records("\n".join(lines[:4]))

    def test_bad_od_line(self):
        lines = self.good_text().split("\n")
        lines[2] = "od 1 2 somewhere"
        with pytest.raises(TemplateFormatError, match="od source"):
            parse_records("\n".join(lines))


class TestGalleryDir:
    def fill(self, tmp_path, ids):
        rng = np.random.default_rng(66)
        for sid in ids:
            save_template(record(rng, sid=sid), tmp_path / f"{sid}.rtpl")

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

    def test_gallery_get(self, tmp_path):
        self.fill(tmp_path, ["x1", "x2"])
        g = load_gallery(tmp_path)
        assert g.get("x2").subject_id == "x2"
        assert g.get("nope") is None


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
