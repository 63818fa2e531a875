"""Template persistence.

Records live in line-oriented UTF-8 text files with LF newlines, extension
`.rtpl`, one or more seven-line blocks per file:

    RETINA-TEMPLATE v1
    subject <subject_id>
    od <x> <y> <detected|manual>
    image <free-form provenance, may be empty>
    <360 space-separated class-1 slot amplitudes>
    <360 space-separated class-2 slot amplitudes>
    <360 space-separated class-3 slot amplitudes>

Blank lines between blocks are ignored.  Amplitudes print with at most nine
fractional digits, trailing zeros trimmed, a bare `0` for empty slots;
values quantised to that precision round-trip exactly.  A gallery is either
one such file or a directory whose `*.rtpl` files are loaded in lexicographic
filename order.  Subject ids match [A-Za-z0-9_-]{1,64} and must be unique
across a gallery.
"""

from __future__ import annotations

import fcntl
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .encoder import SLOTS, FeatureTemplate, valid_amplitudes
from .optic_disc import OdCenter

MAGIC = "RETINA-TEMPLATE v1"
_SUBJECT_RE = re.compile(r"[A-Za-z0-9_-]{1,64}\Z")
_LINES_PER_RECORD = 7


class TemplateFormatError(ValueError):
    def __init__(self, source: str, lineno: int, message: str):
        super().__init__(f"{source}:{lineno}: {message}")
        self.lineno = lineno


class DuplicateSubjectError(ValueError):
    pass


class EmptyGalleryError(ValueError):
    pass


def valid_subject_id(subject_id: str) -> bool:
    return bool(_SUBJECT_RE.fullmatch(subject_id))


@dataclass(frozen=True)
class GalleryRecord:
    subject_id: str
    template: FeatureTemplate
    source_image: str = ""
    od: OdCenter = OdCenter(0.0, 0.0, 1.0, "manual")

    def __post_init__(self):
        if not valid_subject_id(self.subject_id):
            raise ValueError(f"invalid subject_id {self.subject_id!r}")
        if "\n" in self.source_image or "\r" in self.source_image:
            raise ValueError("source_image must be a single line")


@dataclass
class Gallery:
    records: list = field(default_factory=list)

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)

    @property
    def subject_ids(self) -> list[str]:
        return [r.subject_id for r in self.records]

    def get(self, subject_id: str):
        for r in self.records:
            if r.subject_id == subject_id:
                return r
        return None


def format_amplitude(value: float) -> str:
    s = f"{value:.9f}".rstrip("0").rstrip(".")
    return s if s else "0"


def render_record(record: GalleryRecord) -> str:
    lines = [
        MAGIC,
        f"subject {record.subject_id}",
        f"od {format_amplitude(record.od.x)} {format_amplitude(record.od.y)} {record.od.source}",
        f"image {record.source_image}".rstrip(),
    ]
    # Python floats format like numpy's, in about half the time.
    for row in record.template.vectors.tolist():
        lines.append(" ".join(map(format_amplitude, row)))
    return "\n".join(lines) + "\n"


def save_template(record: GalleryRecord, path) -> None:
    """Write a temporary `.tmp` file (never matched by `*.rtpl`) and rename
    it onto `path`, so a lock-free reader never sees a partial file.  Not
    fsync'd: a crash can still lose the write."""
    path = Path(path)
    data = render_record(record).encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def parse_records(text: str, source: str = "<string>") -> list[GalleryRecord]:
    lines = text.split("\n")
    records: list[GalleryRecord] = []
    i = 0
    while i < len(lines):
        if lines[i].strip() == "":
            i += 1
            continue
        if i + _LINES_PER_RECORD > len(lines):
            raise TemplateFormatError(source, len(lines), "unexpected end of file inside a record")
        base = i + 1  # 1-based line number of the block's first line

        if lines[i] != MAGIC:
            raise TemplateFormatError(source, base, f"expected {MAGIC!r}")

        subject_line = lines[i + 1]
        if not subject_line.startswith("subject "):
            raise TemplateFormatError(source, base + 1, "expected 'subject <id>'")
        subject_id = subject_line[len("subject "):]
        if not valid_subject_id(subject_id):
            raise TemplateFormatError(source, base + 1, f"invalid subject id {subject_id!r}")

        od_parts = lines[i + 2].split()
        if len(od_parts) != 4 or od_parts[0] != "od":
            raise TemplateFormatError(source, base + 2, "expected 'od <x> <y> <source>'")
        try:
            od_x = float(od_parts[1])
            od_y = float(od_parts[2])
        except ValueError:
            raise TemplateFormatError(source, base + 2, "od coordinates must be numbers") from None
        if not (math.isfinite(od_x) and math.isfinite(od_y)):
            raise TemplateFormatError(source, base + 2, "od coordinates must be finite")
        od_source = od_parts[3]
        if od_source not in ("detected", "manual"):
            raise TemplateFormatError(source, base + 2, f"unknown od source {od_source!r}")

        image_line = lines[i + 3]
        if image_line != "image" and not image_line.startswith("image "):
            raise TemplateFormatError(source, base + 3, "expected 'image <provenance>'")
        source_image = image_line[len("image "):] if image_line.startswith("image ") else ""

        rows = []
        for v in range(3):
            tokens = lines[i + 4 + v].split()
            if len(tokens) != SLOTS:
                raise TemplateFormatError(
                    source, base + 4 + v,
                    f"expected {SLOTS} amplitudes, found {len(tokens)}")
            try:
                row = np.array([float(t) for t in tokens], dtype=np.float64)
            except ValueError:
                raise TemplateFormatError(source, base + 4 + v, "amplitudes must be numbers") from None
            if not valid_amplitudes(row):
                raise TemplateFormatError(source, base + 4 + v, "amplitudes must be 0 or in (0, 360]")
            rows.append(row)

        # The file format does not carry the detection score; a manual centre
        # is authoritative (1.0), a detected one is marked unknown (0.0).
        od = OdCenter(od_x, od_y, 1.0 if od_source == "manual" else 0.0, od_source)
        records.append(GalleryRecord(
            subject_id=subject_id,
            template=FeatureTemplate(np.stack(rows)),
            source_image=source_image,
            od=od,
        ))
        i += _LINES_PER_RECORD
    return records


def load_gallery(path) -> Gallery:
    """Load one `.rtpl` file or a directory of them.

    Raises EmptyGalleryError when no records are found (including a missing
    or empty directory), TemplateFormatError on malformed content and
    DuplicateSubjectError on repeated ids.
    """
    p = Path(path)
    if p.is_file():
        records = parse_records(p.read_text(encoding="utf-8"), str(p))
    elif p.is_dir():
        files = sorted(p.glob("*.rtpl"), key=lambda f: f.name)
        records = [r for f in files for r in parse_records(f.read_text(encoding="utf-8"), str(f))]
    else:
        raise EmptyGalleryError(f"gallery {p} does not exist")
    if not records:
        raise EmptyGalleryError(f"no records under {p}")
    seen = set()
    for r in records:
        if r.subject_id in seen:
            raise DuplicateSubjectError(f"duplicate subject_id {r.subject_id!r}")
        seen.add(r.subject_id)
    return Gallery(records)


@contextmanager
def gallery_lock(directory):
    """Advisory exclusive lock over a gallery directory, for enrolment."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    fd = os.open(directory / ".lock", os.O_CREAT | os.O_RDWR, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)
        os.close(fd)
