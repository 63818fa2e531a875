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

Lines end in LF alone.  Files are read without newline translation, so a CR
stays part of its line: a CRLF file fails at its first line, a CR in a
magic, subject or image line fails at that line, and in an od or amplitude
line it separates tokens as any whitespace does.  Blank lines between
blocks are ignored; a provenance holds no carriage return.
An amplitude reads as `float()` reads it.  Amplitudes print with at most nine
fractional digits, trailing zeros trimmed, a bare `0` only for empty slots;
values quantised to that precision round-trip exactly.  A gallery is either
one such file or a directory whose `*.rtpl` files are loaded in lexicographic
filename order.  `Gallery` keeps subject ids, [A-Za-z0-9_-]{1,64}, unique;
`add_records` alone writes gallery directories.

A gallery directory may also hold `.snapshot`, a memo of `parse_records`
keyed by each file's content: per file, the sha256 digest and byte length
of its bytes, the records parsed from exactly those bytes, with every
occupied amplitude as raw little-endian float64, and the file's stat key,
(inode, byte length, mtime_ns, ctime_ns).  `load_gallery` stats every
`.rtpl` file and takes its records from the snapshot unopened when its
stat key is there and both its mtime and ctime are older than the
snapshot's own mtime: git's rule for racily clean entries, since a file
changed in the clock tick of the snapshot's write may keep its stat.  Any
other file is read and hashed, and its records come from the snapshot when
its digest and length are there; otherwise it is parsed.  `os.utime` can
set an mtime back but moves the ctime, which only root or a clock change
can set.  The `.rtpl` text is the truth and the snapshot never is: only
`add_records` writes it, for the files it loaded (with the stat their load
took, before any read) and the files it wrote (with their stat after the
rename), and a snapshot that is missing, not a regular file, truncated, of
another version (v1, v2 and v3 included), not in canonical form or fails
any check a parsed record gets is ignored as a whole, and replaced by the
next `add_records`.
Deleting it is always safe; it costs one re-parse.  So the writer removes
the old snapshot before it writes any `.rtpl` file: a snapshot path it
cannot replace then fails the batch with the gallery unchanged.  Like
`.rtpl` writes the new one is written atomically and not fsync'd.

A Gallery holds its amplitudes as the snapshot body does, occupied slots
alone: read-only `<f8` values, their `<u2` positions within a row's 1080
slots, and each record's range of both.  A directory's gallery reads the
snapshot's sections straight into those arrays, then appends the slots of
the files the snapshot misses; an unlinked file's slots are in no
record's range.  Records, each template a read-only row scattered from its
slots and each od centre, are built only when asked for, but every row of
the snapshot's index is checked at load as GalleryRecord and OdCenter
check a parsed record, a column at a time: the sha256 is no MAC, so a
row no caller reads may still be forged.  The layout is this module's
alone: the matcher reads rows through Gallery.amplitudes and slot counts
through Gallery.nonzero_counts.  The directory is listed with os.listdir
(every name ending in `.rtpl`, hidden ones included, case-sensitive); each
file is stat'ed by imaging.stat_input and read by imaging.read_input, the
snapshot opened by imaging.open_input, all through the directory's
descriptor, and an OSError names the entry's path.  add_records writes the
snapshot in the order of the one it loaded, the files that one missed last.

Snapshot layout: the 24-byte head below; the body; the index as ASCII
JSON, an object of equal-length lists, one row per file: `digest` (64
lowercase hex), `bytes`, `inode` (not negative), `mtime_ns`, `ctime_ns`
and `records`, its number of records; then one row per record, the files'
records in file order: `subject`, `od_x`, `od_y`, `od_source`, `image` (the
provenance) and `slots`, its slot count.  Each list holds one JSON type
alone (a bool is no int, an int no float), and the files' record counts add
up to the record rows.  Then the index's byte length as 8 bytes,
little-endian; and last the sha256 digest of everything before it, so a
flipped bit anywhere discards the snapshot.  The body stores a record's
(3, 360) amplitudes as its occupied slots alone: every slot that is nonzero
or has its sign bit set, so a stored -0.0 keeps its bits.  Records are in
index order, in sections of BLOCK_ROWS records (the last may be shorter),
each the section's occupied values in row order as `<f8` then their
positions within each row's 1080 slots as `<u2`.  The form is canonical:
every position is below 1080, positions strictly increase within a row,
and the slot counts add up to the body's size exactly; anything else is
ignored.  The slots are about
6% of a synthetic gallery's and 17% of a real capture's, so the dense body
read, hashed and checked 8640 bytes per record that were mostly zeros.
"""

from __future__ import annotations

import fcntl
import itertools
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .encoder import SLOTS, FeatureTemplate, valid_amplitudes
from .imaging import open_input, read_input, stat_input
from .optic_disc import OdCenter

# hashlib (which loads OpenSSL) and json are imported inside the functions
# that keep the snapshot: only gallery directories need them, and at module
# level they would add about 8 ms to the start of every CLI command.

MAGIC = "RETINA-TEMPLATE v1"
SNAPSHOT_NAME = ".snapshot"
_SNAPSHOT_HEAD = b"RETINA-SNAPSHOT v4\n".ljust(24, b"\0")
_AMPLITUDES = np.dtype("<f8")
_POSITIONS = np.dtype("<u2")
_ROW_SLOTS = 3 * SLOTS
_SLOT_BYTES = _AMPLITUDES.itemsize + _POSITIONS.itemsize
_TRAILER_BYTES = 8 + 32  # index length, sha256 digest
_SUBJECT = r"[A-Za-z0-9_-]{1,64}"
_SUBJECT_RE = re.compile(_SUBJECT + r"\Z")
# The snapshot index's columns and the type of their elements: one row per
# file, then one per record.
_FILE_COLUMNS = {"digest": str, "bytes": int, "inode": int, "mtime_ns": int, "ctime_ns": int,
                 "records": int}
_RECORD_COLUMNS = {"subject": str, "od_x": float, "od_y": float, "od_source": str, "image": str,
                   "slots": int}
_COLUMNS = {**_FILE_COLUMNS, **_RECORD_COLUMNS}
_IDS_RE = re.compile(f"{_SUBJECT}(?:\n{_SUBJECT})*")  # ids joined by newlines
_HEX_RE = re.compile(r"[0-9a-f]*")
_LINES_PER_RECORD = 7
# Records per section of the snapshot body, and per chunk of the FFT
# screens (see retina_id.matcher), whose planes and spectra take about
# 0.6 MB each.
BLOCK_ROWS = 32


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


def _check_names(subject_id: str, source_image: str) -> None:
    if not valid_subject_id(subject_id):
        raise ValueError(f"invalid subject_id {subject_id!r}")
    if "\n" in source_image or "\r" in source_image:
        raise ValueError("source_image must be a single line")


@dataclass(frozen=True)
class GalleryRecord:
    subject_id: str
    template: FeatureTemplate
    source_image: str = ""
    od: OdCenter = OdCenter(0.0, 0.0, 1.0, "manual")

    def __post_init__(self):
        _check_names(self.subject_id, self.source_image)


class Gallery:
    """Records in load order; a repeated subject id raises DuplicateSubjectError.

    The amplitudes are stored as occupied slots (see the module docstring):
    read-only values and positions, record i's being [lo, hi) of both, row
    i of a (len(self), 2) array.  Other modules read them through
    `amplitudes` and `nonzero_counts` alone.  Records are built on first use
    and kept, each from its subject id and its row of the provenance and od
    columns.  `subset` gives the Gallery of some of the records over the
    same slots and columns.

    `files` holds, for a directory that `load_gallery` read, each `.rtpl`
    file's (sha256 digest, byte length, (inode, mtime_ns, ctime_ns) of the
    stat its load took, range of its records' positions), built on first
    use from the columns `add_records` writes to the snapshot; otherwise it
    is empty."""

    def __init__(self, records=(), *, _loaded=None):
        # _loaded: (subject ids, each record's row in the columns, the
        # provenance column, the od column, values, positions, ranges, the
        # files' columns or None)
        if _loaded is None:
            records = list(records)
            _loaded = ([r.subject_id for r in records], range(len(records)),
                       [r.source_image for r in records], [r.od for r in records],
                       *_pack([r.template.vectors for r in records]), None)
        (self._ids, self._rows, self._images, self._ods, self._values, self._positions,
         self._ranges, self._file_columns) = _loaded
        self._values.flags.writeable = self._positions.flags.writeable = False
        self._records = [None] * len(self._ids)
        self._by_id = _positions(self._ids)

    def __getitem__(self, i: int) -> GalleryRecord:
        if self._records[i] is None:
            row = self._rows[i]
            self._records[i] = GalleryRecord(self._ids[i], FeatureTemplate(self.amplitudes(i)),
                                             self._images[row], self._ods[row])
        return self._records[i]

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __len__(self):
        return len(self._ids)

    def amplitudes(self, i: int) -> np.ndarray:
        """Record i's (3, SLOTS) amplitudes, a fresh read-only row."""
        lo, hi = self._ranges[i].tolist()
        row = np.zeros(_ROW_SLOTS)
        row[self._positions[lo:hi]] = self._values[lo:hi]
        row.flags.writeable = False
        return row.reshape(3, SLOTS)

    def nonzero_counts(self) -> np.ndarray:
        """Each record's occupied slots per class, as a (len(self), 3) array:
        row i is record i's FeatureTemplate.nonzero_counts.  A stored -0.0
        keeps its position but occupies no slot."""
        occupied, classes = self._values != 0, self._positions // SLOTS
        before = np.zeros((3, len(occupied) + 1), dtype=np.intp)  # [c, j]: class c's among slots :j
        for c in range(3):  # a cumsum per class takes about a quarter of one over (slots, 3)
            np.cumsum(occupied & (classes == c), out=before[c, 1:])
        return (before[:, self._ranges[:, 1]] - before[:, self._ranges[:, 0]]).T

    @property
    def records(self) -> tuple:
        return tuple(self)

    @property
    def subject_ids(self) -> list[str]:
        return list(self._ids)

    @cached_property
    def files(self) -> tuple:
        if self._file_columns is None:
            return ()
        digests, sizes, keys, counts, _ = self._file_columns
        starts = itertools.accumulate(counts, initial=0)
        return tuple((bytes.fromhex(digest), size, key[1:], range(lo, lo + n))
                     for digest, size, key, lo, n in zip(digests, sizes, keys, starts, counts))

    def get(self, subject_id: str):
        i = self._by_id.get(subject_id)
        return None if i is None else self[i]

    def subset(self, positions) -> Gallery:
        """The Gallery of the records at `positions`, in that order, reading
        this gallery's slots and columns in place; its `files` is empty."""
        positions = np.asarray(positions, dtype=np.intp)
        at = positions.tolist()
        return Gallery(_loaded=(list(map(self._ids.__getitem__, at)),
                                list(map(self._rows.__getitem__, at)), self._images, self._ods,
                                self._values, self._positions, self._ranges[positions], None))


@dataclass(frozen=True)
class _StoredOds:
    """A loaded gallery's od column: row r's centre is built, as the text
    parse builds it, when it is read."""
    x: list
    y: list
    source: list

    def __getitem__(self, row: int) -> OdCenter:
        return _stored_od(self.x[row], self.y[row], self.source[row])


def _positions(subject_ids) -> dict:
    """{subject_id: position} of a list of ids; the first repeated id raises
    DuplicateSubjectError."""
    by_id = dict(zip(subject_ids, range(len(subject_ids))))
    if len(by_id) < len(subject_ids):
        seen = set()
        repeated = next(s for s in subject_ids if s in seen or seen.add(s))
        raise DuplicateSubjectError(f"duplicate subject_id {repeated!r}")
    return by_id


def _pack(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The occupied slots of a list of (3, SLOTS) rows, those nonzero or with
    the sign bit set (so -0.0 keeps its bits): their `<f8` values, their
    `<u2` positions within a row's 1080 slots, and each row's [lo, hi)."""
    flat = np.array(rows, _AMPLITUDES).reshape(-1)
    slots = np.flatnonzero((flat != 0) | np.signbit(flat))
    bounds = np.searchsorted(slots, np.arange(len(rows) + 1) * _ROW_SLOTS)
    return flat[slots], (slots % _ROW_SLOTS).astype(_POSITIONS), np.column_stack([bounds[:-1], bounds[1:]])


def format_amplitude(value: float) -> str:
    s = f"{value:.9f}".rstrip("0").rstrip(".")
    # Below the precision, a positive value (an occupied slot) must not print as 0.
    return "0.000000001" if s == "0" and value > 0 else s


def render_record(record: GalleryRecord) -> str:
    lines = [
        MAGIC,
        f"subject {record.subject_id}",
        f"od {format_amplitude(record.od.x)} {format_amplitude(record.od.y)} {record.od.source}",
        f"image {record.source_image}" if record.source_image else "image",
    ]
    # An empty slot (+0.0) prints as "0", so only the others, usually a few
    # dozen of 1080, are formatted; Python floats format like numpy's, in
    # about half the time.
    values, positions, _ = _pack([record.template.vectors])
    tokens = ["0"] * _ROW_SLOTS
    for i, value in zip(positions.tolist(), values.tolist()):
        tokens[i] = format_amplitude(value)
    lines += (" ".join(tokens[lo:lo + SLOTS]) for lo in range(0, _ROW_SLOTS, SLOTS))
    return "\n".join(lines) + "\n"


@contextmanager
def _replacing(path: Path):
    """Yield a new temporary `.tmp` file (never matched by `*.rtpl`) that is
    renamed onto `path` when the block ends, so a lock-free reader never sees
    a partial file.  Not fsync'd: a crash can still lose the write."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_template(record: GalleryRecord, path) -> bytes:
    """Write `record` to `path` through a temporary file; return the bytes."""
    data = render_record(record).encode("utf-8")
    with _replacing(Path(path)) as fh:
        fh.write(data)
    return data


def _stored_od(x: float, y: float, source: str) -> OdCenter:
    # The file format does not carry the detection score; a manual centre
    # is authoritative (1.0), a detected one is marked unknown (0.0).
    return OdCenter(x, y, 1.0 if source == "manual" else 0.0, source)


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
        if "\r" in source_image:
            raise TemplateFormatError(source, base + 3, "provenance must not hold a carriage return")

        vectors = np.empty((3, SLOTS), dtype=np.float64)
        for v in range(3):
            tokens = lines[i + 4 + v].split()
            if len(tokens) != SLOTS:
                raise TemplateFormatError(
                    source, base + 4 + v,
                    f"expected {SLOTS} amplitudes, found {len(tokens)}")
            try:
                vectors[v] = tokens  # numpy casts each str token as float() does
            except ValueError:
                raise TemplateFormatError(source, base + 4 + v, "amplitudes must be numbers") from None
        # FeatureTemplate checks the amplitudes, once; only a failure looks for
        # the first bad row, to name its line.
        try:
            template = FeatureTemplate(vectors)
        except ValueError:
            bad = next(v for v in range(3) if not valid_amplitudes(vectors[v]))
            raise TemplateFormatError(source, base + 4 + bad, "amplitudes must be 0 or in (0, 360]") from None

        records.append(GalleryRecord(
            subject_id=subject_id,
            template=template,
            source_image=source_image,
            od=_stored_od(od_x, od_y, od_source),
        ))
        i += _LINES_PER_RECORD
    return records


def _decode(data: bytes, source: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TemplateFormatError(
            source, data.count(b"\n", 0, exc.start) + 1, "not valid UTF-8") from None


def _stamp(st: os.stat_result) -> tuple[int, int, int]:
    """(inode, mtime_ns, ctime_ns): with the byte length, a file's stat key."""
    return st.st_ino, st.st_mtime_ns, st.st_ctime_ns


def _columns() -> dict:
    """An index of no file: every column empty, in the index's order."""
    return {name: [] for name in _COLUMNS}


def _check_columns(index) -> dict:
    """`index` if it is a snapshot index whose records would all pass the
    checks a parsed record gets (see the module docstring); ValueError
    otherwise.  Each check runs once over a whole column."""
    if type(index) is not dict or index.keys() != _COLUMNS.keys():
        raise ValueError("not a snapshot index")
    for name, kind in _COLUMNS.items():
        if type(index[name]) is not list or not set(map(type, index[name])) <= {kind}:
            raise ValueError(f"snapshot column {name} is not a list of {kind.__name__}")
    digests, ids, records = index["digest"], index["subject"], index["records"]
    if (len({len(index[name]) for name in _FILE_COLUMNS}) > 1 or min(records, default=0) < 0
            or {len(index[name]) for name in _RECORD_COLUMNS} != {sum(records)}):
        raise ValueError("snapshot columns do not have one row per file and per record")
    if (not set(map(len, digests)) <= {64} or not _HEX_RE.fullmatch("".join(digests))
            or min(index["inode"], default=0) < 0):
        raise ValueError("invalid snapshot file entry")
    # An id holding a newline would add a line to the join.
    joined = "\n".join(ids)
    if ids and (joined.count("\n") != len(ids) - 1 or not _IDS_RE.fullmatch(joined)
                or len(set(ids)) != len(ids)):
        raise ValueError("invalid snapshot subject ids")
    images = "".join(index["image"])
    if ("\n" in images or "\r" in images
            or not all(map(math.isfinite, itertools.chain(index["od_x"], index["od_y"])))
            or not set(index["od_source"]) <= {"detected", "manual"}
            or not 0 <= min(index["slots"], default=0) <= max(index["slots"], default=0) <= _ROW_SLOTS):
        raise ValueError("invalid snapshot record")
    return index


def _parse_snapshot(fh) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray, int]:
    """(index columns, slot values, slot positions, bounds, mtime_ns) of an
    open snapshot, record r's slots being bounds[r]:bounds[r + 1] and
    mtime_ns the snapshot's own.  Raises ValueError or TypeError on
    anything but a well-formed snapshot of valid, uniquely named records.
    Each section's values and positions are read straight into the flat
    arrays, one readinto each, and checked together."""
    import hashlib
    import json

    written = os.fstat(fh.fileno()).st_mtime_ns
    size = fh.seek(0, os.SEEK_END)
    fh.seek(max(size - _TRAILER_BYTES, 0))
    trailer = fh.read()
    end = size - _TRAILER_BYTES - int.from_bytes(trailer[:8], "little")
    fh.seek(0)
    head = fh.read(len(_SNAPSHOT_HEAD))
    if head != _SNAPSHOT_HEAD or len(trailer) != _TRAILER_BYTES or end < len(head):
        raise ValueError("not a snapshot")
    fh.seek(end)
    index = fh.read(size - _TRAILER_BYTES - end)
    columns = _check_columns(json.loads(index))
    counts = columns["slots"]
    bounds = np.fromiter(itertools.accumulate(counts, initial=0), np.intp, len(counts) + 1)
    if _SLOT_BYTES * bounds[-1] != end - len(head):
        raise ValueError("snapshot slot counts do not match its body")
    fh.seek(len(head))
    body = hashlib.sha256(head)
    values = np.empty(bounds[-1], _AMPLITUDES)
    positions = np.empty(bounds[-1], _POSITIONS)
    for lo in range(0, len(counts), BLOCK_ROWS):
        row_counts = counts[lo:lo + BLOCK_ROWS]
        section = slice(bounds[lo], bounds[lo + len(row_counts)])
        for part in (values[section], positions[section]):
            if fh.readinto(part) != part.nbytes:
                raise ValueError("truncated snapshot")
            body.update(part)
        if not valid_amplitudes(values[section]):
            raise ValueError("snapshot amplitudes must be 0 or in (0, 360]")
        # Below 1080, a position's slot in the section increases exactly
        # when the positions increase within each row.
        slots = np.repeat(np.arange(0, len(row_counts) * _ROW_SLOTS, _ROW_SLOTS, np.int32), row_counts)
        slots += positions[section]
        if not ((positions[section] < _ROW_SLOTS).all() and (slots[1:] > slots[:-1]).all()):
            raise ValueError("snapshot positions must increase within a row, below 1080")
    body.update(index + trailer[:8])
    if body.digest() != trailer[8:]:
        raise ValueError("snapshot digest mismatch")
    return columns, values, positions, bounds, written


def _read_snapshot(dir_fd: int) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray, int]:
    """_parse_snapshot of the directory's snapshot; empty columns and no
    slots for a snapshot that is missing, not a regular file or fails any check."""
    try:
        with open(open_input(SNAPSHOT_NAME, dir_fd), "rb") as fh:
            return _parse_snapshot(fh)
    except (OSError, ValueError, TypeError, RecursionError):
        return _columns(), np.empty(0, _AMPLITUDES), np.empty(0, _POSITIONS), np.zeros(1, np.intp), 0


def _in_directory(call, directory: Path, dir_fd: int, name: str):
    """call(name, dir_fd), read_input or stat_input of `name` in
    `directory`, open as dir_fd; an OSError names that path."""
    try:
        return call(name, dir_fd)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(directory / name)) from None


def _load_directory(p: Path) -> Gallery:
    """The gallery of a directory's `*.rtpl` files, in filename order: the
    snapshot's slots and columns for the files whose stat key or digest it
    holds, the parsed records', appended, for the others."""
    import hashlib

    dir_fd = os.open(p, os.O_RDONLY | os.O_DIRECTORY)
    try:
        columns, values, positions, bounds, written = _read_snapshot(dir_fd)
        names = sorted(n for n in os.listdir(dir_fd) if n.endswith(".rtpl"))
        # Every file is stat'ed before any is read, and a stat's error is
        # raised after the files listed before it load, so errors keep
        # filename order.  The stat is taken before the read, so a file
        # that changes during the read misses its key on the next load.
        keys, failure = [], None
        try:
            for name in names:
                st = _in_directory(stat_input, p, dir_fd, name)
                keys.append((st.st_size, *_stamp(st)))
        except OSError as exc:
            failure = exc
        # Git's rule for racily clean entries: a file changed in the same
        # clock tick as the snapshot's write may keep the stat it had, so
        # only a stat older than the write vouches for the file's bytes.
        mtimes, ctimes = columns["mtime_ns"], columns["ctime_ns"]
        clean = dict(itertools.compress(
            zip(zip(columns["bytes"], columns["inode"], mtimes, ctimes), itertools.count()),
            map(written.__gt__, map(max, mtimes, ctimes))))
        entries = list(map(clean.get, keys))  # each file's entry in the columns
        memo, parsed = None, []
        for k in [k for k, entry in enumerate(entries) if entry is None]:
            data = _in_directory(read_input, p, dir_fd, names[k])
            key = hashlib.sha256(data).hexdigest(), len(data)
            if memo is None:
                memo = dict(zip(zip(columns["digest"], columns["bytes"]), itertools.count()))
            if key not in memo:
                source = str(p / names[k])
                records = parse_records(_decode(data, source), source)
                # The parsed records follow the snapshot's, and so do their slots.
                memo[key] = len(columns["digest"])
                _append_entry(columns, key, keys[k][1:], records)
                parsed.append(_pack([r.template.vectors for r in records]))
            entries[k] = memo[key]
    finally:
        os.close(dir_fd)
    if failure is not None:
        raise failure
    # Joined only with parsed slots: a copy of the snapshot's doubles the peak.
    if parsed:
        slot_counts = np.concatenate([ranges[:, 1] - ranges[:, 0] for _, _, ranges in parsed])
        bounds = np.concatenate([bounds, bounds[-1] + np.cumsum(slot_counts)])
        values = np.concatenate([values, *(v for v, _, _ in parsed)])
        positions = np.concatenate([positions, *(pos for _, pos, _ in parsed)])
    per_entry = np.array(columns["records"], dtype=np.intp)
    entries = np.array(entries, dtype=np.intp)
    counts = per_entry[entries]
    firsts = (np.cumsum(per_entry) - per_entry)[entries]  # each file's first row in the columns
    total = int(counts.sum())
    if not total:
        raise EmptyGalleryError(f"no records under {p}")
    # Record i of the gallery, of file k, is column row firsts[k] plus i
    # less the gallery position of k's first record.
    rows = np.repeat(firsts + counts - np.cumsum(counts), counts) + np.arange(total)
    ranges = np.column_stack([bounds[rows], bounds[rows + 1]])
    entries, rows = entries.tolist(), rows.tolist()
    # add_records writes the files in the snapshot's order, the missed ones
    # last; a file with no records is written first.
    order = np.argsort(np.where(counts > 0, firsts, 0), kind="stable").tolist()
    files = (list(map(columns["digest"].__getitem__, entries)),
             list(map(columns["bytes"].__getitem__, entries)), keys, counts.tolist(), order)
    ods = _StoredOds(columns["od_x"], columns["od_y"], columns["od_source"])
    return Gallery(_loaded=(list(map(columns["subject"].__getitem__, rows)), rows, columns["image"], ods,
                            values, positions, ranges, files))


def _append_entry(columns: dict, key: tuple, stamp: tuple, records) -> None:
    """Append to the index columns a file's entry, of content key (digest
    hex, byte length) and stat key `stamp`, and its records' rows, all but
    their slot counts."""
    for name, value in zip(_FILE_COLUMNS, (*key, *stamp, len(records))):
        columns[name].append(value)
    columns["subject"] += (r.subject_id for r in records)
    columns["od_x"] += (r.od.x for r in records)
    columns["od_y"] += (r.od.y for r in records)
    columns["od_source"] += (r.od.source for r in records)
    columns["image"] += (r.source_image for r in records)


def load_gallery(path) -> Gallery:
    """Load one `.rtpl` file or a directory of them.

    A directory's files are read unless its snapshot holds their stat key,
    and parsed unless it holds their bytes' digest.  Raises
    EmptyGalleryError when no records are found (including a missing or
    empty directory), TemplateFormatError on malformed content,
    DuplicateSubjectError on repeated ids and OSError on a FIFO or a device.
    """
    p = Path(path)
    try:
        records = parse_records(_decode(read_input(p), str(p)), str(p))
    except IsADirectoryError:
        return _load_directory(p)
    except (FileNotFoundError, NotADirectoryError):
        raise EmptyGalleryError(f"gallery {p} does not exist") from None
    if not records:
        raise EmptyGalleryError(f"no records under {p}")
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


def _loaded(gallery: Gallery) -> tuple[dict, object]:
    """The index columns, all but the slot counts, of the files that
    load_gallery read, in its snapshot's order (the files it missed last),
    and their records' slots."""
    columns = _columns()
    if gallery._file_columns is None:
        return columns, iter(())
    digests, sizes, keys, counts, order = gallery._file_columns
    starts = list(itertools.accumulate(counts, initial=0))
    positions = []
    for k in order:
        for name, value in zip(_FILE_COLUMNS, (digests[k], sizes[k], *keys[k][1:], counts[k])):
            columns[name].append(value)
        positions += range(starts[k], starts[k + 1])
    rows = list(map(gallery._rows.__getitem__, positions))
    ods = gallery._ods
    columns["subject"] = list(map(gallery._ids.__getitem__, positions))
    for name, column in (("od_x", ods.x), ("od_y", ods.y), ("od_source", ods.source),
                         ("image", gallery._images)):
        columns[name] = list(map(column.__getitem__, rows))
    ranges = gallery._ranges[positions].tolist()
    return columns, ((gallery._values[lo:hi], gallery._positions[lo:hi]) for lo, hi in ranges)


def _write_body(write, slots) -> list:
    """Write records' (values, positions) `slots` as the snapshot body,
    BLOCK_ROWS records per section; return each record's slot count."""
    counts = []
    slots = iter(slots)
    while batch := list(itertools.islice(slots, BLOCK_ROWS)):
        values, positions = zip(*batch)
        write(np.concatenate(values))
        write(np.concatenate(positions))
        counts += map(len, values)
    return counts


def add_records(directory, records) -> None:
    """Write each record to `<directory>/<id>.rtpl` under gallery_lock, then
    write the snapshot of the files loaded and written.  Every record is
    checked first: an enrolled id, an id repeated among `records` or an
    existing file raises ValueError and leaves the gallery unchanged.  The
    old snapshot is removed before the first `.rtpl` write, so a path that
    cannot be replaced fails the batch with the gallery unchanged."""
    directory = Path(directory)
    records = list(records)
    _positions([r.subject_id for r in records])
    targets = {directory / f"{r.subject_id}.rtpl": r for r in records}
    with gallery_lock(directory):
        try:
            enrolled = load_gallery(directory)
        except EmptyGalleryError:
            enrolled = Gallery()
        for target, r in targets.items():
            if enrolled.get(r.subject_id) is not None:
                raise ValueError(f"subject {r.subject_id!r} already enrolled; gallery unchanged")
            if target.exists():
                raise ValueError(f"{target} already exists; gallery unchanged")
        (directory / SNAPSHOT_NAME).unlink(missing_ok=True)
        import hashlib
        import json

        with _replacing(directory / SNAPSHOT_NAME) as fh:
            body = hashlib.sha256()

            def write(chunk):
                fh.write(chunk)
                body.update(chunk)

            index, loaded_slots = _loaded(enrolled)

            def written_slots():
                for target, r in targets.items():
                    data = save_template(r, target)
                    # Rendering rounds amplitudes: the entry is what the bytes parse to.
                    written = parse_records(data.decode("utf-8"), str(target))
                    # Stat after the rename, which moves the file's ctime.
                    _append_entry(index, (hashlib.sha256(data).hexdigest(), len(data)),
                                  _stamp(stat_input(target)), written)
                    for rec in written:
                        yield _pack([rec.template.vectors])[:2]

            write(_SNAPSHOT_HEAD)
            index["slots"] = _write_body(write, itertools.chain(loaded_slots, written_slots()))
            tail = json.dumps(index).encode("ascii")
            write(tail + len(tail).to_bytes(8, "little"))
            fh.write(body.digest())
