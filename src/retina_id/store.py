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
another version (v1 to v4 included), not in canonical form or fails
any check a parsed record gets is ignored as a whole, and replaced by the
next `add_records`.
Deleting it is always safe; it costs one re-parse.  So the writer removes
the old snapshot before it writes any `.rtpl` file: a snapshot path it
cannot replace then fails the batch with the gallery unchanged.  Like
`.rtpl` writes the new one is written atomically and not fsync'd.  Before
it writes, the writer also removes the temporary files of a writer killed
before its rename, every name of the form `.<name>.<pid>.<8 hex>.tmp`.

A Gallery holds its amplitudes as the snapshot body does, occupied slots
alone: read-only `<f8` values, their `<u2` positions within a row's 1080
slots, each record's range of both and its occupied slots per class.  A
directory's gallery reads the snapshot's body straight into those arrays
and its class counts from the index, then appends the slots of the files
the snapshot misses; an unlinked file's slots are in no record's range.
Records, each template a read-only row scattered from its
slots and each od centre, are built only when asked for, but every row of
the snapshot's index is checked at load as GalleryRecord and OdCenter
check a parsed record, a column at a time: the sha256 is no MAC, so a
row no caller reads may still be forged.  The layout is this module's
alone: other modules read it through Gallery.slots and
Gallery.class_counts.  The directory is listed with os.listdir
(every name ending in `.rtpl`, hidden ones included, case-sensitive); each
file is stat'ed by imaging.stat_input and read by imaging.read_input, the
snapshot opened by imaging.open_input, all through the directory's
descriptor, and an OSError names the entry's path.  add_records writes the
snapshot's rows in the order of the gallery it loaded, filename order, then
the rows of the files it wrote; a load matches rows by key, not by order.

Snapshot layout (v5): the 24-byte head below; the body; the index; the
index's byte length as 8 bytes, little-endian; and last the sha256 digest
of everything before it, so a flipped bit anywhere discards the snapshot.
The body stores a record's (3, 360) amplitudes as its occupied slots
alone: every slot that is nonzero or has its sign bit set, so a stored
-0.0 keeps its bits.  It holds every record's occupied values, records in
index order and each row's in slot order, as `<f8`, then their positions
within each row's 1080 slots as `<u2`.  The index is fixed-width and
little-endian, decoded rather than parsed: four `<u8`, the numbers of files
and of records and the byte lengths of the two texts that end it; the file
rows (_FILES), a column at a time, one row per file: `digest` (the raw
32-byte sha256), `bytes`, `inode`, `mtime_ns`, `ctime_ns` and `records`,
its number of records; the record rows (_RECORDS), a column at a time, the
files' records in file order: `od`, the centre's x and y, `counts`, its
occupied slots per class, and `source`, 0 for detected and 1 for manual;
then the subject ids and the provenances, each joined by newlines, as
ASCII and as UTF-8.  The form is canonical: the index is exactly as long
as its counts imply, the files' record counts add up to the record rows,
a class count is at most 360, positions strictly increase within a row and
lie in their class's 360 slots, and the counts add up to the body's size
exactly; anything else is ignored.  A stat time `<i8` cannot hold is
stored as the largest `<i8`, which never passes the racy-clean test, so
that file is read and hashed on every load.  The slots are about
6% of a synthetic gallery's and 17% of a real capture's, so the dense body
of v1 read, hashed and checked 8640 bytes per record that were mostly zeros.
"""

from __future__ import annotations

import fcntl
import itertools
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .encoder import SLOTS, FeatureTemplate, valid_amplitudes
from .imaging import open_input, read_input, stat_input
from .optic_disc import OdCenter

# hashlib (which loads OpenSSL) is imported inside the functions that keep
# the snapshot: only gallery directories need it, and at module level it
# would add several ms to the start of every CLI command.

MAGIC = "RETINA-TEMPLATE v1"
SNAPSHOT_NAME = ".snapshot"
_SNAPSHOT_HEAD = b"RETINA-SNAPSHOT v5\n".ljust(24, b"\0")
_AMPLITUDES = np.dtype("<f8")
_POSITIONS = np.dtype("<u2")
_ROW_SLOTS = 3 * SLOTS
_SLOT_BYTES = _AMPLITUDES.itemsize + _POSITIONS.itemsize
_TRAILER_BYTES = 8 + 32  # index length, sha256 digest
_COUNTS = np.dtype("<u8")  # the index's 4 counts: files, records, id and provenance bytes
# The snapshot index's rows, one per file and one per record, each stored a
# field at a time (see the module docstring).
_FILES = np.dtype([("digest", "V32"), ("bytes", "<u8"), ("inode", "<u8"), ("mtime_ns", "<i8"),
                   ("ctime_ns", "<i8"), ("records", "<u8")])
_RECORDS = np.dtype([("od", "<f8", 2), ("counts", "<u2", 3), ("source", "u1")])
_STAT_KEY = ("bytes", "inode", "mtime_ns", "ctime_ns")  # the _FILES fields a file's stat matches
_SOURCES = ("detected", "manual")  # an od source's byte is its index here
_STAMP_MIN, _STAMP_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_CHECK_SLOTS = 1 << 16  # slots the snapshot's checks take at a time
_SUBJECT = r"[A-Za-z0-9_-]{1,64}"
_SUBJECT_RE = re.compile(_SUBJECT + r"\Z")
_IDS_RE = re.compile(f"{_SUBJECT}(?:\n{_SUBJECT})*")  # ids joined by newlines
_TEMPORARY_RE = re.compile(r"\..+\.[0-9]+\.[0-9a-f]{8}\.tmp")  # _replacing's names
_LINES_PER_RECORD = 7
# Records per chunk of the FFT screens (see retina_id.matcher), whose planes
# and spectra take about 0.6 MB each.
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
    i of a (len(self), 2) array, and record i's slots per class, row i of a
    (len(self), 3) array of class counts.  A loaded gallery takes the class
    counts from the snapshot's index or the text's parse, Gallery(records)
    from packing the templates; they count a stored -0.0.  Other modules
    read the layout through `slots` and `class_counts` alone.  Records are
    built on first use and kept, record i from item i of the id, provenance
    and od columns, its template a read-only row scattered from its slots.
    `subset` gives the Gallery of some of the records over the same slots."""

    def __init__(self, records=(), *, _loaded=None):
        # _loaded: (subject ids, provenances, od centres, values, positions,
        # ranges, class counts, file rows or None).  The file rows are, for
        # a directory load_gallery read, each `.rtpl` file's _FILES row, with
        # the stat its load took, in filename order.
        if _loaded is None:
            records = list(records)
            values, positions, counts = _pack([r.template.vectors for r in records])
            _loaded = ([r.subject_id for r in records], [r.source_image for r in records],
                       [r.od for r in records], values, positions, _ranges(counts), counts, None)
        (self._ids, self._images, self._ods, self._values, self._positions, self._ranges,
         self._counts, self._files) = _loaded
        for column in (self._values, self._positions, self._counts):
            column.flags.writeable = False
        self._records = [None] * len(self._ids)
        self._by_id = _positions(self._ids)

    def __getitem__(self, i: int) -> GalleryRecord:
        if self._records[i] is None:
            # The template is a fresh read-only row scattered from the slots.
            lo, hi = self._ranges[i].tolist()
            row = np.zeros(_ROW_SLOTS)
            row[self._positions[lo:hi]] = self._values[lo:hi]
            row.flags.writeable = False
            self._records[i] = GalleryRecord(self._ids[i], FeatureTemplate(row.reshape(3, SLOTS)),
                                             self._images[i], self._ods[i])
        return self._records[i]

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __len__(self):
        return len(self._ids)

    def slots(self, at) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored slots of the records at positions `at`, in that order,
        each record's in slot order: their values, their positions within a
        row's 1080 slots as intp, and each slot's index into `at`."""
        lo, hi = self._ranges[np.asarray(at, dtype=np.intp)].T
        sizes = hi - lo
        rows = np.repeat(np.arange(len(sizes)), sizes)
        index = np.repeat(lo - np.cumsum(sizes) + sizes, sizes) + np.arange(len(rows))
        return self._values[index], self._positions[index].astype(np.intp), rows

    def class_counts(self) -> np.ndarray:
        """Each record's stored slots per class, a read-only (len(self), 3)
        array; a stored -0.0 is counted."""
        return self._counts

    @property
    def records(self) -> tuple:
        return tuple(self)

    @property
    def subject_ids(self) -> list[str]:
        return list(self._ids)

    @property
    def _file_columns(self):
        """The files' columns of a directory load_gallery read, in filename
        order, or None: each file's sha256 hex digest, byte length, stat key
        (byte length, inode, mtime_ns, ctime_ns) and record count."""
        if self._files is None:
            return None
        files = self._files
        return ([digest.hex() for digest in files["digest"].tolist()], files["bytes"].tolist(),
                list(zip(*(files[name].tolist() for name in _STAT_KEY))),
                files["records"].tolist())

    def get(self, subject_id: str):
        i = self._by_id.get(subject_id)
        return None if i is None else self[i]

    def subset(self, positions) -> Gallery:
        """The Gallery of the records at `positions`, in that order, reading
        this gallery's slots in place; it has no file rows."""
        positions = np.asarray(positions, dtype=np.intp)
        at = positions.tolist()
        return Gallery(_loaded=(*(list(map(column.__getitem__, at))
                                  for column in (self._ids, self._images, self._ods)),
                                self._values, self._positions, self._ranges[positions],
                                self._counts[positions], None))


@dataclass(frozen=True)
class _StoredOds:
    """A loaded gallery's _RECORDS rows, in gallery order: record i's od
    centre is built, as the text parse builds it, when it is read."""
    rows: np.ndarray

    def __getitem__(self, i: int) -> OdCenter:
        x, y = self.rows["od"][i].tolist()
        return _stored_od(x, y, _SOURCES[self.rows["source"][i]])


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
    `<u2` positions within a row's 1080 slots, and each row's per class."""
    flat = np.array(rows, _AMPLITUDES).reshape(-1)
    occupied = (flat != 0) | np.signbit(flat)
    slots = np.flatnonzero(occupied)
    counts = np.count_nonzero(occupied.reshape(-1, 3, SLOTS), axis=2)
    return flat[slots], (slots % _ROW_SLOTS).astype(_POSITIONS), counts


def _ranges(counts) -> np.ndarray:
    """Each record's [lo, hi), as a (len(counts), 2) array, of slots that
    hold the records' slots one after another, given their class counts."""
    sizes = counts.sum(axis=1, dtype=np.intp)
    ends = np.cumsum(sizes)
    return np.column_stack([ends - sizes, ends])


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
        if od_source not in _SOURCES:
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


def _stored_time(time_ns: int) -> int:
    """A stat time as the index's `<i8` holds it: one it cannot hold, which
    os.utime can set (past 2262, say), is stored as the largest `<i8`, which
    no snapshot's mtime passes, so its file is read on every load."""
    return time_ns if _STAMP_MIN <= time_ns <= _STAMP_MAX else _STAMP_MAX


def _file_tables(digest: bytes, size: int, stamp: tuple, records) -> tuple:
    """The index tables of one parsed file, of sha256 digest `digest`, byte
    length `size` and stat key `stamp` (inode, mtime_ns, ctime_ns): its
    _FILES row, its records' _RECORDS rows, their subject ids and
    provenances, and their slots' values and positions."""
    inode, mtime, ctime = stamp
    values, positions, counts = _pack([r.template.vectors for r in records])
    return (np.array([(digest, size, inode, _stored_time(mtime), _stored_time(ctime), len(records))], _FILES),
            np.array([((r.od.x, r.od.y), c, _SOURCES.index(r.od.source))
                      for r, c in zip(records, counts.tolist())], _RECORDS),
            [r.subject_id for r in records], [r.source_image for r in records], values, positions)


def _joined(tables) -> tuple:
    """Index tables (see _file_tables) one after another."""
    return tuple(list(itertools.chain(*parts)) if isinstance(parts[0], list) else np.concatenate(parts)
                 for parts in zip(*tables))


def _no_tables() -> tuple:
    """The index tables of no file (see _file_tables)."""
    return (np.empty(0, _FILES), np.empty(0, _RECORDS), [], [], np.empty(0, _AMPLITUDES),
            np.empty(0, _POSITIONS))


def _lines(text: str, n: int) -> list[str]:
    """The n lines that `text` joins with newlines; ValueError for another count."""
    lines = text.split("\n") if text or n else []
    if len(lines) != n:
        raise ValueError("snapshot text column does not have one line per record")
    return lines


def _parse_index(index: bytes) -> tuple:
    """(file rows, record rows, subject ids, provenances) of a snapshot's
    index; ValueError unless it is exactly as long as its counts imply and
    every row passes the checks a parsed record gets, a column at a time."""
    files, records, id_bytes, image_bytes = np.frombuffer(index, _COUNTS, 4).tolist()
    at = 4 * _COUNTS.itemsize
    if at + _FILES.itemsize * files + _RECORDS.itemsize * records + id_bytes + image_bytes != len(index):
        raise ValueError("snapshot index length does not match its counts")
    tables = []
    for table_dtype, n in ((_FILES, files), (_RECORDS, records)):
        table = np.empty(n, table_dtype)
        for name in table_dtype.names:
            field = table_dtype[name]
            column = np.frombuffer(index, field.base, n * math.prod(field.shape), at)
            table[name] = column.reshape(n, *field.shape)
            at += column.nbytes
        tables.append(table)
    file_rows, record_rows = tables
    ids = index[at:at + id_bytes].decode("ascii")
    images = index[at + id_bytes:].decode("utf-8")
    per_file = file_rows["records"]
    if per_file.max(initial=0) > records or int(per_file.sum()) != records:
        raise ValueError("snapshot record counts do not add up to its record rows")
    id_list = _lines(ids, records)
    if records and (not _IDS_RE.fullmatch(ids) or len(set(id_list)) != records):
        raise ValueError("invalid snapshot subject ids")
    if ("\r" in images or not np.isfinite(record_rows["od"]).all() or (record_rows["source"] > 1).any()
            or (record_rows["counts"] > SLOTS).any()):
        raise ValueError("invalid snapshot record")
    return file_rows, record_rows, id_list, _lines(images, records)


def _check_slots(values: np.ndarray, positions: np.ndarray, counts: np.ndarray) -> None:
    """ValueError unless every amplitude is valid and, record by record, the
    positions strictly increase and each class's run of `counts` lies in that
    class's 360 slots.  Slots are taken _CHECK_SLOTS at a time."""
    runs = counts.reshape(-1)
    ends = np.cumsum(runs, dtype=np.intp)
    starts = ends - runs
    row_starts = starts[::3]
    for lo in range(0, len(values), _CHECK_SLOTS):
        if not valid_amplitudes(values[lo:lo + _CHECK_SLOTS]):
            raise ValueError("snapshot amplitudes must be 0 or in (0, 360]")
        # A position may be at or below the one before it only where a record starts.
        p = positions[lo:lo + _CHECK_SLOTS + 1]
        steps = np.flatnonzero(p[1:] <= p[:-1]) + (lo + 1)
        at = np.minimum(np.searchsorted(row_starts, steps), len(row_starts) - 1)
        if not np.array_equal(row_starts[at], steps):
            raise ValueError("snapshot positions must increase within a row")
    # Increasing within its row, a run lies in its class if its ends do.
    occupied = runs > 0
    floors = np.tile(np.arange(0, _ROW_SLOTS, SLOTS), len(counts))[occupied]
    if not ((positions[starts[occupied]] >= floors).all()
            and (positions[ends[occupied] - 1] < floors + SLOTS).all()):
        raise ValueError("snapshot positions must lie in their class's slots")


def _parse_snapshot(fh) -> tuple:
    """(file rows, record rows, subject ids, provenances, slot values, slot
    positions, mtime_ns) of an open snapshot, mtime_ns the snapshot's own,
    clamped to `<i8`.  Raises ValueError on anything but a well-formed
    snapshot of valid, uniquely named records.  The values and the
    positions are each read with one readinto straight into the flat
    arrays."""
    import hashlib

    written = min(max(os.fstat(fh.fileno()).st_mtime_ns, _STAMP_MIN), _STAMP_MAX)
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
    files, records, ids, images = _parse_index(index)
    total = int(records["counts"].sum())
    if _SLOT_BYTES * total != end - len(head):
        raise ValueError("snapshot class counts do not match its body")
    fh.seek(len(head))
    digest = hashlib.sha256(head)
    values, positions = np.empty(total, _AMPLITUDES), np.empty(total, _POSITIONS)
    for part in (values, positions):
        if fh.readinto(part) != part.nbytes:
            raise ValueError("truncated snapshot")
        digest.update(part)
    digest.update(index)
    digest.update(trailer[:8])
    if digest.digest() != trailer[8:]:
        raise ValueError("snapshot digest mismatch")
    _check_slots(values, positions, records["counts"])
    return files, records, ids, images, values, positions, written


def _read_snapshot(dir_fd: int) -> tuple:
    """_parse_snapshot of the directory's snapshot; empty tables for a
    snapshot that is missing, not a regular file or fails any check."""
    try:
        with open(open_input(SNAPSHOT_NAME, dir_fd), "rb") as fh:
            return _parse_snapshot(fh)
    except (OSError, ValueError):
        return (*_no_tables(), 0)


def _in_directory(call, directory: Path, dir_fd: int, name: str):
    """call(name, dir_fd), read_input or stat_input of `name` in
    `directory`, open as dir_fd; an OSError names that path."""
    try:
        return call(name, dir_fd)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(directory / name)) from None


def _load_directory(p: Path) -> Gallery:
    """The gallery of a directory's `*.rtpl` files, in filename order: the
    snapshot's slots and rows for the files whose stat key or digest it
    holds, the parsed records', appended, for the others."""
    import hashlib

    dir_fd = os.open(p, os.O_RDONLY | os.O_DIRECTORY)
    try:
        *tables, written = _read_snapshot(dir_fd)
        files = tables[0]
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
        clean = np.flatnonzero(written > np.maximum(files["mtime_ns"], files["ctime_ns"]))
        vouched = files[clean]
        by_stat = dict(zip(zip(*(vouched[name].tolist() for name in _STAT_KEY)), clean.tolist()))
        entries = list(map(by_stat.get, keys))  # each file's row in the tables
        misses = [k for k, entry in enumerate(entries) if entry is None]
        memo, parsed = None, []
        for k in misses:
            data = _in_directory(read_input, p, dir_fd, names[k])
            key = hashlib.sha256(data).digest(), len(data)
            if memo is None:
                memo = dict(zip(zip(files["digest"].tolist(), files["bytes"].tolist()), itertools.count()))
            if key not in memo:
                source = str(p / names[k])
                # The parsed files' rows follow the snapshot's, and so do their slots.
                parsed.append(_file_tables(*key, keys[k][1:], parse_records(_decode(data, source), source)))
                memo[key] = len(files) + len(parsed) - 1
            entries[k] = memo[key]
    finally:
        os.close(dir_fd)
    if failure is not None:
        raise failure
    # Joined only with parsed slots: a copy of the snapshot's doubles the peak.
    files, records, ids, images, values, positions = _joined([tables, *parsed]) if parsed else tables
    per_file = files["records"].astype(np.intp)
    entries = np.array(entries, dtype=np.intp)
    counts = per_file[entries]
    firsts = (np.cumsum(per_file) - per_file)[entries]  # each file's first record row
    total = int(counts.sum())
    if not total:
        raise EmptyGalleryError(f"no records under {p}")
    # Record i of the gallery, of file k, is record row firsts[k] plus i
    # less the gallery position of k's first record.
    rows = np.repeat(firsts + counts - np.cumsum(counts), counts) + np.arange(total)
    gallery_files = files[entries]
    for k in misses:  # a read file's row takes the stat this load took
        row = gallery_files[k]
        row["inode"], row["mtime_ns"], row["ctime_ns"] = keys[k][1], *map(_stored_time, keys[k][2:])
    ranges = _ranges(records["counts"])[rows]
    records, at = records[rows], rows.tolist()
    return Gallery(_loaded=(list(map(ids.__getitem__, at)), list(map(images.__getitem__, at)),
                            _StoredOds(records), values, positions, ranges, records["counts"], gallery_files))


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


def _slot_runs(ranges: np.ndarray) -> list[slice]:
    """The [lo, hi) ranges, in order, as slices, merging each range into the
    one before it where that one ends at its start."""
    if not len(ranges):
        return []
    lo, hi = ranges.T
    cuts = np.flatnonzero(lo[1:] != hi[:-1]) + 1
    return list(map(slice, lo[np.r_[0, cuts]].tolist(), hi[np.r_[cuts - 1, len(lo) - 1]].tolist()))


def _index(files, records, ids, images) -> bytes:
    """The snapshot index of the tables (see the module docstring)."""
    ids, images = "\n".join(ids).encode("ascii"), "\n".join(images).encode("utf-8")
    head = np.array([len(files), len(records), len(ids), len(images)], _COUNTS)
    return b"".join([head.tobytes(), *(table[name].tobytes() for table in (files, records)
                                       for name in table.dtype.names), ids, images])


def add_records(directory, records) -> None:
    """Write each record to `<directory>/<id>.rtpl` under gallery_lock, then
    write the snapshot of the files loaded and written.  Every record is
    checked first: an enrolled id, an id repeated among `records` or an
    existing file raises ValueError and leaves the gallery unchanged.  The
    old snapshot, and any temporary file a killed writer left, is removed
    before the first `.rtpl` write, so a path that cannot be replaced fails
    the batch with the gallery unchanged."""
    import hashlib

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
        for name in os.listdir(directory):
            if _TEMPORARY_RE.fullmatch(name):
                (directory / name).unlink(missing_ok=True)
        (directory / SNAPSHOT_NAME).unlink(missing_ok=True)

        # Each written file is packed as it is written, so one parsed
        # template at a time is held.
        new = [_no_tables()]
        for target, r in targets.items():
            data = save_template(r, target)
            # Rendering rounds amplitudes: the rows are what the bytes parse
            # to.  Stat after the rename, which moves the file's ctime.
            new.append(_file_tables(hashlib.sha256(data).digest(), len(data), _stamp(stat_input(target)),
                                    parse_records(data.decode("utf-8"), str(target))))
        new = _joined(new)
        loaded = (_no_tables()[:4] if enrolled._files is None
                  else (enrolled._files, enrolled._ods.rows, enrolled._ids, enrolled._images))
        with _replacing(directory / SNAPSHOT_NAME) as fh:
            digest = hashlib.sha256()

            def write(chunk):
                fh.write(chunk)
                digest.update(chunk)

            write(_SNAPSHOT_HEAD)
            for slots, new_slots in ((enrolled._values, new[4]), (enrolled._positions, new[5])):
                for run in _slot_runs(enrolled._ranges):
                    write(slots[run])
                write(new_slots)
            index = _index(*_joined([loaded, new[:4]]))
            write(index + len(index).to_bytes(8, "little"))
            fh.write(digest.digest())
