"""Input files, image loading, channel extraction and rotation.

Only the 8-bit portable graymap/pixmap formats are supported: ASCII P2/P3
and binary P5/P6, with a required maximum sample value of 255.  Decode
errors name the file and carry the byte offset of the offending input.  A
header whose sample count the file is too short to hold is rejected before
any pixel buffer is allocated.  The header and the token walker read
tokens through one compiled pattern: a token is a run of bytes that are
neither whitespace nor `#`, and a `#` starts a comment that runs to the
next CR or LF.  An ASCII body of plain decimal digits and whitespace is
decoded in one numpy parse; any other body (comments, signs, too few
samples, a sample above 255) goes through the token walker, which decodes
it or reports the offending token's offset.

Coordinate convention, used everywhere in this package: x grows to the
right, y grows downward, and the origin sits at the centre of the top-left
pixel.  Angles are measured counter-clockwise in the mathematical plane
obtained by negating y, so a point straight above a reference point lies at
+90 degrees.  Rotating content by +90 degrees about a centre therefore
moves a pixel east of the centre to the north.

Intensity maps are plain 2-D float64 arrays indexed [y, x].
"""

from __future__ import annotations

import errno
import math
import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_WHITESPACE = b" \t\r\n\x0b\x0c"
_DIGITS = b"0123456789"
_TOKEN_OR_COMMENT = re.compile(rb"#[^\r\n]*|[^ \t\r\n\x0b\x0c#]+")
_READ_BYTES = 1 << 16  # per read of an input file


def _regular(st: os.stat_result, path) -> os.stat_result:
    """`st` if it is a regular file's; otherwise the refusal of `path`."""
    if stat.S_ISREG(st.st_mode):
        return st
    if stat.S_ISDIR(st.st_mode):
        raise OSError(errno.EISDIR, "Is a directory", os.fspath(path))
    raise OSError(errno.EINVAL, "Not a regular file", os.fspath(path))


def stat_input(path, dir_fd: int | None = None) -> os.stat_result:
    """os.stat of `path` (under `dir_fd`, following symlinks), refused as
    open_input refuses it but without opening it."""
    return _regular(os.stat(path, dir_fd=dir_fd), path)


def open_input(path, dir_fd: int | None = None) -> int:
    """The one opener of files read from outside: a read-only, non-blocking
    descriptor of `path` (under `dir_fd`), refused unless a regular file."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK | os.O_NOCTTY, dir_fd=dir_fd)
    try:
        _regular(os.fstat(fd), path)
    except OSError:
        os.close(fd)
        raise
    return fd


def read_input(path, dir_fd: int | None = None) -> bytes:
    """open_input's file, read until a read comes back short."""
    fd = open_input(path, dir_fd)
    try:
        chunks = [os.read(fd, _READ_BYTES)]
        while len(chunks[-1]) == _READ_BYTES:
            chunks.append(os.read(fd, _READ_BYTES))
        return b"".join(chunks)
    finally:
        os.close(fd)


class ImageFormatError(ValueError):
    """A file this reader cannot decode; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset


@dataclass(frozen=True)
class RasterImage:
    """8-bit raster: grayscale samples shaped (h, w) or RGB shaped (h, w, 3)."""

    pixels: np.ndarray

    def __post_init__(self):
        px = self.pixels
        if not isinstance(px, np.ndarray) or px.dtype != np.uint8:
            raise ValueError("pixel samples must be an 8-bit array")
        if px.ndim == 3 and px.shape[2] != 3:
            raise ValueError("colour images must have exactly 3 channels")
        if px.ndim not in (2, 3):
            raise ValueError("expected (h, w) gray or (h, w, 3) rgb samples")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("image must be at least 1x1")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return 1 if self.pixels.ndim == 2 else 3


def _tokens(data: bytes, start: int):
    """Yield (token, offset) pairs, skipping whitespace and # comments."""
    for match in _TOKEN_OR_COMMENT.finditer(data, start):
        if data[match.start()] != 0x23:  # "#"
            yield match[0], match.start()


def _plain_ascii_samples(body: bytes, count: int) -> np.ndarray | None:
    """The first `count` samples of an ASCII body made only of decimal
    digits and whitespace, all in [0, 255]; None for any other body, which
    the token walker then decodes or rejects with its byte offset."""
    if body.translate(None, _DIGITS + _WHITESPACE):
        return None
    # Here every byte above the whitespace range is a digit.
    digit = np.frombuffer(body, dtype=np.uint8) > 0x20
    ends = np.flatnonzero(digit[:-1] > digit[1:])
    if ends.size + int(digit[-1]) < count:
        return None
    cut = int(ends[count - 1]) + 1 if ends.size >= count else len(body)
    values = np.fromstring(body[:cut], dtype=np.int64, sep=" ")
    if values.max() > 255:
        return None
    return values.astype(np.uint8)


def _walk_samples(tok, count: int, data_len: int) -> np.ndarray:
    """Decode `count` samples one token at a time, reporting the first bad
    token's byte offset."""
    samples = np.empty(count, dtype=np.uint8)
    for idx in range(count):
        try:
            raw, off = next(tok)
        except StopIteration:
            raise ImageFormatError("unexpected end of pixel data", data_len) from None
        try:
            value = int(raw)
        except ValueError:
            raise ImageFormatError(f"bad sample {raw.decode('ascii', 'replace')!r}", off) from None
        if not 0 <= value <= 255:
            raise ImageFormatError(f"sample {value} outside [0, 255]", off)
        samples[idx] = value
    return samples


def load_image(path) -> RasterImage:
    """Decode a P2/P3/P5/P6 file.

    Raises ImageFormatError (its message led by the path, with byte offset)
    for malformed or unsupported content, OSError for a file read_input
    cannot read.
    """
    data = read_input(path)
    try:
        return _decode(data)
    except ImageFormatError as exc:
        raise ImageFormatError(f"{os.fspath(path)}: {exc.message}", exc.offset) from None


def _decode(data: bytes) -> RasterImage:
    if len(data) < 2:
        raise ImageFormatError("not a portable graymap/pixmap", 0)
    magic = data[:2]
    if magic not in (b"P2", b"P3", b"P5", b"P6"):
        raise ImageFormatError(f"unsupported magic {magic.decode('ascii', 'replace')!r}", 0)
    ascii_mode = magic in (b"P2", b"P3")
    channels = 3 if magic in (b"P3", b"P6") else 1

    tok = _tokens(data, 2)

    def next_int(what: str) -> tuple[int, int, int]:
        try:
            raw, off = next(tok)
        except StopIteration:
            raise ImageFormatError(f"missing {what}", len(data)) from None
        try:
            value = int(raw)
        except ValueError:
            raise ImageFormatError(f"bad {what} {raw.decode('ascii', 'replace')!r}", off) from None
        return value, off, off + len(raw)

    width, off, _ = next_int("width")
    if width < 1:
        raise ImageFormatError(f"width must be positive, got {width}", off)
    height, off, _ = next_int("height")
    if height < 1:
        raise ImageFormatError(f"height must be positive, got {height}", off)
    maxval, off, header_end = next_int("max sample value")
    if maxval != 255:
        raise ImageFormatError(f"unsupported sample depth {maxval}, must be 255", off)

    count = width * height * channels
    if ascii_mode:
        # Each sample takes a digit and the separator before it.
        if len(data) - header_end < 2 * count:
            raise ImageFormatError("unexpected end of pixel data", len(data))
        samples = _plain_ascii_samples(data[header_end:], count)
        if samples is None:
            samples = _walk_samples(tok, count, len(data))
    else:
        if header_end >= len(data) or data[header_end] not in _WHITESPACE:
            raise ImageFormatError("expected whitespace after header", header_end)
        pixel_start = header_end + 1
        if len(data) - pixel_start < count:
            raise ImageFormatError("truncated pixel data", len(data))
        samples = np.frombuffer(data, dtype=np.uint8, count=count, offset=pixel_start).copy()

    shape = (height, width) if channels == 1 else (height, width, 3)
    return RasterImage(samples.reshape(shape))


def save_image(image: RasterImage, path) -> None:
    """Write a binary P5 (gray) or P6 (rgb) file; round-trips bit-exactly."""
    magic = "P5" if image.channels == 1 else "P6"
    header = f"{magic} {image.width} {image.height} 255\n".encode("ascii")
    Path(path).write_bytes(header + image.pixels.tobytes())


def to_intensity(image: RasterImage) -> np.ndarray:
    """Float64 intensity map: the green channel for colour input, the sole
    channel otherwise.  Values keep their 0..255 range."""
    if image.channels == 3:
        return image.pixels[:, :, 1].astype(np.float64)
    return image.pixels.astype(np.float64)


def rotate_about(intensity: np.ndarray, center: tuple[float, float], angle_deg: float) -> np.ndarray:
    """Rotate map content by angle_deg (counter-clockwise, y negated) about
    center = (x, y), resampling bilinearly; samples falling outside the
    source map read as 0.  Exact multiples of 360 return a copy unchanged.
    """
    m = np.asarray(intensity, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("intensity map must be 2-D")
    h, w = m.shape
    cx, cy = float(center[0]), float(center[1])
    if not (0.0 <= cx <= w - 1 and 0.0 <= cy <= h - 1):
        raise ValueError(f"rotation centre ({cx}, {cy}) outside the map")
    if angle_deg % 360.0 == 0.0:
        return m.copy()
    a = math.radians(angle_deg)
    cos_a = math.cos(a)
    sin_a = math.sin(a)
    ys, xs = np.mgrid[0:h, 0:w]
    dx = xs - cx
    dy = ys - cy
    # Inverse map: where each output pixel samples the source.
    sx = cx + dx * cos_a - dy * sin_a
    sy = cy + dx * sin_a + dy * cos_a
    return _bilinear_zero(m, sx, sy)


def _bilinear_zero(m: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    h, w = m.shape
    x0f = np.floor(sx)
    y0f = np.floor(sy)
    fx = sx - x0f
    fy = sy - y0f
    x0 = x0f.astype(np.int64)
    y0 = y0f.astype(np.int64)

    def fetch(xi, yi):
        valid = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        vals = m[np.clip(yi, 0, h - 1), np.clip(xi, 0, w - 1)]
        return np.where(valid, vals, 0.0)

    v00 = fetch(x0, y0)
    v10 = fetch(x0 + 1, y0)
    v01 = fetch(x0, y0 + 1)
    v11 = fetch(x0 + 1, y0 + 1)
    return (
        v00 * (1.0 - fx) * (1.0 - fy)
        + v10 * fx * (1.0 - fy)
        + v01 * (1.0 - fx) * fy
        + v11 * fx * fy
    )
