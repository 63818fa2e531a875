"""Hypothesis properties for untrusted input.

Random bytes used as a PNM file, an `.rtpl` body, a `--config` file or an
`.od` sidecar make the library raise nothing but ValueError subclasses, and
an in-process `cli.main` on the same file exits with the documented code:
2 for bad input, 3 for a gallery without records, 0 otherwise.  An amplitude
token reads as `float()` reads it.  Valid records survive a render/parse
round trip unchanged.

Hypothesis rejects function-scoped fixtures under @given, so each example
makes its files in a fresh TemporaryDirectory.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from retina_id import cli
from retina_id.encoder import SLOTS, FeatureTemplate
from retina_id.evaluation import build_synthetic_gallery
from retina_id.harris import detect_corners
from retina_id.imaging import RasterImage, load_image, save_image, to_intensity
from retina_id.optic_disc import OdCenter, od_from_sidecar
from retina_id.store import (
    EmptyGalleryError,
    GalleryRecord,
    TemplateFormatError,
    load_gallery,
    parse_records,
    render_record,
)

SIZE = 32
RECORD = render_record(build_synthetic_gallery(1, 12, 3)[0][0]).encode("utf-8")


def outcome(fn, *args):
    """The ValueError that fn raises, or None; any other exception fails."""
    try:
        fn(*args)
    except ValueError as exc:
        return exc
    return None


def exit_code(exc) -> int:
    if exc is None:
        return cli.EXIT_OK
    return cli.EXIT_EMPTY_GALLERY if isinstance(exc, EmptyGalleryError) else cli.EXIT_INPUT


def run_main(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


@contextlib.contextmanager
def workdir():
    """A fresh directory holding a SIZE x SIZE eye image `eye.pgm`."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        m = np.full((SIZE, SIZE), 20, dtype=np.uint8)
        m[8:24, 8:24] = 200
        save_image(RasterImage(m), d / "eye.pgm")
        yield d


def spliced(data: bytes):
    """`data` with one slice replaced by random bytes."""
    return st.tuples(st.integers(0, len(data)), st.integers(0, 40), st.binary(max_size=20)).map(
        lambda t: data[:t[0]] + t[2] + data[t[0] + t[1]:])


DIMENSION = st.one_of(st.integers(-1, 16), st.sampled_from([10 ** 9, 2 ** 70]))
PNM = st.one_of(
    st.binary(max_size=300),
    st.builds(
        lambda magic, w, h, maxval, sep, body: b"%s %d %d %d%s" % (magic, w, h, maxval, sep) + body,
        st.sampled_from([b"P2", b"P3", b"P5", b"P6"]), DIMENSION, DIMENSION,
        st.one_of(st.just(255), st.integers(-1, 300)), st.sampled_from([b"\n", b" ", b"", b"#"]),
        st.one_of(st.binary(max_size=800),
                  st.text("0123456789 \n#+-x", max_size=1600).map(str.encode))),
)

# Setting values: small ints, ints beyond the float range, float spellings
# and arbitrary text.
HUGE = st.integers(min_value=2 ** 1024, max_value=10 ** 400)
SETTING_VALUE = st.one_of(
    st.integers(-3, 40).map(str), HUGE.map(str), HUGE.map(lambda n: str(-n)),
    st.floats().map(repr), st.text(max_size=8))
CONFIG = st.one_of(
    st.binary(max_size=200),
    st.lists(st.tuples(st.sampled_from(sorted(cli._SETTINGS)), SETTING_VALUE), max_size=4).map(
        lambda kv: "".join(f"{k} = {v}\n" for k, v in kv).encode("utf-8")),
)

SIDECAR = st.one_of(
    st.binary(max_size=60),
    st.tuples(st.floats(), st.floats()).map(lambda xy: f"{xy[0]} {xy[1]}\n".encode()),
)


class TestRandomBytes:
    @settings(max_examples=100, deadline=None)
    @given(PNM)
    def test_pnm(self, data):
        with workdir() as d:
            path = d / "probe.pgm"
            path.write_bytes(data)
            exc = outcome(load_image, path)
            assert run_main("detect", path) == exit_code(
                exc or outcome(lambda: detect_corners(to_intensity(load_image(path)))))

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(st.binary(max_size=300), spliced(RECORD), spliced(RECORD + RECORD)))
    def test_rtpl(self, data):
        with workdir() as d:
            path = d / "gallery.rtpl"
            path.write_bytes(data)
            exc = outcome(load_gallery, path)
            assert run_main("identify", d / "eye.pgm", "--gallery", path, "--od", "16,16") \
                == exit_code(exc)

    @settings(max_examples=100, deadline=None)
    @given(CONFIG)
    def test_config(self, data):
        with workdir() as d:
            path = d / "settings.conf"
            path.write_bytes(data)
            eye = d / "eye.pgm"
            args = cli._build_parser().parse_args(["detect", str(eye), "--config", str(path)])

            def detect():
                detect_corners(to_intensity(load_image(eye)), cli._resolve_settings(args).harris)

            assert run_main("detect", eye, "--config", path) == exit_code(outcome(detect))

    @settings(max_examples=60, deadline=None)
    @given(SIDECAR)
    def test_od_sidecar(self, data):
        with workdir() as d:
            eye = d / "eye.pgm"
            (d / "eye.pgm.od").write_bytes(data)
            (d / "gallery.rtpl").write_bytes(RECORD)
            exc = outcome(od_from_sidecar, eye, to_intensity(load_image(eye)))
            assert run_main("identify", eye, "--gallery", d / "gallery.rtpl") == exit_code(exc)


AMPLITUDE = st.one_of(st.just(360.0), st.integers(1, 360 * 10 ** 9).map(lambda n: n / 10 ** 9))
RING = st.one_of(st.just({}), st.dictionaries(st.integers(0, SLOTS - 1), AMPLITUDE, max_size=60))
COORD = st.integers(-10 ** 15, 10 ** 15).map(lambda n: n / 10 ** 9)
# Any single-line text, with whitespace drawn often: render_record must keep
# a trailing run of it.
PROVENANCE_CHARS = st.one_of(
    st.sampled_from(" \t\x0b\x0c\x85\u2028"),
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"))


@st.composite
def records(draw):
    vectors = np.zeros((3, SLOTS))
    for row in range(3):
        for slot, amplitude in draw(RING).items():
            vectors[row, slot] = amplitude
    source = draw(st.sampled_from(["detected", "manual"]))
    return GalleryRecord(
        subject_id=draw(st.from_regex(r"[A-Za-z0-9_-]{1,64}", fullmatch=True)),
        template=FeatureTemplate(vectors),
        source_image=draw(st.text(PROVENANCE_CHARS, max_size=20)),
        # The file keeps no detection score: manual reads back 1.0, detected 0.0.
        od=OdCenter(draw(COORD), draw(COORD), 1.0 if source == "manual" else 0.0, source),
    )


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(records(), min_size=1, max_size=3))
    def test_render_then_parse(self, recs):
        parsed = parse_records("\n".join(render_record(r) for r in recs))
        assert len(parsed) == len(recs)
        for got, want in zip(parsed, recs):
            assert (got.subject_id, got.source_image, got.od) == \
                (want.subject_id, want.source_image, want.od)
            assert np.array_equal(got.template.vectors, want.template.vectors)


# Pieces of number spellings, plus characters that float() accepts (Arabic-
# Indic digits, single underscores) or rejects (NUL).
TOKEN = st.lists(st.sampled_from([*"0123456789.e+-_", "nan", "inf", "\x00", "\u0663"]),
                 min_size=1, max_size=8).map("".join)


class TestAmplitudeToken:
    @settings(max_examples=300, deadline=None)
    @given(TOKEN, st.integers(0, SLOTS - 1))
    def test_token_reads_as_float(self, token, slot):
        lines = RECORD.decode("utf-8").split("\n")
        tokens = lines[6].split()
        tokens[slot] = token
        lines[6] = " ".join(tokens)
        try:
            want = float(token)
        except ValueError:
            want = None
        valid = want is not None and (want == 0 or 0 < want <= 360)
        try:
            got = parse_records("\n".join(lines))[0].template.vectors[2, slot]
        except TemplateFormatError as exc:
            assert not valid and exc.lineno == 7
        else:
            assert valid and got.tobytes() == np.float64(want).tobytes()
