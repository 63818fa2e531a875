import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retina_id import imaging
from retina_id.imaging import (
    ImageFormatError,
    RasterImage,
    load_image,
    rotate_about,
    save_image,
    to_intensity,
)

from oracles import rotate_nearest


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_bytes(payload if isinstance(payload, bytes) else payload.encode())
    return p


class TestLoad:
    def test_ascii_graymap(self, tmp_path):
        p = write(tmp_path, "a.pgm", "P2 2 2 255\n0 255 128 64\n")
        img = load_image(p)
        assert img.channels == 1
        assert img.pixels.tolist() == [[0, 255], [128, 64]]

    def test_ascii_pixmap(self, tmp_path):
        p = write(tmp_path, "a.ppm", "P3\n1 1\n255\n10 200 30\n")
        img = load_image(p)
        assert img.channels == 3
        assert img.pixels.tolist() == [[[10, 200, 30]]]

    def test_binary_graymap(self, tmp_path):
        p = write(tmp_path, "a.pgm", b"P5 3 2 255\n" + bytes([1, 2, 3, 4, 5, 6]))
        img = load_image(p)
        assert img.pixels.tolist() == [[1, 2, 3], [4, 5, 6]]

    def test_comments_and_whitespace(self, tmp_path):
        p = write(tmp_path, "a.pgm", "P2 # fmt\n# a comment line\n 2\t1 # w h\n255\n7 9\n")
        img = load_image(p)
        assert img.pixels.tolist() == [[7, 9]]

    def test_unsupported_magic_reports_offset_zero(self, tmp_path):
        p = write(tmp_path, "a.pnm", "P7 1 1 255 0")
        with pytest.raises(ImageFormatError) as err:
            load_image(p)
        assert err.value.offset == 0

    def test_sixteen_bit_depth_rejected(self, tmp_path):
        p = write(tmp_path, "a.pgm", "P2 1 1 65535\n0\n")
        with pytest.raises(ImageFormatError, match="sample depth"):
            load_image(p)

    def test_truncated_binary_reports_offset(self, tmp_path):
        p = write(tmp_path, "a.pgm", b"P5 4 4 255\nabc")
        with pytest.raises(ImageFormatError, match="truncated"):
            load_image(p)

    def test_bad_header_token_offset(self, tmp_path):
        payload = b"P2 zz 2 255\n0 0 0 0\n"
        p = write(tmp_path, "a.pgm", payload)
        with pytest.raises(ImageFormatError) as err:
            load_image(p)
        assert err.value.offset == payload.index(b"zz")

    def test_ascii_sample_out_of_range(self, tmp_path):
        p = write(tmp_path, "a.pgm", "P2 2 1 255\n12 300\n")
        with pytest.raises(ImageFormatError, match="300"):
            load_image(p)

    def test_ascii_missing_samples(self, tmp_path):
        p = write(tmp_path, "a.pgm", "P2 2 2 255\n1 2 3\n")
        with pytest.raises(ImageFormatError, match="end of pixel data"):
            load_image(p)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_image(tmp_path / "nope.pgm")

    @pytest.mark.parametrize("payload", [b"P2 100000 100000 255\n1 2 3\n",
                                         b"P5 100000 100000 255\n\x01\x02"])
    def test_huge_declared_size_rejected_before_allocating(self, tmp_path, payload):
        p = write(tmp_path, "huge.pgm", payload)
        tracemalloc.start()
        try:
            with pytest.raises(ImageFormatError) as err:
                load_image(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.offset == len(payload)
        assert peak < 1 << 20


def decode_outcome(path):
    """Pixels on success, the message and byte offset on a format error."""
    try:
        img = load_image(path)
    except ImageFormatError as exc:
        return ("error", str(exc), exc.offset)
    return ("ok", img.pixels.shape, img.pixels.tobytes())


def walker_outcome(path):
    """The same decode with the vectorised ASCII path switched off."""
    with mock.patch.object(imaging, "_plain_ascii_samples", return_value=None):
        return decode_outcome(path)


ASCII_BODIES = [
    "P2 3 2 255\n0 255 7\n10 20 30\n",
    "P2 3 2 255\n0\t255\x0b7\x0c10\r\n20 30",
    "P2 2 2 255\n0007 010 255 00\n",
    "P3 2 1 255\n1 2 3 4 5 6 7 8 9 10\n",
    "P2 2 2 255\n1 2 # note\n3 4\n",
    "P2 2 2 255\n1 2 3 4 # trailing comment\n",
    "P2 2 2 255\n1 +5 3 4\n",
    "P2 2 2 255\n1 1_0 3 4\n",
    "P2 2 2 255\n1 2 3 4 5 6 junk\n",
    "P2 2 2 255\n1 -2 3 4\n",
    "P2 2 2 255\n1 2 256 4\n",
    "P2 2 2 255\n1 2 3 99999999999999999999999\n",
    "P2 2 2 255\n1 2 3\n",
    "P2 2 2 255\n1 2 3 4x\n",
    "P2 2 2 255\n1 2 3\n\n\n\n",
    "P2 2 2 255#c\n1 2 3 4\n",
    "P3 1 1 255\n10 200\n 30",
]


class TestAsciiDecodeMatchesWalker:
    @pytest.mark.parametrize("body", ASCII_BODIES)
    def test_outcome_and_error_offset_identical(self, tmp_path, body):
        p = write(tmp_path, "a.pnm", body)
        assert decode_outcome(p) == walker_outcome(p)

    def test_plain_body_takes_vectorised_path(self):
        got = imaging._plain_ascii_samples(b"\n0 255\t17\n3 4", 4)
        assert got.dtype == np.uint8 and got.tolist() == [0, 255, 17, 3]

    def test_large_plain_p3_matches_walker(self, tmp_path):
        rng = np.random.default_rng(8)
        px = rng.integers(0, 256, (37, 41, 3))
        body = "P3\n41 37\n255\n" + "\n".join(" ".join(map(str, row)) for row in px.reshape(37, -1))
        p = write(tmp_path, "a.ppm", body)
        outcome = decode_outcome(p)
        assert outcome == walker_outcome(p)
        assert outcome[2] == px.astype(np.uint8).tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        magic=st.sampled_from(["P2", "P3"]),
        width=st.integers(1, 4),
        height=st.integers(1, 3),
        tokens=st.lists(st.one_of(
            st.integers(0, 300).map(str),
            st.sampled_from(["+5", "1_0", "-1", "007", "#c\n", "x", "1e2", "99999999999999999999"]),
        ), max_size=40),
        seps=st.lists(st.sampled_from([" ", "\n", "\t", "\r\n", "\x0b", "\x0c", "  "]),
                      min_size=1, max_size=41),
    )
    def test_property_matches_walker(self, tmp_path_factory, magic, width, height, tokens, seps):
        body = "".join(sep + tok for sep, tok in zip(seps, tokens + [""]))
        p = write(tmp_path_factory.mktemp("pnm"), "a.pnm", f"{magic} {width} {height} 255{body}")
        assert decode_outcome(p) == walker_outcome(p)


PNM_WHITESPACE = b" \t\r\n\x0b\x0c"


def assert_separators(data: bytes, begin: int, end: int):
    """Every byte of data[begin:end] is whitespace or inside a comment that
    runs from its "#" to the next CR or LF, which it does not cross."""
    i = begin
    while i < end:
        if data[i] in PNM_WHITESPACE:
            i += 1
            continue
        assert data[i] == ord("#"), (data, i)
        line_ends = [k for k in (data.find(b"\r", i), data.find(b"\n", i)) if k >= 0]
        i = min(line_ends, default=len(data))
        assert i <= end, (data, begin, end)


class TestTokens:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.lists(st.one_of(st.sampled_from(list(PNM_WHITESPACE + b"#07a")),
                                st.integers(0, 255)), max_size=60).map(bytes),
        start=st.integers(0, 64),
    )
    def test_tokens_and_separators_cover_the_input(self, data, start):
        end = start
        for n, (token, off) in enumerate(imaging._tokens(data, start)):
            # In increasing offset order, at least one separator apart.
            assert off > end if n else off >= start
            assert token and data[off:off + len(token)] == token
            assert not any(b in PNM_WHITESPACE + b"#" for b in token)
            assert_separators(data, end, off)
            end = off + len(token)
        assert_separators(data, end, len(data))


class TestSaveRoundTrip:
    def test_gray_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        img = RasterImage(rng.integers(0, 256, (17, 23), dtype=np.uint8))
        p = tmp_path / "rt.pgm"
        save_image(img, p)
        again = load_image(p)
        assert np.array_equal(again.pixels, img.pixels)

    def test_rgb_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        img = RasterImage(rng.integers(0, 256, (5, 9, 3), dtype=np.uint8))
        p = tmp_path / "rt.ppm"
        save_image(img, p)
        again = load_image(p)
        assert np.array_equal(again.pixels, img.pixels)

    def test_header_is_single_line(self, tmp_path):
        img = RasterImage(np.zeros((2, 2), dtype=np.uint8))
        p = tmp_path / "h.pgm"
        save_image(img, p)
        assert p.read_bytes().startswith(b"P5 2 2 255\n")


class TestIntensity:
    def test_green_channel_selected(self):
        px = np.zeros((2, 2, 3), dtype=np.uint8)
        px[:, :, 0] = 11
        px[:, :, 1] = 150
        px[:, :, 2] = 33
        m = to_intensity(RasterImage(px))
        assert m.dtype == np.float64
        assert (m == 150.0).all()

    def test_gray_passes_through_exactly(self):
        px = np.arange(12, dtype=np.uint8).reshape(3, 4)
        m = to_intensity(RasterImage(px))
        assert np.array_equal(m, px.astype(np.float64))


class TestRotate:
    def test_zero_angle_identity(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(0, 255, (12, 15))
        out = rotate_about(m, (7.0, 5.0), 0.0)
        assert np.array_equal(out, m)

    def test_full_turn_within_1e_9(self):
        rng = np.random.default_rng(4)
        m = rng.uniform(0, 255, (16, 16))
        out = rotate_about(m, (8.0, 8.0), 360.0)
        assert np.max(np.abs(out - m)) <= 1e-9

    def test_quarter_turn_moves_east_to_north(self):
        m = np.zeros((5, 5))
        m[2, 4] = 100.0  # east of the centre (2, 2)
        out = rotate_about(m, (2.0, 2.0), 90.0)
        assert out[0, 2] == pytest.approx(100.0, abs=1e-9)  # north
        assert out[2, 4] == pytest.approx(0.0, abs=1e-9)

    def test_matches_nearest_neighbour_oracle_on_grid_angles(self):
        # Multiples of 90 degrees land on exact grid positions, where
        # bilinear and nearest-neighbour sampling agree.
        rng = np.random.default_rng(5)
        m = rng.uniform(0, 255, (9, 9))
        for angle in (90.0, 180.0, 270.0):
            got = rotate_about(m, (4.0, 4.0), angle)
            want = rotate_nearest(m, (4.0, 4.0), angle)
            assert np.allclose(got, want, atol=1e-9)

    def test_inverse_rotation_recovers_smooth_content(self):
        h = w = 41
        ys, xs = np.mgrid[0:h, 0:w]
        m = 128.0 + 60.0 * np.sin(xs / 6.0) * np.cos(ys / 7.0)
        center = (20.0, 20.0)
        back = rotate_about(rotate_about(m, center, 33.0), center, -33.0)
        radius = min(h, w) / 2 - 2
        disc = (xs - center[0]) ** 2 + (ys - center[1]) ** 2 <= radius ** 2
        assert np.max(np.abs(back[disc] - m[disc])) <= 1.0

    def test_centre_outside_map_rejected(self):
        with pytest.raises(ValueError, match="centre"):
            rotate_about(np.zeros((4, 4)), (10.0, 0.0), 5.0)

    def test_outside_samples_read_zero(self):
        m = np.full((7, 7), 50.0)
        out = rotate_about(m, (3.0, 3.0), 45.0)
        assert out[0, 0] == 0.0  # corner swings outside the source square
