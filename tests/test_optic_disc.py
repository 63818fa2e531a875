import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from retina_id.harris import separable_window_sum
from retina_id.optic_disc import (
    OdCenter,
    OdParams,
    correlation_surface,
    disc_template,
    locate_od,
    manual_od,
    od_from_sidecar,
    resolve_od,
)

from oracles import locate_od_full, od_surface_full, zncc_surface_brute


def blob_map(size=128, bg=20.0, peak=200.0, scale=10.0, cx=90, cy=40):
    ys, xs = np.mgrid[0:size, 0:size]
    return bg + peak * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * scale * scale))


SMALL = OdParams(template_radius=20, search_stride=4, margin=20)


class TestSurface:
    def test_matches_brute_force_oracle(self):
        m = blob_map(size=64, cx=40, cy=25, scale=6.0)
        got = correlation_surface(m, 12)
        want = zncc_surface_brute(m, 12)
        inner = ~np.isnan(want)
        assert np.allclose(got[inner], want[inner], atol=1e-9)
        assert not np.isnan(got[inner]).any()

    def test_scores_bounded(self):
        rng = np.random.default_rng(21)
        m = rng.uniform(0, 255, (70, 70))
        s = correlation_surface(m, 10)
        finite = s[~np.isnan(s)]
        assert (finite <= 1.0).all() and (finite >= -1.0).all()

    def test_flat_patches_are_nan(self):
        s = correlation_surface(np.full((60, 60), 9.0), 10)
        assert np.isnan(s).all()


def separable_form_surface(m, radius):
    """Reference surface whose patch sums are separable passes of a ones
    profile, (2 radius + 1) taps per axis."""
    m = np.asarray(m, dtype=np.float64)
    g = np.exp(-(np.arange(-radius, radius + 1.0) ** 2) / (2.0 * (radius / 2.0) ** 2))
    template = np.outer(g, g)
    t_mean = template.mean()
    t_var_sum = float(((template - t_mean) ** 2).sum())
    ones = np.ones_like(g)
    corr_t = separable_window_sum(m, g)
    s1 = separable_window_sum(m, ones)
    s2 = separable_window_sum(m * m, ones)
    numerator = corr_t - t_mean * s1
    var_sum = s2 - (s1 * s1) / template.size
    surface = np.full(m.shape, np.nan)
    valid = var_sum > 1e-6
    surface[valid] = numerator[valid] / np.sqrt(var_sum[valid] * t_var_sum)
    np.clip(surface, -1.0, 1.0, out=surface)
    return surface


class TestSurfaceMatchesSeparableForm:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("radius", [4, 10, 40])
    def test_random_uint8_maps_bit_identical(self, seed, radius):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(radius, 3 * radius + 20, 2)
        m = rng.integers(0, 256, (h, w)).astype(np.float64)
        got = correlation_surface(m, radius)
        assert np.array_equal(got, separable_form_surface(m, radius), equal_nan=True)

    @pytest.mark.parametrize("value", [0.0, 9.0, 255.0])
    def test_constant_maps_bit_identical(self, value):
        m = np.full((90, 110), value)
        got = correlation_surface(m, 40)
        assert np.array_equal(got, separable_form_surface(m, 40), equal_nan=True)
        assert np.isnan(got).all()

    def test_full_size_uint8_map_bit_identical(self):
        rng = np.random.default_rng(17)
        m = rng.integers(0, 256, (584, 565)).astype(np.float64)
        m[100:300, 200:400] = 255.0
        got = correlation_surface(m, 40)
        assert np.array_equal(got, separable_form_surface(m, 40), equal_nan=True)

    def test_float_map_within_rounding(self):
        rng = np.random.default_rng(23)
        m = rng.uniform(0.0, 255.0, (120, 130))
        got = correlation_surface(m, 20)
        want = separable_form_surface(m, 20)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.allclose(got, want, rtol=0.0, atol=1e-12, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(
        m=arrays(np.uint8, st.tuples(st.integers(1, 40), st.integers(1, 40))),
        radius=st.integers(1, 12),
    )
    def test_property_uint8_bit_identical(self, m, radius):
        got = correlation_surface(m, radius)
        assert np.array_equal(got, separable_form_surface(m, radius), equal_nan=True)


def cell_maps(shape):
    """Named maps for the per-cell checks: 8-bit, float and constant."""
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    return {
        "uint8": rng.integers(0, 256, shape).astype(np.float64),
        "float": rng.uniform(0.0, 255.0, shape),
        "const0": np.zeros(shape),
        "const9": np.full(shape, 9.0),
        "const255": np.full(shape, 255.0),
        "const_float": np.full(shape, 100.3),
        "disc": np.round(blob_map(max(shape), cx=shape[1] // 3, cy=shape[0] // 2, scale=7.0))[:shape[0], :shape[1]],
    }


def cell_selections(shape, radius):
    """Row/column slices for strides 1 to 7: the locate_od grid, runs that
    start and end inside a block of 2 radius + 1 rows, refinement boxes
    clipped at the margins as locate_od clips them, and single cells."""
    h, w = shape
    r = radius
    sels = [(slice(None), slice(None)), (slice(0, 1), slice(w - 1, w)), (slice(h - 1, h), slice(0, 1))]
    for s in range(1, 8):
        sels.append((slice(r, h - r, s), slice(r, w - r, s)))
        sels.append((slice(r + s + 2, h - 3 - s, s), slice(2 * r + 2 - s, w - 2 * s - 1, s)))
        for cy, cx in ((r, r), (h - r - 1, w - r - 1), (r, w - r - 1), (h // 2 + s, w // 3 - s)):
            sels.append((slice(max(cy - s, r), min(cy + s, h - r - 1) + 1),
                         slice(max(cx - s, r), min(cx + s, w - r - 1) + 1)))
    return sels


class TestCellsMatchWholeMap:
    """correlation_surface(m, r, rows, cols) is the whole-map surface's
    [rows, cols], bit for bit, and locate_od is the search read off the
    whole-map surface (tests/oracles.py)."""

    @pytest.mark.parametrize("radius", [4, 12])
    @pytest.mark.parametrize("kind", ["uint8", "float", "const0", "const9", "const255", "const_float", "disc"])
    def test_sub_surface_bit_identical(self, kind, radius):
        shape = (97, 131)
        m = cell_maps(shape)[kind]
        full = od_surface_full(m, radius)
        for rows, cols in cell_selections(shape, radius):
            got = correlation_surface(m, radius, rows, cols)
            assert np.array_equal(got, full[rows, cols], equal_nan=True), (rows, cols)

    @pytest.mark.parametrize("kind", ["uint8", "float"])
    def test_full_size_map_bit_identical(self, kind):
        rng = np.random.default_rng(41)
        m = cell_maps((584, 565))[kind]
        m[150:260, 300:410] += np.round(blob_map(110, cx=55, cy=55, scale=20.0, bg=0.0, peak=90.0))
        full = od_surface_full(m, 40)
        for s in (1, 4, 7):
            grid = slice(40, 584 - 40, s), slice(40, 565 - 40, s)
            assert np.array_equal(correlation_surface(m, 40, *grid), full[grid], equal_nan=True)
        for cy, cx in rng.integers(40, 525, (4, 2)):
            box = slice(cy - 4, cy + 5), slice(cx - 4, cx + 5)
            assert np.array_equal(correlation_surface(m, 40, *box), full[box], equal_nan=True)

    @pytest.mark.parametrize("rows, cols", [
        (slice(None, None, -1), slice(None)), (slice(None), slice(9, 2, -2)),
        (slice(5, 5), slice(None)), (slice(None), slice(200, None)),
    ])
    def test_backward_or_empty_selection_rejected(self, rows, cols):
        with pytest.raises(ValueError, match="increasing order"):
            correlation_surface(blob_map(size=64), 8, rows, cols)

    @pytest.mark.parametrize("stride", range(1, 8))
    def test_planted_disc(self, stride):
        m = np.round(blob_map(size=150, cx=97, cy=58, scale=9.0))
        params = OdParams(template_radius=16, search_stride=stride, margin=20)
        od = locate_od(m, params)
        assert od == locate_od_full(m, params)
        assert abs(od.x - 97) <= 1 and abs(od.y - 58) <= 1

    @pytest.mark.parametrize("second", [(40, 100), (100, 40)])
    def test_tie_goes_to_smallest_yx(self, second):
        # two identical 8-bit discs, both on the stride grid: every score
        # of one equals the other's, so the smaller (y, x) must win
        m = np.full((140, 140), 20.0)
        disc = np.round(blob_map(size=33, bg=0.0, cx=16, cy=16, scale=5.0))
        for cy, cx in ((40, 40), second):
            m[cy - 16:cy + 17, cx - 16:cx + 17] += disc
        params = OdParams(template_radius=12, search_stride=4, margin=12)
        od = locate_od(m, params)
        assert od == locate_od_full(m, params)
        assert (od.y, od.x) == (40.0, 40.0)
        cells = [correlation_surface(m, 12, slice(y, y + 1), slice(x, x + 1)) for y, x in ((40, 40), second)]
        assert cells[0] == cells[1]

    @pytest.mark.parametrize("stride", [1, 3, 5])
    def test_margin_equal_to_template_radius(self, stride):
        m = np.round(blob_map(size=90, cx=14, cy=75, scale=6.0))
        params = OdParams(template_radius=12, search_stride=stride, margin=12)
        assert locate_od(m, params) == locate_od_full(m, params)

    @pytest.mark.parametrize("extra", [1, 2, 3])
    def test_map_just_wider_than_twice_margin(self, extra):
        rng = np.random.default_rng(extra)
        for shape in ((2 * 16 + extra, 70), (70, 2 * 16 + extra)):
            m = rng.integers(0, 256, shape).astype(np.float64)
            params = OdParams(template_radius=8, search_stride=2, margin=16)
            assert locate_od(m, params) == locate_od_full(m, params)

    @pytest.mark.parametrize("stride", [60, 61, 1000])
    def test_stride_larger_than_grid(self, stride):
        # the grid is the one cell (20, 20); the box spans the whole search area
        m = np.round(blob_map(size=100, cx=30, cy=26, scale=8.0))
        params = OdParams(template_radius=10, search_stride=stride, margin=20)
        assert locate_od(m, params) == locate_od_full(m, params)

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.one_of(
            arrays(np.uint8, st.tuples(st.integers(1, 30), st.integers(1, 30))),
            arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 30)),
                   elements=st.floats(0.0, 255.0)),
        ),
        radius=st.integers(1, 9),
        data=st.data(),
    )
    def test_property_any_cells(self, m, radius, data):
        h, w = m.shape
        starts = data.draw(st.tuples(st.integers(0, h - 1), st.integers(0, w - 1)))
        stops = data.draw(st.tuples(st.integers(starts[0] + 1, h), st.integers(starts[1] + 1, w)))
        steps = data.draw(st.tuples(st.integers(1, 7), st.integers(1, 7)))
        rows, cols = (slice(a, b, c) for a, b, c in zip(starts, stops, steps))
        got = correlation_surface(m, radius, rows, cols)
        assert np.array_equal(got, od_surface_full(m, radius)[rows, cols], equal_nan=True)


class TestLocate:
    def test_finds_bright_blob(self):
        m = blob_map()
        od = locate_od(m, SMALL)
        assert od.source == "detected"
        assert abs(od.x - 90) <= 2 and abs(od.y - 40) <= 2
        assert od.score > 0.9

    def test_agrees_with_exhaustive_oracle_at_stride_one(self):
        m = blob_map(size=96, cx=60, cy=35, scale=8.0)
        params = OdParams(template_radius=16, search_stride=1, margin=16)
        od = locate_od(m, params)
        want = zncc_surface_brute(m, 16)
        lo, hi = params.margin, 96 - params.margin
        region = want[lo:hi, lo:hi]
        flat = np.nanargmax(region)
        wy, wx = divmod(int(flat), region.shape[1])
        assert (od.x, od.y) == (wx + lo, wy + lo)

    def test_coarse_refine_matches_exhaustive_near_peak(self):
        # stride-4 coarse search plus +-stride refinement must land on the
        # stride-1 argmax when the surface is unimodal
        m = blob_map(size=100, cx=55, cy=62, scale=9.0)
        coarse = locate_od(m, OdParams(template_radius=18, search_stride=4, margin=18))
        fine = locate_od(m, OdParams(template_radius=18, search_stride=1, margin=18))
        assert (coarse.x, coarse.y) == (fine.x, fine.y)

    def test_translation_equivariance(self):
        a = blob_map(size=120, cx=60, cy=60, scale=8.0)
        b = blob_map(size=120, cx=71, cy=46, scale=8.0)
        od_a = locate_od(a, SMALL)
        od_b = locate_od(b, SMALL)
        assert (od_b.x - od_a.x, od_b.y - od_a.y) == (11.0, -14.0)

    def test_affine_intensity_invariance(self):
        m = blob_map()
        od1 = locate_od(m, SMALL)
        od2 = locate_od(1.7 * m + 12.0, SMALL)
        assert (od1.x, od1.y) == (od2.x, od2.y)
        assert od1.score == pytest.approx(od2.score, abs=1e-9)

    def test_constant_map_rejected(self):
        with pytest.raises(ValueError, match="contrast"):
            locate_od(np.full((128, 128), 77.0), SMALL)

    def test_constant_float_maps_rejected(self):
        # var_sum of a flat patch is rounding noise that grows with the
        # patch brightness; an absolute floor alone let some of it through
        values = np.random.default_rng(31).uniform(0.0, 255.0, 40)
        for v in values:
            m = np.full((200, 200), v)
            assert np.isnan(correlation_surface(m, 40)).all(), v
            with pytest.raises(ValueError, match="no od contrast"):
                locate_od(m)

    def test_map_smaller_than_margins_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            locate_od(np.zeros((40, 40)), SMALL)


class TestManual:
    def test_inside_accepted(self):
        od = manual_od(0.0, 0.0, np.zeros((50, 50)))
        assert od == OdCenter(0.0, 0.0, 1.0, "manual")

    def test_outside_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            manual_od(-1.0, 5.0, np.zeros((50, 50)))

    def test_score_pinned_to_one(self):
        od = manual_od(12.5, 30.0, np.zeros((50, 50)))
        assert od.score == 1.0


class TestSidecar:
    def test_missing_sidecar_returns_none(self, tmp_path):
        img = tmp_path / "x.pgm"
        img.write_bytes(b"P5 1 1 255\n\x00")
        assert od_from_sidecar(img, np.zeros((50, 50))) is None

    def test_sidecar_read_as_manual(self, tmp_path):
        img = tmp_path / "x.pgm"
        img.write_bytes(b"P5 1 1 255\n\x00")
        (tmp_path / "x.pgm.od").write_text("12 34\n")
        od = od_from_sidecar(img, np.zeros((50, 50)))
        assert od == OdCenter(12.0, 34.0, 1.0, "manual")

    @pytest.mark.parametrize("text", ["12 34 junk", "1 2 3 4", "12 34\n56\n", "12"])
    def test_sidecar_needs_exactly_two_tokens(self, tmp_path, text):
        img = tmp_path / "x.pgm"
        (tmp_path / "x.pgm.od").write_text(text)
        with pytest.raises(ValueError, match="x.pgm.od: expected 'x y'"):
            od_from_sidecar(img, np.zeros((50, 50)))

    def test_malformed_sidecar_rejected(self, tmp_path):
        img = tmp_path / "x.pgm"
        img.write_bytes(b"P5 1 1 255\n\x00")
        (tmp_path / "x.pgm.od").write_text("only-one-token")
        with pytest.raises(ValueError):
            od_from_sidecar(img, np.zeros((50, 50)))


class TestResolve:
    def test_manual_then_sidecar_then_detection(self, tmp_path):
        m = blob_map()
        img = tmp_path / "x.pgm"
        assert resolve_od(m, img, SMALL) == locate_od(m, SMALL)
        (tmp_path / "x.pgm.od").write_text("12 34\n")
        assert resolve_od(m, img, SMALL) == OdCenter(12.0, 34.0, 1.0, "manual")
        assert resolve_od(m, img, SMALL, manual=(5.0, 6.0)) == OdCenter(5.0, 6.0, 1.0, "manual")

    def test_manual_centre_checked_against_map(self, tmp_path):
        with pytest.raises(ValueError, match="outside the map"):
            resolve_od(blob_map(), tmp_path / "x.pgm", SMALL, manual=(500.0, 6.0))


class TestTemplate:
    def test_radially_symmetric(self):
        t = disc_template(9)
        assert np.allclose(t, t.T)
        assert np.allclose(t, t[::-1, :])
        assert t[9, 9] == 1.0

    def test_params_guards(self):
        with pytest.raises(ValueError, match="margin"):
            OdParams(template_radius=40, margin=30)
        with pytest.raises(ValueError, match="stride"):
            OdParams(search_stride=0)

    @pytest.mark.parametrize("name", ["template_radius", "search_stride", "margin"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_params_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            OdParams(**{name: value})

    @pytest.mark.parametrize("name", ["template_radius", "search_stride", "margin"])
    @pytest.mark.parametrize("value", [10 ** 400, -10 ** 400], ids=["huge", "-huge"])
    def test_int_beyond_float_range_rejected(self, name, value):
        # Converting an int this large to float would overflow.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            OdParams(**{name: value})
