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

from oracles import zncc_surface_brute


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
