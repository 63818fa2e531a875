import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from retina_id.harris import (
    Corner,
    HarrisParams,
    detect_corners,
    gaussian_window,
    gradients,
    local_maxima,
    response,
    separable_window_sum,
    structure_tensor,
)

from oracles import eigen_response, local_maxima_brute, window_correlate_brute


def square_fixture(size=64, lo=10.0, hi=200.0, top=20, left=20, side=24):
    m = np.full((size, size), lo)
    m[top:top + side, left:left + side] = hi
    return m


class TestGradients:
    def test_constant_map_zero(self):
        gx, gy = gradients(np.full((6, 7), 42.0))
        assert not gx.any() and not gy.any()

    def test_horizontal_ramp(self):
        xs = np.tile(np.arange(8, dtype=np.float64), (5, 1))
        gx, gy = gradients(xs)
        assert (gx[:, 1:-1] == 2.0).all()
        assert not gy.any()
        # replicated edges halve the outermost difference
        assert (gx[:, 0] == 1.0).all() and (gx[:, -1] == 1.0).all()

    def test_impulse_replicated_edge(self):
        m = np.zeros((3, 3))
        m[1, 1] = 9.0
        gx, gy = gradients(m)
        assert gx[1, 1] == 0.0 and gy[1, 1] == 0.0
        assert gx[1, 0] == 9.0  # I(1,1) - I(-1,1 -> replicated 0,1)

    def test_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            gradients(np.zeros((2, 5)))


class TestStructureTensor:
    def test_matches_brute_force_window_correlation(self):
        rng = np.random.default_rng(11)
        gx = rng.normal(size=(10, 12))
        gy = rng.normal(size=(10, 12))
        params = HarrisParams(sigma=1.5, window_radius=4)
        field = structure_tensor(gx, gy, params)
        assert np.allclose(field.a, window_correlate_brute(gx * gx, 1.5, 4), rtol=1e-10, atol=1e-12)
        assert np.allclose(field.b, window_correlate_brute(gy * gy, 1.5, 4), rtol=1e-10, atol=1e-12)
        assert np.allclose(field.c, window_correlate_brute(gx * gy, 1.5, 4), rtol=1e-10, atol=1e-12)

    def test_impulse_reproduces_window_shape(self):
        g1 = np.zeros((11, 11))
        g1[5, 5] = 1.0
        field = structure_tensor(g1, np.zeros_like(g1), HarrisParams())
        t = np.arange(-4, 5, dtype=np.float64)
        uu, vv = np.meshgrid(t, t)
        window = np.exp(-(uu * uu + vv * vv) / (2.0 * 1.5 * 1.5))
        assert np.allclose(field.a[1:10, 1:10], window, rtol=1e-12, atol=1e-15)

    def test_constant_gradient_yields_window_mass(self):
        ones = np.ones((12, 12))
        field = structure_tensor(ones, ones, HarrisParams())
        mass = gaussian_window(1.5, 4).sum() ** 2
        assert np.allclose(field.a, mass, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            structure_tensor(np.zeros((4, 4)), np.zeros((4, 5)))


class TestResponse:
    def test_zero_tensor(self):
        from retina_id.harris import StructureTensorField
        z = np.zeros((3, 3))
        assert not response(StructureTensorField(z, z, z)).any()

    def test_isotropic_example(self):
        from retina_id.harris import StructureTensorField
        a = np.full((1, 1), 100.0)
        c = np.zeros((1, 1))
        r = response(StructureTensorField(a, a, c), k=0.17)
        assert r[0, 0] == pytest.approx(100.0 * 100.0 - 0.17 * 200.0 ** 2)

    def test_equals_eigenvalue_form(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(0, 1e4, (64, 64))
        b = rng.uniform(0, 1e4, (64, 64))
        c = rng.uniform(-5e3, 5e3, (64, 64))
        from retina_id.harris import StructureTensorField
        got = response(StructureTensorField(a, b, c), k=0.17)
        want = eigen_response(a, b, c, 0.17)
        scale = np.maximum(np.abs(want), 1.0)
        assert np.max(np.abs(got - want) / scale) <= 1e-9


class TestLocalMaxima:
    def test_all_zero_response_empty(self):
        assert local_maxima(np.zeros((20, 20)), HarrisParams()) == []

    def test_single_peak(self):
        r = np.zeros((20, 20))
        r[10, 9] = 8e4
        got = local_maxima(r, HarrisParams())
        assert got == [Corner(x=9, y=10, response=8e4)]

    def test_plateau_resolves_to_smallest_yx(self):
        r = np.zeros((20, 20))
        r[10, 9] = 8e4
        r[10, 10] = 8e4
        got = local_maxima(r, HarrisParams())
        assert got == [Corner(x=9, y=10, response=8e4)]

    def test_peak_inside_border_margin_dropped(self):
        r = np.zeros((20, 20))
        r[3, 3] = 9e4  # inside the default margin of 5
        assert local_maxima(r, HarrisParams()) == []

    def test_two_peaks_sorted_by_response(self):
        r = np.zeros((30, 30))
        r[10, 10] = 8e4
        r[20, 20] = 9e4
        got = local_maxima(r, HarrisParams())
        assert [(c.x, c.y) for c in got] == [(20, 20), (10, 10)]

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(13)
        r = rng.uniform(0, 2e5, (40, 40))
        lo = local_maxima(r, HarrisParams(threshold=5e4))
        hi = local_maxima(r, HarrisParams(threshold=1.2e5))
        assert set((c.x, c.y) for c in hi) <= set((c.x, c.y) for c in lo)


def nms_params(threshold, nms_radius, border_margin):
    return HarrisParams(threshold=threshold, nms_radius=nms_radius,
                        border_margin=border_margin, window_radius=1)


def nms_triples(r, params):
    return [(c.x, c.y, c.response) for c in local_maxima(r, params)]


# Few distinct levels make plateaus and equal neighbours common.
NMS_LEVELS = [0.0, -0.0, 1e4, 2e4, 3e4, np.nan, np.inf, -np.inf]


class TestLocalMaximaMatchesBrute:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("nms_radius,border_margin", [(1, 2), (3, 5), (4, 3), (6, 7)])
    def test_seeded_maps_with_plateaus_nan_and_inf(self, seed, nms_radius, border_margin):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(border_margin * 2 - 1, 48, 2)
        r = rng.choice(NMS_LEVELS, size=(h, w), p=[0.5, 0.05, 0.15, 0.1, 0.1, 0.04, 0.03, 0.03])
        for threshold in (0.0, 1e4, 2.5e4):
            params = nms_params(threshold, nms_radius, border_margin)
            got = nms_triples(r, params)
            assert got == local_maxima_brute(r, threshold, nms_radius, border_margin)
            assert all(type(x) is int and type(y) is int and type(v) is float for x, y, v in got)

    def test_dense_smooth_response_map(self):
        rng = np.random.default_rng(31)
        base = rng.integers(0, 256, (96, 80)).astype(np.float64)
        params = HarrisParams(threshold=1e3)
        gx, gy = gradients(base)
        r = response(structure_tensor(gx, gy, params), params.k)
        got = nms_triples(r, params)
        assert len(got) > 20
        assert got == local_maxima_brute(r, params.threshold, params.nms_radius, params.border_margin)

    @pytest.mark.parametrize("shape", [(24, 24), (23, 17), (9, 26)])
    def test_radius_wider_than_map(self, shape):
        # Clamped to the map's extent: 10**9 would otherwise pad by 10**9.
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        r = rng.choice(NMS_LEVELS, size=shape, p=[0.5, 0.05, 0.15, 0.1, 0.1, 0.04, 0.03, 0.03])
        for nms_radius in (max(shape) - 1, max(shape), 10 ** 9):
            params = nms_params(1e4, nms_radius, 2)
            assert nms_triples(r, params) == local_maxima_brute(r, 1e4, nms_radius, 2)

    @settings(max_examples=80, deadline=None)
    @given(
        r=arrays(np.float64, st.tuples(st.integers(3, 24), st.integers(3, 24)),
                 elements=st.sampled_from(NMS_LEVELS)),
        threshold=st.sampled_from([0.0, 1e4, 2e4, 3e4]),
        nms_radius=st.integers(1, 5),
        border_margin=st.integers(2, 6),
    )
    def test_property_matches_brute(self, r, threshold, nms_radius, border_margin):
        params = nms_params(threshold, nms_radius, border_margin)
        assert nms_triples(r, params) == local_maxima_brute(r, threshold, nms_radius, border_margin)


class TestDetect:
    def test_constant_map_no_corners(self):
        assert detect_corners(np.full((64, 64), 128.0)) == []

    def test_bright_square_has_four_vertex_corners(self):
        m = square_fixture()
        got = detect_corners(m)
        assert len(got) == 4
        vertices = {(20, 20), (43, 20), (20, 43), (43, 43)}
        for c in got:
            assert min(max(abs(c.x - vx), abs(c.y - vy)) for vx, vy in vertices) <= 2

    def test_brightness_shift_leaves_responses_unchanged(self):
        rng = np.random.default_rng(14)
        base = rng.integers(0, 200, (48, 48)).astype(np.float64)
        a = detect_corners(base, HarrisParams(threshold=1e3))
        b = detect_corners(base + 30.0, HarrisParams(threshold=1e3))
        assert a == b

    def test_quarter_turn_equivariance(self):
        rng = np.random.default_rng(15)
        n = 33
        base = rng.uniform(0, 255, (n, n))
        # light smoothing to avoid near-tie plateaus
        smooth = separable_window_sum(base, gaussian_window(2.0, 3))
        rotated = np.rot90(smooth, 1)  # (x, y) -> (y, n-1-x)
        params = HarrisParams(threshold=1e3)
        got = {(c.x, c.y): c.response for c in detect_corners(rotated, params)}
        want = {(c.y, n - 1 - c.x): c.response for c in detect_corners(smooth, params)}
        # drop mappings that leave the valid interior of the rotated frame
        margin = params.border_margin
        want = {k: v for k, v in want.items()
                if margin <= k[0] < n - margin and margin <= k[1] < n - margin}
        assert set(got) == set(want)
        for key, resp in want.items():
            assert got[key] == pytest.approx(resp, rel=1e-9)

    def test_y_junction_yields_corner_near_meeting_point(self):
        m = np.full((64, 64), 30.0)
        cx = cy = 32

        def blot(x, y):
            m[max(y - 1, 0):y + 2, max(x - 1, 0):x + 2] = 220.0

        for t in range(26):
            blot(cx, cy - t)                 # stem going up
            d = int(round(t * 0.7071))
            blot(cx + d, cy + d)             # down-right arm
            blot(cx - d, cy + d)             # down-left arm
        got = detect_corners(m, HarrisParams())
        assert any(abs(c.x - cx) <= 4 and abs(c.y - cy) <= 4 for c in got)

    def test_too_small_map_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            detect_corners(np.zeros((8, 8)))


class TestParams:
    def test_border_margin_guard(self):
        with pytest.raises(ValueError, match="border_margin"):
            HarrisParams(window_radius=4, border_margin=4)

    def test_negative_k(self):
        with pytest.raises(ValueError, match="k"):
            HarrisParams(k=-0.1)

    @pytest.mark.parametrize("name", ["k", "threshold", "sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be"):
            HarrisParams(**{name: value})
