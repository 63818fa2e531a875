import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from retina_id.harris import (
    Corner,
    HarrisParams,
    detect_corners,
    gaussian_pass,
    gaussian_window,
    gradients,
    local_maxima,
    response,
    structure_tensor,
)

from oracles import (
    detect_corners_full,
    eigen_response,
    local_maxima_brute,
    separable_window_sum,
    window_correlate_brute,
)


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


class TestGaussianPass:
    @pytest.mark.parametrize("seed", range(4))
    def test_any_cells_bit_identical_to_the_whole_pass(self, seed):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(6, 40, 2)
        radius = int(rng.integers(1, 6))
        arr = rng.normal(size=(h, w)) * 10.0 ** rng.integers(-3, 4)
        profile = gaussian_window(float(rng.uniform(0.5, 3.0)), radius)
        want = separable_window_sum(arr, profile)
        padded = np.pad(arr, radius, mode="edge")
        for _ in range(5):
            y0, x0 = rng.integers(0, h), rng.integers(0, w)
            ys = range(y0, int(rng.integers(y0 + 1, h + 1)), int(rng.integers(1, 5)))
            xs = range(x0, int(rng.integers(x0 + 1, w + 1)), int(rng.integers(1, 5)))
            got = gaussian_pass(padded, profile, ys, xs)
            assert got.tobytes() == want[np.ix_(ys, xs)].tobytes()


def in_box(corners, shape, rows, cols):
    ys, xs = range(shape[0])[rows], range(shape[1])[cols]
    return [(c.x, c.y, c.response) for c in corners if c.y in ys and c.x in xs]


def triples(corners):
    return [(c.x, c.y, c.response) for c in corners]


def edge_boxes(h, w):
    """Boxes clipped at each edge and each corner of an h x w map, boxes
    reaching past it, single cells (inside, at the margin, at a corner),
    and the whole map."""
    top, bottom, mid_y = slice(0, 9), slice(h - 9, h), slice(h // 2 - 4, h // 2 + 4)
    left, right, mid_x = slice(0, 7), slice(w - 7, w + 5), slice(w // 2 - 3, w // 2 + 5)
    boxes = [(r, c) for r in (top, bottom, mid_y) for c in (left, right, mid_x)]
    boxes += [(slice(y, y + 1), slice(x, x + 1))
              for y, x in ((h // 2, w // 2), (8, 8), (0, 0), (h - 1, w - 1))]
    boxes += [(slice(None), slice(None)), (slice(0, h), slice(2, w - 2))]
    return boxes


class TestCroppedDetector:
    """detect_corners(m, p, rows, cols) is the whole map's detection,
    restricted to the box, bit for bit and in order."""

    @pytest.mark.parametrize("nms_radius", [1, 2, 3, 4])
    @pytest.mark.parametrize("window_radius", [2, 3, 4])
    @pytest.mark.parametrize("border_margin", [6, 7, 8])
    def test_boxes_match_the_whole_map(self, nms_radius, window_radius, border_margin):
        rng = np.random.default_rng(nms_radius * 100 + window_radius * 10 + border_margin)
        m = rng.integers(0, 256, (int(rng.integers(56, 72)), int(rng.integers(56, 72)))).astype(np.float64)
        params = HarrisParams(threshold=2e5, nms_radius=nms_radius, window_radius=window_radius,
                              border_margin=border_margin, sigma=float(rng.uniform(0.8, 2.0)))
        full = detect_corners_full(m, params)
        assert len(full) >= 10
        for rows, cols in edge_boxes(*m.shape):
            assert triples(detect_corners(m, params, rows, cols)) == in_box(full, m.shape, rows, cols)

    @pytest.mark.parametrize("nms_radius,window_radius,border_margin",
                             [(2, 4, 6), (3, 4, 7), (4, 4, 8), (4, 3, 6), (3, 2, 6)])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_ties_at_the_nms_reach(self, nms_radius, window_radius, border_margin, transpose):
        # Rows (or columns) repeat with period nms_radius, so a cell ties with
        # the cells nms_radius away across them: at a box's edges those decide
        # the plateau only if their responses are exact.
        rng = np.random.default_rng(nms_radius * 10 + window_radius)
        m = np.tile(rng.integers(0, 256, (nms_radius, 60)).astype(np.float64), (16, 1))
        params = HarrisParams(threshold=1e4, nms_radius=nms_radius, window_radius=window_radius,
                              border_margin=border_margin)
        m = m.T if transpose else m
        full = detect_corners_full(m, params)
        for a in range(border_margin + 1, 30):
            for edge in (slice(a, a + 1), slice(a, a + 2 * nms_radius)):
                box = (slice(border_margin + 4, 50), edge) if transpose else (edge, slice(border_margin + 4, 50))
                assert triples(detect_corners(m, params, *box)) == in_box(full, m.shape, *box)

    @pytest.mark.parametrize("seed", range(4))
    def test_maps_with_nan_and_inf(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(0, 256, (48, 52)).astype(np.float64)
        holes = rng.random(m.shape)
        m[holes < 0.01] = np.nan
        m[(holes >= 0.01) & (holes < 0.015)] = np.inf
        m[(holes >= 0.015) & (holes < 0.02)] = -np.inf
        params = HarrisParams(threshold=2e5)
        with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 make NaN
            full = detect_corners_full(m, params)
            assert full
            for rows, cols in edge_boxes(*m.shape):
                assert triples(detect_corners(m, params, rows, cols)) == in_box(full, m.shape, rows, cols)

    @settings(max_examples=120, deadline=None)
    @given(
        m=arrays(np.float64, st.tuples(st.integers(17, 40), st.integers(17, 40)),
                 elements=st.integers(0, 255).map(float)),
        holes=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1),
                                 st.sampled_from([np.nan, np.inf, -np.inf])), max_size=3),
        nms_radius=st.integers(1, 4),
        window_radius=st.integers(2, 4),
        border_margin=st.integers(6, 8),
        box=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
    )
    def test_property_box_matches_the_whole_map(self, m, holes, nms_radius, window_radius,
                                                border_margin, box):
        params = HarrisParams(threshold=1e4, nms_radius=nms_radius, window_radius=window_radius,
                              border_margin=border_margin)
        h, w = m.shape
        for fy, fx, value in holes:
            m[int(fy * (h - 1)), int(fx * (w - 1))] = value
        y0, x0 = int(box[0] * (h - 1)), int(box[1] * (w - 1))
        rows = slice(y0, y0 + 1 + int(box[2] * (h - y0 + 2)))
        cols = slice(x0, x0 + 1 + int(box[3] * (w - x0 + 2)))
        with np.errstate(invalid="ignore"):
            want = in_box(detect_corners_full(m, params), m.shape, rows, cols)
            assert triples(detect_corners(m, params, rows, cols)) == want

    def test_default_is_the_whole_map(self):
        rng = np.random.default_rng(8)
        m = rng.integers(0, 256, (60, 64)).astype(np.float64)
        assert triples(detect_corners(m)) == triples(detect_corners_full(m))

    @pytest.mark.parametrize("rows", [slice(30, 30), slice(40, 10), slice(70, 90)])
    def test_empty_box_has_no_corners(self, rows):
        assert detect_corners(square_fixture(), rows=rows) == []

    @pytest.mark.parametrize("rows,cols", [(slice(None, None, 2), slice(None)),
                                           (slice(None), slice(None, None, -1))])
    def test_strided_box_rejected(self, rows, cols):
        with pytest.raises(ValueError, match="contiguous box"):
            detect_corners(square_fixture(), HarrisParams(), rows, cols)


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

    @pytest.mark.parametrize("name", ["k", "threshold", "sigma"])
    @pytest.mark.parametrize("value", [10 ** 400, -10 ** 400], ids=["huge", "-huge"])
    def test_int_beyond_float_range_rejected(self, name, value):
        # Converting an int this large to float would overflow.
        with pytest.raises(ValueError, match=f"{name} must be"):
            HarrisParams(**{name: value})

    @pytest.mark.parametrize("kwargs,name", [
        ({"window_radius": 2.5, "border_margin": 6}, "window_radius"),
        ({"nms_radius": 1.5}, "nms_radius"),
        ({"border_margin": 5.5}, "border_margin"),
        ({"nms_radius": 3.0}, "nms_radius"),
    ])
    def test_non_integer_sizes_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            HarrisParams(**kwargs)

    @pytest.mark.parametrize("sigma", [1.5e-239, 1e-160, 5e-324])
    def test_sigma_too_small_for_the_window_rejected(self, sigma):
        # 2 sigma^2 underflows to 0, or t^2 / (2 sigma^2) overflows.
        with pytest.raises(ValueError, match="sigma is too small for window_radius"):
            HarrisParams(sigma=sigma)

    def test_tiny_accepted_sigma_gives_a_finite_window(self):
        params = HarrisParams(sigma=1e-153)
        window = gaussian_window(params.sigma, params.window_radius)
        assert window.tolist() == [0.0] * 4 + [1.0] + [0.0] * 4
        detect_corners(square_fixture(), params)
