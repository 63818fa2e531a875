import math
from pathlib import Path

import numpy as np
import pytest

from retina_id.encoder import (
    GATE_RADIUS,
    PULSE_DURATIONS,
    FeatureTemplate,
    PolarCorner,
    classify,
    encode,
    gated_template,
    polarize,
)
from retina_id.harris import Corner, HarrisParams
from retina_id.imaging import load_image, to_intensity
from retina_id.optic_disc import OdCenter, locate_od, manual_od, resolve_od

from oracles import detect_corners_full, load_fundus, paint_pulses_brute, shift_remap

OD = OdCenter(100.0, 100.0, 1.0, "manual")


def rotated(corners, delta):
    return [
        PolarCorner(pc.distance, (pc.orientation + delta) % 360.0, pc.response)
        for pc in corners
    ]


def random_constellation(rng, n=20):
    return [
        PolarCorner(
            distance=float(rng.uniform(1.0, 79.0)),
            orientation=float(rng.uniform(0.0, 360.0) % 360.0),
            response=float(rng.uniform(7e4, 7e5)),
        )
        for _ in range(n)
    ]


class TestClassify:
    @pytest.mark.parametrize("distance,cls", [
        (0.0, 1), (10.0, 1), (24.999, 1),
        (25.0, 2), (49.999, 2),
        (50.0, 3), (79.999, 3),
    ])
    def test_boundaries(self, distance, cls):
        assert classify(distance) == cls

    def test_beyond_gate_is_none(self):
        assert classify(80.0) is None
        assert classify(500.0) is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            classify(-0.1)


class TestPolarize:
    def test_east_of_centre_is_zero_degrees(self):
        got = polarize([Corner(x=110, y=100, response=1e5)], OD)
        assert got[0].distance == pytest.approx(10.0)
        assert got[0].orientation == pytest.approx(0.0)

    def test_above_centre_is_ninety_degrees(self):
        got = polarize([Corner(x=100, y=90, response=1e5)], OD)
        assert got[0].orientation == pytest.approx(90.0)

    def test_below_centre_is_two_seventy(self):
        got = polarize([Corner(x=100, y=130, response=1e5)], OD)
        assert got[0].orientation == pytest.approx(270.0)
        assert got[0].distance == pytest.approx(30.0)

    def test_gate_drops_distant_corners(self):
        got = polarize([
            Corner(x=199, y=100, response=1e5),   # distance 99
            Corner(x=180, y=100, response=1e5),   # distance 80, on the gate
            Corner(x=179, y=100, response=1e5),   # distance 79
        ], OD)
        assert [pc.distance for pc in got] == [pytest.approx(79.0)]

    def test_response_carried_through(self):
        got = polarize([Corner(x=120, y=100, response=3.3e5)], OD)
        assert got[0].response == 3.3e5

    def test_angle_a_hair_below_zero_folds_to_zero(self):
        # atan2 gives about -1e-14 degrees, which modulo 360 rounds to 360.0.
        od = OdCenter(50.0, 99.99999999999999, 1.0, "manual")
        (pc,) = polarize([Corner(x=100, y=100, response=1e5)], od)
        assert pc.orientation == 0.0
        assert (encode([pc]).vectors[2][[0, 1, 2, 3]] == 360.0).all()


class TestEncode:
    def test_empty_input_all_zero(self):
        t = encode([])
        assert not t.vectors.any()
        assert t.nonzero_counts() == (0, 0, 0)

    def test_single_corner_per_class_durations(self):
        for distance, cls in ((10.0, 1), (30.0, 2), (60.0, 3)):
            t = encode([PolarCorner(distance, 45.5, 1e5)])
            row = t.vectors[cls - 1]
            occupied = np.nonzero(row)[0].tolist()
            assert occupied == list(range(45, 45 + PULSE_DURATIONS[cls - 1]))
            assert (row[occupied] == 45.5).all()

    def test_wraparound_pulse(self):
        t = encode([PolarCorner(60.0, 359.5, 1e5)])
        row = t.vectors[2]
        assert set(np.nonzero(row)[0].tolist()) == {359, 0, 1, 2}
        assert (row[[359, 0, 1, 2]] == 359.5).all()

    def test_zero_orientation_stored_as_360(self):
        t = encode([PolarCorner(10.0, 0.0, 1e5)])
        assert t.vectors[0][0] == 360.0
        assert t.vectors[0][1] == 360.0

    def test_first_write_wins_by_response(self):
        t = encode([
            PolarCorner(10.0, 10.2, 9e4),
            PolarCorner(12.0, 11.0, 8e4),
        ])
        row = t.vectors[0]
        assert row[10] == 10.2 and row[11] == 10.2   # stronger corner painted first
        assert row[12] == 11.0                        # weaker corner keeps its tail

    def test_order_invariance(self):
        rng = np.random.default_rng(31)
        pcs = random_constellation(rng)
        shuffled = list(pcs)
        rng.shuffle(shuffled)
        assert np.array_equal(encode(pcs).vectors, encode(shuffled).vectors)

    def test_matches_claim_simulation_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            pcs = random_constellation(rng, n=int(rng.integers(1, 30)))
            assert np.array_equal(encode(pcs).vectors, paint_pulses_brute(pcs))

    def test_beyond_gate_rejected(self):
        with pytest.raises(ValueError, match="gate"):
            encode([PolarCorner(80.0, 1.0, 1e5)])

    def test_slot_head_matches_amplitude(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            orientation = float(rng.uniform(0.0, 360.0) % 360.0)
            t = encode([PolarCorner(10.0, orientation, 1e5)])
            row = t.vectors[0]
            start = int(orientation)
            amp = row[start]
            assert math.floor(amp % 360.0) == start


class TestRotationCovariance:
    def test_integer_rotation_commutes_with_encoding(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            pcs = random_constellation(rng)
            base = encode(pcs).vectors
            for delta in (0, 1, 37, 180, 359):
                via_rotation = encode(rotated(pcs, delta)).vectors
                via_template = shift_remap(base, delta)
                assert np.array_equal(via_rotation, via_template)

    def test_painting_order_preserved_under_rotation(self):
        # two corners fighting over a slot must resolve identically after
        # both are rotated
        pcs = [
            PolarCorner(10.0, 359.0, 9e4),
            PolarCorner(11.0, 0.5, 8e4),
        ]
        base = encode(pcs).vectors
        for delta in range(0, 360, 45):
            assert np.array_equal(encode(rotated(pcs, delta)).vectors,
                                  shift_remap(base, delta))


class TestTemplateType:
    def test_shape_guard(self):
        with pytest.raises(ValueError, match="shaped"):
            FeatureTemplate(np.zeros((2, 360)))

    def test_amplitude_range_guard(self):
        bad = np.zeros((3, 360))
        bad[0, 0] = 361.0
        with pytest.raises(ValueError, match="amplitudes"):
            FeatureTemplate(bad)

    def test_orientation_domain_guard(self):
        with pytest.raises(ValueError, match="orientation"):
            PolarCorner(10.0, 360.0, 1e5)


class TestGatedTemplate:
    """gated_template detects corners only in the gate's box, yet gives the
    whole-map chain's template bit for bit."""

    @pytest.mark.parametrize("regime,seed", [("SPARSE", 1), ("DENSE", 2), ("DENSE", 3), ("SPARSE", 4)])
    def test_drive_size_captures_match_the_whole_map_chain(self, regime, seed, tmp_path):
        fundus = load_fundus()
        rng = np.random.default_rng(seed)
        scene, (cx, cy) = fundus.make_scene(rng, getattr(fundus, regime))
        image = tmp_path / "eye.pgm"
        image.write_bytes(fundus.pgm_bytes(fundus.capture(scene, (cx, cy), rng, getattr(fundus, regime)), False))
        m = to_intensity(load_image(image))
        # A sidecar off the whole pixels moves the gate box's fractional edges.
        Path(f"{image}.od").write_text(f"{cx + 0.5} {cy - 0.25}\n", encoding="ascii")
        full = detect_corners_full(m)
        ods = [locate_od(m), resolve_od(m, image), manual_od(3.0, m.shape[0] - 7.0, m),
               manual_od(m.shape[1] - 1.0, 0.0, m)]
        assert ods[0].source == "detected" and ods[1].source == "manual"
        for od in ods:
            got = gated_template(m, od)
            assert got.vectors.tobytes() == encode(polarize(full, od)).vectors.tobytes()
        assert sum(gated_template(m, ods[0]).nonzero_counts()) > 0

    def test_params_reach_the_detector(self):
        m = np.full((200, 220), 10.0)
        m[60:140, 70:150] = 200.0
        od = OdCenter(110.0, 100.0, 1.0, "manual")
        for params in (HarrisParams(), HarrisParams(threshold=1e9), HarrisParams(nms_radius=1)):
            want = encode(polarize(detect_corners_full(m, params), od))
            assert gated_template(m, od, params).vectors.tobytes() == want.vectors.tobytes()
