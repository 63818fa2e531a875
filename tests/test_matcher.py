import math

import numpy as np
import pytest

from retina_id import matcher
from retina_id.encoder import FeatureTemplate, PolarCorner, encode
from retina_id.evaluation import ExperimentSpec, build_synthetic_gallery, far_frr_sweep, perturb
from retina_id.matcher import MatchScore, Weights, identify, si_class, sim_profile, total_si, verify
from retina_id.store import Gallery, GalleryRecord

from oracles import shift_remap, sim_profile_brute


def random_vector(rng, n_pulses):
    """Sparse 360-slot vector with amplitudes in (0, 360]."""
    v = np.zeros(360)
    slots = rng.choice(360, size=n_pulses, replace=False)
    amps = rng.uniform(0.0, 360.0, n_pulses)
    amps[amps == 0.0] = 360.0
    v[slots] = amps
    return v


def profile_runs(records, query: FeatureTemplate) -> list:
    """The runs of the exact kernel's profiles of the query against a
    Gallery of the records, as identify splits it."""
    gallery = Gallery(records)
    positions = np.arange(len(gallery))
    return list(matcher._profiles(lambda run: gallery.slots(positions[run]),
                                  gallery.class_counts().sum(axis=1), query.vectors))


def random_template(rng):
    pcs = [
        PolarCorner(
            distance=float(rng.uniform(1.0, 79.0)),
            orientation=float(rng.uniform(0.0, 360.0) % 360.0),
            response=float(rng.uniform(7e4, 7e5)),
        )
        for _ in range(20)
    ]
    return encode(pcs)


class TestSimProfile:
    def test_empty_inputs_give_zero_profile(self):
        z = np.zeros(360)
        assert not sim_profile(z, z).any()
        v = random_vector(np.random.default_rng(40), 6)
        assert not sim_profile(v, z).any()
        assert not sim_profile(z, v).any()

    def test_self_match_counts_slots_at_shift_360(self):
        rng = np.random.default_rng(41)
        for n in (1, 7, 31):
            v = random_vector(rng, n)
            profile = sim_profile(v, v)
            assert profile[359] == float(n)  # cos(0) terms sum exactly

    def test_single_overlap_pair(self):
        vin = np.zeros(360)
        vout = np.zeros(360)
        vin[4] = 100.0
        vout[7] = 145.0
        profile = sim_profile(vin, vout)
        expected = math.cos(2.0 * ((100.0 - 145.0) * math.pi / 180.0))
        assert profile[2] == expected  # slots 4 and 7 align at shift 3
        mask = np.ones(360, dtype=bool)
        mask[2] = False
        assert not profile[mask].any()

    def test_bit_for_bit_equal_to_double_loop(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            vin = random_vector(rng, int(rng.integers(1, 40)))
            vout = random_vector(rng, int(rng.integers(1, 40)))
            assert np.array_equal(sim_profile(vin, vout), sim_profile_brute(vin, vout))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="slots"):
            sim_profile(np.zeros(359), np.zeros(360))

    def test_amplitude_range_enforced(self):
        bad = np.zeros(360)
        bad[0] = -1.0
        with pytest.raises(ValueError, match="amplitudes"):
            sim_profile(bad, np.zeros(360))

    def test_nan_amplitude_rejected(self):
        bad = np.zeros(360)
        bad[5] = math.nan
        good = random_vector(np.random.default_rng(39), 8)
        with pytest.raises(ValueError, match="amplitudes"):
            sim_profile(bad, good)
        with pytest.raises(ValueError, match="amplitudes"):
            sim_profile(good, bad)


class TestSiClass:
    def test_zero_profile(self):
        assert si_class(np.zeros(360)) == (0.0, 1)

    def test_single_peak(self):
        p = np.zeros(360)
        p[9] = 5.0
        assert si_class(p) == (5.0, 10)

    def test_tie_takes_smallest_shift(self):
        p = np.zeros(360)
        p[100] = 3.0
        p[200] = 3.0
        assert si_class(p) == (3.0, 101)

    def test_upper_bound_is_min_occupancy(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            vin = random_vector(rng, int(rng.integers(1, 30)))
            vout = random_vector(rng, int(rng.integers(1, 30)))
            si, _ = si_class(sim_profile(vin, vout))
            bound = min(np.count_nonzero(vin), np.count_nonzero(vout))
            assert si <= bound + 1e-12


class TestTotal:
    def test_self_match_total_exact(self):
        rng = np.random.default_rng(44)
        t = random_template(rng)
        m1, m2, m3 = t.nonzero_counts()
        score = total_si(t, t)
        assert score.si1 == float(m1)
        assert score.si2 == float(m2)
        assert score.si3 == float(m3)
        assert score.total == 1.0 * m1 + 2.0 * m2 + 4.0 * m3

    def test_disjoint_templates_score_zero(self):
        a = FeatureTemplate(np.zeros((3, 360)))
        b = random_template(np.random.default_rng(45))
        score = total_si(b, a)
        assert score.total == 0.0 and (score.si1, score.si2, score.si3) == (0.0, 0.0, 0.0)

    def test_rotated_template_scores_cos_two_delta(self):
        rng = np.random.default_rng(46)
        delta = 10
        for _ in range(10):
            t = random_template(rng)
            q = FeatureTemplate(shift_remap(t.vectors, delta))
            score = total_si(t, q)
            c = math.cos(2.0 * delta * math.pi / 180.0)
            for si, m, shift in zip(
                (score.si1, score.si2, score.si3),
                t.nonzero_counts(),
                score.best_shift,
            ):
                if m == 0:
                    continue
                assert abs(si - m * c) <= 1e-9
                assert shift % 360 == delta

    def test_custom_weights(self):
        t = random_template(np.random.default_rng(47))
        m1, m2, m3 = t.nonzero_counts()
        score = total_si(t, t, Weights(0.5, 1.0, 2.0))
        assert score.total == 0.5 * m1 + 1.0 * m2 + 2.0 * m3

    def test_weight_guard(self):
        with pytest.raises(ValueError, match="weights"):
            Weights(w1=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_weights_rejected(self, bad):
        for field in ("w1", "w2", "w3"):
            with pytest.raises(ValueError, match="weights"):
                Weights(**{field: bad})

    @pytest.mark.parametrize("bad", [10 ** 400, -10 ** 400], ids=["huge", "-huge"])
    def test_int_beyond_float_range_rejected(self, bad):
        # Converting an int this large to float would overflow.
        for field in ("w1", "w2", "w3"):
            with pytest.raises(ValueError, match="weights"):
                Weights(**{field: bad})

    def test_weights_whose_largest_total_overflows_rejected(self):
        # Each weight is finite, but a total of 360 matching slots per class
        # would be inf, and every record would tie at inf.
        with pytest.raises(ValueError, match="weights too large"):
            Weights(1e308, 1e308, 1e308)
        with pytest.raises(ValueError, match="weights too large"):
            Weights(0.0, 0.0, 1e306)
        top = Weights(0.0, 0.0, 1e305)
        t = random_template(np.random.default_rng(48))
        assert math.isfinite(total_si(t, t, top).total)


class TestIdentify:
    def make_gallery(self, rng, n=8):
        return [
            GalleryRecord(subject_id=f"s{i:02d}", template=random_template(rng))
            for i in range(n)
        ]

    def test_own_template_ranks_first(self):
        rng = np.random.default_rng(48)
        gallery = self.make_gallery(rng)
        ranked = identify(gallery[3].template, gallery)
        assert ranked[0][0] == "s03"
        totals = [ms.total for _, ms in ranked]
        assert totals == sorted(totals, reverse=True)

    def test_empty_gallery_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            identify(random_template(np.random.default_rng(49)), [])

    def test_all_zero_scores_rank_by_subject_id(self):
        empty = FeatureTemplate(np.zeros((3, 360)))
        gallery = [
            GalleryRecord(subject_id=sid, template=empty)
            for sid in ("zz", "aa", "mm")
        ]
        ranked = identify(empty, gallery)
        assert [sid for sid, _ in ranked] == ["aa", "mm", "zz"]

    def test_nan_template_rejected(self):
        v = random_template(np.random.default_rng(54)).vectors.copy()
        v[2, np.flatnonzero(v[2])[0]] = math.nan
        with pytest.raises(ValueError, match="amplitudes"):
            FeatureTemplate(v)

    def test_nan_record_does_not_rank(self):
        # A template array changed after validation still cannot corrupt a
        # ranking: the scorer re-checks every row it scores.
        rng = np.random.default_rng(55)
        gallery = self.make_gallery(rng)
        gallery[0].template.vectors[2, np.flatnonzero(gallery[0].template.vectors[2])[0]] = math.nan
        with pytest.raises(ValueError, match="amplitudes"):
            identify(gallery[5].template, gallery)


class TestVerify:
    def test_accept_at_threshold_zero(self):
        t = random_template(np.random.default_rng(50))
        rec = GalleryRecord(subject_id="sub", template=t)
        accepted, score = verify(t, rec, 0.0)
        assert accepted and isinstance(score, MatchScore)

    def test_reject_above_self_total(self):
        t = random_template(np.random.default_rng(51))
        rec = GalleryRecord(subject_id="sub", template=t)
        self_total = total_si(t, t).total
        accepted, _ = verify(t, rec, self_total + 1.0)
        assert not accepted

    def test_accept_exactly_at_score(self):
        t = random_template(np.random.default_rng(52))
        rec = GalleryRecord(subject_id="sub", template=t)
        self_total = total_si(t, t).total
        accepted, _ = verify(t, rec, self_total)
        assert accepted  # decision is >=, not >

    def test_negative_threshold_rejected(self):
        t = random_template(np.random.default_rng(53))
        rec = GalleryRecord(subject_id="sub", template=t)
        with pytest.raises(ValueError, match="threshold"):
            verify(t, rec, -0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_threshold_rejected(self, bad):
        t = random_template(np.random.default_rng(56))
        rec = GalleryRecord(subject_id="sub", template=t)
        with pytest.raises(ValueError, match="threshold"):
            verify(t, rec, bad)

    @pytest.mark.parametrize("bad", [10 ** 400, -10 ** 400], ids=["huge", "-huge"])
    def test_int_beyond_float_range_threshold_rejected(self, bad):
        t = random_template(np.random.default_rng(57))
        rec = GalleryRecord(subject_id="sub", template=t)
        with pytest.raises(ValueError, match="threshold"):
            verify(t, rec, bad)


def brute_score(enrolled: FeatureTemplate, query: FeatureTemplate, weights: Weights) -> MatchScore:
    """MatchScore from the plain double-loop profile of every class."""
    (s1, b1), (s2, b2), (s3, b3) = (
        si_class(sim_profile_brute(row_in, row_out))
        for row_in, row_out in zip(enrolled.vectors, query.vectors)
    )
    total = weights.w1 * s1 + weights.w2 * s2 + weights.w3 * s3
    return MatchScore(si1=s1, si2=s2, si3=s3, total=total, best_shift=(b1, b2, b3))


class TestBatchedScorer:
    """identify and far_frr_sweep score a whole gallery per query in runs
    of rows; every score must equal the per-pair plain double loop exactly."""

    weights = Weights(1.0, 2.5, 4.0)

    @pytest.fixture(scope="class")
    def gallery(self):
        records, constellations = build_synthetic_gallery(36, 20, seed=2030)
        rng = np.random.default_rng(2031)
        full = rng.uniform(0.0, 360.0, (3, 360))
        full[full == 0.0] = 360.0
        records += [
            GalleryRecord(subject_id="full", template=FeatureTemplate(full)),
            GalleryRecord(subject_id="empty", template=FeatureTemplate(np.zeros((3, 360)))),
            # Same template under two ids, listed out of id order.
            GalleryRecord(subject_id="twin_b", template=records[4].template),
            GalleryRecord(subject_id="twin_a", template=records[4].template),
        ]
        return records, constellations

    @pytest.fixture(scope="class")
    def query(self, gallery):
        _, constellations = gallery
        rng = np.random.default_rng(2032)
        v = encode(perturb(constellations[4], 9.0, ExperimentSpec(), rng)).vectors.copy()
        v[1] = 0.0  # one empty class
        return FeatureTemplate(v)

    def test_gallery_spans_several_runs(self, gallery, query):
        records, _ = gallery
        runs = profile_runs(records, query)
        assert len(runs) >= 4
        assert max(block.shape[1] for block in runs) > 1

    def test_identify_equals_double_loop(self, gallery, query):
        records, _ = gallery
        ranked = identify(query, records, self.weights)
        assert sorted(sid for sid, _ in ranked) == sorted(r.subject_id for r in records)
        by_id = dict(ranked)
        for rec in records:
            assert by_id[rec.subject_id] == brute_score(rec.template, query, self.weights), rec.subject_id
        assert by_id["empty"].total == 0.0
        assert ranked == sorted(ranked, key=lambda item: (-item[1].total, item[0]))
        ids = [sid for sid, _ in ranked]
        assert ids.index("twin_b") == ids.index("twin_a") + 1

    def test_far_frr_sweep_equals_per_pair_loop(self, gallery):
        records, constellations = gallery
        spec = ExperimentSpec(rng_seed=2033)
        probes = []
        for i in range(0, 36, 4):
            rng = np.random.default_rng(np.random.SeedSequence([2033, i]))
            probes.append((records[i].subject_id,
                           encode(perturb(constellations[i], float(rng.uniform(-15, 15)), spec, rng))))
        thresholds = np.linspace(0.0, 150.0, 40)
        genuine = []
        impostor = []
        for sid, template in probes:
            for rec in records:
                total = total_si(rec.template, template, self.weights).total
                (genuine if rec.subject_id == sid else impostor).append(total)
        gen = np.array(genuine)
        imp = np.array(impostor)
        want = [(float(t), 100.0 * np.count_nonzero(imp >= t) / imp.size,
                 100.0 * np.count_nonzero(gen < t) / gen.size) for t in thresholds]
        assert far_frr_sweep(records, probes, thresholds, self.weights) == want


class TestRepeatedAmplitudes:
    """The kernel takes each cosine once per pair of distinct amplitudes of
    a class and copies it to every slot pair holding them.  These templates
    repeat amplitudes in every way a class can: apart, across the wrap from
    slot 359 to slot 0, across the boundary between two classes, and over
    whole rows; every score must equal the plain double loop exactly."""

    weights = Weights(1.0, 2.5, 4.0)

    @pytest.fixture(scope="class")
    def templates(self):
        scattered = np.zeros((3, 360))
        scattered[:, [5, 90, 200, 301]] = 100.0  # equal, not adjacent
        scattered[:, [6, 150]] = 37.5
        # Pulses of 359.5 over slots 359, 0, 1 (and 2), with others between.
        wrapped = encode([PolarCorner(60.0, 359.5, 1e5), PolarCorner(10.0, 359.5, 2e5),
                          PolarCorner(30.0, 180.25, 3e5), PolarCorner(60.0, 1.0, 4e5)])
        # The last occupied slot of each class holds the first one's value of
        # the next class: flat order makes them neighbours.
        straddle = np.zeros((3, 360))
        straddle[:, [0, 359]] = 42.0
        straddle[:, 100] = 7.0
        rng = np.random.default_rng(2040)
        dense = rng.choice([0.0, 30.0, 60.0, 360.0], size=(3, 360))
        return {"scattered": FeatureTemplate(scattered), "wrapped": wrapped,
                "straddle": FeatureTemplate(straddle), "dense": FeatureTemplate(dense),
                "full_17": FeatureTemplate(np.full((3, 360), 17.25)),
                "full_360": FeatureTemplate(np.full((3, 360), 360.0))}

    @pytest.fixture(scope="class")
    def records(self, templates):
        return [GalleryRecord(subject_id=sid, template=t) for sid, t in templates.items()]

    def test_dense_query_splits_into_runs_of_several_rows(self, records, templates):
        runs = profile_runs(records, templates["dense"])
        assert len(runs) >= 2
        assert runs[0].shape[1] >= 3  # scattered, wrapped and straddle share a run

    @pytest.mark.parametrize("name", ["straddle", "dense", "full_17"])
    def test_equal_to_double_loop(self, records, templates, name):
        query = templates[name]
        by_id = dict(identify(query, records, self.weights))
        for rec in records:
            profiles = [sim_profile_brute(a, b) for a, b in zip(rec.template.vectors, query.vectors)]
            for a, b, want in zip(rec.template.vectors, query.vectors, profiles):
                assert np.array_equal(sim_profile(a, b), want), rec.subject_id
            (s1, b1), (s2, b2), (s3, b3) = map(si_class, profiles)
            want = MatchScore(s1, s2, s3, self.weights.w1 * s1 + self.weights.w2 * s2
                              + self.weights.w3 * s3, (b1, b2, b3))
            assert total_si(rec.template, query, self.weights) == want, rec.subject_id
            assert by_id[rec.subject_id] == want, rec.subject_id
