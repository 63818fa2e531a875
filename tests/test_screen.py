"""The FFT screen's bound and the exact decisions built on it.

GalleryScreen.totals returns every record's screened total and a bound B on
its distance from the exact kernel's total.  The galleries here put B where
it is most likely to fail: twin templates, empty rings, all-equal amplitudes,
full 360-slot rings, and many subjects whose exact totals lie within 1e-12 of
each other, so that the screen alone would order them by rounding noise.
The rotation protocol and the FAR/FRR sweep rank by screened totals and
re-score near-ties exactly; they must give the same hits, misidentifications,
normalised hits and FAR/FRR rows as the exact loops in oracles.py.
identify's top_k screen visits records in descending order of a slot-count
ceiling U, stops before the first record whose U is below the cut S_k - 2B,
and re-scores only the records within 2B of the k-th screened total; its
rows must be the full exact ranking's first k, bit for bit, across chunk
boundaries, at a U equal to the cut, and when nothing can be pruned.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from retina_id import matcher
from retina_id.encoder import SLOTS, FeatureTemplate
from retina_id.evaluation import EvalGallery, ExperimentSpec, far_frr_sweep, rotation_protocol
from retina_id.matcher import BLOCK_ROWS, GalleryScreen, Weights, identify, total_si
from retina_id.store import (DuplicateSubjectError, Gallery, GalleryRecord, add_records, load_gallery,
                             save_template)

from oracles import far_frr_sweep_exact, rotation_counts_exact

WEIGHTS = Weights(1.0, 2.5, 4.0)
# Templates with a full ring cost the exact kernel 360 x 360 slot pairs per
# ring, so the property below puts at most one in a gallery.
LIGHT_KINDS = ("sparse", "pulses", "single", "empty")
FULL_KINDS = ("empty-ring", "full", "equal")
KINDS = LIGHT_KINDS + FULL_KINDS
EQUAL_AMPLITUDES = (360.0, 180.0, 90.0, 17.25, 0.1 + 0.2, 1e-300, 359.99999999999994)


def amplitudes(rng: np.random.Generator, size=None):
    """Uniform amplitudes in (0, 360]."""
    return 360.0 - rng.uniform(0.0, 360.0, size)


def template(kind: str, rng: np.random.Generator) -> FeatureTemplate:
    v = np.zeros((3, SLOTS))
    if kind in ("sparse", "signed"):
        for row in v:
            slots = rng.choice(SLOTS, int(rng.integers(1, 40)), replace=False)
            row[slots] = amplitudes(rng, slots.size)
        if kind == "signed":
            # A Gallery stores a -0.0 slot and the top-k ceiling counts it,
            # but no profile term reads it.
            v.reshape(-1)[rng.choice(v.size, int(rng.integers(1, 40)), replace=False)] = -0.0
    elif kind == "pulses":
        # Runs of one amplitude, as encode paints them.
        for row, width in zip(v, (2, 4, 6)):
            for start in rng.choice(SLOTS, int(rng.integers(1, 12)), replace=False):
                row[(start + np.arange(width)) % SLOTS] = amplitudes(rng)
    elif kind == "single":
        v[rng.integers(3), rng.integers(SLOTS)] = amplitudes(rng)
    elif kind == "empty-ring":
        v[:] = amplitudes(rng, (3, SLOTS))
        v[rng.integers(3)] = 0.0
    elif kind == "full":
        v[:] = amplitudes(rng, (3, SLOTS))
    elif kind == "equal":
        v[:] = rng.choice(EQUAL_AMPLITUDES)
    return FeatureTemplate(v)


def screen_errors(templates, queries, weights):
    """|screened - exact| of every (query, record) pair, and B."""
    screen = GalleryScreen(Gallery(records_of(templates)))
    errors = []
    for q in queries:
        screened, bound = screen.totals(q, weights)
        exact = np.array([total_si(t, q, weights).total for t in templates])
        errors.append(np.abs(screened - exact))
    return np.concatenate(errors), bound


def make_gallery(templates, probes, weights, seed=0, ids=None):
    """An EvalGallery of the templates whose probe builder draws one of
    `probes` from each probe's seed-tree generator."""
    ids = ids or [f"s{i:02d}" for i in range(len(templates))]
    records = [GalleryRecord(subject_id=sid, template=t) for sid, t in zip(ids, templates)]

    def probe_fn(subject, angle, rng):
        return probes[int(rng.integers(len(probes)))]

    return EvalGallery(ExperimentSpec(rng_seed=seed), weights, records, probe_fn)


def assert_protocol_exact(gallery, counts=(1, 3)):
    report = rotation_protocol(gallery, counts)
    want = rotation_counts_exact(gallery.records, gallery.probe_fn, gallery.spec, counts,
                                 gallery.weights)
    got = [(e.hits, e.misidentified, e.hits_normalized) for e in report.entries]
    assert got == want


def near_tie_gallery(rng, n=24):
    """Templates whose totals against `query` lie within 1e-12: each is one
    set of pulses whose amplitudes differ from the others' by a few ulp."""
    base = rng.uniform(30.0, 330.0, 3)
    starts = rng.integers(0, SLOTS, 3)
    templates = []
    for k in rng.permutation(n):
        v = np.zeros((3, SLOTS))
        for c in range(3):
            v[c, (starts[c] + np.arange(5)) % SLOTS] = base[c] + k * np.spacing(base[c])
        templates.append(FeatureTemplate(v))
    queries = []
    for _ in range(4):
        q = np.zeros((3, SLOTS))
        for c in range(3):
            q[c, (starts[c] + 3 + np.arange(5)) % SLOTS] = np.clip(base[c] + rng.uniform(-20, 20), 1, 360)
        queries.append(FeatureTemplate(q))
    return templates, queries


class TestBound:
    def test_empty_rings_and_templates(self):
        rng = np.random.default_rng(3001)
        templates = [template(k, rng) for k in ("empty", "empty-ring", "empty-ring", "sparse")]
        queries = templates + [template("full", rng)]
        errors, bound = screen_errors(templates, queries, WEIGHTS)
        assert errors.max() <= bound
        # An empty template's spectrum is 0, so its screened total is exact.
        screened, _ = GalleryScreen(Gallery(records_of(templates))).totals(queries[-1], WEIGHTS)
        assert screened[0] == 0.0

    def test_full_rings_and_all_equal_amplitudes(self):
        rng = np.random.default_rng(3002)
        templates = [template("full", rng) for _ in range(4)]
        templates += [FeatureTemplate(np.full((3, SLOTS), a)) for a in EQUAL_AMPLITUDES]
        errors, bound = screen_errors(templates, templates, WEIGHTS)
        assert errors.max() <= bound

    def test_bound_scales_with_the_weights(self):
        rng = np.random.default_rng(3003)
        templates = [template(k, rng) for k in KINDS]
        for weights in (Weights(0.0, 0.0, 0.0), Weights(1e-300, 0.0, 0.0), Weights(1e6, 1e6, 1e6)):
            errors, bound = screen_errors(templates, templates, weights)
            assert errors.max() <= bound

    def test_near_ties(self):
        templates, queries = near_tie_gallery(np.random.default_rng(3004))
        for q in queries:
            exact = [total_si(t, q, WEIGHTS).total for t in templates]
            assert 0 < max(exact) - min(exact) < 1e-12
        errors, bound = screen_errors(templates, queries, WEIGHTS)
        assert errors.max() <= bound


class TestExactDecisions:
    def test_gallery_derives_its_self_totals_and_screen(self):
        rng = np.random.default_rng(3014)
        templates = [template(k, rng) for k in LIGHT_KINDS]
        gallery = make_gallery(templates, templates, WEIGHTS)
        assert gallery.self_totals.tolist() == [total_si(t, t, WEIGHTS).total for t in templates]
        screened, _ = gallery.screen.totals(templates[0], WEIGHTS)
        screen = GalleryScreen(Gallery(records_of(templates)))
        assert screened.tolist() == screen.totals(templates[0], WEIGHTS)[0].tolist()
        with pytest.raises(TypeError):
            EvalGallery(gallery.spec, WEIGHTS, gallery.records, gallery.probe_fn,
                        self_totals=gallery.self_totals)

    def test_twins_rank_by_subject_id(self):
        rng = np.random.default_rng(3010)
        twin = template("pulses", rng)
        templates = [twin, template("pulses", rng), twin]
        gallery = make_gallery(templates, [twin], WEIGHTS, ids=["twin_b", "other", "twin_a"])
        report = rotation_protocol(gallery, (2,))
        # Every probe is the twin: both rankings pick twin_a, the smaller id.
        (entry,) = report.entries
        assert entry.hits == entry.hits_normalized == 2
        assert [sid for sid, _ in entry.misidentified] == ["twin_b"] * 2 + ["other"] * 2
        assert_protocol_exact(gallery)

    def test_gallery_owns_its_amplitudes(self):
        # a and b are twins in separate arrays, and every probe is a third
        # copy.  Zeroing a's array after the gallery is built changes neither
        # the screen nor the exact re-score: both rankings stay the oracle's
        # on the templates as built, so the tie still goes to a.
        rng = np.random.default_rng(3015)
        twin = template("pulses", rng)
        built = records_of([twin, FeatureTemplate(twin.vectors.copy()), template("pulses", rng)],
                           ["a", "b", "other"])
        records = records_of([FeatureTemplate(rec.template.vectors.copy()) for rec in built],
                             ["a", "b", "other"])
        probe = FeatureTemplate(twin.vectors.copy())
        gallery = EvalGallery(ExperimentSpec(rng_seed=3), WEIGHTS, records, lambda *_: probe)
        records[0].template.vectors[:] = 0.0
        report = rotation_protocol(gallery, (1, 2))
        got = [(e.hits, e.misidentified, e.hits_normalized) for e in report.entries]
        assert got == rotation_counts_exact(built, gallery.probe_fn, gallery.spec, (1, 2), WEIGHTS)
        assert [e.hits for e in report.entries] == [1, 2]
        assert all(sid != "a" for e in report.entries for sid, _ in e.misidentified)
        probes = [(rec.subject_id, probe) for rec in built]
        exact = [total_si(rec.template, probe, WEIGHTS).total for rec in built]
        thresholds = sorted({x for t in exact for x in (np.nextafter(t, -1), t, np.nextafter(t, 1e9))})
        assert (far_frr_sweep(gallery.records, probes, thresholds, WEIGHTS)
                == far_frr_sweep_exact(built, probes, thresholds, WEIGHTS))

    def test_near_ties_decided_exactly(self):
        templates, queries = near_tie_gallery(np.random.default_rng(3011))
        assert_protocol_exact(make_gallery(templates, queries, WEIGHTS, seed=5), counts=(2,))

    def test_zero_weights_tie_everything(self):
        rng = np.random.default_rng(3012)
        templates = [template(k, rng) for k in KINDS]
        gallery = make_gallery(templates, templates, Weights(0.0, 0.0, 0.0))
        report = rotation_protocol(gallery, (1,))
        assert report.entries[0].hits == 1  # only s00 wins a tie of all records
        assert_protocol_exact(gallery)

    def test_sweep_thresholds_at_exact_totals(self):
        templates, queries = near_tie_gallery(np.random.default_rng(3013), n=12)
        records = [GalleryRecord(subject_id=f"s{i:02d}", template=t) for i, t in enumerate(templates)]
        probes = [(records[i].subject_id, q) for i, q in enumerate(queries)]
        exact = [total_si(t, q, WEIGHTS).total for t in templates for q in queries]
        thresholds = sorted({x for t in exact for x in (np.nextafter(t, -1), t, np.nextafter(t, 1e9))})
        assert (far_frr_sweep(records, probes, thresholds, WEIGHTS)
                == far_frr_sweep_exact(records, probes, thresholds, WEIGHTS))


WEIGHT_CHOICES = st.one_of(
    st.sampled_from([Weights(), WEIGHTS, Weights(0.0, 0.0, 1.0), Weights(0.0, 0.0, 0.0)]),
    st.builds(Weights, *[st.floats(0.0, 8.0)] * 3),
)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    kinds=st.lists(st.sampled_from(LIGHT_KINDS), min_size=2, max_size=5),
    full=st.sampled_from(FULL_KINDS + (None,)),
    twins=st.lists(st.integers(0, 5), max_size=2),
    weights=WEIGHT_CHOICES,
)
# A self total near the smallest float overflows the normalised screen.
@example(seed=0, kinds=["sparse", "pulses"], full="empty-ring", twins=[],
         weights=Weights(0.0, 1.0, 5e-324))
def test_screened_decisions_equal_the_exact_loops(seed, kinds, full, twins, weights):
    rng = np.random.default_rng(seed)
    templates = [template(kind, rng) for kind in kinds + [full] * (full is not None)]
    templates += [templates[i % len(templates)] for i in twins]
    # Probes: the templates themselves, slot-rotated copies and a stranger.
    probes = templates + [FeatureTemplate(np.roll(t.vectors, int(rng.integers(SLOTS)), axis=1))
                          for t in templates[:2]]
    probes.append(template(str(rng.choice(LIGHT_KINDS)), rng))
    gallery = make_gallery(templates, probes, weights, seed=seed % 1000)
    assert_protocol_exact(gallery, counts=(1, 2))

    sweep_probes = [(gallery.records[i % len(templates)].subject_id, p) for i, p in enumerate(probes)]
    exact = [total_si(rec.template, p, weights).total for rec in gallery.records for _, p in sweep_probes[:3]]
    thresholds = list(np.linspace(0.0, 1.05 * float(gallery.self_totals.max()), 5))
    thresholds += [x for t in exact[:6] for x in (np.nextafter(t, -1), t, np.nextafter(t, 1e9))]
    want = far_frr_sweep_exact(gallery.records, sweep_probes, thresholds, weights)
    assert far_frr_sweep(gallery.records, sweep_probes, thresholds, weights) == want
    assert far_frr_sweep(list(gallery.records), sweep_probes, thresholds, weights) == want


def records_of(templates, ids=None):
    ids = ids or [f"s{i:02d}" for i in range(len(templates))]
    return [GalleryRecord(subject_id=sid, template=t) for sid, t in zip(ids, templates)]


def ranking_bits(ranking):
    """Ids and every MatchScore field, floats by their bits."""
    return [(sid, *(float(x).hex() for x in (ms.si1, ms.si2, ms.si3, ms.total)), ms.best_shift)
            for sid, ms in ranking]


def assert_top_k_exact(query, records, weights, ks=None):
    """identify(top_k=k) is the full ranking's first k for every k in ks
    (default: every k from 1 to one past the gallery size)."""
    full = ranking_bits(identify(query, records, weights))
    for k in ks or range(1, len(records) + 2):
        assert ranking_bits(identify(query, records, weights, top_k=k)) == full[:k], k


def class3_template(amplitude: float) -> FeatureTemplate:
    v = np.zeros((3, SLOTS))
    v[2, 100] = amplitude
    return FeatureTemplate(v)


class TestTopK:
    def test_near_ties(self):
        templates, queries = near_tie_gallery(np.random.default_rng(3020))
        records = records_of(templates)
        for q in queries:
            assert_top_k_exact(q, records, WEIGHTS)

    def test_twins_straddle_the_kth_place(self):
        rng = np.random.default_rng(3021)
        query = template("pulses", rng)
        lower = query.vectors.copy()
        lower[0] = 0.0
        rolled = FeatureTemplate(np.roll(query.vectors, 7, axis=1))
        templates = [query, rolled, query, FeatureTemplate(lower), FeatureTemplate(lower)]
        templates += [template("pulses", rng) for _ in range(4)]
        ids = ["q_b", "q_roll", "q_a", "low_b", "low_a", "o1", "o2", "o3", "o4"]
        records = records_of(templates, ids)
        ranked = [sid for sid, _ in identify(query, records, WEIGHTS)]
        # The twins hold places 1-2 and 4-5 (or 2-3 and 4-5 when the rolled
        # copy's total rounds above the query's own).
        assert {ranked.index("q_a") + 1, ranked.index("low_a") + 1} <= {1, 2, 4}
        assert ranked.index("q_b") == ranked.index("q_a") + 1
        assert ranked.index("low_b") == ranked.index("low_a") + 1
        assert_top_k_exact(query, records, WEIGHTS)

    def test_zero_weights_order_by_id(self):
        rng = np.random.default_rng(3022)
        templates = [template(k, rng) for k in KINDS]
        ids = [f"s{i:02d}" for i in reversed(range(len(templates)))]
        records = records_of(templates, ids)
        zero = Weights(0.0, 0.0, 0.0)
        top = identify(templates[0], records, zero, top_k=3)
        assert [sid for sid, _ in top] == ["s00", "s01", "s02"]
        assert_top_k_exact(templates[0], records, zero)

    def test_empty_query(self):
        rng = np.random.default_rng(3023)
        records = records_of([template(k, rng) for k in KINDS])
        empty = FeatureTemplate(np.zeros((3, SLOTS)))
        assert [ms.total for _, ms in identify(empty, records, WEIGHTS, top_k=2)] == [0.0, 0.0]
        assert_top_k_exact(empty, records, WEIGHTS)

    def test_full_and_all_equal_rings(self):
        rng = np.random.default_rng(3024)
        templates = [template("full", rng) for _ in range(2)]
        templates += [FeatureTemplate(np.full((3, SLOTS), a)) for a in EQUAL_AMPLITUDES]
        records = records_of(templates)
        for q in (templates[0], templates[3], template("empty-ring", rng)):
            assert_top_k_exact(q, records, WEIGHTS, ks=(1, 2, len(records) - 1, len(records),
                                                        len(records) + 1))

    def test_only_records_within_2b_of_the_kth_are_rescored(self, monkeypatch):
        # One occupied slot per template, so a total is cos(2 (a - q) pi / 180)
        # and can be put at a chosen distance below 1 in units of B.
        weights = Weights(0.0, 0.0, 1.0)
        query = class3_template(200.0)
        (_, bound) = GalleryScreen(Gallery(records_of([query]))).totals(query, weights)

        def at(drop):
            return class3_template(200.0 + math.degrees(math.acos(1.0 - drop * bound)) / 2.0)

        records = records_of([at(3.0), at(1e6), query, at(1.5)], ["far", "low", "top", "near"])
        full = identify(query, records, weights)
        exact = {sid: ms.total for sid, ms in full}
        assert exact["top"] - exact["near"] == pytest.approx(1.5 * bound, rel=1e-6)
        assert exact["top"] - exact["far"] == pytest.approx(3.0 * bound, rel=1e-6)
        # Each record's one occupied slot names it.
        by_amplitude = {rec.template.vectors[2, 100]: rec.subject_id for rec in records}
        scored = []
        score = matcher._score

        def spy(slots, counts, q, w):
            values, _, rows = slots(slice(0, len(counts)))
            assert np.array_equal(rows, np.arange(len(counts)))
            scored.append(sorted(by_amplitude[v] for v in values.tolist()))
            return score(slots, counts, q, w)

        monkeypatch.setattr(matcher, "_score", spy)
        # k = 1: S_1 is top's total; near lies 1.5B below it, far 3B.  k = 2:
        # S_2 is near's, and far lies 1.5B below it.
        for k, want in ((1, ["near", "top"]), (2, ["far", "near", "top"])):
            scored.clear()
            assert ranking_bits(identify(query, records, weights, top_k=k)) == ranking_bits(full[:k])
            assert scored == [want]

    def test_top_k_below_one_and_empty_gallery_refused(self):
        rng = np.random.default_rng(3025)
        records = records_of([template("sparse", rng) for _ in range(3)])
        q = records[0].template
        for k in (0, -1):
            with pytest.raises(ValueError, match="top_k"):
                identify(q, records, WEIGHTS, top_k=k)
        with pytest.raises(ValueError, match="empty gallery"):
            identify(q, [], WEIGHTS, top_k=1)

    def test_identify_builds_no_record(self, monkeypatch):
        rng = np.random.default_rng(3028)
        records = records_of([template("sparse", rng) for _ in range(BLOCK_ROWS + 3)])
        gallery = Gallery(records)
        q = records[5].template
        want = ranking_bits(identify(q, records, WEIGHTS))

        def no_record(self, i):
            raise AssertionError("identify built a record")

        monkeypatch.setattr(Gallery, "__getitem__", no_record)
        for k in (None, 1, 4):
            assert ranking_bits(identify(q, gallery, WEIGHTS, top_k=k)) == want[:k]
            assert ranking_bits(identify(q, records, WEIGHTS, top_k=k)) == want[:k]

    def test_repeated_ids_refused(self):
        # A plain iterable is ranked as its store.Gallery, which refuses a
        # repeated subject id; so is the sweep's gallery.
        rng = np.random.default_rng(3026)
        records = records_of([template("sparse", rng) for _ in range(3)], ["s00", "s01", "s00"])
        q = records[0].template
        for k in (None, 1, 3):
            with pytest.raises(DuplicateSubjectError, match="'s00'"):
                identify(q, records, WEIGHTS, top_k=k)
        with pytest.raises(DuplicateSubjectError, match="'s00'"):
            far_frr_sweep(records, [("s00", q)], [0.0, 1.0], WEIGHTS)


def spy_screened_rows(monkeypatch) -> list:
    """The number of enrolled rows of each _spectra call identify makes."""
    rows = []
    spectra = matcher._spectra

    def spy(slots, n, name):
        if name == "enrolled":
            rows.append(n)
        return spectra(slots, n, name)

    monkeypatch.setattr(matcher, "_spectra", spy)
    return rows


def class3_pulse(amplitudes) -> FeatureTemplate:
    """Class-3 slots 0, 1, ... holding the amplitudes; classes 1 and 2 empty."""
    v = np.zeros((3, SLOTS))
    v[2, :len(amplitudes)] = amplitudes
    return FeatureTemplate(v)


class TestOrderedScreen:
    def test_dense_records_are_screened_first_and_the_rest_skipped(self, monkeypatch):
        # Each one-slot record's U is at most w3 + B, far below the dense
        # query's self total, so one chunk holds every record that matters.
        rng = np.random.default_rng(3030)
        singles = [template("single", rng) for _ in range(2 * BLOCK_ROWS)]
        dense = [template("full", rng) for _ in range(3)]
        records = records_of(singles + dense)
        want = ranking_bits(identify(dense[1], records, WEIGHTS))
        rows = spy_screened_rows(monkeypatch)
        assert ranking_bits(identify(dense[1], records, WEIGHTS, top_k=1)) == want[:1]
        assert sum(rows) <= BLOCK_ROWS

    def test_a_record_whose_ceiling_equals_the_cut_is_screened(self, monkeypatch):
        # Weights (0, 0, 1) and a B of our choosing, b: the top record (the
        # query, 8 slots) has U = 8 + b, 31 fillers (7 slots) U = 7 + b, and
        # the boundary record (6 slots), first of the second chunk, U = 6 + b.
        # The cut after the first chunk is S_1 - 2b; with b near 2/3 both
        # sides round to the ulp of [4, 8), so some b makes them equal.  Any
        # b >= B keeps the ranking exact.
        weights = Weights(0.0, 0.0, 1.0)
        query = class3_pulse(np.linspace(20.0, 300.0, 8))
        fillers = [class3_pulse(np.linspace(30.0 + i, 310.0, 7)) for i in range(BLOCK_ROWS - 1)]
        records = records_of([class3_pulse(np.linspace(40.0, 290.0, 6))] + fillers + [query],
                             ["boundary"] + [f"f{i:02d}" for i in range(BLOCK_ROWS - 1)] + ["top"])
        want = ranking_bits(identify(query, records, weights))
        totals = []
        screened_totals = matcher._screened_totals
        monkeypatch.setattr(matcher, "_screened_totals",
                            lambda *args: totals.append(screened_totals(*args)) or totals[-1])
        identify(query, records, weights, top_k=1)
        s1 = float(totals[0].max())
        assert len(totals) == 1 and s1 > 7.0  # the default B stops after one chunk

        b = (s1 - 6.0) / 3.0
        for step in range(-64, 65):
            at = b + step * math.ulp(b)
            if 6.0 + at == s1 - 2.0 * at:
                b = at
                break
        else:
            pytest.fail("no b puts the boundary record's U at the cut")
        below = b
        while not 6.0 + below < s1 - 2.0 * below:
            below = math.nextafter(below, 0.0)
        rows = spy_screened_rows(monkeypatch)
        for bound, want_rows in ((b, [BLOCK_ROWS, 1]), (below, [BLOCK_ROWS])):
            monkeypatch.setattr(matcher, "_bound", lambda _, bound=bound: bound)
            rows.clear()
            assert ranking_bits(identify(query, records, weights, top_k=1)) == want[:1]
            assert rows == want_rows, bound

    def test_zero_weights_screen_everything_and_order_ties_by_id(self, monkeypatch):
        # Every U is B and every screened total 0 > -2B, so nothing is pruned.
        rng = np.random.default_rng(3031)
        n = 2 * BLOCK_ROWS + 5
        records = records_of([template(LIGHT_KINDS[i % 4], rng) for i in range(n)],
                             [f"s{i:02d}" for i in reversed(range(n))])
        zero = Weights(0.0, 0.0, 0.0)
        rows = spy_screened_rows(monkeypatch)
        top = identify(records[3].template, records, zero, top_k=3)
        assert [sid for sid, _ in top] == ["s00", "s01", "s02"]
        assert sum(rows) == n
        assert_top_k_exact(records[3].template, records, zero, ks=(1, BLOCK_ROWS, BLOCK_ROWS + 1, n - 1))

    def test_empty_query_screens_everything(self, monkeypatch):
        rng = np.random.default_rng(3032)
        n = 2 * BLOCK_ROWS + 3
        records = records_of([template(LIGHT_KINDS[i % 4], rng) for i in range(n)])
        empty = FeatureTemplate(np.zeros((3, SLOTS)))
        rows = spy_screened_rows(monkeypatch)
        top = identify(empty, records, WEIGHTS, top_k=2)
        assert [(sid, ms.total) for sid, ms in top] == [("s00", 0.0), ("s01", 0.0)]
        assert sum(rows) == n
        assert_top_k_exact(empty, records, WEIGHTS, ks=(1, BLOCK_ROWS, BLOCK_ROWS + 1, n - 1))


def loaded_out_of_order(records, directory: Path) -> Gallery:
    """The records as a loaded directory: snapshot records in reverse record
    order, the snapshot's last section short, an unlinked file's slots in
    it, and the last records parsed, their slots appended."""
    parsed = 2 if (len(records) - 1) % BLOCK_ROWS else 3
    add_records(directory, list(reversed(records[:-parsed])))
    add_records(directory, [GalleryRecord("stale", records[0].template)])
    (directory / "stale.rtpl").unlink()
    for rec in records[-parsed:]:
        save_template(rec, directory / f"{rec.subject_id}.rtpl")
    gallery = load_gallery(directory)
    assert gallery.subject_ids == [rec.subject_id for rec in records]
    # The parsed records' slots follow the snapshot's, and the unlinked
    # file's slots are in no record's range.
    ranges = gallery._ranges
    assert ranges[:-parsed, 1].max() <= ranges[-parsed:, 0].min()
    stale = records[0].template.vectors
    assert np.diff(ranges).sum() + np.count_nonzero((stale != 0) | np.signbit(stale)) == len(gallery._values)
    return gallery


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    n=st.integers(2 * BLOCK_ROWS, 3 * BLOCK_ROWS),
    dense=st.sampled_from(FULL_KINDS),
    twins=st.lists(st.integers(0, 3 * BLOCK_ROWS), max_size=4),
    weights=WEIGHT_CHOICES,
    k=st.integers(1, BLOCK_ROWS + 8),
)
def test_top_k_across_chunks(seed, n, dense, twins, weights, k):
    rng = np.random.default_rng(seed)
    templates = [template(str(kind), rng) for kind in rng.choice(LIGHT_KINDS, n - 1 - len(twins))]
    templates.insert(int(rng.integers(len(templates) + 1)), template(dense, rng))
    templates += [templates[i % len(templates)] for i in twins]
    records = records_of(templates, [f"s{i:03d}" for i in range(n)])
    queries = [templates[0], FeatureTemplate(np.roll(templates[1].vectors, int(rng.integers(SLOTS)), axis=1)),
               template(str(rng.choice(LIGHT_KINDS)), rng)]
    with tempfile.TemporaryDirectory() as directory:
        for gallery in (Gallery(records), loaded_out_of_order(records, Path(directory))):
            for q in queries:
                assert_top_k_exact(q, gallery, weights, ks=(k,))


def test_screen_spectra_are_contiguous_one_row_per_record(tmp_path):
    """A gallery loaded with its rows out of record order, a stale row and a
    part-filled block still screens from C-contiguous spectra, one row per
    record, in record order."""
    rng = np.random.default_rng(3027)
    records = records_of([template("sparse", rng) for _ in range(BLOCK_ROWS + 18)])
    add_records(tmp_path, list(reversed(records[:-2])))
    add_records(tmp_path, [GalleryRecord("stale", template("sparse", rng))])
    (tmp_path / "stale.rtpl").unlink()
    for rec in records[-2:]:
        save_template(rec, tmp_path / f"{rec.subject_id}.rtpl")
    for gallery in (load_gallery(tmp_path), Gallery(records)):
        assert gallery.subject_ids == [rec.subject_id for rec in records]
        screen = GalleryScreen(gallery)
        for spectra in (screen._cos, screen._sin):
            assert spectra.flags.c_contiguous
            assert spectra.shape[1] == len(records)
        for q in (records[0].template, records[-1].template):
            screened, bound = screen.totals(q, WEIGHTS)
            exact = [total_si(rec.template, q, WEIGHTS).total for rec in gallery]
            assert np.abs(screened - exact).max() <= bound
    # The loaded rows are the text's rounding of the records', so the loaded
    # screen's totals are compared, bit for bit, with those of a Gallery of
    # the loaded records, whose rows are in record order.
    loaded = load_gallery(tmp_path)
    screens = [GalleryScreen(loaded), GalleryScreen(Gallery(list(loaded)))]
    for q in (records[0].template, records[-1].template):
        got, want = (screen.totals(q, WEIGHTS)[0] for screen in screens)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2 ** 32 - 1),
    kinds=st.lists(st.sampled_from(LIGHT_KINDS + ("signed",)), min_size=1, max_size=6),
    full=st.sampled_from(FULL_KINDS + (None,)),
    twins=st.lists(st.integers(0, 6), max_size=3),
    weights=WEIGHT_CHOICES,
    k=st.integers(1, 10),
)
def test_top_k_is_the_full_rankings_head(seed, kinds, full, twins, weights, k):
    rng = np.random.default_rng(seed)
    templates = [template(kind, rng) for kind in kinds + [full] * (full is not None)]
    templates += [templates[i % len(templates)] for i in twins]
    records = records_of(templates, [f"s{int(i):02d}" for i in rng.permutation(len(templates))])
    queries = templates[:2] + [FeatureTemplate(np.roll(templates[0].vectors, int(rng.integers(SLOTS)), axis=1)),
                               template(str(rng.choice(LIGHT_KINDS)), rng)]
    # -0.0 + 0.0 is +0.0: a stored -0.0 occupies no slot, so the ranking is
    # that of the same templates without it.
    unsigned = [GalleryRecord(r.subject_id, FeatureTemplate(r.template.vectors + 0.0)) for r in records]
    for q in queries:
        assert_top_k_exact(q, records, weights, ks=(k,))
        assert ranking_bits(identify(q, records, weights)) == ranking_bits(identify(q, unsigned, weights))
