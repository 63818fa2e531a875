"""The FFT screen's bound and the exact decisions built on it.

GalleryScreen.totals returns every record's screened total and a bound B on
its distance from the exact kernel's total.  The galleries here put B where
it is most likely to fail: twin templates, empty rings, all-equal amplitudes,
full 360-slot rings, and many subjects whose exact totals lie within 1e-12 of
each other, so that the screen alone would order them by rounding noise.
The rotation protocol and the FAR/FRR sweep rank by screened totals and
re-score near-ties exactly; they must give the same hits, misidentifications,
normalised hits and FAR/FRR rows as the exact loops in oracles.py.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from retina_id.encoder import SLOTS, FeatureTemplate
from retina_id.evaluation import EvalGallery, ExperimentSpec, far_frr_sweep, rotation_protocol
from retina_id.matcher import GalleryScreen, Weights, total_si
from retina_id.store import GalleryRecord

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
    if kind == "sparse":
        for row in v:
            slots = rng.choice(SLOTS, int(rng.integers(1, 40)), replace=False)
            row[slots] = amplitudes(rng, slots.size)
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
    screen = GalleryScreen(templates)
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
    report = rotation_protocol(gallery, gallery.spec, counts, gallery.weights)
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
        screened, _ = GalleryScreen(templates).totals(queries[-1], WEIGHTS)
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
        assert screened.tolist() == GalleryScreen(templates).totals(templates[0], WEIGHTS)[0].tolist()
        with pytest.raises(TypeError):
            EvalGallery(gallery.spec, WEIGHTS, gallery.records, gallery.probe_fn,
                        self_totals=gallery.self_totals)

    def test_twins_rank_by_subject_id(self):
        rng = np.random.default_rng(3010)
        twin = template("pulses", rng)
        templates = [twin, template("pulses", rng), twin]
        gallery = make_gallery(templates, [twin], WEIGHTS, ids=["twin_b", "other", "twin_a"])
        report = rotation_protocol(gallery, gallery.spec, (2,), WEIGHTS)
        # Every probe is the twin: both rankings pick twin_a, the smaller id.
        (entry,) = report.entries
        assert entry.hits == entry.hits_normalized == 2
        assert [sid for sid, _ in entry.misidentified] == ["twin_b"] * 2 + ["other"] * 2
        assert_protocol_exact(gallery)

    def test_near_ties_decided_exactly(self):
        templates, queries = near_tie_gallery(np.random.default_rng(3011))
        assert_protocol_exact(make_gallery(templates, queries, WEIGHTS, seed=5), counts=(2,))

    def test_zero_weights_tie_everything(self):
        rng = np.random.default_rng(3012)
        templates = [template(k, rng) for k in KINDS]
        gallery = make_gallery(templates, templates, Weights(0.0, 0.0, 0.0))
        report = rotation_protocol(gallery, gallery.spec, (1,), gallery.weights)
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
    assert far_frr_sweep(gallery, sweep_probes, thresholds, weights) == want
