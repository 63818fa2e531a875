"""Template similarity and ranking.

For an enrolled class vector vin and a query class vector vout (each 360
slots; 0 marks an empty slot, occupied slots hold the source corner's
orientation as a value in (0, 360]) the similarity profile over cyclic
shifts phi = 1..360 is

    Sim(phi) = sum over tau of step(vin(tau) * vout(tau + phi))
               * cos(2 * (vin(tau) - vout(tau + phi)) * pi / 180)

with 1-based cyclic slot indices and step(x) = 1 when x > 0, else 0.  Since
occupied slots are strictly positive, a term contributes exactly when both
slots are occupied.  Index j of the returned profile holds shift phi = j+1;
the zero-offset alias therefore sits at phi = 360.

The per-class score si is the profile maximum (smallest phi wins ties) and
the total is the class-weighted sum w1*si1 + w2*si2 + w3*si3.  The distant
class gets the largest weight because far corners pin down rotation best.

Every score comes from one kernel, which scores one query against many
enrolled rows at once.  It stacks the rows class-major, lists every
occupied-slot pair (row slot p, query slot q) of each class in row-major
(p, q) order, evaluates their cosine terms as one array, and adds them up
with a single np.bincount whose bins are offset by (class * rows + row) *
360.  The cosine is taken once per pair of distinct amplitudes and copied
to every slot pair holding those values: a pure function of its inputs, so
every term is bit-for-bit the value the plain expression gives.  bincount
adds weights in input order, and each bin only ever receives the pairs of
its own row and class, in the (p, q) order of a plain double loop over
(phi, tau); so every profile is bit-for-bit identical to the naive
evaluation, however many rows share a call.  Rows are taken in consecutive
runs bounded by a fixed pair budget, so memory does not grow with the
gallery; a run boundary always falls between rows, never inside one, so no
bin's addition order depends on where the runs split.  identify and the
FAR/FRR sweep score a whole gallery per query this way; total_si, verify
and sim_profile are one-row calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import SLOTS, FeatureTemplate, valid_amplitudes
from .harris import is_finite


@dataclass(frozen=True)
class Weights:
    w1: float = 1.0
    w2: float = 2.0
    w3: float = 4.0

    def __post_init__(self):
        if not all(is_finite(w) and w >= 0 for w in (self.w1, self.w2, self.w3)):
            raise ValueError("class weights must be finite and non-negative")


@dataclass(frozen=True)
class MatchScore:
    si1: float
    si2: float
    si3: float
    total: float
    best_shift: tuple[int, int, int]


# Bound on the work of one kernel run: every row costs its occupied slots
# times the query's widest class (a bound on its slot pairs) plus its 3 * 360
# profile bins, so no temporary exceeds about 128 KB.  A row over the budget
# on its own is scored as a run of one.
_PAIR_BUDGET = 1 << 14


def _check_vector(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (SLOTS,):
        raise ValueError(f"{name} vector must have {SLOTS} slots")
    return v


def _check_amplitudes(v: np.ndarray, name: str) -> None:
    if not valid_amplitudes(v):
        raise ValueError(f"{name} amplitudes must be 0 or in (0, 360]")


def _equal_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(firsts, labels) with values == firsts[labels], one label per run of
    equal neighbours; a pulse paints one amplitude over adjacent slots."""
    starts = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return values[starts], np.cumsum(starts) - 1


def _run_profiles(run: list, query: list) -> np.ndarray:
    """Profiles of one run of enrolled rows, shaped (classes, rows, SLOTS)."""
    planes = np.stack(run, axis=1)
    classes, n, _ = planes.shape
    # Occupied slots in (class, row, slot) order: flat index (c*n + row)*360
    # + p, so p ascends within every row and class.
    flat = np.flatnonzero(planes != 0)  # NaN included, for the check below
    amps = planes.ravel()[flat]
    _check_amplitudes(amps, "enrolled")
    ends = np.searchsorted(flat, np.arange(1, classes + 1) * n * SLOTS)
    terms = []
    bins = []
    lo = 0
    for hi, (q, q_firsts, q_labels) in zip(ends, query):
        f = flat[lo:hi]
        p = f % SLOTS
        # cos(2.0 * ((a - b) * pi / 180.0)) once per pair of distinct
        # amplitudes, then spread to every slot pair in row-major (p, q) order.
        a_firsts, a_labels = _equal_runs(amps[lo:hi])
        t = np.subtract.outer(a_firsts, q_firsts)
        t *= np.pi
        t /= 180.0
        t *= 2.0
        np.cos(t, out=t)
        terms.append(t[a_labels][:, q_labels].ravel())
        # Pair (p, q) lands in its row and class's block of 360 bins, at the
        # shift aligning slot p with slot q: (q - p) % 360 - 1, the zero
        # offset aliased to 359.  With f - p the block start, that is
        # f - 2p - 1 + q, plus 360 when q <= p.
        k = np.add.outer(f - 2 * p - 1, q)
        np.add(k, SLOTS, out=k, where=np.greater_equal.outer(p, q))
        bins.append(k.ravel())
        lo = hi
    profiles = np.bincount(np.concatenate(bins), weights=np.concatenate(terms),
                           minlength=classes * n * SLOTS)
    return profiles.reshape(classes, n, SLOTS)


def _profiles(rows, query: np.ndarray):
    """Yield the profiles of `query` (classes, SLOTS) against each array of
    the same shape in `rows`, as (classes, run length, SLOTS) blocks of
    consecutive rows."""
    _check_amplitudes(query, "query")
    slots = [np.flatnonzero(v) for v in query]
    query_runs = [(q, *_equal_runs(v[q])) for v, q in zip(query, slots)]
    widest = max(q.size for q in slots)
    run, cost = [], 0
    for r in rows:
        r_cost = np.count_nonzero(r) * widest + r.size
        if run and cost + r_cost > _PAIR_BUDGET:
            yield _run_profiles(run, query_runs)
            run, cost = [], 0
        run.append(r)
        cost += r_cost
    if run:
        yield _run_profiles(run, query_runs)


def sim_profile(enrolled: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Similarity over all cyclic shifts; index j holds shift phi = j + 1."""
    vin = _check_vector(enrolled, "enrolled")
    vout = _check_vector(query, "query")
    (profiles,) = _profiles([vin[None]], vout[None])
    return profiles[0, 0]


def si_class(profile: np.ndarray) -> tuple[float, int]:
    """Profile maximum and the smallest shift attaining it, 1-based."""
    profile = np.asarray(profile, dtype=np.float64)
    if profile.shape != (SLOTS,):
        raise ValueError(f"profile must have {SLOTS} entries")
    j = int(np.argmax(profile))
    return float(profile[j]), j + 1


def _score(templates, query: FeatureTemplate, weights: Weights | None) -> list[MatchScore]:
    """MatchScore of the query against every enrolled template, in order."""
    weights = weights or Weights()
    scores = []
    for profiles in _profiles((t.vectors for t in templates), query.vectors):
        # Profiles are finite, so the maximum is the value at the argmax.
        si = profiles.max(axis=2)
        shifts = profiles.argmax(axis=2) + 1  # smallest shift wins ties
        totals = weights.w1 * si[0] + weights.w2 * si[1] + weights.w3 * si[2]
        for s1, s2, s3, total, b1, b2, b3 in zip(*si.tolist(), totals.tolist(), *shifts.tolist()):
            scores.append(MatchScore(si1=s1, si2=s2, si3=s3, total=total, best_shift=(b1, b2, b3)))
    return scores


def total_si(enrolled: FeatureTemplate, query: FeatureTemplate, weights: Weights | None = None) -> MatchScore:
    return _score([enrolled], query, weights)[0]


def identify(query: FeatureTemplate, gallery, weights: Weights | None = None) -> list[tuple[str, MatchScore]]:
    """Score the query against every record, best first.

    Ordering is deterministic: descending total, ties by ascending
    subject_id.  Raises ValueError on an empty gallery.
    """
    records = list(gallery)
    if not records:
        raise ValueError("empty gallery")
    scores = _score([rec.template for rec in records], query, weights)
    scored = [(rec.subject_id, score) for rec, score in zip(records, scores)]
    scored.sort(key=lambda item: (-item[1].total, item[0]))
    return scored


def verify(query: FeatureTemplate, enrolled, threshold: float, weights: Weights | None = None) -> tuple[bool, MatchScore]:
    """One-to-one check: accept when the total reaches the threshold."""
    if not (is_finite(threshold) and threshold >= 0):
        raise ValueError("threshold must be finite and non-negative")
    score = total_si(enrolled.template, query, weights)
    return score.total >= threshold, score
