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

Exact kernel.  Every exact score comes from one kernel, which scores one
query against many enrolled rows at once.  It takes the rows' slots as
store.Gallery.slots gives them (np.nonzero gives a dense row's, the
query's too; a stored -0.0 is skipped), lists every occupied-slot pair
(row slot p, query slot q) of each class in row-major (p, q) order,
evaluates their cosine terms as one array, and adds them up with a single
np.bincount whose bins are offset by (class * rows + row) * 360.  The
cosine is taken once per pair of distinct amplitudes of a class, which
np.unique gives with every slot's index into them, and copied to every
slot pair holding those values: a pure function of its inputs, so every
term is bit-for-bit the value the plain expression gives.
bincount adds weights in input order, and each bin only ever receives the
pairs of its own row and class, in the (p, q) order of a plain double loop
over (phi, tau); so every profile is bit-for-bit identical to the naive
evaluation, however many rows share a call.  Rows are taken in consecutive
runs bounded by a fixed pair budget, so memory does not grow with the
gallery; a run boundary always falls between rows, never inside one, so no
bin's addition order depends on where the runs split.  The screens make
every gallery-wide decision, so the kernel's calls are small: eval --seed 1
--far-frr-csv makes 50 calls of one row (the self totals), a CLI verify
one of one row and identify --top-k 3 one of about 3 rows.

FFT screen.  Since cos 2(a - b) = cos 2a cos 2b + sin 2a sin 2b, each class
profile is the circular cross-correlation of the rows' cos 2a and sin 2a
planes (0 on empty slots) with the query's.  Both screens scatter the
planes of BLOCK_ROWS records at a time straight from their slots, read by
store.Gallery.slots, and compute spectra and totals through the same
functions, so the bound below covers both.  GalleryScreen reads every
record once per gallery, in record order, and keeps the conjugated rfft of
its planes (about 17 KB per record, plus about 6 KB of work arrays); per
query and class, one irfft gives every record's profile, and so every
record's screened total.  identify's top_k screen (see Callers) keeps none
of the spectra of the records it visits.  A screened total is not
bit-for-bit the exact one, so GalleryScreen.totals also returns a bound B
on |screened - exact| for every record, and a caller decides exactly by
re-scoring with the exact kernel every record whose total B cannot place.

The bound.  Write u = 2**-53, gamma(k) = k u / (1 - k u), n = 360, and
compare both totals with the real-arithmetic profile S(phi) of the stored
amplitudes.  A profile sums at most n terms (both slots occupied), each of
modulus at most 1, so every bound below is taken at n occupied slots.

  - Exact kernel.  The angle 2 (a - b) pi / 180, of modulus below 4 pi,
    takes four roundings (pi's own included): an error of at most
    4 pi gamma(4).  np.cos is assumed within 4 ulp, at most 8 u on [-1, 1].
    So a term is off by at most e_t = 4 pi gamma(4) + 8 u, and bincount's
    in-order sum of r <= n terms adds gamma(r - 1) r (1 + e_t) (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 4.2):
    E_kernel = n e_t + gamma(n - 1) n (1 + e_t).
  - Screen planes.  cos and sin of a * fl(pi / 90) are off by at most
    d = 4 pi gamma(3) + 8 u, so each product pair cos 2a cos 2b + sin 2a
    sin 2b is off by at most 4 d (1 + d): E_planes = 4 n d (1 + d).
  - FFT.  numpy >= 1.24 runs pocketfft, the C port up to numpy 1.26 and
    the C++ one from numpy 2.0.  Both plan a length whose largest prime
    factor p has p * p <= n as mixed-radix Cooley-Tukey passes (rfftp; never
    Bluestein): 360 = 2**3 3**2 5 gives at most 6 passes of radix r <= 5.
    In one pass every real output is a linear form in at most 2r real
    inputs with coefficients of modulus at most 1 (butterfly constants
    times tabulated twiddles), evaluated with at most 14 roundings on any
    path, twiddle error included.  Its error is then within gamma(14)
    times the pass matrix in absolute values, whose 2-norm is at most 2r,
    against sqrt(r) for the pass itself: a normwise relative error of at
    most 2 sqrt(5) gamma(14) < 63 u per pass and (1 + 63 u)**6 - 1 < 380 u
    per transform (section 24.1 gives the radix-2 case).  The bound taken
    is e_F = 4096 u, over ten times that, to cover the half-complex
    packing of the real transforms and the 1/n scale of irfft.  Each plane
    has 2-norm at most sqrt(n) and 1-norm at most n, so its spectrum has
    infinity-norm at most n and spectral error of 2-norm at most e_F n.
    The two conjugated products and their sum add at most 4 gamma(4) n**2
    (the half-spectrum's Hermitian extension at most doubles a squared
    norm), and the inverse transform divides 2-norms by sqrt(n) and adds
    e_F times the 2-norm of the profile, at most n sqrt(n).  Bounding the
    infinity norm by the 2-norm, to first order:
    E_fft = (5 e_F + 4 gamma(4)) n**1.5.
  - Totals.  A class maximum moves by at most the largest profile error,
    so each si is off by at most E = E_kernel + E_planes + E_fft, and each
    weighted sum adds gamma(3) n per unit weight on either side.

B is twice (E + 2 gamma(3) n) (w1 + w2 + w3), plus the smallest normal
float for any gradual underflow of the weighted sums; the factor 2 absorbs
every second-order term and the roundings of the comparisons the caller
makes with B (each within a few u of a value at most n (w1 + w2 + w3)).
B comes to about 3e-8 per unit weight.  Weights refuses weights for which
n (w1 + w2 + w3) overflows, so the largest total and B stay finite.

The ceiling.  Let m_c be the smaller of the row's and the query's occupied
slots in class c.  A term of S_c(phi) needs both of its slots occupied, and
each row slot meets one query slot per shift, so S_c sums at most m_c
terms and |S_c| <= m_c: the real total is at most w1 m1 + w2 m2 + w3 m3.
A gallery's row counts are store.Gallery.class_counts, the class counts
stored with its slots (a loaded snapshot's are checked against the
positions), so no pass over the slots finds them.  They count a stored
-0.0, which no term reads; that can only raise m_c, and so the ceiling.
The screened total lies within B / 2 of the real one (the bound above
before its factor 2), so it is at most w1 m1 + w2 m2 + w3 m3 + B / 2.  The
ceiling U = fl(w1 m1 + w2 m2 + w3 m3) + B, the products taken in the
screened totals' order (no matmul, so no BLAS blocking), loses at most
gamma(3) n per unit weight in the sum and a few u of n (w1 + w2 + w3) in
adding B, both far inside the other half of B; so every screened total is
at most its record's U.

Callers.  verify, total_si and sim_profile use the exact kernel alone, and
so does identify without top_k, reading a store.Gallery's slots.  With
top_k = k below the gallery size it screens the records in descending U,
ties in record order, BLOCK_ROWS at a time, and after each chunk sets the
cut S_k - 2B, S_k being the k-th largest screened total so far.  It stops
before the first record whose U is below the cut: that record and every
later one has a screened total below the cut, and so below S_k, which
they can therefore not move; the records kept, those screened not below
the cut, are the ones a screen of every record would keep.  Only they are
re-scored exactly.  The k records screened at or above S_k have exact
totals of at least S_k - B.  A record screened below S_k - 2B has an exact
total below S_k - B, so it is strictly below the k-th exact total and
cannot tie into the first k.  A NaN cut keeps, and so screens, every
record.  So the rows identify returns are the full exact ranking's first
k, bit for bit; the CLI's identify passes its --top-k.  The saving is in
records sparser than the query: a gallery as dense as its probes has
every U above the cut and is screened whole.

The evaluation's rotation protocol and FAR/FRR sweep rank by screened totals
and then re-score exactly, through identify (without top_k) or total_si,
every record the bound cannot place; so their hits, misses, ties, FAR and
FRR are the exact kernel's.  When the bound leaves one record in first
place, the protocol takes it from the screen: an identify call on that
record alone would rank it first whatever its total.  It calls identify only
when two or more records remain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import SLOTS, FeatureTemplate, valid_amplitudes
from .harris import is_finite
from .store import BLOCK_ROWS, Gallery


@dataclass(frozen=True)
class Weights:
    w1: float = 1.0
    w2: float = 2.0
    w3: float = 4.0

    def __post_init__(self):
        if not all(is_finite(w) and w >= 0 for w in (self.w1, self.w2, self.w3)):
            raise ValueError("class weights must be finite and non-negative")
        # The largest total, and so the screen's bound, must stay finite.
        if not is_finite(SLOTS * (self.w1 + self.w2 + self.w3)):
            raise ValueError(f"class weights too large: {SLOTS} * (w1 + w2 + w3) overflows")


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

# The screen's error bound, per unit of class weight; see the module
# docstring for the derivation.
_U = 2.0 ** -53


def _gamma(k: int) -> float:
    return k * _U / (1 - k * _U)


_FFT_ERR = 4096 * _U
_TERM_ERR = 4 * np.pi * _gamma(4) + 8 * _U
_PLANE_ERR = 4 * np.pi * _gamma(3) + 8 * _U
_CLASS_ERR = (SLOTS * _TERM_ERR + _gamma(SLOTS - 1) * SLOTS * (1 + _TERM_ERR)
              + 4 * SLOTS * _PLANE_ERR * (1 + _PLANE_ERR)
              + (5 * _FFT_ERR + 4 * _gamma(4)) * SLOTS ** 1.5)
_BOUND_PER_WEIGHT = 2 * (_CLASS_ERR + 2 * _gamma(3) * SLOTS)


def _check_vector(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (SLOTS,):
        raise ValueError(f"{name} vector must have {SLOTS} slots")
    return v


def _check_amplitudes(v: np.ndarray, name: str) -> None:
    if not valid_amplitudes(v):
        raise ValueError(f"{name} amplitudes must be 0 or in (0, 360]")


def _slots(rows: np.ndarray) -> tuple:
    """The occupied slots of dense rows, an (n, classes, SLOTS) array, in the
    form store.Gallery.slots gives: values, positions within a row, and
    each slot's row."""
    flat = rows.reshape(-1)
    at = np.flatnonzero(flat)  # NaN included, for the checks
    row, positions = np.divmod(at, flat.size // len(rows))
    return flat[at], positions, row


def _run_profiles(slots, n: int, query: list) -> np.ndarray:
    """Profiles of one run of n enrolled rows, given as their slots (see
    store.Gallery.slots), shaped (classes, n, SLOTS)."""
    values, positions, rows = slots
    _check_amplitudes(values, "enrolled")
    classes = len(query)
    c, p = np.divmod(positions, SLOTS)
    # Pair (p, q) lands in its row and class's block of 360 bins, at the
    # shift aligning slot p with slot q: (q - p) % 360 - 1, the zero offset
    # aliased to 359.  With f the block start, that is f - p - 1 + q, plus
    # 360 when q <= p.
    base = (c * n + rows) * SLOTS - p - 1
    c[values == 0] = classes  # a stored -0.0 occupies no slot
    terms = []
    bins = []
    for cls, (q, q_values, q_inverse) in enumerate(query):
        # The class's slots keep their (row, p) order.
        at = c == cls
        # cos(2.0 * ((a - b) * pi / 180.0)) once per pair of distinct
        # amplitudes, then spread to every slot pair in row-major (p, q) order.
        a_values, a_inverse = np.unique(values[at], return_inverse=True)
        t = np.subtract.outer(a_values, q_values)
        t *= np.pi
        t /= 180.0
        t *= 2.0
        np.cos(t, out=t)
        terms.append(t.take(a_inverse, 0).take(q_inverse, 1).ravel())
        k = np.add.outer(base[at], q)
        np.add(k, SLOTS, out=k, where=np.greater_equal.outer(p[at], q))
        bins.append(k.ravel())
    profiles = np.bincount(np.concatenate(bins), weights=np.concatenate(terms),
                           minlength=classes * n * SLOTS)
    return profiles.reshape(classes, n, SLOTS)


def _profiles(slots, counts, query: np.ndarray):
    """Yield the profiles of `query` (classes, SLOTS) against enrolled rows
    0, 1, ..., as (classes, run length, SLOTS) blocks of consecutive rows.
    Row i has at most counts[i] occupied slots, and slots(run), run a slice
    of rows, gives theirs (see store.Gallery.slots)."""
    _check_amplitudes(query, "query")
    values, positions, _ = _slots(query[None])
    bounds = np.searchsorted(positions, np.arange(len(query) + 1) * SLOTS).tolist()
    q = positions % SLOTS
    query_classes = [(q[lo:hi], *np.unique(values[lo:hi], return_inverse=True))
                     for lo, hi in zip(bounds, bounds[1:])]
    widest = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    lo, cost = 0, 0
    for hi, r_cost in enumerate((np.asarray(counts) * widest + query.size).tolist()):
        if hi > lo and cost + r_cost > _PAIR_BUDGET:
            yield _run_profiles(slots(slice(lo, hi)), hi - lo, query_classes)
            lo, cost = hi, 0
        cost += r_cost
    yield _run_profiles(slots(slice(lo, len(counts))), len(counts) - lo, query_classes)


def sim_profile(enrolled: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Similarity over all cyclic shifts; index j holds shift phi = j + 1."""
    vin = _check_vector(enrolled, "enrolled")
    vout = _check_vector(query, "query")
    slots = _slots(vin[None, None])
    (profiles,) = _profiles(lambda run: slots, [len(slots[0])], vout[None])
    return profiles[0, 0]


def si_class(profile: np.ndarray) -> tuple[float, int]:
    """Profile maximum and the smallest shift attaining it, 1-based."""
    profile = np.asarray(profile, dtype=np.float64)
    if profile.shape != (SLOTS,):
        raise ValueError(f"profile must have {SLOTS} entries")
    j = int(np.argmax(profile))
    return float(profile[j]), j + 1


def _score(slots, counts, query: FeatureTemplate, weights: Weights | None) -> list[MatchScore]:
    """MatchScore of the query against every enrolled row (see _profiles), in order."""
    weights = weights or Weights()
    scores = []
    for profiles in _profiles(slots, counts, query.vectors):
        # Profiles are finite, so the maximum is the value at the argmax.
        si = profiles.max(axis=2)
        shifts = profiles.argmax(axis=2) + 1  # smallest shift wins ties
        totals = weights.w1 * si[0] + weights.w2 * si[1] + weights.w3 * si[2]
        for s1, s2, s3, total, b1, b2, b3 in zip(*si.tolist(), totals.tolist(), *shifts.tolist()):
            scores.append(MatchScore(si1=s1, si2=s2, si3=s3, total=total, best_shift=(b1, b2, b3)))
    return scores


def total_si(enrolled: FeatureTemplate, query: FeatureTemplate, weights: Weights | None = None) -> MatchScore:
    slots = _slots(enrolled.vectors[None])
    return _score(lambda run: slots, [len(slots[0])], query, weights)[0]


def identify(query: FeatureTemplate, gallery, weights: Weights | None = None,
             top_k: int | None = None) -> list[tuple[str, MatchScore]]:
    """Score the query against every record of a store.Gallery, or of the
    Gallery of an iterable of records, best first.

    Ordering is deterministic: descending total, ties by ascending
    subject_id.  With top_k, only the first top_k entries are returned, and
    only the records the FFT screen cannot rule out of them are scored
    exactly; the entries are those of the full ranking, bit for bit.
    Raises ValueError on an empty gallery or a top_k below 1, and
    store.DuplicateSubjectError on a repeated subject id.
    """
    gallery = gallery if isinstance(gallery, Gallery) else Gallery(gallery)
    if not gallery:
        raise ValueError("empty gallery")
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be at least 1")
    weights = weights or Weights()
    positions = np.arange(len(gallery))
    if top_k is not None and top_k < len(gallery):
        positions = _top_candidates(query, gallery, weights, top_k)
    ids = gallery.subject_ids
    scores = _score(lambda run: gallery.slots(positions[run]), gallery.class_counts()[positions].sum(axis=1),
                    query, weights)
    scored = [(ids[i], score) for i, score in zip(positions.tolist(), scores)]
    scored.sort(key=lambda item: (-item[1].total, item[0]))
    return scored[:top_k]


def verify(query: FeatureTemplate, enrolled, threshold: float, weights: Weights | None = None) -> tuple[bool, MatchScore]:
    """One-to-one check: accept when the total reaches the threshold."""
    if not (is_finite(threshold) and threshold >= 0):
        raise ValueError("threshold must be finite and non-negative")
    score = total_si(enrolled.template, query, weights)
    return score.total >= threshold, score


def _bound(weights: Weights) -> float:
    """The bound B on |screened - exact| of every total; see the module docstring."""
    return _BOUND_PER_WEIGHT * (weights.w1 + weights.w2 + weights.w3) + np.finfo(float).tiny


def _spectra(slots, n: int, name: str) -> np.ndarray:
    """Conjugated rfft of the cos 2a and sin 2a planes (0 on empty slots) of
    n rows given as their slots (see store.Gallery.slots): shape (2, 3, n,
    SLOTS // 2 + 1), the cos planes first."""
    values, positions, rows = slots
    _check_amplitudes(values, name)
    occupied = values != 0  # a stored -0.0 occupies no slot
    c, p = np.divmod(positions[occupied], SLOTS)
    at = (c * n + rows[occupied]) * SLOTS + p  # class-major
    angle = values[occupied] * (np.pi / 90.0)
    planes = np.zeros((2, 3, n, SLOTS))
    planes.reshape(2, -1)[:, at] = np.cos(angle), np.sin(angle)
    spectra = np.fft.rfft(planes, axis=-1)
    return np.conj(spectra, out=spectra)


def _query_spectra(query: FeatureTemplate) -> np.ndarray:
    """The rfft, not conjugated, of the query's planes: shape (2, 3, SLOTS //
    2 + 1), the cos planes first."""
    return np.conj(_spectra(_slots(query.vectors[None]), 1, "query")[:, :, 0])


def _screened_totals(cos, sin, query_spectra, weights: Weights, work) -> np.ndarray:
    """Screened totals of the records whose conjugated spectra are cos and
    sin, each (3, records, SLOTS // 2 + 1); work holds two (records, SLOTS //
    2 + 1) complex arrays that are overwritten."""
    q_cos, q_sin = query_spectra
    spectra, scratch = work
    si = np.empty((3, spectra.shape[0]))
    for c in range(3):
        np.multiply(cos[c], q_cos[c], out=spectra)
        np.multiply(sin[c], q_sin[c], out=scratch)
        spectra += scratch
        np.fft.irfft(spectra, n=SLOTS, axis=-1).max(axis=-1, out=si[c])
    return weights.w1 * si[0] + weights.w2 * si[1] + weights.w3 * si[2]


def _top_candidates(query: FeatureTemplate, gallery: Gallery, weights: Weights, k: int) -> np.ndarray:
    """The positions, ascending, of the gallery's records that the screen
    cannot rule out of identify's first k.  Records are screened BLOCK_ROWS
    at a time in descending order of their ceiling U (ties in record order)
    until the next record's U is below the cut S_k - 2B of the records
    screened so far; see the module docstring.  Nothing gallery-sized is
    built besides the slot counts, the ceilings and the screened totals."""
    bound = _bound(weights)
    m = np.minimum(gallery.class_counts(), np.count_nonzero(query.vectors, axis=1)).T
    ceiling = weights.w1 * m[0] + weights.w2 * m[1] + weights.w3 * m[2] + bound
    order = np.argsort(-ceiling, kind="stable")
    query_spectra = _query_spectra(query)
    work = np.empty((2, BLOCK_ROWS, SLOTS // 2 + 1), dtype=np.complex128)
    screened = np.empty(len(order))
    cut, end = -np.inf, 0
    # A NaN cut keeps every record, and so screens every one.
    while end < len(order) and not ceiling[order[end]] < cut:
        chunk = order[end:end + BLOCK_ROWS]
        cos, sin = _spectra(gallery.slots(chunk), len(chunk), "enrolled")
        screened[end:end + len(chunk)] = _screened_totals(cos, sin, query_spectra, weights,
                                                          work[:, :len(chunk)])
        end += len(chunk)
        if end >= k:
            cut = np.partition(screened[:end], -k)[-k] - 2 * bound
    return np.sort(order[:end][~(screened[:end] < cut)])


class GalleryScreen:
    """FFT screen of a store.Gallery that many queries are scored against.

    Built once per gallery: the conjugated rfft of every record's cos 2a and
    sin 2a planes.  totals() then gives every record's screened total and
    the bound B on its distance from the exact total; see the module
    docstring.  The screen decides nothing by itself.  totals() writes the
    screen's own work arrays, so a screen is not thread-safe: one screen
    serves one thread at a time.
    """

    def __init__(self, gallery: Gallery):
        # One C-contiguous row per record: a strided or padded layout slows totals().
        self._cos = np.empty((3, len(gallery), SLOTS // 2 + 1), dtype=np.complex128)
        self._sin = np.empty_like(self._cos)
        records = range(len(gallery))
        for lo in records[::BLOCK_ROWS]:
            chunk = slice(lo, lo + BLOCK_ROWS)
            self._cos[:, chunk], self._sin[:, chunk] = _spectra(gallery.slots(records[chunk]),
                                                                len(records[chunk]), "enrolled")
        # One class's products at a time, in arrays kept for every query:
        # products allocated per query were, in some heap layouts, returned
        # to the OS and faulted back in on every query.
        self._work = np.empty((2, *self._cos.shape[1:]), dtype=np.complex128)

    def totals(self, query: FeatureTemplate, weights: Weights | None = None) -> tuple[np.ndarray, float]:
        """(screened totals in record order, bound B on |screened - exact|)."""
        weights = weights or Weights()
        totals = _screened_totals(self._cos, self._sin, _query_spectra(query), weights, self._work)
        return totals, _bound(weights)
