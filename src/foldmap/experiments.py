"""Monte Carlo and exact experiments on the folding chain.

Reproducibility contract: every stochastic experiment takes a TrialPlan (or a
master seed) and reads its letters from that seed's grid (see
foldmap.process): trial t's j-th letter is cell (t, j), hashed on demand. A
uniform two-point dist reads one bit a letter, letter j of row t being
support[bit 63 - (j mod 64) of h[t, j // 64]], where h[t, c] is the full
hash of cell (t, c); every other dist reads one hash a letter, by integer
cuts. No (trials, n) matrix is ever built.

For a two-point dist the folds walk the state chains of foldmap._chain:
rate's trials always walk its exact chain (_stop_times), and _row_values
(point and backward folds, one value a row) chooses between the word tables
and the per-letter fold, which, as for every other dist, reads a letter
column at a time (process.letter_columns). Every path gives the same bytes.
The drivers here run such a fold of row keys over a plan's rows (_rows) and
build the reports; none of them reads a letter itself.

A run folds its rows in one loop, a block of at most _TRIAL_BLOCK rows at a
time (_blocks), which bounds block memory. Reports are byte-identical across
reruns and block sizes, and all aggregation is ordered by trial index.
Runtime measurements are carried on report objects but excluded from their
canonical serializations.

The sample-indexed one_step_invariance_report reads row 0 for its stationary
draws and row 1 for its letters, at cell = sample index (one
process.letter_run a block), and blocks its samples the same way.

rho_walk_audit walks the words of row 0, read by one process.word_run: bit
k, letter k of ThetaDist.two_point(alpha), is fold k, so its walk at a seed
folds the letters that simulate's trial 0 folds at that seed; its segment
picks are the uniform cells of row 1.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _chain
from .contfrac import contfrac_expand, convergents
from .errors import (PreconditionError, StructuralError, WindowError, as_int,
                     comparable)
from .orbit import (OrbitLabel, W_MAX, _check_alpha, _scan_window, alpha_targets,
                    build_graph_window, check_graph_window, rho_chart, window_values)
from .process import (ThetaDist, TrialPlan, _float_array, check_start, check_trials,
                      letter_run, substream_keys, uniform_cells, word_run)
from .serialize import canonical_json, rows_to_csv
from .stationary import PiecewiseLinearCDF, _check_points, _quantile, stationary_cdf

_TRIAL_BLOCK = 1 << 16    # cap on rows vectorized together (does not affect output)
# bounds the size of _chain._rate_automaton's chain, not a trial's letters
# (trials stop within a few thousand): scans at the least epsilon above 8/q_k
# found at most 4278 states for q_k <= 99, under _chain._WORD_STATES
_RATE_QK_CAP = 99
_MAX_LETTERS = 10 ** 7    # n: past the state cap, about 30 s of folds a trial
_MAX_WALK = 10 ** 6       # rho audit steps, segments: peaks 26.1 MB and 58.0 MB (tracemalloc)


class EmpiricalCDF:
    """Right-continuous step CDF of a finite sample."""

    def __init__(self, values):
        self._hold(np.sort(_float_array(values, "empirical CDF values").ravel()))

    @classmethod
    def _of_sorted(cls, values: np.ndarray) -> EmpiricalCDF:
        """The CDF of a sorted 1-d float array, held as it is, with no copy:
        the caller gives the array up."""
        cdf = cls.__new__(cls)
        cdf._hold(values)
        return cdf

    def _hold(self, arr: np.ndarray) -> None:
        if arr.size == 0:
            raise PreconditionError("empirical CDF needs a nonempty sample")
        # the sort puts -inf first and inf and NaN last
        if not (np.isfinite(arr[0]) and np.isfinite(arr[-1])):
            raise PreconditionError("empirical CDF needs finite values")
        self.values = arr
        self.values.flags.writeable = False

    @property
    def size(self) -> int:
        return self.values.size

    def evaluate(self, x):
        _check_points(x)  # NaN would sort last, and read 1
        return np.searchsorted(self.values, x, side="right") / self.size

    __call__ = evaluate


def _distinct_steps(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, counts) of a sorted sample: its distinct values, ascending,
    and counts[k], how many entries lie at or below the k-th of them
    (counts[0] = 0, so counts has one entry more).
    """
    counts = np.concatenate(([0], np.flatnonzero(values[1:] != values[:-1]) + 1,
                             [values.size]))
    return values[counts[1:] - 1], counts


def ks_distance(sample: EmpiricalCDF, reference) -> float:
    """Exact sup-distance between an empirical CDF and a reference CDF.

    reference may be a PiecewiseLinearCDF (one-sample statistic, evaluated at
    the jump points) or another EmpiricalCDF (two-sample). The one-sample
    statistic walks the sorted sample in blocks of _TRIAL_BLOCK values,
    through buffers allocated once, so its temporaries stay bounded: each
    value's gaps are the same floats as over the whole sample, and the
    largest of the block maxima is their maximum, so the result does not
    depend on the block size. Each block's CDF values are evaluated knot by
    knot (PiecewiseLinearCDF._evaluate_ascending: one searchsorted of the
    breakpoints into the block, one affine pass a piece), the floats
    reference.evaluate gives bit for bit. The two-sample
    statistic is the largest |F(t) - G(t)| over the jump points of both, and
    each step CDF is evaluated there from its distinct values alone: the
    count at or below t is the count at the largest distinct value <= t, the
    same integer a search over the whole sample gives, divided by the same
    size, so the result is bit for bit the one over the pooled samples. A
    sample of many ties (a chain on a few orbit values) searches only its
    distinct values.
    """
    xs = sample.values
    n = sample.size
    if isinstance(reference, PiecewiseLinearCDF):
        worst = -math.inf
        size = min(n, _TRIAL_BLOCK)
        ramp = np.arange(size + 1, dtype=float)
        fs, gap, jumps = np.empty(size), np.empty(size), np.empty(size + 1)
        for lo, k in _blocks(n):
            f = reference._evaluate_ascending(xs[lo:lo + k], fs[:k])
            # steps[i] = (lo + i) / n: floats hold the integers 0..n exactly,
            # so this is the same quotient as from the ints
            steps = np.add(ramp[:k + 1], lo, out=jumps[:k + 1])
            steps /= n
            above = np.max(np.subtract(steps[1:], f, out=gap[:k]))
            below = np.max(np.subtract(f, steps[:-1], out=gap[:k]))
            worst = max(worst, above, below)
        return float(worst)
    if isinstance(reference, EmpiricalCDF):
        (xa, ca), (xb, cb) = _distinct_steps(xs), _distinct_steps(reference.values)
        grid = np.concatenate([xa, xb])
        fa = ca[np.searchsorted(xa, grid, side="right")] / n
        fb = cb[np.searchsorted(xb, grid, side="right")] / reference.size
        return float(np.max(np.abs(fa - fb)))
    raise PreconditionError(f"unsupported reference type {type(reference).__name__}")


# ---- trial-blocked Monte Carlo helpers ------------------------------------


def _blocks(n_items: int) -> Iterator[tuple[int, int]]:
    """(start, count) of each block of a run over n_items items, in order:
    _TRIAL_BLOCK items a block, and the rest in the last."""
    for start in range(0, n_items, _TRIAL_BLOCK):
        yield start, min(_TRIAL_BLOCK, n_items - start)


def _rows(fold, plan: TrialPlan, first: int = 0) -> np.ndarray:
    """fold(row keys) over rows first .. first+plan.trials-1, a block at a
    time (_blocks), in row order."""
    return np.concatenate([fold(substream_keys(plan.master_seed, first + start, count))
                           for start, count in _blocks(plan.trials)])


def _check_count(count: int, name: str, most: int) -> None:
    """A count of letters, steps or segments: an integer in 0..most."""
    if as_int(count, name, 0) > most:
        raise PreconditionError(f"{name} must be <= {most}")


def _point_folds(dist: ThetaDist, x0: float, n: int, plan: TrialPlan,
                 first: int = 0, backward: bool = False, graph=None) -> np.ndarray:
    """x0 folded through n letters of rows first .. first+plan.trials-1.

    Forward applies cell 0 first; backward applies it last (outermost).
    graph is _chain._dist_graph of the point x0, or None to fold a letter
    at a time (see _chain._row_values); both give the same bytes.
    """
    return _rows(_chain._row_values(dist, (float(x0),) * 2, n, backward, graph),
                 plan, first)


def check_forward_values(x0: float, n: int, trials: int) -> None:
    """The preconditions of forward_values with a plan of `trials` trials,
    and of law_equality_report."""
    check_trials(trials)
    check_start(x0)
    _check_count(n, "n", _MAX_LETTERS)


def forward_values(dist: ThetaDist, x0: float, n: int, plan: TrialPlan) -> np.ndarray:
    """n-th forward iterate per trial, in trial order.

    Trial t folds x0 through cells (t, 0), ..., (t, n-1), in that order.
    """
    check_forward_values(x0, n, plan.trials)
    graph = _chain._dist_graph(dist, (float(x0),) * 2, n)
    return _point_folds(dist, x0, n, plan, graph=graph)


def ensemble_forward(dist: ThetaDist, x0: float, n: int, plan: TrialPlan) -> EmpiricalCDF:
    """Empirical law of the n-th forward iterate over plan.trials trajectories."""
    return EmpiricalCDF(forward_values(dist, x0, n, plan))


def backward_diam_ensemble(dist: ThetaDist, n: int, plan: TrialPlan) -> np.ndarray:
    """Exact lengths of the backward image of [0, b] after n letters per trial.

    Trial t's word is row t of the plan's grid, cell 0 outermost, so the word
    for a smaller n is a prefix of the word for a larger n under the same
    plan and the returned lengths are pointwise nonincreasing in n.
    """
    _check_count(n, "n", _MAX_LETTERS)
    interval = (0.0, dist.bound)
    diameters = _chain._row_values(dist, interval, n, True,
                                   _chain._dist_graph(dist, interval, n))
    return _rows(diameters, plan)


# ---- rate experiment -------------------------------------------------------


@dataclass
class RateReport:
    """Outcome of a backward-contraction rate run at one (q_k, epsilon)."""

    alpha: float
    k_index: int
    q_k: int
    epsilon: float
    n_steps: int
    trials: int
    success_count: int
    letters_used: list
    successes: list
    implied_c: float | None
    master_seed: int
    runtime_seconds: float  # excluded from canonical serializations

    @property
    def success_fraction(self) -> float:
        return self.success_count / self.trials

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "kind": "rate_report",
            "alpha": self.alpha,
            "k_index": self.k_index,
            "q_k": self.q_k,
            "epsilon": self.epsilon,
            "n_steps": self.n_steps,
            "trials": self.trials,
            "success_count": self.success_count,
            "success_fraction": self.success_fraction,
            "letters_used": self.letters_used,
            "successes": self.successes,
            "implied_c": self.implied_c,
            "master_seed": self.master_seed,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def to_csv(self) -> str:
        rows = zip(range(self.trials), self.successes, self.letters_used)
        return rows_to_csv(["trial", "success", "letters_used"], rows)


def _check_qk(q_k: int) -> None:
    """A finite q_k >= 2, so that log2 q_k > 0; rejects NaN as well."""
    if not 2 <= comparable(q_k, "q_k") < math.inf:
        raise PreconditionError("q_k must be finite and >= 2 (log2 q_k must be positive)")
    as_int(q_k, "q_k")


def rate_steps(q_k: int) -> int:
    """Letter budget ceil(8 * q_k^3 * log2(q_k)) of the rate bound; q_k >= 2."""
    _check_qk(q_k)
    try:
        return math.ceil(8 * int(q_k) ** 3 * math.log2(q_k))  # a numpy int would overflow
    except OverflowError:  # the float product, or its ceil, passes the float range
        raise PreconditionError(
            "q_k is too large: its letter budget passes the float range") from None


def check_rate(q_k: int, epsilon: float, trials: int) -> None:
    """The preconditions of rate_experiment at convergent denominator q_k."""
    check_trials(trials)
    _check_qk(q_k)
    if q_k > _RATE_QK_CAP:
        raise PreconditionError(f"q_k > {_RATE_QK_CAP} is beyond the desk-scale cap")
    if not 8.0 / q_k < comparable(epsilon, "epsilon", "a number") < math.inf:
        raise PreconditionError(f"epsilon must be finite and exceed 8/q_k = {8.0 / q_k}")


def rate_experiment(alpha: float, k_index: int, epsilon: float,
                    plan: TrialPlan) -> RateReport:
    """Monte Carlo check of the backward-contraction rate bound.

    Uses the two-point distribution {alpha, 1}. k_index selects the
    convergent denominator q_k of alpha, found from its first k_index + 1
    partial quotients; trial t folds [0, 1] through the cells (t, 0),
    (t, 1), ... of its row, cell 0 innermost, and succeeds when the exact
    diameter drops below epsilon within N = ceil(8 q_k^3 log2 q_k) letters.
    The diameter is nonincreasing as letters are added outside, so each
    trial stops at its first sub-epsilon diameter (_chain._stop_times,
    which says where interval_fold's rounded diameter may stop elsewhere);
    letters_used records that stopping point (or N on failure).
    """
    _check_alpha(alpha)
    as_int(k_index, "k_index")
    # the quotients up to k_index only: later convergents may pass the 128-bit guard
    quotients = contfrac_expand(alpha, k_index) if 0 <= k_index <= 40 else []
    if not 0 <= k_index < len(quotients):
        raise PreconditionError(f"k_index {k_index} out of range for this alpha")
    q_k = convergents(quotients)[k_index].q
    check_rate(q_k, epsilon, plan.trials)
    n_steps = rate_steps(q_k)
    t0 = time.perf_counter()
    stops = _rows(_chain._stop_times(alpha, epsilon, n_steps), plan)
    successes = (stops <= n_steps).tolist()
    letters = np.minimum(stops, n_steps).tolist()
    success_count = sum(successes)
    failures = plan.trials - success_count
    implied_c = (-epsilon * math.log(failures / plan.trials)) if failures else None
    return RateReport(alpha=alpha, k_index=k_index, q_k=q_k, epsilon=epsilon,
                      n_steps=n_steps, trials=plan.trials,
                      success_count=success_count, letters_used=letters,
                      successes=successes, implied_c=implied_c,
                      master_seed=plan.master_seed,
                      runtime_seconds=time.perf_counter() - t0)


# ---- exact walk oracle -----------------------------------------------------


def check_walk_confinement(n: int) -> None:
    """The precondition of walk_confinement_dp: n in 1..30."""
    if not 1 <= comparable(n, "n") <= 30:
        raise PreconditionError("n must lie in 1..30")
    as_int(n, "n")


def walk_confinement_dp(n: int, exact: bool = True):
    """Probability that a +-1 walk of length n^3 stays within n of its start.

    Confinement is inclusive: |S_i| <= n. The result is _walk_count(n) /
    2^(n^3), returned as a Fraction when exact else as a float, the count
    divided by the power of two once and correctly rounded.
    """
    check_walk_confinement(n)
    n = int(n)  # a numpy int would overflow in _walk_count
    count, paths = _walk_count(n), 1 << n ** 3
    return Fraction(count, paths) if exact else count / paths


def _walk_count(n: int) -> int:
    """How many of the 2^h paths of h = n^3 steps of a +-1 walk stay within n
    of their start, for an int n in 1..30.

    The walk counts as absorbed at the barriers -(n+1) and n+1, and the
    reflection principle for two barriers (Feller, vol. 1, ch. XIV) counts
    the unabsorbed paths as a signed sum over the free paths with j
    up-steps, which end at 2j - h:

        count = sum_j w((2j - h) mod (4n+4)) C(h, j),

    with w(r) = +1 on [0, n] and [3n+4, 4n+3] (endpoints inside the barriers,
    up to whole periods 4n+4), w(r) = -1 on [n+2, 3n+2] (their mirror images
    in the barrier n+1) and w(r) = 0 on the barriers n+1 and 3n+3. Terms j
    and h - j share their weight, so only j < h/2 is summed, and doubled; for
    even h the middle term j = h/2 ends at 0 and adds C(h, h/2) once.

    The sum runs two weight periods at a time: j -> w((2j - h) mod (4n+4))
    has period 2n+2, so the blocks of 4n+4 consecutive j that start at a = 0,
    4n+4, 8n+8, ... all see the same weights w_0, w_1, .... Within a block
    C(h, a+i+1) / C(h, a+i) = (h-a-i) / (a+i+1), so the block's sum is
    C(h, a) num / den, where Horner's rule from the block's end builds num
    and den from at most 4n+4 factors below h < 2^15 (den first, so that a
    weight in {-1, 0, 1} adds den, subtracts it or skips), and C(h, a+4n+4)
    is C(h, a) times step / q, two products of 4n+4 consecutive integers. A
    product of k consecutive integers is a multiple of k!, so the two sides
    of each ratio share many factors: both are divided by their gcd before
    the ratio is applied to the big C(h, a) by one multiplication and one
    exact floor division. At n = 30 that is 109 blocks, so 218 products of a
    27,000-bit integer by a medium one instead of 13,500 by a one-limb one,
    and the gcds cut the summed divisor bits from 164,467 to 81,835 for the
    block sums and from 165,821 to 65,936 for the steps.
    """
    h = n ** 3
    period = 4 * n + 4  # the period of r, and the block: two periods of j
    weights = []
    for i in range(period):
        r = (2 * i - h) % period
        weights.append(1 if r <= n or r >= 3 * n + 4
                       else 0 if r in (n + 1, 3 * n + 3) else -1)
    half = (h + 1) // 2  # the j < h/2
    total = 0  # sum of w C(h, j) over the blocks done
    c = 1  # C(h, a) at the start a of the block
    for a in range(0, half, period):
        size = min(period, half - a)
        # sum_i w_i C(h, a+i) / C(h, a) = num / den
        num, den = weights[size - 1], 1
        for i in range(size - 2, -1, -1):
            den *= a + i + 1
            num *= h - a - i
            if weights[i] > 0:
                num += den
            elif weights[i] < 0:
                num -= den
        g = math.gcd(num, den)
        total += c * (num // g) // (den // g)
        # C(h, a+size) / C(h, a) = step / q
        step, q = math.prod(range(h - a - size + 1, h - a + 1)), den * (a + size)
        g = math.gcd(step, q)
        c = c * (step // g) // (q // g)
    count = 2 * total
    if h % 2 == 0:
        count += c  # C(h, h/2): the last block ended at j = h/2
    return count


# ---- rho walk audit --------------------------------------------------------


def check_rho_walk(alpha: float, x0: float, steps: int, segments: int,
                   window: int | None, q_values=()) -> None:
    """The preconditions of rho_walk_audit: q_values is a sequence (the
    audit reads it again) of integers q in 1.._MAX_WALK (a walk of at most
    _MAX_WALK steps spans at most _MAX_WALK rho levels, so a larger q checks
    no pair), and a given window must suit build_graph_window."""
    _check_alpha(alpha)
    if not 0.0 < comparable(x0, "x0", "a number") < min(alpha, 1.0 - alpha):
        raise PreconditionError("x0 must satisfy 0 < x0 < min(alpha, 1-alpha)")
    _check_count(steps, "steps", _MAX_WALK)
    _check_count(segments, "segments", _MAX_WALK)
    try:
        qs = list(q_values)
    except TypeError:  # a bare number or None
        qs = None
    if qs is None or isinstance(q_values, Iterator):
        raise PreconditionError("q_values must be a sequence of integers")
    for q in qs:
        if as_int(q, "q_values", 1) > _MAX_WALK:
            raise PreconditionError(f"q_values must be <= {_MAX_WALK}")
    if window is not None:
        check_graph_window(alpha, x0, window)


_WALK_WINDOW = 64  # the label walk's first window; it doubles as the walk needs


def _move_window(index: np.ndarray, w: int, to: int) -> np.ndarray:
    """Move flat indices block*m + n + w of window w, in place, into window to.

    Every label must have |n| <= to; to may be smaller than w.
    """
    index += index // (2 * w + 1) * (2 * (to - w)) + (to - w)
    return index


def _label_walk(alpha: float, x0: float, words: np.ndarray, n: int):
    """(path, w): the label walk from (0, +1), n folds of the 8-fold words.

    words holds at least ceil(n / 8) bit-rule words of
    ThetaDist.two_point(alpha) (process.word_run): fold 8j + i is bit 7 - i
    of words[j], a bit of 1 a fold at 1 (support[1]), a bit of 0 one at
    alpha, applied as orbit.apply_theta_label does; the bits past n are set
    to 1, folds that never leave the window. path holds the flat vertex
    indices of the walk in the orbit window |n| <= w it ends in (see
    OrbitGraphWindow), as int64. Each window gets the one-fold successor
    table of its 2m vertices (m = 2w+1) and a sink, 2m: bit 0 takes the
    ladder rule's alpha target (alpha_targets), bit 1 the rung 2m-1-i, and
    the alpha image of n = -w, which leaves the window, is the sink. Its
    8-fold table (_chain._word_table, the table the two-point folds walk)
    takes the walk one lookup a word, writing each word's last vertex to
    path[8j + 8], until a word reaches the sink; seven vectorized
    single-fold gathers then fill in the vertices within the words walked.
    The word that reached the sink is walked again from its first vertex,
    which lies in the window, once the window has doubled, up to W_MAX, and
    the walk so far has moved into it in place (_move_window). A walk that
    would pass |n| = W_MAX raises WindowError. The word table holds 256
    int32 entries, 1 KB, a vertex: 4.2 MB at w = 1024, the last window of
    10^6 folds at seed 17 (reach 951).
    """
    letters = words[:(n + 7) // 8].copy()  # the padding is set in the copy
    if n % 8:
        letters[-1] |= 0xFF >> n % 8
    words = letters.tobytes()  # iterates as ints
    path = np.empty(8 * len(words) + 1, dtype=np.int64)  # the padded folds too
    w = min(_WALK_WINDOW, W_MAX)
    path[0] = w  # the flat index of (0, +1)
    j = 0  # words walked: path[:8j + 1] is the walk so far, in window w
    while True:
        m = 2 * w + 1
        sink = 2 * m
        succ = np.full((sink + 1, 2), sink, dtype=np.int32)
        alpha_next = alpha_targets(window_values(alpha, x0, w), alpha, w)
        alpha_next[::m] = sink
        succ[:sink, 0] = alpha_next
        succ[:sink, 1] = np.arange(sink - 1, -1, -1)
        table = memoryview(_chain._word_table(succ, 8))  # 256 times the next vertex
        stop = 256 * sink
        ends = memoryview(path[8 * j + 8::8])  # 256 times each word's last vertex
        at = 256 * int(path[8 * j])
        walked = len(words) - j  # the words walked in this window
        for k, b in enumerate(words[j:]):
            at = table[at + b]
            if at == stop:
                walked = k
                break
            ends[k] = at
        del table, ends  # so the next window's table is not built beside this one
        block = path[8 * j:8 * (j + walked) + 1]
        block[8::8] >>= 8
        rows = block[:-1].reshape(walked, 8)  # the vertices before each fold of a word
        folds = np.unpackbits(letters[j:j + walked]).reshape(walked, 8)
        flat = succ.ravel()  # flat[2 i + b]: the vertex after fold b from vertex i
        vertex = rows[:, 0]
        for r in range(1, 8):
            vertex = flat.take(2 * vertex + folds[:, r - 1])
            rows[:, r] = vertex
        j += walked
        if j == len(words):
            return path[:n + 1], w
        if w == W_MAX:
            # one fold changes |n| by at most 1, so the walk leaves at W_MAX + 1
            raise WindowError(f"walk reached |n| = {W_MAX + 1} > {W_MAX}")
        grown = min(2 * w, W_MAX)
        _move_window(path[:8 * j + 1], w, grown)
        w = grown


def rho_walk_audit(alpha: float, x0: float, steps: int, plan: TrialPlan,
                   q_values=(7, 17), segments: int = 1000,
                   window: int | None = None) -> dict:
    """Simulate a theta-walk on orbit labels and audit its rho coordinate.

    Reports the fraction of +1 rho increments (the walk is a simple +-1 walk,
    so the fraction should be near 1/2) and, for each q in q_values, checks
    sampled point pairs whose rho separation is at least 2q: some graph
    vertex at a strictly intermediate rho level must have value below
    3/(2q). Violations are counted; the underlying claim guarantees zero.

    The label path is simulated first, and the chart is taken on the graph of
    window min(window, reach + 4), where reach is the path's largest |n|
    (reach + 4 when window is None): a level strictly between two path points
    is a level the path visits, and the other vertex of that level sits one
    position away, so every level the audit reads is the same as on the whole
    window. A caller-provided window that the path escapes raises
    WindowError; its values are scanned for class ties all the same, so it
    raises ClassBoundaryError wherever build_graph_window would.

    Fold k is bit k of row 0's words, read by process.word_run: letter k of
    row 0 of ThetaDist.two_point(alpha), the letter simulate's trial 0 folds
    at its k-th step under the same seed. Pair s takes its path indices
    floor(u (steps + 1)) from cells (1, s) and (1, segments + s).
    """
    check_rho_walk(alpha, x0, steps, segments, window, q_values)
    base = {"schema": 1, "kind": "rho_walk_audit", "alpha": alpha, "x0": x0,
            "steps": steps, "master_seed": plan.master_seed}
    if steps == 0:
        return {**base, "plus_fraction": None, "window": 0, "rho_range": [0, 0],
                "farsmall": [], "farsmall_violations": 0, "segments_checked": 0}

    rows = substream_keys(plan.master_seed, 0, 2)
    flat, w = _label_walk(alpha, x0, word_run(rows[:1], 0, (steps + 7) // 8)[0], steps)
    reach = int(np.max(np.abs(flat % (2 * w + 1) - w)))  # the largest |n|
    if window is None:
        window = reach + 4
    elif reach > window:
        raise WindowError(f"walk reached |n| = {reach} > window {window}; enlarge")
    else:
        _scan_window(alpha, x0, window, keep=False)
    graph = build_graph_window(alpha, x0, min(window, reach + 4))
    chart = rho_chart(graph, OrbitLabel(0, 1))

    rho_path = chart.rho[_move_window(flat, w, graph.window)]
    increments = np.diff(rho_path)
    plus = increments == 1
    if not (plus | (increments == -1)).all():
        raise StructuralError("rho increment with |step| != 1; chart is inconsistent")
    plus_fraction = float(np.mean(plus))

    cells = uniform_cells(rows[1:], np.arange(2 * segments))
    cells *= steps + 1
    # floor(u (steps + 1)), written as int64 over the cells it is taken from
    picks = np.floor(cells, out=cells.view(np.int64), casting="unsafe")
    i_end, j_end = rho_path[picks[:segments]], rho_path[picks[segments:]]
    low = np.minimum(i_end, j_end)
    high = np.maximum(i_end, j_end, out=i_end)
    span = np.subtract(high, low, out=j_end)  # j_end is not read again
    # levels low+1 .. high-1 strictly between the ends, as indices into level_min
    first = np.add(low, 1 - chart.level_lo, out=low)
    stop = np.subtract(high, chart.level_lo, out=high)
    farsmall = []
    total_violations = 0
    checked_total = 0
    for q in q_values:
        bound = 3.0 / (2.0 * q)
        # small_before[k]: how many of the levels before index k are below bound
        small_before = np.concatenate(([0], np.cumsum(chart.level_min < bound)))
        far = span >= 2 * q
        checked = int(np.count_nonzero(far))
        violations = int(np.count_nonzero(
            far & (small_before[stop] <= small_before[first])))
        farsmall.append({"q": int(q), "bound": bound,
                         "segments_checked": checked, "violations": violations})
        total_violations += violations
        checked_total += checked
    return {**base, "plus_fraction": plus_fraction, "window": int(window),
            "rho_range": [int(rho_path.min()), int(rho_path.max())],
            "farsmall": farsmall, "farsmall_violations": total_violations,
            "segments_checked": checked_total}


# ---- distribution-level reports -------------------------------------------


def one_step_invariance_report(dist: ThetaDist, n_samples: int,
                               master_seed: int) -> dict:
    """Draw stationary samples, apply one random fold, measure KS to the law.

    Sample-indexed: sample i takes its stationary draw from cell (0, i), the
    quantile of that uniform, and its fold letter from cell (1, i), read by
    process.letter_run, so output is independent of block size.

    Each block writes its quantiles, then its folded values, into its own
    slice of one sample buffer, which is then sorted in place and measured
    in blocks (see ks_distance), so the report holds about one sample of
    floats; the quantile overwrites the block's uniform cells as it goes.
    """
    check_trials(n_samples, "n_samples")
    cdf = stationary_cdf(dist)
    keys = substream_keys(master_seed, 0, 2)
    stepped = np.empty(n_samples)
    for start, count in _blocks(n_samples):
        out = stepped[start:start + count]
        # the cells are this block's own, so the quantile may overwrite them
        u = uniform_cells(keys[:1], np.arange(start, start + count))
        _quantile(cdf, u, out, u)
        theta = letter_run(dist, keys[1:], start, count)[0]
        np.abs(np.subtract(theta, out, out=out), out=out)
    stepped.sort()
    return {"schema": 1, "kind": "one_step_invariance", "n_samples": n_samples,
            "master_seed": master_seed,
            "support": dist.support.tolist(), "weights": dist.weights.tolist(),
            "ks_distance": ks_distance(EmpiricalCDF._of_sorted(stepped), cdf)}


def law_equality_report(dist: ThetaDist, x0: float, n: int, trials: int,
                        master_seed: int) -> dict:
    """Two-sample KS between forward and backward n-step values at x0.

    Forward trial t folds row t with cell 0 innermost; backward trial t
    folds row trials + t with cell 0 outermost, so the two ensembles are
    independent.
    """
    check_forward_values(x0, n, trials)
    plan = TrialPlan(master_seed, trials)
    graph = _chain._dist_graph(dist, (float(x0),) * 2, n)  # both directions walk it
    fwd = _point_folds(dist, x0, n, plan, graph=graph)
    bwd = _point_folds(dist, x0, n, plan, first=trials, backward=True, graph=graph)
    ks = ks_distance(EmpiricalCDF(fwd), EmpiricalCDF(bwd))
    return {"schema": 1, "kind": "law_equality", "x0": x0, "n": n,
            "trials": trials, "master_seed": master_seed, "ks_distance": ks}
