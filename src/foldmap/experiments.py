"""Monte Carlo and exact experiments on the folding chain.

Reproducibility contract: every stochastic experiment takes a TrialPlan (or a
master seed) and reads its letters from that seed's uniform grid (see
foldmap.process): trial t's j-th letter is cell (t, j), hashed on demand.
forward_values, law_equality_report and backward_diam_ensemble fold one
letter column of a block of trials at a time, in the order the fold consumes
it, in place into the block's own arrays, so no (trials, n) matrix is ever
built. process.letter_columns reads the letters from the hashed integers (a
top-bit select for a uniform two-point dist, exact integer cuts otherwise)
and hashes a tile of up to TILE_CELLS cells, several consecutive columns of
a short block, per numpy call. rate_experiment reads its chunks of columns
through the same kernel, process.letter_cells, and both fold with the
six-pass fold_interval_arrays.

Workers are threads, and numpy does the heavy lifting, so a thread pays only
when its block is long enough that each numpy call outlasts the hand-over of
the interpreter lock: from about 2^15 rows. The workers argument (1..64) is
therefore an upper bound. A run of m rows uses at most m // 2^15 threads, so
every block of a threaded run holds at least 2^15 rows, and it splits its
rows into equal blocks (up to one row), as many as it has threads, or more
where that would pass the cap of _TRIAL_BLOCK rows that bounds block memory.
rate_experiment hashes 16 or more columns of a block in one call, so its
threads pay from 2^13 rows, and that is its floor. Reports are
byte-identical across reruns, block sizes and worker counts, and all
aggregation is ordered by trial index, never by completion order. Runtime
measurements are carried on report objects but excluded from their
canonical serializations.

The sample-indexed one_step_invariance_report reads row 0 for its stationary
draws and row 1 for its letters, at cell = sample index, and blocks its
samples the same way.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .contfrac import contfrac_expand, convergents
from .errors import PreconditionError, StructuralError, WindowError
from .orbit import (OrbitLabel, W_MAX, build_graph_window, check_graph_window,
                    rho_chart)
from .process import (TILE_CELLS, ThetaDist, TrialPlan, check_trials,
                      fold_interval_arrays, letter_cells, letter_columns, substream_keys,
                      uniform_cells)
from .serialize import canonical_json, rows_to_csv
from .stationary import PiecewiseLinearCDF, stationary_cdf, stationary_quantile

_SAMPLE_BLOCK = 1 << 16   # cap on samples vectorized together (does not affect output)
_TRIAL_BLOCK = 1 << 16    # cap on trials vectorized together (does not affect output)
_MAX_WORKERS = 64         # threads one run may use
_THREAD_ROWS = 1 << 15    # fewest rows a block needs to be worth a thread
_RATE_THREAD_ROWS = 1 << 13  # the same for rate, which hashes 16+ columns a call
_RATE_QK_CAP = 99         # keeps N below ~5.2e7 letters per trial


class EmpiricalCDF:
    """Right-continuous step CDF of a finite sample."""

    def __init__(self, values):
        arr = np.sort(np.asarray(values, dtype=float).ravel())
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
    the jump points) or another EmpiricalCDF (two-sample). The two-sample
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
        f = reference.evaluate(xs)
        # steps[i] = i / n: floats hold the integers 0..n exactly, so this
        # is the same quotient as from the ints, with no int array built
        steps = np.arange(n + 1, dtype=float)
        steps /= n
        gap = np.subtract(steps[1:], f)
        above = np.max(gap)
        below = np.max(np.subtract(f, steps[:-1], out=gap))
        return float(max(above, below))
    if isinstance(reference, EmpiricalCDF):
        (xa, ca), (xb, cb) = _distinct_steps(xs), _distinct_steps(reference.values)
        grid = np.concatenate([xa, xb])
        fa = ca[np.searchsorted(xa, grid, side="right")] / n
        fb = cb[np.searchsorted(xb, grid, side="right")] / reference.size
        return float(np.max(np.abs(fa - fb)))
    raise PreconditionError(f"unsupported reference type {type(reference).__name__}")


# ---- trial-blocked Monte Carlo helpers ------------------------------------


def _block_plan(n_items: int, cap: int, workers: int,
                thread_rows: int = _THREAD_ROWS) -> tuple[int, list]:
    """(threads, [(start, count), ...]) of a blocked run over n_items items.

    A thread is started only for a block of at least thread_rows items, so
    the run uses min(workers, n_items // thread_rows) threads, and at least
    one. The items split into the fewest blocks that number at least the
    threads and hold at most `cap` items each, with counts that differ by at
    most one. So every thread gets work, every block of a threaded run holds
    at least thread_rows items, and the block buffers stay bounded.
    """
    threads = max(1, min(workers, n_items // thread_rows))
    blocks = max(threads, -(-n_items // cap))
    ends = [n_items * k // blocks for k in range(blocks + 1)]
    return threads, [(s, e - s) for s, e in zip(ends, ends[1:])]


def _run_blocks(worker, n_items: int, cap: int, workers: int,
                thread_rows: int = _THREAD_ROWS) -> list:
    """Apply worker(start, count) over the blocks of _block_plan, in block order.

    workers (1..64) bounds the threads, and a thread needs a block of at
    least thread_rows items; results never depend on the plan.
    """
    check_workers(workers)
    threads, tasks = _block_plan(n_items, cap, workers, thread_rows)
    if threads == 1:
        return [worker(s, c) for s, c in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda t: worker(*t), tasks))


def check_workers(workers: int) -> None:
    """The thread count of a blocked run must lie in 1..64."""
    if not 1 <= workers <= _MAX_WORKERS:
        raise PreconditionError(f"workers must lie in 1..{_MAX_WORKERS}")


def _check_start(x0: float):
    if not 0.0 <= x0 < math.inf:
        raise PreconditionError("x0 must be finite and >= 0")


def _point_folds(dist: ThetaDist, x0: float, n: int, plan: TrialPlan,
                 workers: int, first: int = 0, backward: bool = False) -> np.ndarray:
    """x0 folded through n letters of rows first .. first+plan.trials-1.

    Forward applies cell 0 first; backward applies it last (outermost).
    """
    steps = range(n - 1, -1, -1) if backward else range(n)

    def worker(start, count):
        keys = substream_keys(plan.master_seed, first + start, count)
        x = np.full(count, float(x0))
        for theta in letter_columns(dist, keys, steps):
            np.abs(np.subtract(theta, x, out=x), out=x)
        return x

    return np.concatenate(_run_blocks(worker, plan.trials, _TRIAL_BLOCK, workers))


def check_forward_values(x0: float, n: int, trials: int, workers: int) -> None:
    """The preconditions of forward_values with a plan of `trials` trials."""
    check_trials(trials)
    _check_start(x0)
    if n < 0:
        raise PreconditionError("n must be >= 0")
    check_workers(workers)


def forward_values(dist: ThetaDist, x0: float, n: int, plan: TrialPlan,
                   workers: int = 1) -> np.ndarray:
    """n-th forward iterate per trial, in trial order.

    Trial t folds x0 through cells (t, 0), ..., (t, n-1), in that order.
    """
    check_forward_values(x0, n, plan.trials, workers)
    return _point_folds(dist, x0, n, plan, workers)


def ensemble_forward(dist: ThetaDist, x0: float, n: int, plan: TrialPlan,
                     workers: int = 1) -> EmpiricalCDF:
    """Empirical law of the n-th forward iterate over plan.trials trajectories."""
    return EmpiricalCDF(forward_values(dist, x0, n, plan, workers=workers))


def backward_diam_ensemble(dist: ThetaDist, n: int, plan: TrialPlan,
                           workers: int = 1) -> np.ndarray:
    """Exact lengths of the backward image of [0, b] after n letters per trial.

    Trial t's word is row t of the plan's grid, cell 0 outermost, so the word
    for a smaller n is a prefix of the word for a larger n under the same
    plan and the returned lengths are pointwise nonincreasing in n.
    """
    if n < 0:
        raise PreconditionError("n must be >= 0")
    b = dist.bound

    def worker(start, count):
        keys = substream_keys(plan.master_seed, start, count)
        lo = np.zeros(count)
        hi = np.full(count, b)
        scratch = np.empty(count), np.empty(count)
        for theta in letter_columns(dist, keys, range(n - 1, -1, -1)):  # newest innermost
            fold_interval_arrays(theta, lo, hi, out=(lo, hi), scratch=scratch)
        return hi - lo

    parts = _run_blocks(worker, plan.trials, _TRIAL_BLOCK, workers)
    return np.concatenate(parts)


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


def rate_steps(q_k: int) -> int:
    """Letter budget ceil(8 * q_k^3 * log2(q_k)) of the rate bound."""
    return math.ceil(8 * q_k ** 3 * math.log2(q_k))


def check_rate(q_k: int, epsilon: float, trials: int, workers: int) -> None:
    """The preconditions of rate_experiment at convergent denominator q_k."""
    check_trials(trials)
    if q_k < 2:
        raise PreconditionError("q_k must be >= 2 (log2 q_k must be positive)")
    if q_k > _RATE_QK_CAP:
        raise PreconditionError(f"q_k > {_RATE_QK_CAP} is beyond the desk-scale cap")
    if not 8.0 / q_k < epsilon < math.inf:
        raise PreconditionError(f"epsilon must be finite and exceed 8/q_k = {8.0 / q_k}")
    check_workers(workers)


def rate_experiment(alpha: float, k_index: int, epsilon: float,
                    plan: TrialPlan, workers: int = 1) -> RateReport:
    """Monte Carlo check of the backward-contraction rate bound.

    Uses the two-point distribution {alpha, 1}. k_index selects the
    convergent denominator q_k of alpha; trial t folds [0, 1] through the
    cells (t, 0), (t, 1), ... of its row, cell 0 innermost, and succeeds when
    the exact diameter drops below epsilon within N = ceil(8 q_k^3 log2 q_k)
    letters. The diameter is nonincreasing as letters are added outside, so
    each trial stops at its first sub-epsilon diameter; letters_used records
    that stopping point (or N on failure). Only the cells a trial folds are
    hashed, read in chunks that grow with the letters used so far: at least
    16 letters a trial, and beyond that at most TILE_CELLS cells. workers
    bounds the threads, and a thread needs a block of at least 2^13 trials.
    """
    qs = convergents(contfrac_expand(alpha, 40))
    if not 0 <= k_index < len(qs):
        raise PreconditionError(f"k_index {k_index} out of range for this alpha")
    q_k = qs[k_index].q
    check_rate(q_k, epsilon, plan.trials, workers)
    n_steps = rate_steps(q_k)
    dist = ThetaDist.two_point(alpha)
    t0 = time.perf_counter()

    def worker(start, count):
        keys = substream_keys(plan.master_seed, start, count)
        success = np.full(count, 1.0 < epsilon)  # [0, 1] itself is short enough
        used = np.where(success, 0, n_steps)
        live = np.flatnonzero(~success)  # block positions still folding
        lo, hi = np.zeros(live.size), np.ones(live.size)
        spare = np.empty(live.size), np.empty(live.size)  # fold scratch, prefixes in use
        j = 0  # letters applied to every live trial
        while live.size and j < n_steps:
            width = min(n_steps - j, max(16, min(j, TILE_CELLS // live.size)))
            thetas = letter_cells(dist, keys[live], np.arange(j, j + width)[:, None])
            diam = np.empty_like(thetas)
            scratch = spare[0][:live.size], spare[1][:live.size]
            for i in range(width):
                fold_interval_arrays(thetas[i], lo, hi, out=(lo, hi), scratch=scratch)
                np.subtract(hi, lo, out=diam[i])
            below = diam < epsilon
            hit = below.any(axis=0)
            success[live[hit]] = True
            used[live[hit]] = j + 1 + below.argmax(axis=0)[hit]
            live, lo, hi = live[~hit], lo[~hit], hi[~hit]
            j += width
        return success, used

    parts = _run_blocks(worker, plan.trials, _TRIAL_BLOCK, workers, _RATE_THREAD_ROWS)
    successes = np.concatenate([s for s, _ in parts]).tolist()
    letters = np.concatenate([u for _, u in parts]).tolist()
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
    if not 1 <= n <= 30:
        raise PreconditionError("n must lie in 1..30")


def walk_confinement_dp(n: int, exact: bool = True):
    """Probability that a +-1 walk of length n^3 stays within n of its start.

    Confinement is inclusive: |S_i| <= n. The walk counts as absorbed at the
    barriers -(n+1) and n+1, and the reflection principle for two barriers
    (Feller, vol. 1, ch. XIV) counts the unabsorbed paths of h = n^3 steps as
    a signed sum over the free paths with j up-steps, which end at 2j - h:

        count = sum_j w((2j - h) mod (4n+4)) C(h, j),

    with w(r) = +1 on [0, n] and [3n+4, 4n+3] (endpoints inside the barriers,
    up to whole periods 4n+4), w(r) = -1 on [n+2, 3n+2] (their mirror images
    in the barrier n+1) and w(r) = 0 on the barriers n+1 and 3n+3. Terms j
    and h - j share their weight, so only j < h/2 is summed, and doubled; for
    even h the middle term j = h/2 ends at 0 and adds C(h, h/2) once.

    The sum runs one weight period at a time: j -> w((2j - h) mod (4n+4)) has
    period 2n+2, so the blocks of 2n+2 consecutive j that start at a = 0,
    2n+2, 4n+4, ... all see the same weights w_0, w_1, .... Within a block
    C(h, a+i+1) / C(h, a+i) = (h-a-i) / (a+i+1), so the block's sum is
    C(h, a) num / den, where Horner's rule from the block's end builds num
    and den from at most 2n+2 factors below h < 2^15, and C(h, a+2n+2) is
    C(h, a) times the ratio of two such products. Each ratio is applied to
    the big C(h, a) by one multiplication and one exact floor division: at
    n = 30 that is 218 blocks, so 436 products of a 27,000-bit integer by a
    medium one instead of 13,500 by a one-limb one. The result is
    count / 2^h, returned as a Fraction when exact else as a float.
    """
    check_walk_confinement(n)
    h = n ** 3
    period = 4 * n + 4
    block = 2 * n + 2
    weights = []
    for i in range(block):
        r = (2 * i - h) % period
        weights.append(1 if r <= n or r >= 3 * n + 4
                       else 0 if r in (n + 1, 3 * n + 3) else -1)
    half = (h + 1) // 2  # the j < h/2
    total = 0  # sum of w C(h, j) over the blocks done
    c = 1  # C(h, a) at the start a of the block
    for a in range(0, half, block):
        size = min(block, half - a)
        # sum_i w_i C(h, a+i) / C(h, a) = num / den
        num, den = weights[size - 1], 1
        for i in range(size - 2, -1, -1):
            num = weights[i] * den * (a + i + 1) + (h - a - i) * num
            den *= a + i + 1
        total += c * num // den
        c = c * math.prod(range(h - a - size + 1, h - a + 1)) \
            // math.prod(range(a + 1, a + size + 1))
    count = 2 * total
    if h % 2 == 0:
        count += c  # C(h, h/2): the last block ended at j = h/2
    p = Fraction(count, 2 ** h)
    return p if exact else float(p)


# ---- rho walk audit --------------------------------------------------------


def check_rho_walk(alpha: float, x0: float, steps: int, segments: int,
                   window: int | None) -> None:
    """The preconditions of rho_walk_audit; a given window must suit build_graph_window."""
    if not 0.0 < x0 < min(alpha, 1.0 - alpha):
        raise PreconditionError("x0 must satisfy 0 < x0 < min(alpha, 1-alpha)")
    if steps < 0:
        raise PreconditionError("steps must be >= 0")
    if segments < 0:
        raise PreconditionError("segments must be >= 0")
    if window is not None:
        check_graph_window(x0, window)


def _label_walk(alpha: float, x0: float, u: np.ndarray):
    """(n, eps) arrays of the label walk from (0, +1), one fold per uniform.

    Fold k is at alpha when u[k] < 1/2 and at 1 otherwise, applied as
    orbit.apply_theta_label does but on plain ints: the full fold negates the
    label, the alpha fold shifts n down when the value <n*alpha + eps*x0>
    clears alpha and otherwise folds through 0.
    """
    n, e = 0, 1
    ns, es = [n], [e]
    for at_alpha in (u < 0.5).tolist():
        if not at_alpha:
            n, e = -n, -e
        elif (n * alpha + e * x0) % 1.0 >= alpha:
            n -= 1
        else:
            n, e = 1 - n, -e
        ns.append(n)
        es.append(e)
    return np.array(ns, dtype=np.int64), np.array(es, dtype=np.int64)


def rho_walk_audit(alpha: float, x0: float, steps: int, plan: TrialPlan,
                   q_values=(7, 17), segments: int = 1000,
                   window: int | None = None) -> dict:
    """Simulate a theta-walk on orbit labels and audit its rho coordinate.

    Reports the fraction of +1 rho increments (the walk is a simple +-1 walk,
    so the fraction should be near 1/2) and, for each q in q_values, checks
    sampled point pairs whose rho separation is at least 2q: some graph
    vertex at a strictly intermediate rho level must have value below
    3/(2q). Violations are counted; the underlying claim guarantees zero.

    The label path is simulated first; when window is None the graph is built
    just large enough to contain it. A caller-provided window that the path
    escapes raises WindowError.
    """
    check_rho_walk(alpha, x0, steps, segments, window)
    base = {"schema": 1, "kind": "rho_walk_audit", "alpha": alpha, "x0": x0,
            "steps": steps, "master_seed": plan.master_seed}
    if steps == 0:
        return {**base, "plus_fraction": None, "window": 0, "rho_range": [0, 0],
                "farsmall": [], "farsmall_violations": 0, "segments_checked": 0}

    ns, eps = _label_walk(alpha, x0, plan.substream(0).random(steps))
    reach = int(np.max(np.abs(ns)))
    if reach > W_MAX:
        # one fold changes |n| by at most 1, so the walk first left at W_MAX + 1
        raise WindowError(f"walk reached |n| = {W_MAX + 1} > {W_MAX}")
    if window is None:
        window = reach + 4
    elif reach > window:
        raise WindowError(f"walk reached |n| = {reach} > window {window}; enlarge")
    graph = build_graph_window(alpha, x0, window)
    chart = rho_chart(graph, OrbitLabel(0, 1))

    m = 2 * window + 1
    flat = np.where(eps == 1, 0, 1) * m + (ns + window)
    rho_path = chart.rho[flat]
    increments = np.diff(rho_path)
    if np.any(np.abs(increments) != 1):
        raise StructuralError("rho increment with |step| != 1; chart is inconsistent")
    plus_fraction = float(np.mean(increments == 1))

    rng = plan.substream(1)
    i_idx = rng.integers(0, steps + 1, size=segments)
    j_idx = rng.integers(0, steps + 1, size=segments)
    ends = np.sort(np.stack([rho_path[i_idx], rho_path[j_idx]]), axis=0)
    span = ends[1] - ends[0]
    # levels a+1 .. b-1 strictly between the ends, as indices into level_min
    first = ends[0] + 1 - chart.level_lo
    stop = ends[1] - chart.level_lo
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
                               master_seed: int, workers: int = 1) -> dict:
    """Draw stationary samples, apply one random fold, measure KS to the law.

    Sample-indexed: sample i takes its stationary draw from cell (0, i), the
    quantile of that uniform, and its fold letter from cell (1, i), read from
    the hashed integer as letter_cells reads it, so output is independent of
    block size and worker count. workers bounds the threads as in
    _run_blocks: a thread needs a block of at least 2^15 samples.
    """
    if n_samples < 1:
        raise PreconditionError("n_samples must be >= 1")
    cdf = stationary_cdf(dist)
    keys = substream_keys(master_seed, 0, 2)

    def worker(start, count):
        steps = np.arange(start, start + count)
        x = stationary_quantile(cdf, uniform_cells(keys[:1], steps))
        theta = letter_cells(dist, keys[1:], steps)
        return np.abs(np.subtract(theta, x, out=x), out=x)

    parts = _run_blocks(worker, n_samples, _SAMPLE_BLOCK, workers)
    stepped = EmpiricalCDF(np.concatenate(parts))
    return {"schema": 1, "kind": "one_step_invariance", "n_samples": n_samples,
            "master_seed": master_seed,
            "support": dist.support.tolist(), "weights": dist.weights.tolist(),
            "ks_distance": ks_distance(stepped, cdf)}


def check_law_equality(x0: float, n: int, trials: int, workers: int) -> None:
    """The preconditions of law_equality_report."""
    _check_start(x0)
    if n < 0 or trials < 1:
        raise PreconditionError("need n >= 0 and trials >= 1")
    check_workers(workers)


def law_equality_report(dist: ThetaDist, x0: float, n: int, trials: int,
                        master_seed: int, workers: int = 1) -> dict:
    """Two-sample KS between forward and backward n-step values at x0.

    Forward trial t folds row t with cell 0 innermost; backward trial t
    folds row trials + t with cell 0 outermost, so the two ensembles are
    independent.
    """
    check_law_equality(x0, n, trials, workers)
    plan = TrialPlan(master_seed, trials)
    fwd = _point_folds(dist, x0, n, plan, workers)
    bwd = _point_folds(dist, x0, n, plan, workers, first=trials, backward=True)
    ks = ks_distance(EmpiricalCDF(fwd), EmpiricalCDF(bwd))
    return {"schema": 1, "kind": "law_equality", "x0": x0, "n": n,
            "trials": trials, "master_seed": master_seed, "ks_distance": ks}
