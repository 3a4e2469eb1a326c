"""Random folding maps x -> |theta - x| and exact interval images.

The chain folds the half-line at a random point theta drawn from a finite
distribution: one step sends x to |theta - x|. Forward iteration composes new
maps on the outside (the actual trajectory); backward iteration composes them
on the inside, which nests the images of a starting interval and makes their
lengths monotone. Interval images are computed exactly by one branch-free
formula, [max(lo - theta, theta - hi, 0), max(theta - lo, hi - theta)],
with no rounding beyond the subtractions themselves, so nesting and
monotonicity are asserted without tolerances elsewhere in the package.

All randomness is one stateless grid of uniforms per master seed,
u[t, j] = (mix64(key_t + (j + 1) G) >> 11) 2^-53, where key_t =
substream_seed(master_seed, t), G is the 64-bit golden-ratio increment and
mix64 the SplitMix64 finalizer: SplitMix64 in counter mode (Steele, Lea &
Flood, OOPSLA'14), the counter-based design of Salmon et al. (SC'11). Row t
is trial t's word, cell j its j-th letter. Any cell is reached directly, so a
shorter word is a prefix of a longer one and results never depend on block
layout, execution order or worker count.

letter_cells reads letters straight from the hashed integers z, as
uniform_cells reads the float cells: u >= c exactly when z >= ceil(c 2^53)
2^11, so ThetaDist turns its cumulative weights into integer cuts once, and
a letter's index is the number of cuts at or below z. That equals
theta_from_uniform on the float cell bit for bit, and skips both the float
cell and the binary search. A dist whose only cut is 2^63, as every uniform
two-point dist's is, needs no count: its letter is support[1] exactly when
z's top bit is set, so the letter's bits are s0 ^ (m & (s0 ^ s1)), with s0,
s1 the bits of support[0], support[1] and m = int64(z) >> 63 (all ones or
all zeros), three integer passes with no compare and no gather.

When every cut is coarse, a multiple of 2^33 (a cumulative weight on a
multiple of 2^-31, as the 1/2 of every uniform two-point dist is), the
letters are read from the hash before mix64's last step z ^ (z >> 31).
z >> 31 is below 2^33, so that step keeps bits 63..33 of z, and for a cut c
with its low 33 bits zero, z ^ (z >> 31) >= c exactly when z >= c: the
letters are the same bit for bit, two array passes sooner. The sign bit is
one of the bits kept, so the top-bit select is exact on that hash too.

letter_columns yields the letter columns of a block of rows one at a time,
but hashes a tile of consecutive columns per numpy call: (width, rows)
cells, width = max(1, TILE_CELLS // rows), into buffers it allocates once.
Above TILE_CELLS rows a tile is one column. A cell's letter does not depend
on the tile it was read in, so neither does any result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionError

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_UNIT53 = 2.0 ** -53
_LOW33 = np.uint64((1 << 33) - 1)  # the bits mix64's last xor-shift can change
_SIGN_CUT = 1 << 63  # the cut of a weight of 1/2 first: the letter is z's top bit
# cap on the cells hashed per numpy call by letter_columns and by a
# rate_experiment chunk (does not affect output). 2^15 and 2^16 time level
# on the benchmark's backward-diameter and rate ops; 2^16 reads three columns
# a call at simulate's 20000 rows, and a tile's hash, scratch and letter
# buffers (1.5 MB) still fit a 2 MB L2
TILE_CELLS = 1 << 16
# +0.0 as a 0-d array: a ufunc converts a Python float operand on every call
_ZERO = np.zeros(())
_ZERO.flags.writeable = False
# _take_letters counts up to this many cuts by compares, more (or none) by
# bisection; the compares stay ahead through 16 cuts in blocks of 4096 rows
# and up, and the two are level within noise in smaller blocks
_CHAIN_CUTS = 16


def _splitmix64(z: int) -> int:
    # standard splitmix64 finalizer; full 64-bit avalanche
    z &= _MASK64
    z = (z ^ (z >> 30)) * _MIX1 & _MASK64
    z = (z ^ (z >> 27)) * _MIX2 & _MASK64
    return z ^ (z >> 31)


def _mix64(z: np.ndarray, scratch: np.ndarray | None = None,
           coarse: bool = False) -> np.ndarray:
    """The splitmix64 finalizer, in place on a uint64 array (wraps mod 2^64).

    scratch, a uint64 array shaped like z, holds the shifted copies; one is
    allocated when it is None. coarse skips the last step z ^= z >> 31: it
    changes only bits 32..0 (z >> 31 is below 2^33), so the result compares
    with any multiple c of 2^33 as the full hash does.
    """
    if scratch is None:
        scratch = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, shift, out=scratch)
        z *= np.uint64(mult)
    if not coarse:
        z ^= np.right_shift(z, 31, out=scratch)
    return z


def _step_offset(step: int) -> np.uint64:
    """(step + 1) G mod 2^64, the counter that selects grid column `step`."""
    return np.uint64(((step + 1) * _GOLDEN64) & _MASK64)


def substream_seed(master_seed: int, index: int) -> int:
    """Deterministic 64-bit key of row `index` of a master seed's grid."""
    if index < 0:
        raise PreconditionError("substream index must be >= 0")
    return _splitmix64((master_seed + (index + 1) * _GOLDEN64) & _MASK64)


def substream_keys(master_seed: int, first: int, count: int) -> np.ndarray:
    """substream_seed(master_seed, t) for t = first .. first+count-1, as uint64."""
    if first < 0 or count < 0:
        raise PreconditionError("substream rows must be >= 0")
    z = np.arange(count, dtype=np.uint64)
    z *= np.uint64(_GOLDEN64)
    # the scalar offset is a masked Python int, so numpy never sees an overflow
    z += np.uint64((master_seed + (first + 1) * _GOLDEN64) & _MASK64)
    return _mix64(z)


def _cell_hashes(keys, steps, out=None, scratch=None, coarse=False) -> np.ndarray:
    """The 64-bit hashes mix64(key_t + (j + 1) G) of grid cells (t, j).

    keys and steps as for uniform_cells. out, a uint64 array of the broadcast
    shape, receives the hashes, and scratch, another, holds the shifted
    copies; either is allocated when it is None. coarse stops before mix64's
    last xor-shift (see _mix64), for comparisons with multiples of 2^33 only.
    """
    if np.ndim(steps) == 0:
        offsets = _step_offset(int(steps))
    else:
        offsets = np.asarray(steps, dtype=np.uint64) + np.uint64(1)
        offsets *= np.uint64(_GOLDEN64)
    return _mix64(np.add(keys, offsets, out=out), scratch, coarse)


def uniform_cells(keys, steps) -> np.ndarray:
    """Grid cells u[t, j] in [0, 1) for row keys and step indices j.

    keys is a uint64 array from substream_keys; steps is an int or an integer
    array, broadcast against keys. Each cell is hashed on demand.
    """
    z = _cell_hashes(keys, steps)
    z >>= 11
    return z * _UNIT53


class UniformRow:
    """Cells (t, start), (t, start + 1), ... of one grid row, read in order.

    It offers the two Generator methods the package draws through, random and
    integers, so sample_theta and sample_stationary accept it; its only state
    is the position of the next cell.
    """

    def __init__(self, key: int, start: int = 0):
        if start < 0:
            raise PreconditionError("row start must be >= 0")
        self._key = np.array([key], dtype=np.uint64)
        self.position = start

    def random(self, size=None):
        """The next cells; a float when size is None, else an array of that shape."""
        count = 1 if size is None else int(np.prod(size))
        steps = np.arange(self.position, self.position + count, dtype=np.uint64)
        self.position += count
        u = uniform_cells(self._key, steps)
        return float(u[0]) if size is None else u.reshape(size)

    def integers(self, low: int, high: int | None = None, size=None):
        """Integers in [low, high) (or [0, low)), one cell each, by scaling."""
        if high is None:
            low, high = 0, low
        span = high - low
        if not 1 <= span <= 1 << 53:
            raise PreconditionError("integers needs 1 <= high - low <= 2^53")
        k = np.floor(np.asarray(self.random(size)) * span).astype(np.int64) + low
        return int(k) if size is None else k


def check_trials(trials: int) -> None:
    """The precondition of TrialPlan: at least one trial."""
    if trials < 1:
        raise PreconditionError("trials must be >= 1")


@dataclass(frozen=True)
class TrialPlan:
    """Reproducible plan for a batch of independent Monte Carlo trials."""

    master_seed: int
    trials: int

    def __post_init__(self):
        check_trials(self.trials)

    def substream(self, index: int, start: int = 0) -> UniformRow:
        """Row view of trial `index` from cell `start`; a pure function of its arguments."""
        return UniformRow(substream_seed(self.master_seed, index), start)


class ThetaDist:
    """Finite-support distribution of the fold point theta.

    Support points are strictly positive and distinct; weights are positive
    and sum to 1 within 1e-12. Stored sorted by support value.
    """

    def __init__(self, support: Iterable[float], weights: Iterable[float]):
        sup = np.asarray(list(support), dtype=float)
        wts = np.asarray(list(weights), dtype=float)
        if sup.size == 0 or sup.size != wts.size:
            raise PreconditionError("support and weights must be nonempty and equal-length")
        # array methods, not np.any/np.all: rate_experiment builds a dist a call
        if not (np.isfinite(sup).all() and np.isfinite(wts).all()):
            raise PreconditionError("fold points and weights must be finite")
        if (sup <= 0).any():
            raise PreconditionError("fold points must be strictly positive")
        if (wts <= 0).any():
            raise PreconditionError("weights must be strictly positive")
        if abs(wts.sum() - 1.0) > 1e-12:
            raise PreconditionError("weights must sum to 1 within 1e-12")
        order = sup.argsort()
        sup, wts = sup[order], wts[order]
        if (sup[1:] == sup[:-1]).any():
            raise PreconditionError("fold points must be distinct")
        self.support = sup
        self.weights = wts
        self.support.flags.writeable = False
        self.weights.flags.writeable = False
        # cumulative weights for inverse-transform draws; pin the top to 1.0
        cum = wts.cumsum()
        cum[-1] = 1.0
        self._cum = cum
        self._cum.flags.writeable = False
        self._cuts = _integer_cuts(cum)
        self._cuts.flags.writeable = False
        # every cut a multiple of 2^33 (none counts): letters may skip the
        # hash's last xor-shift
        self._coarse = not (self._cuts & _LOW33).any()
        # the one cut 2^63: the int64 bits (s0, s0 ^ s1) of the top-bit select
        self._sign_bits = None
        if self._cuts.tolist() == [_SIGN_CUT]:
            s0, s1 = self.support[:2].view(np.int64)
            self._sign_bits = s0, s0 ^ s1

    @property
    def bound(self) -> float:
        """b = max of the support; one step lands the chain in [0, b]."""
        return float(self.support[-1])

    @property
    def mean(self) -> float:
        return float(self.support @ self.weights)

    @property
    def is_two_point(self) -> bool:
        """True for the canonical uniform two-point support {alpha, 1}."""
        return (self.support.size == 2
                and self.support[-1] == 1.0
                and 0.0 < self.support[0] < 1.0
                and abs(self.weights[0] - 0.5) <= 1e-12)

    @classmethod
    def two_point(cls, alpha: float) -> "ThetaDist":
        if not 0.0 < alpha < 1.0:
            raise PreconditionError("two-point alpha must lie in (0, 1)")
        return cls([alpha, 1.0], [0.5, 0.5])

    @classmethod
    def uniform(cls, support: Iterable[float]) -> "ThetaDist":
        pts = list(support)
        return cls(pts, [1.0 / len(pts)] * len(pts))

    def __repr__(self):
        return f"ThetaDist(support={self.support.tolist()}, weights={self.weights.tolist()})"


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo <= hi; an end of -0.0 is stored as 0.0."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise PreconditionError(f"invalid interval [{self.lo}, {self.hi}]")
        # x + 0.0 is x except that -0.0 becomes 0.0: fold_interval_arrays is
        # bit-exact for ends that carry no sign bit
        object.__setattr__(self, "lo", self.lo + 0.0)
        object.__setattr__(self, "hi", self.hi + 0.0)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


def step(theta: float, x: float) -> float:
    """One fold: |theta - x|. Lipschitz-1 in x."""
    if theta < 0 or x < 0:
        raise PreconditionError("step requires theta >= 0 and x >= 0")
    return abs(theta - x)


def theta_from_uniform(dist: ThetaDist, u):
    """Map uniform [0,1) draws to support points with the declared weights."""
    idx = np.searchsorted(dist._cum, u, side="right")
    return dist.support[idx]


def _integer_cuts(cum: np.ndarray) -> np.ndarray:
    """The cumulative weights below the top one as cuts on hashed integers.

    A cell is u = (z >> 11) 2^-53 for a 64-bit hash z, and u >= c exactly when
    z >= ceil(c 2^53) 2^11, so the letter index searchsorted(cum, u, "right")
    is the number of these cuts at or below z. The top weight is 1 and u < 1,
    so it is never passed, and neither is a cut with ceil(c 2^53) >= 2^53
    (rounding can put the last cumulative weights at or above 1); both are
    left out, which keeps every cut below 2^64.
    """
    cuts = [m << 11 for m in (math.ceil(c * 2.0 ** 53) for c in cum[:-1].tolist())
            if m < 1 << 53]
    return np.array(cuts, dtype=np.uint64)


def _take_letters(dist: ThetaDist, z: np.ndarray, theta: np.ndarray,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """Write the letters of hashed cells z into theta, and return it.

    A dist whose only cut is 2^63 selects between its two lowest points by
    z's top bit, in theta's int64 view. Otherwise a letter's index is the
    number of dist's integer cuts at or below its hash: up to _CHAIN_CUTS
    cuts are counted by compares into scratch (a uint64 array shaped like z,
    allocated when None), with theta, not yet written, holding each compare;
    more cuts, or none, are counted by bisection.
    """
    if dist._sign_bits is not None:
        base, flip = dist._sign_bits
        bits = np.right_shift(z.view(np.int64), 63, out=theta.view(np.int64))
        bits &= flip
        bits ^= base
        return theta
    cuts = dist._cuts
    if 0 < cuts.size <= _CHAIN_CUTS:
        index = np.empty(z.shape, np.intp) if scratch is None else scratch.view(np.intp)
        np.greater_equal(z, cuts[0], out=index)
        passed = theta.view(np.intp)
        for cut in cuts[1:]:
            index += np.greater_equal(z, cut, out=passed)
    else:
        index = np.searchsorted(cuts, z, side="right")
    # every index is a count of cuts, below the support size, so "clip"
    # never clips; it spares the bounds check that would buffer out
    return np.take(dist.support, index, out=theta, mode="clip")


def letter_cells(dist: ThetaDist, keys, steps, out=None, scratch=None) -> np.ndarray:
    """The letters of grid cells (t, j) for row keys and step indices j.

    keys and steps broadcast as in uniform_cells, and the result equals
    theta_from_uniform(dist, uniform_cells(keys, steps)) bit for bit, read
    from the hashed integers by the integer cuts of dist: by the top-bit
    select when the one cut is 2^63, else by counting cuts. When the cuts
    are coarse (multiples of 2^33), the hashes stop before mix64's last
    xor-shift, which leaves every comparison with such a cut unchanged.

    out, a float array of the broadcast shape, receives the letters, and
    scratch, a pair of uint64 arrays of that shape, holds the hashes and
    their shifted copies. Either is allocated when it is None; a loop that
    passes both allocates nothing.
    """
    z, spare = (None, None) if scratch is None else scratch
    z = _cell_hashes(keys, steps, z, spare, dist._coarse)
    return _take_letters(dist, z, np.empty(z.shape) if out is None else out, spare)


def letter_columns(dist: ThetaDist, keys: np.ndarray, steps: Iterable[int]):
    """The letter columns of grid rows `keys`, one for each step j of `steps`.

    Column j equals letter_cells(dist, keys, j). The columns are read a tile
    at a time, width = max(1, TILE_CELLS // rows) consecutive steps per
    letter_cells call, into buffers allocated once; steps may be any
    iterable, and only one tile of it is read ahead. Every column is a
    read-only view of the same buffer, so fold each column before asking for
    the next.
    """
    width = max(1, TILE_CELLS // max(1, keys.size))
    theta = np.empty((width,) + keys.shape)
    columns = theta.view()
    columns.flags.writeable = False
    z = np.empty(theta.shape, dtype=np.uint64)
    scratch = np.empty_like(z)
    steps = iter(steps)
    while tile := list(islice(steps, width)):
        k = len(tile)
        js = np.array(tile, dtype=np.uint64).reshape((k,) + (1,) * keys.ndim)
        letter_cells(dist, keys, js, out=theta[:k], scratch=(z[:k], scratch[:k]))
        yield from columns[:k]


def sample_theta(dist: ThetaDist, rng: np.random.Generator, size=None):
    """Draw fold points; scalar when size is None, ndarray otherwise."""
    if size is None:
        return float(theta_from_uniform(dist, rng.random()))
    return theta_from_uniform(dist, rng.random(size))


def iterate_forward(word: Sequence[float], x0: float) -> np.ndarray:
    """Trajectory of x0 under the word, newest map applied last.

    Returns an array of length len(word)+1 whose entry k is the k-step
    forward iterate; entry 0 is x0.
    """
    if x0 < 0:
        raise PreconditionError("x0 must be >= 0")
    out = np.empty(len(word) + 1)
    out[0] = x = float(x0)
    for k, t in enumerate(word, start=1):
        x = abs(t - x)
        out[k] = x
    return out


def fold_backward(word: Sequence[float], x: float) -> float:
    """Apply the word with the first letter outermost (newest map innermost).

    Equals the last entry of iterate_forward(reversed(word), x).
    """
    if x < 0:
        raise PreconditionError("x must be >= 0")
    y = float(x)
    for t in reversed(list(word)):
        y = abs(t - y)
    return y


def fold_interval_arrays(theta, lo, hi, out=None, scratch=None):
    """Exact image endpoints of [lo, hi] under x -> |theta - x|, vectorized.

    theta may be scalar or an array broadcastable against lo/hi. The image is
    [max(lo - theta, theta - hi, 0), max(theta - lo, hi - theta)], one formula
    for the three cases: theta <= lo translates, theta >= hi reflects, and a
    theta inside folds the interval through 0. It needs lo <= hi: then the
    upper end equals max(|theta - lo|, |theta - hi|) bit for bit, since
    rounding keeps theta - lo >= theta - hi and hi - theta >= lo - theta.

    The upper end is computed as 0.0 - min(lo - theta, theta - hi) from the
    two differences the lower end needs, so the fold costs six array passes
    and no abs. That is the same float: for a != b, fl(a - b) = -fl(b - a),
    since round-to-nearest is symmetric about zero, and 0.0 - x = -x for
    x != 0; for a == b both differences are zeros, and 0.0 - (+-0.0) is
    +0.0, so the upper end is never -0.0. np.maximum returns its second
    operand when both are zeros, so the zero comes last in the lower end
    (+0.0, never -0.0). Python's max keeps the first, so the scalar loop in
    interval_fold puts the zero first.

    out, a pair of float arrays of the broadcast shape, receives the two
    endpoints; it may be (lo, hi) itself, so a fold loop keeps its arrays.
    scratch, a second such pair, holds lo - theta and theta - hi. Either
    pair is allocated when it is None; a fold loop that passes both
    allocates nothing.
    """
    theta = np.asarray(theta, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    from_lo, to_hi = (None, None) if scratch is None else scratch
    # the only reads of lo and hi, so out may be (lo, hi) itself
    from_lo = np.subtract(lo, theta, out=from_lo)
    to_hi = np.subtract(theta, hi, out=to_hi)
    if out is None:  # empty_like makes an array even where from_lo is a scalar
        out = np.empty_like(from_lo), np.empty_like(from_lo)
    new_lo, new_hi = out
    np.subtract(_ZERO, np.minimum(from_lo, to_hi, out=new_hi), out=new_hi)
    np.maximum(np.maximum(from_lo, to_hi, out=new_lo), _ZERO, out=new_lo)
    return new_lo, new_hi


def interval_image(theta: float, iv: Interval) -> Interval:
    """Exact image of an interval under one fold. Length never increases."""
    if theta < 0:
        raise PreconditionError("theta must be >= 0")
    lo, hi = fold_interval_arrays(theta, iv.lo, iv.hi)
    return Interval(float(lo), float(hi))


def interval_fold(word: Sequence[float], iv: Interval,
                  direction: str = "forward") -> list[Interval]:
    """Prefix images of an interval under the word, in the chosen order.

    forward: entry k is the image under the first k letters, newest outermost
    (the trajectory order). backward: entry k is the image under the first k
    letters with the first letter outermost, so the entries are nested
    whenever the one-step images stay inside the starting interval. Entry 0
    is the input interval; lengths are nonincreasing in k either way.
    """
    letters = np.asarray(list(word), dtype=float)
    n = letters.size
    if direction == "forward":
        out = [iv]
        lo, hi = iv.lo, iv.hi
        for t in letters.tolist():  # fold_interval_arrays on Python floats
            lo, hi = max(0.0, lo - t, t - hi), max(abs(t - lo), abs(t - hi))
            out.append(Interval(lo, hi))
        return out
    if direction != "backward":
        raise PreconditionError("direction must be 'forward' or 'backward'")
    # entry k needs letter k applied innermost of letters 1..k, so sweep the
    # letters from last to first, folding each into every longer prefix slot
    los = np.full(n + 1, iv.lo)
    his = np.full(n + 1, iv.hi)
    for j in range(n, 0, -1):
        los[j:], his[j:] = fold_interval_arrays(letters[j - 1], los[j:], his[j:])
    return [Interval(float(a), float(b)) for a, b in zip(los, his)]
