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
layout or execution order.

The cut rule (_cut_letters) reads letters straight from the hashed
integers z, as uniform_cells reads the float cells: u >= c exactly when z >=
ceil(c 2^53) 2^11, so ThetaDist turns its cumulative weights into integer
cuts once, and a letter's index is the number of cuts at or below z. That
equals theta_from_uniform on the float cell bit for bit, and skips both the
float cell and the binary search.

A dist whose integer cuts are exactly [2^63], as every uniform two-point
dist's are, needs one bit a letter, not one hash: letter j of row t is
support[bit 63 - (j mod 64) of h[t, j // 64]], where h[t, c] =
mix64(key_t + (c + 1) G) is the full hash of grid cell (t, c). So one hash
holds 64 letters, letter 64c first in its top bit, and each of its bytes,
read from the top, is a word of 8 consecutive letters, the first in the
byte's top bit (letter_words). Only these letters follow the bit rule:
uniform_cells, and the letters of every other dist, read one cell a value.

This module alone reads letters, and only letter_columns, letter_run and
letter_words read them: a two-point dist's by the bit rule, any other
dist's by the cut rule, which nothing else calls. letter_columns yields the
letter columns of a block of rows one at a time, for a range of letters
taken forward or backward: a two-point dist's from letter_words, each word
read into its 8 columns by one take from a table of the 256 words; any
other dist's a tile of consecutive columns per numpy call, (width, rows)
cells, width = max(1, TILE_CELLS // rows), into buffers it allocates once
(above TILE_CELLS rows a tile is one column). letter_run reads a run of
consecutive letters of each row at once: a two-point dist hashes one cell
a 64 letters and spells each byte of the hash into its 8 letters by one
take from the same table of the 256 words. A cell's letter does not
depend on the tile or run it was read in, so neither does any result.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionError, as_int, comparable

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_UNIT53 = 2.0 ** -53
_BIT_CUT = 1 << 63  # the one cut of a dist that reads one bit a letter
# cap on the cells hashed per numpy call (does not affect output): it bounds
# the tiles of uniform_cells, letter_columns and letter_words, and the
# letters of a rate chunk (_chain._stop_times); a tile's hash, scratch and
# letter buffers (1.5 MB) still fit a 2 MB L2
TILE_CELLS = 1 << 16
# most rows (or samples) one run may take: a run holds a float or more per
# row, 800 MB here, and a larger count would fill memory before any output
MAX_TRIALS = 10 ** 8
# the memory offset, within a uint64, of its top byte (word 0 of a hash)
_TOP_BYTE = 7 if sys.byteorder == "little" else 0
# +0.0 as a 0-d array: a ufunc converts a Python float operand on every call
_ZERO = np.zeros(())
_ZERO.flags.writeable = False
# _count_cuts counts up to this many cuts by compares, more (or none) by
# bisection; the compares stay ahead through 16 cuts in blocks of 4096 rows
# and up, and the two are level within noise in smaller blocks
_CHAIN_CUTS = 16


def _mix64(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """The splitmix64 finalizer, in place on a uint64 array (wraps mod 2^64).

    scratch, a uint64 array shaped like z, holds the shifted copies; one is
    allocated when it is None.
    """
    if scratch is None:
        scratch = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        z ^= np.right_shift(z, shift, out=scratch)
        z *= np.uint64(mult)
    z ^= np.right_shift(z, 31, out=scratch)
    return z


def substream_seed(master_seed: int, index: int) -> int:
    """Deterministic 64-bit key of row `index` of a master seed's grid."""
    master_seed = as_int(master_seed, "master seed")  # ints: a numpy int would overflow
    index = as_int(index, "substream index", 0)
    return int(substream_keys(master_seed, index, 1)[0])


def substream_keys(master_seed: int, first: int, count: int) -> np.ndarray:
    """substream_seed(master_seed, t) for t = first .. first+count-1, as uint64."""
    master_seed = as_int(master_seed, "master seed")  # ints: a numpy int would overflow
    first = as_int(first, "substream rows", 0)
    count = as_int(count, "substream rows", 0)
    z = np.arange(count, dtype=np.uint64)
    z *= np.uint64(_GOLDEN64)
    # the scalar offset is a masked Python int, so numpy never sees an overflow
    z += np.uint64((master_seed + (first + 1) * _GOLDEN64) & _MASK64)
    return _mix64(z)


def _step_offsets(steps, out=None) -> np.ndarray:
    """(j + 1) G mod 2^64 for each step index j of an integer array (0-d
    for one step), as uint64; into out, a uint64 array of the steps' shape,
    when given. j + 1 of int64 steps (np.arange's) is taken in int64, whose
    wrap gives the same bits, so neither they nor uint64 steps are cast."""
    steps = np.asarray(steps)
    if out is None:
        out = np.empty(steps.shape, dtype=np.uint64)
    np.add(steps, 1, out=out.view(np.int64) if steps.dtype == np.int64 else out,
           casting="unsafe")
    out *= np.uint64(_GOLDEN64)
    return out


def _cell_hashes(keys, steps, out=None, scratch=None) -> np.ndarray:
    """The 64-bit hashes mix64(key_t + (j + 1) G) of grid cells (t, j).

    keys and steps as for uniform_cells. out, a uint64 array of the broadcast
    shape, receives the hashes, and scratch, another, holds the shifted
    copies; either is allocated when it is None.
    """
    return _mix64(np.add(keys, _step_offsets(steps), out=out), scratch)


def uniform_cells(keys, steps) -> np.ndarray:
    """Grid cells u[t, j] in [0, 1) for row keys and step indices j.

    keys is a uint64 array from substream_keys; steps is an int or an integer
    array, broadcast against keys, then read flat in C order (a copy past
    1-d; every call in the package is 1-d). Each cell is hashed on demand,
    a slice of at most TILE_CELLS cells at a time, into one hash buffer of
    TILE_CELLS, with the slice's own part of the output, viewed as uint64,
    holding the shifted copies; then the slice's floats are written there.
    So a 1-d call holds its output and 512 KB besides.
    """
    shape = np.broadcast_shapes(np.shape(keys), np.shape(steps))
    out = np.empty(shape)
    flat = out.reshape(-1)
    scratch = np.empty(min(out.size, TILE_CELLS), dtype=np.uint64)
    keys = np.broadcast_to(keys, shape).reshape(-1)
    steps = np.broadcast_to(steps, shape).reshape(-1)
    for first in range(0, flat.size, TILE_CELLS):
        tile = slice(first, first + TILE_CELLS)
        cells = flat[tile]
        z = scratch[:cells.size]
        _mix64(np.add(keys[tile], _step_offsets(steps[tile], z), out=z), cells.view(np.uint64))
        z >>= 11
        # z < 2^53 now: its int64 view converts to the same floats, faster
        np.multiply(z.view(np.int64), _UNIT53, out=cells)
    return out


class UniformRow:
    """Cells (t, start), (t, start + 1), ... of one grid row, read in order.

    It offers random, the one Generator method sample_theta and
    sample_stationary draw through, so both accept it; its only state is the
    position of the next cell.
    """

    def __init__(self, key: int, start: int = 0):
        self._key = np.array([key], dtype=np.uint64)
        self.position = as_int(start, "row start", 0)

    def random(self, size=None):
        """The next cells; a float when size is None, else an array of that shape."""
        count = 1 if size is None else int(np.prod(size))
        steps = np.arange(self.position, self.position + count, dtype=np.uint64)
        self.position += count
        u = uniform_cells(self._key, steps)
        return float(u[0]) if size is None else u.reshape(size)


def check_trials(trials: int, name: str = "trials") -> None:
    """The precondition of TrialPlan: at least one trial and at most
    MAX_TRIALS; name is the count's name in the message."""
    if as_int(trials, name, 1) > MAX_TRIALS:
        raise PreconditionError(f"{name} must be <= {MAX_TRIALS}")


@dataclass(frozen=True)
class TrialPlan:
    """Reproducible plan for a batch of independent Monte Carlo trials."""

    master_seed: int
    trials: int

    def __post_init__(self):
        as_int(self.master_seed, "master seed")
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
        sup = _float_array(list(support), "fold points")
        wts = _float_array(list(weights), "weights")
        if sup.size == 0 or sup.size != wts.size:
            raise PreconditionError("support and weights must be nonempty and equal-length")
        # array methods, not np.any/np.all: every simulate and bvf-check builds one
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
        # the one cut 2^63: a letter is one bit of a hash (see the module docstring)
        self._bits = self._cuts.tolist() == [_BIT_CUT]

    @property
    def bound(self) -> float:
        """b = max of the support; one step lands the chain in [0, b]."""
        return float(self.support[-1])

    @property
    def mean(self) -> float:
        return float(self.support @ self.weights)

    @classmethod
    def two_point(cls, alpha: float) -> "ThetaDist":
        if not 0.0 < comparable(alpha, "alpha", "a number") < 1.0:
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
        # x + 0.0 is x except that -0.0 becomes 0.0: fold_interval_arrays is
        # bit-exact for ends that carry no sign bit
        try:
            lo, hi = self.lo + 0.0, self.hi + 0.0
        except TypeError:  # a str, None or other non-number
            raise PreconditionError("interval ends must be numbers") from None
        if not lo <= hi:
            raise PreconditionError(f"invalid interval [{self.lo}, {self.hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi


def step(theta: float, x: float) -> float:
    """One fold: |theta - x|. Lipschitz-1 in x."""
    if not (0 <= comparable(theta, "theta", "a number") < math.inf
            and 0 <= comparable(x, "x", "a number") < math.inf):
        raise PreconditionError("step requires finite theta >= 0 and x >= 0")
    return abs(theta - x)


def theta_from_uniform(dist: ThetaDist, u):
    """Map uniform [0,1) draws to support points with the declared weights."""
    u_arr = _float_array(u, "uniform draws")
    # min and max carry a NaN through, so this rejects NaN as well
    if u_arr.size and not (u_arr.min() >= 0 and u_arr.max() < 1):
        raise PreconditionError("uniform draws must lie in [0, 1)")
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


def _count_cuts(cuts: np.ndarray, z: np.ndarray, passed: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """The number of ascending cuts at or below each entry of z, as intp.

    Up to _CHAIN_CUTS cuts are counted by compares into out (an intp array
    shaped like z, allocated when None), each compare written to passed,
    another; more cuts, or none, are counted by bisection.
    """
    if 0 < cuts.size <= _CHAIN_CUTS:
        count = np.empty(z.shape, np.intp) if out is None else out
        np.greater_equal(z, cuts[0], out=count)
        for cut in cuts[1:]:
            count += np.greater_equal(z, cut, out=passed)
        return count
    return np.searchsorted(cuts, z, side="right")


def _cut_letters(dist: ThetaDist, keys, steps, out=None, scratch=None) -> np.ndarray:
    """The cut rule: the letters of grid cells (t, j) for row keys and step
    indices j of a dist that does not read one bit a letter.

    keys and steps broadcast as in uniform_cells. Each letter equals
    theta_from_uniform(dist, uniform_cells(keys, steps)) bit for bit, read
    from the hashed integers by the integer cuts of dist.

    out, a float array of the broadcast shape, receives the letters, and
    scratch, a pair of uint64 arrays of that shape, holds the hashes and
    their shifted copies, then the letters' indices. Either is allocated when it is None; a loop that
    passes both allocates nothing.
    """
    z, spare = (None, None) if scratch is None else scratch
    z = _cell_hashes(keys, steps, z, spare)
    theta = np.empty(z.shape) if out is None else out
    # a letter's index is the number of cuts at or below its hash, with
    # theta, not yet written, holding each compare; every index is below the
    # support size, so "clip" never clips, and it spares the bounds check
    # that would buffer out
    index = _count_cuts(dist._cuts, z, theta.view(np.intp),
                        None if spare is None else spare.view(np.intp))
    return np.take(dist.support, index, out=theta, mode="clip")


def letter_columns(dist: ThetaDist, keys: np.ndarray, letters: range):
    """The letter columns of grid rows `keys`, one for each letter j of
    `letters`, a range of step 1 or -1, in its order.

    A dist that reads one bit a letter reads each word of letter_words into
    its 8 columns by one take from a table of the 256 words; any other dist
    reads a tile of width = max(1, TILE_CELLS // rows) consecutive letters
    per _cut_letters call. Every column is a read-only view of one buffer,
    allocated once, so fold each column before asking for the next.
    """
    if dist._bits:
        spelled = _spelled(dist).T.copy()  # spelled[i, w]: the letter in bit 7 - i of word w
        theta = np.empty((8, keys.size))
        columns = theta.view()
        columns.flags.writeable = False
        for word, js in _words_in_order(keys, letters):
            spelled.take(word, axis=1, out=theta, mode="clip")
            for j in js:
                yield columns[j % 8]
        return
    width = max(1, TILE_CELLS // max(1, keys.size))
    theta = np.empty((width,) + keys.shape)
    columns = theta.view()
    columns.flags.writeable = False
    z = np.empty(theta.shape, dtype=np.uint64)
    scratch = np.empty_like(z)
    for first in range(0, len(letters), width):
        tile = letters[first:first + width]
        k = len(tile)
        js = np.array(tile, dtype=np.uint64).reshape((k,) + (1,) * keys.ndim)
        _cut_letters(dist, keys, js, out=theta[:k], scratch=(z[:k], scratch[:k]))
        yield from columns[:k]


def letter_words(keys: np.ndarray, words: range):
    """The 8-letter words w of `words` of grid rows `keys`, for a dist that
    reads one bit a letter: one (rows,) uint8 column per word.

    Word w holds letters 8w .. 8w + 7, the first in its top bit: it is byte
    w mod 8, counted from the top, of the hash of cell w // 8. The cells are
    hashed a tile of up to TILE_CELLS letters (at least one cell a row), each tile
    running on from the word that needs it in the direction of the range,
    into buffers allocated once; every column is a read-only view of them,
    so use each column before asking for the next.
    """
    if not words:
        return
    low, high = min(words[0], words[-1]) // 8, max(words[0], words[-1]) // 8 + 1
    span = min(max(1, TILE_CELLS // (64 * max(1, keys.size))), high - low)
    z = np.empty((span, keys.size), dtype=np.uint64)
    scratch = np.empty_like(z)
    octets = z.view(np.uint8).reshape(span, keys.size, 8)
    octets.flags.writeable = False
    first = None  # the first cell of the tile in z
    for w in words:
        cell = w // 8
        if first is None or not first <= cell < first + span:
            first = cell if words.step > 0 else max(low, cell - span + 1)
            k = min(span, high - first)
            cells = np.arange(first, first + k, dtype=np.uint64)[:, None]
            _cell_hashes(keys, cells, z[:k], scratch[:k])
        yield octets[cell - first, :, _TOP_BYTE ^ (w % 8)]


def _words_in_order(keys: np.ndarray, letters: range):
    """(word, js) for the words of rows keys that hold the letters j of
    `letters`, a range of step 1 or -1, in its order; js lists the word's
    letters in that order. Letter j is bit 7 - j mod 8 of word j // 8."""
    step = letters.step
    words = range(letters[0] // 8, letters[-1] // 8 + step, step) if letters else letters
    return zip(letter_words(keys, words),
               (list(js) for _, js in groupby(letters, lambda j: j // 8)))


def _spelled(dist: ThetaDist) -> np.ndarray:
    """The (256, 8) letters of the 8-letter words of a dist that reads one
    bit a letter: row w holds word w's letters, the first (its top bit) first."""
    return dist.support[np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)]


def letter_run(dist: ThetaDist, keys: np.ndarray, start: int, count: int) -> np.ndarray:
    """Letters start .. start + count - 1 of grid rows `keys`: a (rows,
    count) array whose entry [i, k] is letter start + k of row i. A dist
    that reads one bit a letter hashes one cell a 64 letters and spells
    each byte of the hash, read from the top, into its 8 letters by one take
    from the table of the 256 words; any other dist hashes one cell a letter
    (_cut_letters)."""
    if not dist._bits:
        return _cut_letters(dist, keys[:, None], np.arange(start, start + count))
    z = _cell_hashes(keys[:, None], np.arange(start // 64, (start + count + 63) // 64))
    octets = z.astype(">u8").view(np.uint8)  # the hashes' bytes, top first
    letters = _spelled(dist).take(octets, axis=0).reshape(keys.size, 64 * z.shape[1])
    return letters[:, start % 64:start % 64 + count]


def sample_theta(dist: ThetaDist, rng: np.random.Generator, size=None):
    """Draw fold points; scalar when size is None, ndarray otherwise."""
    if size is None:
        return float(theta_from_uniform(dist, rng.random()))
    return theta_from_uniform(dist, rng.random(size))


def check_start(x0: float) -> None:
    """A start point of the chain is finite and >= 0; rejects NaN as well."""
    if not 0.0 <= comparable(x0, "x0", "a number") < math.inf:
        raise PreconditionError("x0 must be finite and >= 0")


def _float_array(values, name: str) -> np.ndarray:
    """values as a float array, where each is a bool, an int or a float; a
    str, None or other entry is a PreconditionError (np.asarray with dtype
    float would parse a str)."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise PreconditionError(f"{name} must be numbers")
    return arr.astype(float, copy=False)


def _check_letters(letters: np.ndarray) -> None:
    """Every letter is a finite fold point >= 0; min and max carry a NaN through."""
    if letters.size and not (letters.min() >= 0 and letters.max() < math.inf):
        raise PreconditionError("letters must be finite and >= 0")


def iterate_forward(word: Sequence[float], x0: float) -> np.ndarray:
    """Trajectory of x0 under the word, newest map applied last.

    Returns an array of length len(word)+1 whose entry k is the k-step
    forward iterate; entry 0 is x0. x0 and the letters are finite and >= 0.
    """
    check_start(x0)
    letters = _float_array(word, "letters")
    _check_letters(letters)
    out = np.empty(letters.size + 1)
    out[0] = x = float(x0)
    for k, t in enumerate(letters.tolist(), start=1):
        x = abs(t - x)
        out[k] = x
    return out


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
    (+0.0, never -0.0). Python's max keeps the first, so _fold_scalar puts
    the zero first.

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


def _fold_scalar(t, lo, hi) -> tuple:
    """fold_interval_arrays on Python numbers: the image of [lo, hi], lo <=
    hi, under x -> |t - x|. On floats, the same floats bit for bit: +0.0 = t
    - t comes first, and max(hi - t, t - lo) is max(|t - lo|, |t - hi|),
    +0.0 at a tie of zeros, since hi has no sign bit. On ints (rate's exact
    chain), exact: t - t is an int zero, so the image stays ints."""
    return max(t - t, lo - t, t - hi), max(hi - t, t - lo)


def interval_fold(word: Sequence[float], iv: Interval,
                  direction: str = "forward") -> list[Interval]:
    """Prefix images of an interval under the word, in the chosen order.

    forward: entry k is the image under the first k letters, newest outermost
    (the trajectory order). backward: entry k is the image under the first k
    letters with the first letter outermost, so the entries are nested
    whenever the one-step images stay inside the starting interval. Entry 0
    is the input interval; lengths are nonincreasing in k either way. Every
    letter must be finite and >= 0.
    """
    letters = _float_array(list(word), "letters")
    _check_letters(letters)
    n = letters.size
    if direction == "forward":
        out = [iv]
        lo, hi = iv.lo, iv.hi
        for t in letters.tolist():
            lo, hi = _fold_scalar(t, lo, hi)
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
