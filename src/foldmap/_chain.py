"""The exact-float state chain of a two-point dist, and the folds that walk it.

For a two-point dist the folds run on one word automaton. The images of a
start point x0, of [0, b], or of [0, 1] down to a diameter epsilon, under
words of the two letters are exact floats, and there are few of them: 232
points of x0 = 0.2 to depth 50, 1585 images of [0, 1] to depth 1000. One
breadth-first search per call (_state_graph) finds them with the scalar
fold, so each state is the float x (of a point) or the pair of floats (of
an interval) the per-letter fold reaches, and its one-letter table is
composed, by takes along the state axis, into an int32 table of 8-letter
words. Each byte of a hash, read from the top, is one such word, so
forward_values, both directions of law_equality_report,
backward_diam_ensemble and rate_experiment step every trial one add and
one take per eight letters, and fold no float; the takes clip, since a
take into an output in numpy's default mode copies through a buffer.
rate_experiment stops a trial at its first image shorter than epsilon, an
absorbing state of its chain.

The search gives up past _WORD_STATES states, since for some alpha the
images are not few: an uncapped search finds 85,850 point states of x0 =
0.2 at alpha = 0.01048 to depth 200, and 1,228,662 images of [0, 1] at
alpha = 0.3 to depth 1000; and at alpha = 0.01048 and q = 95, rate's first
400,000 float states hold 1659 distinct images to 9 digits, one real image
reached as many floats. There the trials fold one letter column at a time
from the same bits, to the same bytes, as every other dist does: all read
their letters through process.letter_columns. Two functions alone choose
between the word tables and the fold: _row_ends for point and backward
folds, _stop_times for rate.
"""

from __future__ import annotations

import math

import numpy as np

from .process import (TILE_CELLS, ThetaDist, _fold_scalar, _words_in_order,
                      fold_interval_arrays, letter_columns, letter_words)

_WORD_STATES = 1 << 13    # the most states of a word automaton (8 MB a word table)


def _state_graph(support, start: tuple, depth: int | None = None,
                 epsilon: float | None = None):
    """(ends, succ): the exact-float states of a two-point dist's folds of an
    interval, or None when there are more than _WORD_STATES states.

    The states are the images (lo, hi) of start under words of the two
    letters support[0] and support[1], found by a breadth-first search, one
    level a word length. Each image is the scalar fold _fold_scalar, the
    same floats as fold_interval_arrays, so a state is exactly the pair of
    floats the per-letter fold reaches, and the states are keyed by those
    floats. A point start (x0, x0) without epsilon gives point states, keyed
    by the one float x and folded by |theta - x|, which is the same float as
    _fold_scalar on (x, x); [0, b] gives the backward images of
    backward_diam_ensemble; [0, 1] with epsilon gives rate's chain. The
    start is stored as start + 0.0, as Interval does, so a start of -0.0
    is the state +0.0 that |theta - theta| reaches.

    The last state, S, is a sink. A fold to a diameter below epsilon goes
    there (it is rate's STOP), and so do the letters from the states first
    reached at `depth`, which the search does not expand: a walk of at most
    depth letters never takes them. ends is an (S + 1, 2) float array of
    the states' ends (NaN for the sink), succ an (S + 1, 2) int32 array,
    succ[s, b] the state after letter support[b] from state s.
    """
    letters = support[:2].tolist()  # the two points a bit selects
    point = start[0] == start[1] and epsilon is None
    first = start[1] + 0.0 if point else (start[0] + 0.0, start[1] + 0.0)
    index = {first: 0}
    states = [first]
    succ = []  # succ[2 s + b] for the expanded states s, -1 for the sink
    level, level_end = 0, 1  # states[:level_end] lie at most `level` letters deep
    for s, state in enumerate(states):  # the loop sees the states it appends
        if s == level_end:
            level, level_end = level + 1, len(states)
        if level == depth:
            break
        for t in letters:
            if point:
                image = abs(t - state)
            else:
                image = _fold_scalar(t, *state)
                if epsilon is not None and image[1] - image[0] < epsilon:
                    succ.append(-1)
                    continue
            nxt = index.setdefault(image, len(states))
            if nxt == len(states):
                if nxt >= _WORD_STATES:
                    return None
                states.append(image)
            succ.append(nxt)
    sink = len(states)
    table = np.full((sink + 1, 2), sink, dtype=np.int32)
    table.ravel()[:len(succ)] = succ
    table[table < 0] = sink
    if point:  # the pairs (x, x)
        ends = np.array(states + [math.nan]).repeat(2).reshape(-1, 2)
    else:
        ends = np.array(states + [(math.nan, math.nan)])
    return ends, table


def _dist_graph(dist: ThetaDist, start: tuple, n: int):
    """_state_graph of start to depth n, or None where the letters of dist
    are not one bit each or the graph passes the state cap."""
    return _state_graph(dist.support, start, n) if dist._bits else None


def _compose(high: np.ndarray, low: np.ndarray, backward: bool) -> np.ndarray:
    """The state table of words whose high bits are a word of high's and
    whose low bits are a word of low's. Forward, the high bits are read
    first (the first letter is the top bit); backward, the low bits are.
    Each is built by takes along the state axis, with no 2-D fancy index."""
    if not backward:  # [s, h, l] = low[high[s, h], l]
        return low.take(high, axis=0).reshape(high.shape[0], -1)
    # [s, h, l] = high[low[s, l], h], one take a high word into its slice
    out = np.empty((low.shape[0], high.shape[1], low.shape[1]), np.int32)
    for h in range(high.shape[1]):
        np.take(high[:, h], low, out=out[:, h, :], mode="clip")
    return out.reshape(low.shape[0], -1)


def _word_table(succ: np.ndarray, letters: int, backward: bool = False) -> np.ndarray:
    """The flat int32 table of words of 1..8 letters, first letter in the
    word's top bit: entry (s << letters) + w is 256 times the state that
    word w leads to from state s. backward applies the word's letters from
    its lowest bit up instead, the order of a fold with letter 0 outermost.
    """
    table, power, size = None, succ, 1  # power: the table of words of `size` letters
    while size <= letters:
        if letters & size:  # the larger part takes the high bits
            table = power if table is None else _compose(power, table, backward)
        size *= 2
        if size <= letters:
            power = _compose(power, power, backward)
    if table is succ:
        table = table.copy()
    table <<= 8
    return table.ravel()


def _table_walk(tables: dict, keys: np.ndarray, letters: range) -> np.ndarray:
    """The state each row of keys reaches from state 0 through letters
    0 .. n-1, taken in the order of `letters`, one table lookup a word (see
    _word_table). Only the word of letter n - 1 may be short; it holds the
    word's top bits. Every entry lies in its table, so the takes clip, and
    numpy writes them straight into `at` instead of through a buffer."""
    at = np.zeros(keys.size, np.int32)  # 256 times the state
    step = np.empty_like(at)
    for word, js in _words_in_order(keys, letters):
        np.add(at, word, out=step)
        if len(js) < 8:  # (256 s + w) >> (8 - k) = (s << k) + the word's top k bits
            step >>= 8 - len(js)
        tables[len(js)].take(step, out=at, mode="clip")
    at >>= 8
    return at


def _row_ends(dist: ThetaDist, start: tuple, n: int, backward: bool, graph):
    """A function of row keys that gives each row's image (lo, hi) of start,
    a point (x0, x0) or an interval [0, b], after letters 0 .. n-1 of its
    row: letter 0 first, or, backward, last (outermost).

    graph is _dist_graph(dist, start, n), which a caller folding in both
    directions finds once. Given one, the rows walk its word tables, built
    here once for all blocks; given None, they fold a letter column at a
    time (process.letter_columns). Both give the same floats: both start
    from start + 0.0, so a start of -0.0 ends as +0.0 at n = 0 too.
    """
    lo0, hi0 = start[0] + 0.0, start[1] + 0.0
    order = range(n - 1, -1, -1) if backward else range(n)
    point = start[0] == start[1]  # its images are points (x, x) too
    if graph is not None:
        ends, succ = graph
        lo, hi = ends.T.copy()  # contiguous, for one gather each
        tables = {k: _word_table(succ, k, backward) for k in (8, n % 8) if k}

        def walk(keys):
            at = _table_walk(tables, keys, order)
            x = hi[at]
            return (x, x) if point else (lo[at], x)
        return walk

    if point:  # |theta - x| is the same float as the interval fold, in two passes
        def fold(keys):
            x = np.full(keys.size, lo0)
            for theta in letter_columns(dist, keys, order):
                np.abs(np.subtract(theta, x, out=x), out=x)
            return x, x
    else:
        def fold(keys):
            lo, hi = np.full(keys.size, lo0), np.full(keys.size, hi0)
            scratch = np.empty(keys.size), np.empty(keys.size)
            for theta in letter_columns(dist, keys, order):
                fold_interval_arrays(theta, lo, hi, out=(lo, hi), scratch=scratch)
            return lo, hi
    return fold


def _rate_automaton(alpha: float, epsilon: float):
    """(next_at, reads, stop), the rate chain eight letters a step, or None
    when it has more than _WORD_STATES states.

    The states are the exact float images (lo, hi) of [0, 1] whose diameter
    is at least epsilon (_state_graph), and a fold to a diameter below
    epsilon goes to one absorbing state, STOP, the last of the S + 1 states.
    For mu on {alpha, 1} the endpoints lie on the orbit of 0: the search
    finds 12 states at q = 41 and eps = 0.2, and a few thousand at most for
    a random alpha and q <= 99, but not for every alpha (see the module
    docstring).

    next_at is the 8-letter table of _word_table: next_at[256 s + w] is 256
    times the state that word w leads to from state s, so a step from the
    entry at is at = next_at[at + w], and stop = 256 STOP. reads[256 s + w]
    counts the letters of w read before STOP: 8 where w does not reach STOP
    from s, the position 1..8 of the letter that does, and 0 from STOP.
    Summed over a trial's words, it is the trial's stopping time.
    """
    graph = _state_graph(np.array([alpha, 1.0]), (0.0, 1.0), epsilon=epsilon)
    if graph is None:
        return None
    succ = graph[1]
    states = succ.shape[0]
    reads = np.ones(succ.shape, np.uint8)
    reads[-1] = 0
    two = _compose(succ, succ, False)
    for half in (succ, two, _compose(two, two, False)):  # reads of 2, 4, then 8 letters
        reads = (reads[:, :, None] + reads[half]).reshape(states, -1)
    return _word_table(succ, 8), reads.ravel(), 256 * (states - 1)


def _stop_times(alpha: float, epsilon: float, n_steps: int):
    """A function of row keys that gives each row's stopping time: how many
    letters of its row, cell 0 innermost, fold [0, 1] to a diameter below
    epsilon (0 if 1 < epsilon), or n_steps + 1 if n_steps letters do not; a
    stop past n_steps, in the last chunk, is a failure too. The rows step
    through _rate_automaton's table, or past the state cap fold their images
    [lo, hi] a letter at a time, to the same stops. The letters are read in
    chunks that grow with the letters used, a multiple of 8 letters each: at
    least one hash (64 letters) a row, and beyond that at most TILE_CELLS.
    """
    # chunk(state, keys, first, words) steps rows keys through letters first ..
    # first + 8 words - 1 to (when, state): when[i] counts the letters row i
    # read to stop, 0 if it did not stop
    automaton = _rate_automaton(alpha, epsilon)
    if automaton is not None:  # a row's state is its table entry
        next_at, reads, stop = automaton
        origin = np.zeros(1, np.int32)  # the entry of [0, 1]

        def chunk(at, keys, first, words):
            path = np.empty((words, at.size), np.int32)  # the table entry of each word step
            for step, word in zip(path, letter_words(keys, range(first // 8, first // 8 + words))):
                np.add(at, word, out=step)
                next_at.take(step, out=at, mode="clip")
            return np.where(at == stop, reads[path].sum(axis=0), 0), at
    else:  # a row's state is its image, a column of ends = [lo, hi]
        dist = ThetaDist.two_point(alpha)
        origin = np.array([[0.0], [1.0]])

        def chunk(ends, keys, first, words):
            lo, hi = ends
            diam = np.empty((8 * words, lo.size))
            scratch = np.empty_like(lo), np.empty_like(lo)
            for theta, d in zip(letter_columns(dist, keys, range(first, first + 8 * words)), diam):
                fold_interval_arrays(theta, lo, hi, out=(lo, hi), scratch=scratch)
                np.subtract(hi, lo, out=d)
            below = diam < epsilon
            return np.where(below.any(axis=0), below.argmax(axis=0) + 1, 0), ends

    def stop_times(keys):
        stops = np.full(keys.size, 0 if 1.0 < epsilon else n_steps + 1)
        live = np.flatnonzero(stops)  # rows still folding
        state = origin.repeat(live.size, axis=-1)  # every live row at [0, 1]
        j = 0  # letters applied to every live row
        while live.size and j < n_steps:
            words = min(max(8, min(j, TILE_CELLS // live.size) // 8), -(-(n_steps - j) // 8))
            when, state = chunk(state, keys[live], j, words)
            hit = np.flatnonzero(when)
            stops[live[hit]] = j + when[hit]
            going = when == 0
            live, state = live[going], state[..., going]
            j += 8 * words
        return stops
    return stop_times
