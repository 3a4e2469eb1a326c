"""The state chains of a two-point dist, and the folds that walk them.

For a two-point dist the folds run on one word automaton. The images of a
start point x0, of [0, b], or of [0, 1] down to a diameter epsilon, under
words of the two letters are few: 232 points of x0 = 0.2 to depth 50, 1585
images of [0, 1] to depth 1000. One breadth-first search per call
(_state_graph) finds them, and composes their one-letter table, by takes
along the state axis, into an int32 table of 8-letter words. A backward
word applies the same letters in reverse order, so its table is the
forward table with each word's bits reversed. Each byte of a hash, read
from the top, is one such word, so forward_values, both directions of
law_equality_report, backward_diam_ensemble and rate_experiment step every
trial one add and one take per eight letters, and fold no float; the takes
clip, since a take into an output in numpy's default mode copies through a
buffer. rho_walk_audit's label walk (experiments._label_walk) walks the
same kind of table: _word_table of the one-fold successor table of an orbit
window, stepped one lookup a word.

A point or backward state is the float x (of a point) or the pair of floats
(of an interval) that the per-letter fold reaches, since the reports are x
and the pair's diameter hi - lo, one value a row. The search gives up past
_WORD_STATES states, since for some alpha they are not few: an uncapped
search finds 85,850 point states of x0 = 0.2 at alpha = 0.01048 to depth
200, and 1,228,662 images of [0, 1] at alpha = 0.3 to depth 1000. There
_row_values, the one function that chooses, folds the trials one letter
column at a time from the same bits, to the same bytes, as every other dist
does: all read their letters through process.letter_columns.

rate_experiment reports stopping times, never floats, so its chain keys the
exact images of [0, 1], ints on the power-of-two grid of alpha, 1 and
epsilon, and a trial stops at its first image of exact diameter below
epsilon, an absorbing state. One real image is one state: 3741 at alpha =
0.01048 and q = 95, where float keys pass the cap. Every trial walks this
table (_stop_times), and no supported input is known to pass the cap.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import StructuralError
from .process import (TILE_CELLS, ThetaDist, _fold_scalar, _words_in_order,
                      fold_interval_arrays, letter_columns, letter_words)

_WORD_STATES = 1 << 13    # the most states of a word automaton (8 MB a word table)
_ROW_BLOCK = 1 << 12      # the entries of a backward word table reversed at a time
_REVERSED = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)])  # bytes, bits reversed


def _state_graph(support, start: tuple, depth: int | None = None,
                 epsilon: float | None = None):
    """(ends, succ): the states of a two-point dist's folds of an interval,
    or None when there are more than _WORD_STATES states.

    The states are the images (lo, hi) of start under words of the two
    letters support[0] and support[1], found by a breadth-first search, one
    level a word length. On floats each image is the scalar fold
    _fold_scalar, the same floats as fold_interval_arrays, so a state is
    exactly the pair of floats the per-letter fold reaches, and the states
    are keyed by those floats. A point start (x0, x0) gives point states,
    keyed by the one float x and folded by |theta - x|, which is the same
    float as _fold_scalar on (x, x); [0, b] gives the backward images of
    backward_diam_ensemble. The start, >= 0, is stored as its abs, which
    is start + 0.0 on floats, as Interval stores it, so a start of -0.0 is
    the state +0.0 that |theta - theta| reaches.

    On ints (rate's chain, put on an int grid by _rate_automaton)
    _fold_scalar is exact and its images stay ints, so one real image is
    one state, where the floats reach it as many.

    The last state, S, is a sink. A fold to a diameter below epsilon goes
    there (it is rate's STOP), and so do the letters from the states first
    reached at `depth`, which the search does not expand: a walk of at most
    depth letters never takes them. ends is an (S + 1, 2) float array of
    the states' ends (NaN for the sink), succ an (S + 1, 2) int32 array,
    succ[s, b] the state after letter support[b] from state s.
    """
    letters = support[:2].tolist()  # the two points a bit selects
    point = start[0] == start[1]
    first = abs(start[1]) if point else (abs(start[0]), abs(start[1]))
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


def _compose(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """The state table of words whose high bits, read first (the first
    letter is the top bit), are a word of high's and whose low bits are a
    word of low's: [s, h, l] = low[high[s, h], l], one take along the state
    axis, with no 2-D fancy index. _word_table builds a backward table from
    this forward one by reversing each word's bits."""
    return low.take(high, axis=0).reshape(high.shape[0], -1)


def _word_table(succ: np.ndarray, letters: int, backward: bool = False) -> np.ndarray:
    """The flat int32 table of words of 1..8 letters, first letter in the
    word's top bit: entry (s << letters) + w is 256 times the state that
    word w leads to from state s. backward applies the word's letters from
    its lowest bit up instead, the order of a fold with letter 0 outermost:
    the forward table with each word's bits reversed, a column permutation
    made in place _ROW_BLOCK entries at a time, so no second table is live.
    """
    # power: the table of words of `size` letters, a copy of succ at first,
    # since the table is reversed and shifted in place
    table, power, size = None, succ.copy(), 1
    while size <= letters:
        if letters & size:  # the larger part takes the high bits
            table = power if table is None else _compose(power, table)
        size *= 2
        if size <= letters:
            power = _compose(power, power)
    if backward:
        order = _REVERSED[:1 << letters] >> (8 - letters)
        rows = _ROW_BLOCK >> letters
        for r in range(0, len(table), rows):
            table[r:r + rows] = table[r:r + rows].take(order, axis=1)
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


def _row_values(dist: ThetaDist, start: tuple, n: int, backward: bool, graph):
    """A function of row keys that gives each row's value after letters
    0 .. n-1 of its row, letter 0 first, or, backward, last (outermost): the
    image x of a point start (x0, x0), or the diameter hi - lo of the image
    of an interval start [0, b].

    graph is _dist_graph(dist, start, n), which a caller folding in both
    directions finds once. Given one, the rows walk its word tables, built
    here once for all blocks, and gather their values from one table of the
    states' values; given None, they fold a letter column at a time
    (process.letter_columns). Both give the same floats: both start from
    start + 0.0, so a start of -0.0 ends as +0.0 at n = 0 too, and a state's
    fl(hi - lo) is the row's.
    """
    lo0, hi0 = start[0] + 0.0, start[1] + 0.0
    order = range(n - 1, -1, -1) if backward else range(n)
    point = start[0] == start[1]  # its images are points (x, x) too
    if graph is not None:
        ends, succ = graph
        values = ends[:, 1].copy() if point else ends[:, 1] - ends[:, 0]  # contiguous
        tables = {k: _word_table(succ, k, backward) for k in (8, n % 8) if k}
        return lambda keys: values[_table_walk(tables, keys, order)]

    if point:  # |theta - x| is the same float as the interval fold, in two passes
        def fold(keys):
            x = np.full(keys.size, lo0)
            for theta in letter_columns(dist, keys, order):
                np.abs(np.subtract(theta, x, out=x), out=x)
            return x
    else:
        def fold(keys):
            lo, hi = np.full(keys.size, lo0), np.full(keys.size, hi0)
            scratch = np.empty(keys.size), np.empty(keys.size)
            for theta in letter_columns(dist, keys, order):
                fold_interval_arrays(theta, lo, hi, out=(lo, hi), scratch=scratch)
            return np.subtract(hi, lo, out=hi)
    return fold


def _rate_automaton(alpha: float, epsilon: float):
    """(next_at, reads, stop), the rate chain eight letters a step, or None
    when it has more than _WORD_STATES states.

    The states are the exact images (lo, hi) of [0, 1] whose diameter is at
    least epsilon, and a fold to a diameter below epsilon goes to one
    absorbing state, STOP, the last of the S + 1 states: alpha, 1 and
    epsilon times the largest of their (power-of-two) denominators are
    ints, which _state_graph folds exactly. The search finds 12 states at q
    = 41 and eps = 0.2, 3741 at alpha = 0.01048, q = 95 and eps = 10/q, and
    4278 at alpha = 0.0101, q = 99 and the least eps above 8/q.

    next_at is the 8-letter table of _word_table: next_at[256 s + w] is 256
    times the state that word w leads to from state s, so a step from the
    entry at is at = next_at[at + w], and stop = 256 STOP. reads[256 s + w]
    counts the letters of w read before STOP: 8 where w does not reach STOP
    from s, the position 1..8 of the letter that does, and 0 from STOP.
    Summed over a trial's words, it is the trial's stopping time.
    """
    ratios = [v.as_integer_ratio() for v in (alpha, 1.0, epsilon)]
    scale = max(d for _, d in ratios)  # q_k <= 99 keeps alpha, and so scale, below 2^60
    grid_alpha, one, grid_epsilon = (n * (scale // d) for n, d in ratios)
    graph = _state_graph(np.array([grid_alpha, one]), (0, one), epsilon=grid_epsilon)
    if graph is None:
        return None
    table = graph[1]  # the table of words of 1, 2, 4, then 8 letters
    states = table.shape[0]
    reads = np.ones(table.shape, np.uint8)
    reads[-1] = 0
    for _ in range(3):
        reads = (reads[:, :, None] + reads[table]).reshape(states, -1)
        table = _compose(table, table)
    table <<= 8
    return table.ravel(), reads.ravel(), 256 * (states - 1)


def _stop_times(alpha: float, epsilon: float, n_steps: int):
    """A function of row keys that gives each row's stopping time: how many
    letters of its row, cell 0 innermost, fold [0, 1] to an exact diameter
    below epsilon (0 if 1 < epsilon), or n_steps + 1 if n_steps letters do
    not; a stop past n_steps, in the last chunk, is a failure too. Every row
    steps through _rate_automaton's table. The letters are read in chunks
    that grow with the letters used, a multiple of 8 letters each: at least
    one hash (64 letters) a row, and beyond that at most TILE_CELLS.

    The float fold of interval_fold rounds, so it can stop at another
    letter where an exact diameter lies within rounding of epsilon: the
    letter alpha = 0.1 gives 1 - alpha < 0.9, where fl(1 - 0.1) = 0.9.
    A chain past _WORD_STATES states is a StructuralError, an empirical
    guard, not a proven bound. The measured worst case is alpha =
    1/(m + 0.01), whose q_1 is m, at the least epsilon above 8/m: its chain
    has (m - 6)(m - 7)/2 live states, 4278 at m = 99, for every m in 10..99
    (tests/test_chain.py::test_rate_chain_size_at_the_worst_epsilon), and
    scans of other alpha at q_k <= 99 found no larger chain.
    """
    automaton = _rate_automaton(alpha, epsilon)
    if automaton is None:
        raise StructuralError(f"the rate chain of alpha = {alpha!r}, epsilon = {epsilon!r}"
                              f" has more than {_WORD_STATES} states")
    next_at, reads, stop = automaton

    def stop_times(keys):
        stops = np.full(keys.size, 0 if 1.0 < epsilon else n_steps + 1)
        live = np.flatnonzero(stops)  # rows still folding
        at = np.zeros(live.size, np.int32)  # each live row's table entry: [0, 1]'s, 0
        j = 0  # letters applied to every live row
        while live.size and j < n_steps:
            words = min(max(8, min(j, TILE_CELLS // live.size) // 8), -(-(n_steps - j) // 8))
            path = np.empty((words, at.size), np.int32)  # the table entry of each word step
            for step, word in zip(path, letter_words(keys[live], range(j // 8, j // 8 + words))):
                np.add(at, word, out=step)
                next_at.take(step, out=at, mode="clip")
            hit = np.flatnonzero(at == stop)
            stops[live[hit]] = j + reads[path[:, hit]].sum(axis=0)
            going = at != stop
            live, at = live[going], at[going]
            j += 8 * words
        return stops
    return stop_times
