"""The two-point word automaton of foldmap._chain against plain Python models.

The state search is checked against a short tuple-keyed breadth-first
search by the scalar fold, rate's exact chain against one keyed by
Fractions, the word tables against a per-word composition of the one-letter
table, and the table walk against the per-letter fold, down to the sign of
a zero.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foldmap import ThetaDist, _chain
from foldmap.contfrac import contfrac_expand, convergents
from foldmap.process import _fold_scalar, substream_keys

import bit_oracle

ALPHA = math.sqrt(0.5)
TWO_POINT = ThetaDist.two_point(ALPHA)


def tuple_graph(support, start, depth):
    """(ends, succ) of every image of start under words of at most depth
    letters, each a pair (lo, hi) folded by _fold_scalar, numbered in order
    of discovery one level at a time; None past _chain._WORD_STATES states."""
    start = (start[0] + 0.0, start[1] + 0.0)
    index, states, succ = {start: 0}, [start], {}
    level = [0]
    for _ in range(depth):
        deeper = []
        for s in level:
            for b, t in enumerate(support):
                image = _fold_scalar(t, *states[s])
                if image not in index:
                    if len(states) >= _chain._WORD_STATES:
                        return None
                    index[image] = len(states)
                    states.append(image)
                    deeper.append(index[image])
                succ[s, b] = index[image]
        level = deeper
    sink = len(states)
    table = np.full((sink + 1, 2), sink, dtype=np.int32)
    for (s, b), t in succ.items():
        table[s, b] = t
    return np.array(states + [(math.nan, math.nan)]), table


STARTS = {"zero": lambda a, u: (0.0, 0.0), "negative zero": lambda a, u: (-0.0, -0.0),
          "alpha": lambda a, u: (a, a), "one minus alpha": lambda a, u: (1 - a, 1 - a),
          "random": lambda a, u: (u, u), "interval": lambda a, u: (0.0, 1.0)}


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       kind=st.sampled_from(sorted(STARTS)), u=st.floats(0.0, 1.5),
       depth=st.integers(0, 300))
@example(alpha=0.01048, kind="random", u=0.2, depth=200)  # 85,850 states uncapped
@example(alpha=0.3, kind="interval", u=0.0, depth=300)
@example(alpha=ALPHA, kind="random", u=0.2, depth=200)
def test_state_graph_is_the_tuple_search(alpha, kind, u, depth):
    support = np.array([alpha, 1.0])
    start = STARTS[kind](alpha, u)
    got = _chain._state_graph(support, start, depth)
    want = tuple_graph(support.tolist(), start, depth)
    if want is None:
        assert got is None
        return
    ends, succ = got
    assert ends.dtype == np.float64 and succ.dtype == np.int32
    assert ends.tobytes() == want[0].tobytes()  # bit for bit, NaN sink and sign of 0
    assert np.array_equal(succ, want[1])


def fraction_chain(alpha, epsilon):
    """succ of rate's chain by a breadth-first search on Fractions: the
    images (lo, hi) of [0, 1] under the letters alpha and 1 whose diameter
    is at least epsilon, numbered in order of discovery, then STOP, where
    every shorter image goes; None past _chain._WORD_STATES states."""
    letters, epsilon = (Fraction(alpha), Fraction(1)), Fraction(epsilon)
    start = (Fraction(0), Fraction(1))
    index, states, succ = {start: 0}, [start], []
    for lo, hi in states:  # the queue: the loop sees the states it appends
        for t in letters:
            image = (max(0, lo - t, t - hi), max(abs(t - lo), abs(t - hi)))
            if image[1] - image[0] < epsilon:
                succ.append(None)
                continue
            if image not in index:
                if len(states) >= _chain._WORD_STATES:
                    return None
                index[image] = len(states)
                states.append(image)
            succ.append(index[image])
    stop = len(states)
    return np.array([stop if s is None else s for s in succ] + [stop, stop],
                    np.int32).reshape(-1, 2)


@settings(max_examples=15, deadline=None)
@given(alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       epsilon=st.floats(0.05, 1.5))
@example(alpha=0.01048, epsilon=10 / 95)  # 3741 states; floats pass the cap
@example(alpha=0.0105, epsilon=0.2)
@example(alpha=0.0101, epsilon=float(np.nextafter(8 / 99, 1.0)))  # 4278 states
@example(alpha=ALPHA, epsilon=0.2)
@example(alpha=ALPHA, epsilon=ALPHA)  # [0, alpha] has diameter epsilon: no stop
def test_rate_chain_is_the_fraction_search(alpha, epsilon):
    # on the int grid where alpha, 1 and epsilon are whole, the search is exact
    scale = max(Fraction(v).denominator for v in (alpha, 1.0, epsilon))
    grid_alpha, one, grid_epsilon = (int(Fraction(v) * scale) for v in (alpha, 1.0, epsilon))
    got = _chain._state_graph(np.array([grid_alpha, one]), (0, one), epsilon=grid_epsilon)
    want = fraction_chain(alpha, epsilon)
    automaton = _chain._rate_automaton(alpha, epsilon)
    if want is None:
        assert got is None and automaton is None
        return
    assert got[1].dtype == np.int32
    assert np.array_equal(got[1], want)
    next_at, reads, stop = automaton  # rate's tables compose this chain
    assert stop == 256 * (len(want) - 1)
    assert np.array_equal(next_at, _chain._word_table(want, 8))


@pytest.mark.parametrize("m", range(10, 100))
def test_rate_chain_size_at_the_worst_epsilon(m):
    # alpha = 1/(m + 0.01) has q_1 = m, and at the least epsilon above 8/m its
    # chain has (m - 6)(m - 7)/2 live states, as many as the pairs of a 1/m
    # grid on [0, 1] at least 8/m apart: the largest chains found under
    # rate's q_k cap
    alpha = 1 / (m + 0.01)
    assert convergents(contfrac_expand(alpha, 1))[1].q == m
    _, _, stop = _chain._rate_automaton(alpha, math.nextafter(8 / m, 1))
    live = stop // 256  # STOP is the last state
    assert live == (m - 6) * (m - 7) // 2
    assert live < _chain._WORD_STATES


def naive_word_table(succ, letters, backward):
    """(s << letters) + w -> 256 times the state word w leads to from s,
    one letter at a time: the first letter is w's top bit, or, backward,
    its lowest bit."""
    table = np.empty((succ.shape[0], 1 << letters), np.int64)
    for w in range(1 << letters):
        bits = [(w >> (letters - 1 - i)) & 1 for i in range(letters)]
        at = np.arange(succ.shape[0])
        for b in reversed(bits) if backward else bits:
            at = succ[at, b]
        table[:, w] = 256 * at
    return table.ravel()


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("states", [1, 2, 7, 300])
def test_word_table_composes_words(states, backward, monkeypatch):
    succ = np.random.default_rng(states).integers(0, states, (states, 2), dtype=np.int32)
    kept = succ.copy()
    block = _chain._ROW_BLOCK
    for letters in range(1, 9):
        want = naive_word_table(succ, letters, backward)
        # the backward bits are reversed a block of rows at a time: at the
        # default size, and at 7 rows a block (43 blocks, the last of 6 rows,
        # at 300 states)
        for entries in (block, 7 << letters):
            monkeypatch.setattr(_chain, "_ROW_BLOCK", entries)
            got = _chain._word_table(succ, letters, backward)
            assert got.dtype == np.int32
            assert np.array_equal(got, want)
            assert not np.shares_memory(got, succ)
            assert np.array_equal(succ, kept)


def test_backward_word_table_peaks_as_the_forward_one():
    # the reversal permutes the forward table in place, so the backward
    # build holds at most one row block more than the forward build
    succ = _chain._dist_graph(TWO_POINT, (0.2, 0.2), 200)[1]
    assert len(succ) == 935
    peaks = []
    for backward in (False, True):
        tracemalloc.start()
        try:
            _chain._word_table(succ, 8, backward)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4 * _chain._ROW_BLOCK  # int32 entries


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("n", range(4))
def test_negative_zero_start_ends_as_zero(n, backward):
    # -0.0 == 0.0 as a key, so a start kept as -0.0 would be the state that
    # |alpha - alpha| = +0.0 reaches, and the tables would give -0.0 there
    start = (-0.0, -0.0)
    keys = substream_keys(5, 0, 64)
    tables = _chain._row_values(TWO_POINT, start, n, backward,
                                _chain._dist_graph(TWO_POINT, start, n))(keys)
    folds = _chain._row_values(TWO_POINT, start, n, backward, None)(keys)
    assert tables.tobytes() == folds.tobytes()
    assert not np.signbit(tables).any()
    want = bit_oracle.point_folds((ALPHA, 1.0), 0.0, n, 5, 0, 64, backward)
    assert tables.tobytes() == want.tobytes()
