"""The two-point word automaton of foldmap._chain against plain Python models.

The state search is checked against a short tuple-keyed breadth-first
search by the scalar fold, the word tables against a per-word composition
of the one-letter table, and the table walk against the per-letter fold,
down to the sign of a zero.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from foldmap import ThetaDist, _chain
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
def test_word_table_composes_words(states, backward):
    succ = np.random.default_rng(states).integers(0, states, (states, 2), dtype=np.int32)
    kept = succ.copy()
    for letters in range(1, 9):
        got = _chain._word_table(succ, letters, backward)
        assert got.dtype == np.int32
        assert np.array_equal(got, naive_word_table(succ, letters, backward))
    assert np.array_equal(succ, kept)


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("n", range(4))
def test_negative_zero_start_ends_as_zero(n, backward):
    # -0.0 == 0.0 as a key, so a start kept as -0.0 would be the state that
    # |alpha - alpha| = +0.0 reaches, and the tables would give -0.0 there
    start = (-0.0, -0.0)
    keys = substream_keys(5, 0, 64)
    tables = _chain._row_ends(TWO_POINT, start, n, backward,
                              _chain._dist_graph(TWO_POINT, start, n))(keys)[1]
    folds = _chain._row_ends(TWO_POINT, start, n, backward, None)(keys)[1]
    assert tables.tobytes() == folds.tobytes()
    assert not np.signbit(tables).any()
    want = bit_oracle.point_folds((ALPHA, 1.0), 0.0, n, 5, 0, 64, backward)
    assert tables.tobytes() == want.tobytes()
