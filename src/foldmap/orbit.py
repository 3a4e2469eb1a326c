"""Symbolic orbit labels, the orbit graph, and its coordinate structure.

Under the two maps x -> |alpha - x| and x -> |1 - x| the forward orbit of a
point x stays inside { <n*alpha + eps*x> : n integer, eps = +-1 }, so each
reachable value carries an integer label (n, eps). The label automaton below
reproduces both maps exactly on labels, which turns trajectory questions into
walks on a graph whose vertices are labels inside a finite window |n| <= W.

Vertices are classified Small/Medium/Large by their value relative to the two
cuts alpha and 1-alpha (roles swap for alpha < 1/2). Values are always
recomputed from labels, never propagated, so round-off stays below 1e-9 for
|n| up to 10^6, and taken mod 1 by fractional_part. build_graph_window scans
its window one tile of process.TILE_CELLS labels at a time (_scan_window):
each tile's values, class-tie check and classes are made in one pass over
buffers that fit L2, straight into the output arrays. The build and
structure_stats then hold the values, the classes and one sorted copy, whose
gaps are taken a quarter tile at a time: a peak of 6.6 MiB at W = 10^5 and
65.0 MiB at W = 10^6 (tracemalloc).

Give label (n, eps) the position p = eps*n: the full fold keeps p and the
alpha fold moves it to p - eps, so every window graph is a ladder whose rungs
are the full-fold edges and whose alpha edges join adjacent positions, one
edge per pair, chosen by value >= alpha. A window thus stores only values.
rho_chart assigns each vertex a signed graph distance from a small base
vertex, the coordinate along which a random theta-walk becomes a simple +-1
walk: one cumulative sum of step costs 1 or 2 over positions. The chart also
keeps the minimum vertex value of every distance level as a dense array.
shrink_word searches words over {alpha, beta} that fold a value below a
threshold.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import (ClassBoundaryError, PrecisionError, PreconditionError,
                     StructuralError, WordNotFoundError, as_int, comparable)
from .process import TILE_CELLS

W_MAX = 10 ** 6          # |n| cap keeping label values accurate to < 1e-9
DEFAULT_WINDOW = 10 ** 4
SINGULAR_TOL = 1e-10
CLASS_TOL = 1e-12
_MARGIN = 2              # the |n| positions at each window end that statistics skip


@dataclass(frozen=True)
class OrbitLabel:
    """Symbolic name (n, eps) of the orbit value <n*alpha + eps*x>."""

    n: int
    eps: int

    def __post_init__(self):
        as_int(self.n, "n")
        if self.eps not in (1, -1):
            raise PreconditionError("eps must be +1 or -1")

    def __str__(self):
        return f"({self.n},{'+1' if self.eps == 1 else '-1'})"


class VertexClass(IntEnum):
    SMALL = 0
    MEDIUM = 1
    LARGE = 2


def _check_alpha(alpha: float) -> None:
    """0 < alpha < 1, which the ladder rule needs; rejects NaN, and a str,
    None or other non-number, as well. It adds no call: find_close_k makes
    one check per grid point."""
    try:
        if not 0.0 < alpha < 1.0:
            raise PreconditionError("alpha must lie in (0, 1)")
    except TypeError:
        raise PreconditionError("alpha must be a number") from None


def label_value(alpha: float, x: float, label: OrbitLabel) -> float:
    """Value <n*alpha + eps*x> of a label, accurate below 1e-9 in the window."""
    _check_alpha(alpha)
    if abs(label.n) > W_MAX:
        raise PrecisionError(f"|n| > {W_MAX} exceeds the precision window")
    if not 0.0 <= comparable(x, "x", "a number") <= 1.0:
        raise PreconditionError("x must lie in [0, 1]")
    return (label.n * alpha + label.eps * x) % 1.0


def apply_theta_label(alpha: float, x: float, label: OrbitLabel,
                      theta: float) -> OrbitLabel:
    """Label automaton: the image label of one fold at theta in {alpha, 1}.

    Mirrors step() on values: the full fold negates the label, the alpha fold
    shifts n down when the value clears alpha and otherwise folds through 0,
    negating both coordinates. For singular x some labels share a value and
    the result is one valid representative.
    """
    value = label_value(alpha, x, label)  # checks alpha and x for either fold
    if theta == 1.0:
        return OrbitLabel(-label.n, -label.eps)
    if theta != alpha:
        raise PreconditionError("theta must be alpha or 1")
    if value >= alpha:
        return OrbitLabel(label.n - 1, label.eps)
    return OrbitLabel(-(label.n - 1), -label.eps)


def fractional_part(y: np.ndarray) -> np.ndarray:
    """y mod 1 of a float array, as y - floor(y): bit for bit y % 1.0 for finite y.

    For y >= 0 the difference is exact (floor(y) > y/2 once y >= 1), as fmod
    is. For y < 0 with fmod(y, 1) = r, both forms round the same real r + 1
    once, so a tiny negative y gives 1.0 either way; an integer y, -0.0
    included, gives +0.0. Two vector passes, where % calls fmod per element.
    """
    out = np.floor(y)
    return np.subtract(y, out, out=out)


def window_values(alpha: float, x: float, window: int) -> np.ndarray:
    """Values <n*alpha + eps*x> of the labels |n| <= W, in window index order."""
    n = np.arange(-window, window + 1, dtype=float)  # exact, and no int-to-float pass
    n *= alpha
    return fractional_part(np.concatenate([n + x, n - x]))


def alpha_targets(values: np.ndarray, alpha: float, window: int) -> np.ndarray:
    """Index of each vertex's alpha image by the ladder rule, -1 where it leaves.

    The alpha image of index i is i-1 when values[i] >= alpha and else 2m-i
    (m = 2W+1); a vertex at n = -W has none inside the window.
    """
    m = 2 * window + 1
    i = np.arange(2 * m)
    target = np.where(values >= alpha, i - 1, 2 * m - i)
    target[::m] = -1
    return target


def _scan_window(alpha: float, x: float, window: int, keep: bool = True):
    """(values, classes) of the labels |n| <= W, one tile of TILE_CELLS labels at a time.

    A tile takes <n*alpha +- x> by window_values' float operations, bit for
    bit, writing the values straight into their slice of the output. Then it
    raises ClassBoundaryError for its first value within CLASS_TOL of a class
    cut, so the error names the first such label in index order, and writes
    the int8 classes by strict inequalities: 0 below min(alpha, 1-alpha), 1
    below the other cut, else 2. With keep False the values only pass through
    a tile buffer and no class is made, so only the tie check is left; it
    returns None. A tile works in about 1.7 MB: its slices of the values and
    classes, the ramp of n and one work buffer.
    """
    m = 2 * window + 1
    width = min(m, TILE_CELLS)
    lo_cut, hi_cut = sorted((alpha, 1.0 - alpha))
    ramp = np.arange(width, dtype=float)  # n - start of a tile, exact
    work = np.empty(width)  # a tile's n*alpha, then its floors, then distances to a cut
    above = np.empty(width, dtype=bool)
    values = np.empty(2 * m if keep else width)
    classes = np.empty(2 * m, dtype=np.int8) if keep else None
    for row, shift in enumerate((np.add, np.subtract)):  # eps = +1, then eps = -1
        for start in range(0, m, width):
            k = min(width, m - start)
            at = row * m + start
            v = values[at:at + k] if keep else values[:k]
            t = np.add(ramp[:k], start - window, out=work[:k])
            shift(np.multiply(t, alpha, out=t), x, out=v)
            np.subtract(v, np.floor(v, out=t), out=v)  # fractional_part
            near = min(np.abs(np.subtract(v, cut, out=t), out=t).min()
                       for cut in (alpha, 1.0 - alpha))
            if near <= CLASS_TOL:
                on_cut = np.abs(v - alpha) <= CLASS_TOL
                on_cut |= np.abs(v - (1.0 - alpha)) <= CLASS_TOL
                i = int(np.flatnonzero(on_cut)[0])
                raise ClassBoundaryError(
                    f"label {_label_of(at + i, window)} value {float(v[i])!r} ties a class "
                    "boundary; alpha rational or x on a cut orbit")
            if keep:
                cls = classes[at:at + k]
                np.greater_equal(v, lo_cut, out=cls.view(np.bool_))
                cls += np.greater_equal(v, hi_cut, out=above[:k])
    return (values, classes) if keep else None


def _label_of(index: int, window: int) -> OrbitLabel:
    block, offset = divmod(int(index), 2 * window + 1)
    return OrbitLabel(offset - window, 1 if block == 0 else -1)


class OrbitGraphWindow:
    """Materialized orbit graph on the labels |n| <= W, both eps rows.

    Vertices are indexed eps-row-major, i = block*m + (n+W) with m = 2W+1 and
    block 0 for eps=+1, 1 for eps=-1. Edges are not stored; they follow the
    ladder rule of apply_theta_label: the rung of i goes to 2m-1-i, the alpha
    edge to i-1 when values[i] >= alpha and else to 2m-i, and a vertex at
    n = -W has none (its image leaves the window). Immutable once built.
    """

    def __init__(self, alpha, x, window, values, classes, coincidences):
        self.alpha = alpha
        self.base_x = x
        self.window = window
        self.values = values
        self.classes = classes
        self.coincidences = coincidences
        for arr in (values, classes):
            arr.flags.writeable = False

    # ---- indexing -------------------------------------------------------

    @property
    def size(self) -> int:
        return self.values.size

    def index_of(self, label: OrbitLabel) -> int:
        if abs(label.n) > self.window:
            raise PreconditionError(f"label {label} outside window {self.window}")
        block = 0 if label.eps == 1 else 1
        return block * (2 * self.window + 1) + (label.n + self.window)

    def label_at(self, index: int) -> OrbitLabel:
        return _label_of(index, self.window)

    def out_edges(self, label: OrbitLabel):
        """[(theta, target_label), ...] for the automaton images inside the window."""
        self.index_of(label)  # raises for a label outside the window
        images = [(theta, apply_theta_label(self.alpha, self.base_x, label, theta))
                  for theta in (1.0, self.alpha)]
        return [(theta, t) for theta, t in images if abs(t.n) <= self.window]

    def class_frequencies(self) -> dict:
        """Share of each class among the labels |n| <= W - _MARGIN of both rows.

        Two counts over the interior of both rows: the classes above SMALL
        (nonzero) and the LARGE ones.
        """
        check_margin(self.window)
        m = 2 * self.window + 1
        interior = self.classes.reshape(2, m)[:, _MARGIN:m - _MARGIN]
        above_small = int(np.count_nonzero(interior))
        large = int(np.count_nonzero(interior == VertexClass.LARGE))
        counts = (interior.size - above_small, above_small - large, large)
        return {c.name.lower(): counts[c] / interior.size for c in VertexClass}

    # ---- export ---------------------------------------------------------

    def to_dot(self) -> str:
        """DOT text: vertices labeled '(n,eps)/Class', edges labeled a or 1.

        Every vertex line, then the rung edge of every vertex followed by its
        alpha edge, which a vertex at n = -W lacks. Each line's last piece
        carries the next line's indent and quote.
        """
        labels = _label_texts(self.window)
        size = len(labels)
        ends = np.array([f'/{c.name.capitalize()}"];\n  "' for c in VertexClass],
                        dtype=object)
        pieces = [None] * (1 + 12 * size)
        pieces[0] = 'digraph orbit {\n  "'
        at = _interleave(pieces, 1, size, labels, '" [label="', labels,
                         ends[self.classes].tolist())
        # the rung of i is 2m-1-i, the label list read backwards
        targets = alpha_targets(self.values, self.alpha, self.window).tolist()
        _interleave(pieces, at, size, labels, '" -> "', labels[::-1], '" [label="1"];\n  "',
                    labels, '" -> "', map(labels.__getitem__, targets),
                    '" [label="a"];\n  "')
        for i in (size // 2, 0):  # n = -W: drop the alpha edge, the later vertex first
            del pieces[at + 8 * i + 4:at + 8 * i + 8]
        pieces[-1] = '" [label="a"];\n}\n'  # the last vertex, n = W, has an alpha edge
        return "".join(pieces)

    def to_csv(self) -> str:
        """CSV text: one row n,eps,value,class per vertex, in index order."""
        keys = _label_texts(self.window, ("", ",1,", ",-1,"))
        ends = np.array([f",{c.name.lower()}\n" for c in VertexClass], dtype=object)
        pieces = [None] * (1 + 3 * len(keys))
        pieces[0] = "n,eps,value,class\n"
        _interleave(pieces, 1, len(keys), keys, map(repr, self.values.tolist()),
                    ends[self.classes].tolist())
        return "".join(pieces)


def _label_texts(window: int, wrap=("(", ",+1)", ",-1)")) -> list[str]:
    """The text of every window label in index order: str(label_at(i)) by default.

    wrap = (before, after at eps = +1, after at eps = -1) surrounds str(n).
    One str per n, then one join per eps row and one split.
    """
    before, plus, minus = wrap
    ns = list(map(str, range(-window, window + 1)))
    return "\n".join(before + (after + "\n" + before).join(ns) + after
                     for after in (plus, minus)).split("\n")


def _interleave(pieces: list, start: int, rows: int, *columns) -> int:
    """Write columns row by row into pieces[start:]; returns the end index.

    Piece j of row r lands at start + r*k + j for k columns; a str column is
    the same piece on every row, any other one holds a piece per row.
    """
    k = len(columns)
    stop = start + k * rows
    for j, column in enumerate(columns):
        pieces[start + j:stop:k] = [column] * rows if isinstance(column, str) else column
    return stop


def check_graph_window(alpha: float, x: float, window: int) -> None:
    """build_graph_window's preconditions: 0 < alpha < 1, 0 <= x <= 1, 1 <= window <= W_MAX."""
    _check_alpha(alpha)
    if not comparable(window, "window") >= 1:  # a NaN fails the comparison too
        raise PreconditionError("window must be >= 1")
    as_int(window, "window")
    if window > W_MAX:
        raise PrecisionError(f"window > {W_MAX} exceeds the precision cap")
    if not 0.0 <= comparable(x, "x", "a number") <= 1.0:
        raise PreconditionError("x must lie in [0, 1]")


def check_margin(window: int) -> None:
    """The precondition of class_frequencies: some vertex inside the margin."""
    if window < _MARGIN:
        raise PreconditionError(f"window {window} has no vertex inside margin {_MARGIN}")


def build_graph_window(alpha: float, x: float, window: int) -> OrbitGraphWindow:
    """Build the orbit graph of x on the label window |n| <= W.

    Classifies every vertex (raising ClassBoundaryError if any value ties a
    class cut within 1e-12) and records value coincidences within 1e-10 as
    label pairs instead of merging vertices.
    """
    check_graph_window(alpha, x, window)
    values, classes = _scan_window(alpha, x, window)

    # the sorted values are the same either way, so the stable order that
    # names the pairs is only needed when some gap is below the tolerance;
    # the gaps of the one sorted copy are taken a quarter tile at a time, a
    # buffer small beside the copy
    ordered = np.sort(values)
    gaps = np.empty(min(ordered.size - 1, TILE_CELLS // 4))
    close = []
    for start in range(0, ordered.size - 1, gaps.size):
        stop = min(start + gaps.size, ordered.size - 1)
        gap = np.subtract(ordered[start + 1:stop + 1], ordered[start:stop],
                          out=gaps[:stop - start])
        if gap.min() < SINGULAR_TOL:
            close.extend((np.flatnonzero(gap < SINGULAR_TOL) + start).tolist())
    del ordered, gaps
    order = np.argsort(values, kind="stable") if close else None
    coincidences = [(_label_of(order[j], window), _label_of(order[j + 1], window))
                    for j in close]

    return OrbitGraphWindow(alpha, x, window, values, classes, coincidences)


# ---- signed distance chart ----------------------------------------------


@dataclass(frozen=True)
class RhoChart:
    """Signed graph distance from a small base vertex v0; rho(v0) = 0.

    rho is positive on the component of the v0-deleted graph containing the
    label (n0+1, eps0) and negative on the other; every window vertex is
    charted. level_min[r - level_lo] is the smallest vertex value at rho = r,
    for every level r from level_lo = min(rho) to max(rho); distance levels
    are contiguous, so every entry is finite. Both arrays are read-only.
    """

    v0: OrbitLabel
    rho: np.ndarray
    level_lo: int
    level_min: np.ndarray

    def rho_of(self, graph: OrbitGraphWindow, label: OrbitLabel) -> int:
        return int(self.rho[graph.index_of(label)])


def rho_chart(graph: OrbitGraphWindow, x0_label: OrbitLabel) -> RhoChart:
    """Chart of signed graph distances from x0_label on a build_graph_window graph.

    Preconditions: the base vertex value lies strictly inside the small class
    (0 < value < min(alpha, 1-alpha)), and its orientation reference
    (n0+1, eps0) lies in the window. A base at the lower window edge has
    nothing below it, so it does not cut the window: StructuralError.

    Write a_p = (p, eps0) and b_p = (-p, -eps0), so the base is a_{n0} and
    the full-fold rungs join a_p and b_p. Since value(b_p) = 1 - value(a_p)
    and value(a_{p+1}) = <value(a_p) + alpha>, exactly one alpha edge joins
    positions p and p+1: a_{p+1} -> a_p when value(a_{p+1}) >= alpha, else
    b_p -> a_{p+1} (build_graph_window rejects the tie). A step between
    positions thus costs 1 along row a or 2 over a rung, b_p sits one level
    above a_p, and rho(a_p) = C(p) - C(n0) for the cumulative step cost C:
    the Beatty count of Lothaire, Algebraic Combinatorics on Words, ch. 2.
    """
    v0 = graph.index_of(x0_label)
    val = graph.values[v0]
    if not 0.0 < val < min(graph.alpha, 1.0 - graph.alpha):
        raise PreconditionError(
            f"base vertex value {val!r} is not strictly inside the small class")
    w, m = graph.window, 2 * graph.window + 1
    if x0_label.n == -w:
        raise StructuralError("base vertex is not a cut vertex of the window")
    # the orientation reference; past the upper window edge this raises
    graph.index_of(OrbitLabel(x0_label.n + 1, x0_label.eps))

    a = np.arange(m) + (0 if x0_label.eps == 1 else m)
    cost = np.where(graph.values[a[1:]] >= graph.alpha, 1, 2)
    level = np.concatenate(([0], np.cumsum(cost)))
    rho = np.empty(2 * m, dtype=np.int64)
    rho[a] = level - level[x0_label.n + w]
    rho[2 * m - 1 - a] = rho[a] + 1

    # per-level minimum vertex value, for far-small audits
    level_lo = int(rho.min())
    level_min = np.full(int(rho.max()) - level_lo + 1, np.inf)
    np.minimum.at(level_min, rho - level_lo, graph.values)
    rho.flags.writeable = False
    level_min.flags.writeable = False
    return RhoChart(x0_label, rho, level_lo, level_min)


# ---- line structure ------------------------------------------------------


def structure_stats(graph: OrbitGraphWindow) -> dict:
    """Class frequencies and the histogram of gaps between Large vertices.

    Runs are counted along the eps=+1 row: consecutive Large-class positions
    at distance d contribute a run of d-1 (the chain of edges crossing the
    non-Large stretch). For irrational alpha the runs take exactly two values
    q and q+1 where alpha = q*(1-alpha) + r (alpha > 1/2; roles swap below
    1/2), with asymptotic count ratio (1-alpha-r):r resp. (alpha-r):r.
    expected_ratio is None when r <= SINGULAR_TOL (alpha rational with a
    small denominator), and measured_ratio is None while the window holds no
    run of length q+1.
    """
    w, alpha = graph.window, graph.alpha
    check_margin(w)
    top = graph.classes[:2 * w + 1]
    keep = slice(_MARGIN, 2 * w + 1 - _MARGIN)
    marks = np.flatnonzero(top[keep] == VertexClass.LARGE)
    runs = np.diff(marks) - 1
    values, counts = np.unique(runs, return_counts=True)
    hist = {int(v): int(c) for v, c in zip(values, counts)}
    # the tolerance keeps q = 2 at alpha = 2/3, where the quotient is 1.9999999999999996
    if alpha > 0.5:
        q = int(alpha / (1.0 - alpha) + SINGULAR_TOL)
        r = alpha - q * (1.0 - alpha)
        expected = (1.0 - alpha - r) / r if r > SINGULAR_TOL else None
    else:
        q = int((1.0 - alpha) / alpha + SINGULAR_TOL)
        r = (1.0 - alpha) - q * alpha
        expected = (alpha - r) / r if r > SINGULAR_TOL else None
    measured = hist.get(q, 0) / hist[q + 1] if hist.get(q + 1) else None
    return {
        "class_frequencies": graph.class_frequencies(),
        "run_histogram": hist,
        "q": q,
        "expected_ratio": expected,
        "measured_ratio": measured,
    }


# ---- word search ---------------------------------------------------------


def check_shrink_word(alpha: float, beta: float, m: float, threshold: float,
                      max_len: int) -> None:
    """The preconditions of shrink_word: finite, 0 < alpha < beta, threshold > 0,
    m >= 0, and an integer max_len >= 0."""
    for name, value in (("alpha", alpha), ("beta", beta), ("m", m), ("threshold", threshold)):
        comparable(value, name, "a number")
    # NaN buckets never compare equal and inf - inf is NaN, so the search would not end
    if not all(map(math.isfinite, (beta, m, threshold))):
        raise PreconditionError("beta, m and threshold must be finite")
    if not 0.0 < alpha < beta:
        raise PreconditionError("need 0 < alpha < beta")
    if threshold <= 0.0:
        raise PreconditionError("threshold must be positive")
    if m < 0.0:
        raise PreconditionError("m must be >= 0")
    as_int(max_len, "max_len", 0)


def shrink_word(alpha: float, beta: float, m: float, threshold: float,
                max_len: int = 256) -> list[float]:
    """Shortest word over {alpha, beta} folding m below threshold.

    Breadth-first over reached values, deduplicated on 1e-12 buckets, so the
    search always terminates by max_len; exhaustion raises WordNotFoundError
    (the caller enlarges max_len). The returned letters are in application
    order, so replaying them through iterate_forward(word, m) lands below
    threshold.
    """
    check_shrink_word(alpha, beta, m, threshold, max_len)
    if m < threshold:
        return []
    # a float key, so values past ~1.8e296 share the bucket inf instead of overflowing
    bucket = lambda v: round(v / 1e-12, 0)
    start = bucket(m)
    parent = {start: None}
    frontier = deque([(m, start, 0)])
    while frontier:
        value, key, depth = frontier.popleft()
        if depth >= max_len:
            break
        for letter in (alpha, beta):
            nxt = abs(letter - value)
            nk = bucket(nxt)
            if nk in parent:
                continue
            parent[nk] = (key, letter)
            if nxt < threshold:
                word = []
                cur = nk
                while parent[cur] is not None:
                    cur, used = parent[cur]
                    word.append(used)
                word.reverse()
                return word
            frontier.append((nxt, nk, depth + 1))
    raise WordNotFoundError(
        f"no word of length <= {max_len} folds {m} below {threshold}")
