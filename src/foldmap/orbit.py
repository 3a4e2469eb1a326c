"""Symbolic orbit labels, the orbit graph, and its coordinate structure.

Under the two maps x -> |alpha - x| and x -> |1 - x| the forward orbit of a
point x stays inside { <n*alpha + eps*x> : n integer, eps = +-1 }, so each
reachable value carries an integer label (n, eps). The label automaton below
reproduces both maps exactly on labels, which turns trajectory questions into
walks on a graph whose vertices are labels inside a finite window |n| <= W.

Vertices are classified Small/Medium/Large by their value relative to the two
cuts alpha and 1-alpha (roles swap for alpha < 1/2). Values are always
recomputed from labels, never propagated, so round-off stays below 1e-9 for
|n| up to 10^6.

rho_chart assigns each vertex a signed graph distance from a small base
vertex, the coordinate along which a random theta-walk becomes a simple +-1
walk. Give label (n, eps) the position p = eps*n: the full fold keeps p and
the alpha fold moves it to p - eps, so every window graph is a ladder whose
rungs are the full-fold edges and whose alpha edges join adjacent positions.
On a ladder the distances come from a two-state scan outward from the base,
done with cumulative sums over positions; any other graph gets one
breadth-first pass that tags each vertex with the base neighbour it was first
reached through. The chart also keeps the minimum vertex value of every
distance level as a dense array. shrink_word searches words over
{alpha, beta} that fold a value below a threshold.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import (ClassBoundaryError, PrecisionError, PreconditionError,
                     StructuralError, WordNotFoundError)

W_MAX = 10 ** 6          # |n| cap keeping label values accurate to < 1e-9
DEFAULT_WINDOW = 10 ** 4
SINGULAR_TOL = 1e-10
CLASS_TOL = 1e-12
RHO_INVALID = np.iinfo(np.int64).min  # vertex outside the chart's domain


@dataclass(frozen=True)
class OrbitLabel:
    """Symbolic name (n, eps) of the orbit value <n*alpha + eps*x>."""

    n: int
    eps: int

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise PreconditionError("eps must be +1 or -1")

    def __str__(self):
        return f"({self.n},{'+1' if self.eps == 1 else '-1'})"


class VertexClass(IntEnum):
    SMALL = 0
    MEDIUM = 1
    LARGE = 2


def label_value(alpha: float, x: float, label: OrbitLabel) -> float:
    """Value <n*alpha + eps*x> of a label, accurate below 1e-9 in the window."""
    if abs(label.n) > W_MAX:
        raise PrecisionError(f"|n| > {W_MAX} exceeds the precision window")
    if not 0.0 <= x <= 1.0:
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
    if theta == 1.0:
        return OrbitLabel(-label.n, -label.eps)
    if theta != alpha:
        raise PreconditionError("theta must be alpha or 1")
    if label_value(alpha, x, label) >= alpha:
        return OrbitLabel(label.n - 1, label.eps)
    return OrbitLabel(-(label.n - 1), -label.eps)


def _classify(alpha: float, values: np.ndarray):
    """(on_cut, classes) of an array of values against the cuts {alpha, 1-alpha}.

    on_cut marks values within 1e-12 of a cut; classes holds the VertexClass
    codes as int8, taken with strict inequalities.
    """
    lo_cut, hi_cut = sorted((alpha, 1.0 - alpha))
    on_cut = (np.abs(values - lo_cut) <= CLASS_TOL) | (np.abs(values - hi_cut) <= CLASS_TOL)
    classes = np.where(values < lo_cut, 0, np.where(values < hi_cut, 1, 2)).astype(np.int8)
    return on_cut, classes


def classify_vertex(alpha: float, value: float) -> VertexClass:
    """Small/Medium/Large relative to the cuts {alpha, 1-alpha}.

    Strict inequalities; a value within 1e-12 of a cut raises
    ClassBoundaryError since the classes are defined by open conditions.
    """
    on_cut, classes = _classify(alpha, np.array([value], dtype=np.float64))
    if on_cut[0]:
        raise ClassBoundaryError(f"value {value!r} sits on a class boundary")
    return VertexClass(int(classes[0]))


_SINGULAR_SEEDS = ("0", "1/2", "alpha/2", "(1+alpha)/2")


def is_singular(alpha: float, x: float, window: int = DEFAULT_WINDOW) -> bool:
    """Window-bounded test whether x lies on one of the four singular orbits.

    True when some label value of x matches 0, 1/2, alpha/2 or (1+alpha)/2
    within 1e-10 for |n| <= window. Numerically undecidable in general; the
    window and tolerance are the documented compromise.
    """
    if not 0.0 <= x <= 1.0:
        raise PreconditionError("x must lie in [0, 1]")
    n = np.arange(-window, window + 1)
    seeds = np.array([0.0, 0.5, alpha / 2.0, (1.0 + alpha) / 2.0])
    for eps in (1.0, -1.0):
        vals = (n * alpha + eps * x) % 1.0
        diff = np.abs(vals[:, None] - seeds[None, :])
        if np.any(np.minimum(diff, 1.0 - diff) < SINGULAR_TOL):
            return True
    return False


class OrbitGraphWindow:
    """Materialized orbit graph on the labels |n| <= W, both eps rows.

    Vertices are indexed eps-row-major: index = block*(2W+1) + (n+W) with
    block 0 for eps=+1 and block 1 for eps=-1. Out-edge targets are stored as
    flat indices, -1 when the target label falls outside the window (only the
    alpha edge at n = -W can). Immutable after construction.
    """

    def __init__(self, alpha, x, window, values, classes, one_target,
                 alpha_target, coincidences):
        self.alpha = alpha
        self.base_x = x
        self.window = window
        self.values = values
        self.classes = classes
        self.one_target = one_target
        self.alpha_target = alpha_target
        self.coincidences = coincidences
        for arr in (values, classes, one_target, alpha_target):
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
        m = 2 * self.window + 1
        block, offset = divmod(int(index), m)
        return OrbitLabel(offset - self.window, 1 if block == 0 else -1)

    def out_edges(self, label: OrbitLabel):
        """[(theta, target_label), ...] for edges whose target is in-window."""
        i = self.index_of(label)
        out = [(1.0, self.label_at(self.one_target[i]))]
        if self.alpha_target[i] >= 0:
            out.append((self.alpha, self.label_at(self.alpha_target[i])))
        return out

    def interior_mask(self, margin: int = 2) -> np.ndarray:
        """Boolean mask excluding a margin of width `margin` at both n ends."""
        n = np.abs(np.arange(-self.window, self.window + 1))
        keep = n <= self.window - margin
        return np.concatenate([keep, keep])

    def class_frequencies(self, margin: int = 2) -> dict:
        mask = self.interior_mask(margin)
        total = int(np.count_nonzero(mask))
        if total == 0:
            raise PreconditionError(
                f"window {self.window} has no vertex inside margin {margin}")
        cls = self.classes[mask]
        return {c.name.lower(): int(np.count_nonzero(cls == c)) / total
                for c in VertexClass}

    # ---- export ---------------------------------------------------------

    def to_dot(self) -> str:
        """DOT text: vertices labeled '(n,eps)/Class', edges labeled a or 1."""
        names = ("Small", "Medium", "Large")
        n = range(-self.window, self.window + 1)
        # str(OrbitLabel) of every vertex, in index order
        labels = [f"({k},+1)" for k in n] + [f"({k},-1)" for k in n]
        lines = ["digraph orbit {"]
        lines += [f'  "{lab}" [label="{lab}/{names[c]}"];'
                  for lab, c in zip(labels, self.classes.tolist())]
        for lab, one, a in zip(labels, self.one_target.tolist(),
                               self.alpha_target.tolist()):
            lines.append(f'  "{lab}" -> "{labels[one]}" [label="1"];')
            if a >= 0:
                lines.append(f'  "{lab}" -> "{labels[a]}" [label="a"];')
        lines.append("}\n")
        return "\n".join(lines)


def check_graph_window(x: float, window: int) -> None:
    """The preconditions of build_graph_window: 1 <= window <= W_MAX, x in [0, 1]."""
    if window < 1:
        raise PreconditionError("window must be >= 1")
    if window > W_MAX:
        raise PrecisionError(f"window > {W_MAX} exceeds the precision cap")
    if not 0.0 <= x <= 1.0:
        raise PreconditionError("x must lie in [0, 1]")


def build_graph_window(alpha: float, x: float, window: int) -> OrbitGraphWindow:
    """Build the orbit graph of x on the label window |n| <= W.

    Classifies every vertex (raising ClassBoundaryError if any value ties a
    class cut within 1e-12) and records value coincidences within 1e-10 as
    label pairs instead of merging vertices.
    """
    check_graph_window(x, window)
    m = 2 * window + 1
    n = np.arange(-window, window + 1)
    values = np.concatenate([(n * alpha + x) % 1.0, (n * alpha - x) % 1.0])

    on_cut, classes = _classify(alpha, values)
    if np.any(on_cut):
        i = int(np.flatnonzero(on_cut)[0])
        block, offset = divmod(i, m)
        lab = OrbitLabel(offset - window, 1 if block == 0 else -1)
        raise ClassBoundaryError(
            f"label {lab} value {float(values[i])!r} ties a class boundary; "
            "alpha rational or x on a cut orbit")

    nn = np.concatenate([n, n])
    block = np.repeat([0, 1], m)
    # full fold: (n, eps) -> (-n, -eps), always in-window
    one_target = (1 - block) * m + (-nn + window)
    # alpha fold: shift down when the value clears alpha, else fold through 0
    stay = values >= alpha
    tgt_n = np.where(stay, nn - 1, -(nn - 1))
    tgt_block = np.where(stay, block, 1 - block)
    alpha_target = np.where(np.abs(tgt_n) <= window,
                            tgt_block * m + (tgt_n + window), -1)

    # the sorted values are the same either way, so the stable order that
    # names the pairs is only needed when some gap is below the tolerance
    close = np.flatnonzero(np.diff(np.sort(values)) < SINGULAR_TOL)
    order = np.argsort(values, kind="stable") if close.size else None
    coincidences = []
    for j in close:
        a, b = int(order[j]), int(order[j + 1])
        ba, oa = divmod(a, m)
        bb, ob = divmod(b, m)
        coincidences.append((OrbitLabel(oa - window, 1 if ba == 0 else -1),
                             OrbitLabel(ob - window, 1 if bb == 0 else -1)))

    return OrbitGraphWindow(alpha, x, window, values, classes,
                            one_target.astype(np.int64),
                            alpha_target.astype(np.int64), coincidences)


# ---- signed distance chart ----------------------------------------------


def _undirected_neighbors(graph: OrbitGraphWindow):
    """CSR-style undirected adjacency from the two directed edge families."""
    src = np.arange(graph.size, dtype=np.int64)
    pairs = [np.stack([src, graph.one_target]),
             np.stack([src[graph.alpha_target >= 0],
                       graph.alpha_target[graph.alpha_target >= 0]])]
    edges = np.concatenate(pairs, axis=1)
    both = np.concatenate([edges, edges[::-1]], axis=1)
    order = np.argsort(both[0], kind="stable")
    heads, tails = both[0][order], both[1][order]
    indptr = np.searchsorted(heads, np.arange(graph.size + 1))
    return indptr, tails


def _root(parent: list, k: int) -> int:
    """Root of entry k in the union-find forest `parent`."""
    while parent[k] != k:
        k = parent[k]
    return k


@dataclass(frozen=True)
class RhoChart:
    """Signed graph distance from a small base vertex v0; rho(v0) = 0.

    rho is positive on the component of the v0-deleted graph containing the
    label (n0+1, eps0) and negative on the other; vertices unreachable inside
    the window carry RHO_INVALID and are excluded from the domain.
    level_min[r - level_lo] is the smallest vertex value at rho = r, for every
    level r from level_lo = min(rho) to max(rho); distance levels are
    contiguous, so every entry is finite. Both arrays are read-only.
    """

    v0: OrbitLabel
    rho: np.ndarray
    level_lo: int
    level_min: np.ndarray

    def rho_of(self, graph: OrbitGraphWindow, label: OrbitLabel) -> int:
        r = int(self.rho[graph.index_of(label)])
        if r == RHO_INVALID:
            raise StructuralError(f"label {label} outside the chart domain")
        return r


def rho_chart(graph: OrbitGraphWindow, x0_label: OrbitLabel) -> RhoChart:
    """Chart of signed graph distances from x0_label.

    Preconditions: the base vertex value lies strictly inside the small class
    (0 < value < min(alpha, 1-alpha)). Removing the base vertex must split
    its neighborhood into exactly two components; anything else is a
    structural failure (singular orbit or misconfigured base point).

    Every graph build_graph_window makes is a ladder (see _ladder), and its
    distances come from a scan over positions (_ladder_rho). Any other graph
    takes one tagged breadth-first pass (_bfs_rho). Both give the same chart
    and raise the same errors on a ladder.
    """
    v0 = graph.index_of(x0_label)
    val = graph.values[v0]
    if not 0.0 < val < min(graph.alpha, 1.0 - graph.alpha):
        raise PreconditionError(
            f"base vertex value {val!r} is not strictly inside the small class")
    rho = (_ladder_rho if _ladder(graph) else _bfs_rho)(graph, x0_label)

    # per-level minimum vertex value, for far-small audits
    reached = rho != RHO_INVALID
    levels = rho[reached]
    level_lo = int(levels.min())
    level_min = np.full(int(levels.max()) - level_lo + 1, np.inf)
    np.minimum.at(level_min, levels - level_lo, graph.values[reached])
    rho.flags.writeable = False
    level_min.flags.writeable = False
    return RhoChart(x0_label, rho, level_lo, level_min)


def _ladder(graph: OrbitGraphWindow) -> bool:
    """Whether the graph is a ladder over the positions p = eps*n.

    A ladder's full-fold edge joins (n, eps) to its rung partner (-n, -eps),
    at the same position, and its alpha edge lands on position p - eps, or
    nowhere exactly when that position lies outside the window.
    """
    w, m = graph.window, 2 * graph.window + 1
    t = graph.alpha_target
    if graph.size != 2 * m or t.min() < -1 or t.max() >= 2 * m:
        return False
    # index i and its rung partner 2m-1-i mirror each other in the index order
    if not np.array_equal(graph.one_target, np.arange(2 * m)[::-1]):
        return False
    n = np.arange(-w, w + 1)
    # the position of every index, then w+1 (no position) for a missing edge's -1
    pos = np.concatenate([n, -n, [w + 1]])
    target = pos[:-1] - np.repeat([1, -1], m)
    target[np.abs(target) > w] = w + 1
    return np.array_equal(pos[t], target)


def _gaps(keeps: np.ndarray, new_gap: np.ndarray):
    """The gap d(b) - d(a) before and after each step of a ladder scan.

    A step either keeps the gap or sets it to new_gap; a kept gap is the one
    the last setting step left, or 1 (base and rung partner) before any.
    """
    steps = np.arange(keeps.size)
    last = np.maximum.accumulate(np.where(keeps, -1, steps))
    after = np.where(last >= 0, new_gap[last], 1)
    before = np.concatenate(([1], after))[:-1]
    return before, after


def _ladder_rho(graph: OrbitGraphWindow, x0_label: OrbitLabel) -> np.ndarray:
    """Signed distances on a ladder by a two-state scan outward from the base.

    Rows a_p = (p, eps0) and b_p = (-p, -eps0) for p = -W..W, so the base is
    a_{n0}, its rung partner b_{n0}, and the orientation reference a_{n0+1}.
    a_p's alpha edge lands on position p-1 and b_p's on p+1, so between
    positions p and p+1 run exactly two edges: a_{p+1} to a_p (xa) or b_p,
    and b_p to a_{p+1} (yb) or b_{p+1}. A shortest path never leaves a
    position and comes back, since the rung is shorter, so d(a) and the gap
    g = d(b) - d(a) at the next position follow from those at this one:

        step             xa and yb   xa only   yb only   neither
        up,   d(a) +=    1           1         1 + g     1 + g
              new g      1           g         1         0
        down, d(a) +=    1           1         2         2 + g
              new g      0           g         -1        -1

    g starts at 1 and stays 0 or 1 going up. Going down the first step sets
    it, as b_{n0-1} -- a_{n0} on a cut, and it stays 0 or -1. Positions above
    the base and b_{n0} form the + side, positions below the - side. (In a
    window graph xa says that the value of a_p lies below 1 - alpha and yb
    that it lies above, so up to round-off only the middle two columns occur
    there.)
    """
    w, m = graph.window, 2 * graph.window + 1
    t = graph.alpha_target
    a = np.arange(m) + (0 if x0_label.eps == 1 else m)
    b = 2 * m - 1 - a
    k0 = x0_label.n + w
    # step j joins positions j and j+1 (row offsets)
    xa = t[a[1:]] == a[:-1]
    yb = t[b[:-1]] == a[1:]
    # with nothing below, or b_{n0-1} -- b_{n0}, the base does not cut the ladder
    if k0 == 0 or not yb[k0 - 1]:
        raise StructuralError("base vertex is not a cut vertex of the window")
    # the orientation reference; past the upper window edge this raises
    graph.index_of(OrbitLabel(x0_label.n + 1, x0_label.eps))

    x, y = xa[k0:], yb[k0:]
    g, up_gap = _gaps(x & ~y, np.where(y, 1, 0))
    up = np.cumsum(np.where(x, 1, 1 + g))
    x, y = xa[k0 - 1::-1], yb[k0 - 1::-1]
    g, down_gap = _gaps(x & ~y, np.where(x, 0, -1))
    down = np.cumsum(np.where(x, 1, np.where(y, 2, 2 + g)))

    rho = np.empty(2 * m, dtype=np.int64)
    rho[a] = np.concatenate((-down[::-1], [0], up))
    rho[b] = np.concatenate((-(down + down_gap)[::-1], [1], up + up_gap))
    return rho


def _bfs_rho(graph: OrbitGraphWindow, x0_label: OrbitLabel) -> np.ndarray:
    """Signed distances on any graph by one tagged breadth-first pass.

    Each vertex carries the tag of the v0 neighbour it was first reached
    through, and an edge between two differently tagged vertices other than
    v0 merges their tags. The BFS tree joins each vertex to its tag's
    neighbour without passing v0, and every edge of a path that avoids v0 is
    scanned, so the merged tag classes are the components of the graph with
    v0 deleted.
    """
    v0 = graph.index_of(x0_label)
    indptr, tails = _undirected_neighbors(graph)
    dist = np.full(graph.size, -1, dtype=np.int64)
    tag = np.full(graph.size, -1, dtype=np.int64)
    # memoryviews read and write int64 cells as Python ints without turning
    # the whole adjacency into lists
    ptr, nbr, d, t = (memoryview(a) for a in (indptr, tails, dist, tag))

    branches = sorted({w for w in nbr[ptr[v0]:ptr[v0 + 1]] if w != v0})
    if not branches:
        raise StructuralError("base vertex has no neighbour in the window")
    parent = list(range(len(branches)))
    d[v0] = 0
    for k, w in enumerate(branches):
        d[w], t[w] = 1, k
    queue = deque(branches)
    pop, push = queue.popleft, queue.append
    while queue:
        u = pop()
        du, tu = d[u] + 1, t[u]
        for w in nbr[ptr[u]:ptr[u + 1]]:
            if d[w] < 0:
                d[w], t[w] = du, tu
                push(w)
            elif t[w] != tu and w != v0:
                parent[_root(parent, t[w])] = _root(parent, tu)

    roots = [_root(parent, k) for k in range(len(branches))]
    n_sides = len(set(roots))
    if n_sides == 1:
        raise StructuralError("base vertex is not a cut vertex of the window")
    if n_sides > 2:
        raise StructuralError("base vertex neighborhood splits into > 2 components")
    plus_ref = graph.index_of(OrbitLabel(x0_label.n + 1, x0_label.eps))
    if d[plus_ref] < 0:
        raise StructuralError("orientation reference vertex disconnected from base")

    sign = np.where(np.array(roots) == roots[t[plus_ref]], 1, -1)
    reached = dist >= 0
    rho = np.full(graph.size, RHO_INVALID, dtype=np.int64)
    # v0 has dist 0, so the sign its tag -1 picks does not matter
    rho[reached] = dist[reached] * sign[tag[reached]]
    return rho


# ---- line structure ------------------------------------------------------


def structure_stats(graph: OrbitGraphWindow, margin: int = 2) -> dict:
    """Class frequencies and the histogram of gaps between Large vertices.

    Runs are counted along the eps=+1 row: consecutive Large-class positions
    at distance d contribute a run of d-1 (the chain of edges crossing the
    non-Large stretch). For irrational alpha the runs take exactly two values
    q and q+1 where alpha = q*(1-alpha) + r (alpha > 1/2; roles swap below
    1/2), with asymptotic count ratio (1-alpha-r):r resp. (alpha-r):r.
    measured_ratio is None while the window holds no run of length q+1.
    """
    w, alpha = graph.window, graph.alpha
    top = graph.classes[:2 * w + 1]
    keep = slice(margin, 2 * w + 1 - margin)
    marks = np.flatnonzero(top[keep] == VertexClass.LARGE)
    runs = np.diff(marks) - 1
    values, counts = np.unique(runs, return_counts=True)
    hist = {int(v): int(c) for v, c in zip(values, counts)}
    if alpha > 0.5:
        q = int(alpha / (1.0 - alpha))
        r = alpha - q * (1.0 - alpha)
        expected = (1.0 - alpha - r) / r
    else:
        q = int((1.0 - alpha) / alpha)
        r = (1.0 - alpha) - q * alpha
        expected = (alpha - r) / r
    measured = hist.get(q, 0) / hist[q + 1] if hist.get(q + 1) else None
    return {
        "class_frequencies": graph.class_frequencies(margin),
        "run_histogram": hist,
        "q": q,
        "expected_ratio": expected,
        "measured_ratio": measured,
    }


# ---- word search ---------------------------------------------------------


def check_shrink_word(alpha: float, beta: float, m: float, threshold: float) -> None:
    """The preconditions of shrink_word: 0 < alpha < beta, threshold > 0, m >= 0."""
    if not 0.0 < alpha < beta:
        raise PreconditionError("need 0 < alpha < beta")
    if threshold <= 0.0:
        raise PreconditionError("threshold must be positive")
    if m < 0.0:
        raise PreconditionError("m must be >= 0")


def shrink_word(alpha: float, beta: float, m: float, threshold: float,
                max_len: int = 256) -> list[float]:
    """Shortest word over {alpha, beta} folding m below threshold.

    Breadth-first over reached values, deduplicated on 1e-12 buckets, so the
    search always terminates by max_len; exhaustion raises WordNotFoundError
    (the caller enlarges max_len). The returned letters are in application
    order, so replaying them through iterate_forward(word, m) lands below
    threshold.
    """
    check_shrink_word(alpha, beta, m, threshold)
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
