"""Orbit labels, the windowed graph, signed distance, and word search."""

import math
import re
import tracemalloc
from collections import deque

import numpy as np
import pytest

import export_oracle
from foldmap import (ClassBoundaryError, FoldmapError, OrbitLabel,
                     PrecisionError, PreconditionError, StructuralError,
                     VertexClass, WordNotFoundError, apply_theta_label,
                     build_graph_window, iterate_forward, label_value,
                     rho_chart, shrink_word, step, structure_stats)
from foldmap import orbit

ALPHA = math.sqrt(0.5)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# every alpha the ladder rule does not cover; NaN slips past plain comparisons
BAD_ALPHAS = [math.nan, math.inf, -math.inf, 0.0, 1.0, 1.5]


class TestLabels:
    def test_value_examples(self):
        assert label_value(ALPHA, 0.2, OrbitLabel(0, 1)) == 0.2
        assert abs(label_value(ALPHA, 0.2, OrbitLabel(1, 1))
                   - ((ALPHA + 0.2) % 1.0)) < 1e-15
        assert abs(label_value(ALPHA, 0.2, OrbitLabel(-2, -1))
                   - ((-2 * ALPHA - 0.2) % 1.0)) < 1e-15

    def test_label_validation(self):
        with pytest.raises(PreconditionError):
            OrbitLabel(0, 2)
        with pytest.raises(PrecisionError):
            label_value(ALPHA, 0.2, OrbitLabel(10 ** 6 + 1, 1))

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(PreconditionError, match=r"alpha must lie in \(0, 1\)"):
            label_value(alpha, 0.2, OrbitLabel(1, 1))
        # the full fold needs no value, but the automaton is defined for 0 < alpha < 1
        # only; a NaN alpha used to fail as "theta must be alpha or 1"
        for theta in (1.0, alpha):
            with pytest.raises(PreconditionError, match=r"alpha must lie in \(0, 1\)"):
                apply_theta_label(alpha, 0.2, OrbitLabel(1, 1), theta)

    def test_str(self):
        assert str(OrbitLabel(3, 1)) == "(3,+1)"
        assert str(OrbitLabel(-2, -1)) == "(-2,-1)"

    def test_apply_full_fold(self):
        assert apply_theta_label(ALPHA, 0.2, OrbitLabel(3, 1), 1.0) \
            == OrbitLabel(-3, -1)

    def test_apply_alpha_fold_branches(self):
        x = 0.2
        # value of (1,+1) is ~.907 >= alpha: shift down
        assert apply_theta_label(ALPHA, x, OrbitLabel(1, 1), ALPHA) \
            == OrbitLabel(0, 1)
        # value of (0,+1) is .2 < alpha: fold through zero
        assert apply_theta_label(ALPHA, x, OrbitLabel(0, 1), ALPHA) \
            == OrbitLabel(1, -1)

    def test_bad_theta(self):
        with pytest.raises(PreconditionError):
            apply_theta_label(ALPHA, 0.2, OrbitLabel(0, 1), 0.5)

    def test_commutes_with_step(self):
        # tracking labels and tracking values give the same trajectory
        rng = np.random.default_rng(11)
        x = 0.2
        lab = OrbitLabel(0, 1)
        v = label_value(ALPHA, x, lab)
        for theta in rng.choice([ALPHA, 1.0], size=1000):
            lab = apply_theta_label(ALPHA, x, lab, float(theta))
            v = step(float(theta), v)
            assert abs(label_value(ALPHA, x, lab) - v) < 1e-9


def class_of(alpha, value):
    """The class the window graph of x = value gives its vertex (0, +1), whose value is x."""
    graph = build_graph_window(alpha, value, 1)
    return VertexClass(int(graph.classes[graph.index_of(OrbitLabel(0, 1))]))


class TestClassify:
    """The cuts {alpha, 1-alpha}, as build_graph_window applies them."""

    def test_above_half(self):
        # cuts at 1-alpha ~ .293 and alpha ~ .707
        assert class_of(ALPHA, 0.1) == VertexClass.SMALL
        assert class_of(ALPHA, 0.5) == VertexClass.MEDIUM
        assert class_of(ALPHA, 0.9) == VertexClass.LARGE

    def test_below_half(self):
        assert class_of(0.3, 0.2) == VertexClass.SMALL
        assert class_of(0.3, 0.5) == VertexClass.MEDIUM
        assert class_of(0.3, 0.8) == VertexClass.LARGE

    def test_boundary_rejected(self):
        # the classes are open conditions: a value within 1e-12 of a cut is on it
        with pytest.raises(ClassBoundaryError):
            class_of(ALPHA, ALPHA)
        with pytest.raises(ClassBoundaryError):
            class_of(ALPHA, 1.0 - ALPHA + 1e-14)

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(PreconditionError, match=r"alpha must lie in \(0, 1\)"):
            class_of(alpha, 0.5)

    @pytest.mark.parametrize("value", [math.nan, -0.1, 1.5, math.inf])
    def test_value_outside_unit_interval(self, value):
        # a NaN value fails every cut comparison, and would come out LARGE
        with pytest.raises(PreconditionError, match=r"x must lie in \[0, 1\]"):
            class_of(ALPHA, value)


def hits_singular_seed(alpha, x, window):
    """True when a label value of x, |n| <= window, lies within SINGULAR_TOL of
    one of the four singular seeds 0, 1/2, alpha/2 and (1+alpha)/2 (on the circle)."""
    n = np.arange(-window, window + 1)
    seeds = np.array([0.0, 0.5, alpha / 2.0, (1.0 + alpha) / 2.0])
    values = np.concatenate([(n * alpha + x) % 1.0, (n * alpha - x) % 1.0])
    diff = np.abs(values[:, None] - seeds)
    return bool(np.any(np.minimum(diff, 1.0 - diff) < orbit.SINGULAR_TOL))


class TestSingular:
    """x is singular when its orbit meets a seed; the window graph then records
    value coincidences, and otherwise none."""

    def test_seed_points(self):
        for x in (0.0, 0.5, ALPHA / 2, (1 + ALPHA) / 2):
            assert hits_singular_seed(ALPHA, x, 10)
        # each seed's label (0, +1) shares its value with (0, -1) or (1, -1)
        for x, partner in ((0.5, OrbitLabel(0, -1)), (ALPHA / 2, OrbitLabel(1, -1)),
                           ((1 + ALPHA) / 2, OrbitLabel(1, -1))):
            pairs = {frozenset(p) for p in build_graph_window(ALPHA, x, 10).coincidences}
            assert frozenset((OrbitLabel(0, 1), partner)) in pairs
        # the orbit of 0 holds <alpha> = alpha, a class cut
        with pytest.raises(ClassBoundaryError):
            build_graph_window(ALPHA, 0.0, 10)

    def test_orbit_of_seed(self):
        # <3 alpha + x> = 1/2 at x = <1/2 - 3 alpha>, and so is <-3 alpha - x>
        x = (0.5 - 3 * ALPHA) % 1.0
        assert hits_singular_seed(ALPHA, x, 10)
        pairs = {frozenset(p) for p in build_graph_window(ALPHA, x, 10).coincidences}
        assert frozenset((OrbitLabel(3, 1), OrbitLabel(-3, -1))) in pairs

    def test_generic_point(self):
        assert not hits_singular_seed(ALPHA, 0.2, 10 ** 4)
        assert build_graph_window(ALPHA, 0.2, 10 ** 4).coincidences == []

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_alpha_outside_unit_interval(self, alpha):
        # 1/2 is a seed for every alpha; the graph checks alpha before it pairs values
        with pytest.raises(PreconditionError, match=r"alpha must lie in \(0, 1\)"):
            build_graph_window(alpha, 0.5, 10)


DOT_WINDOW_2 = """\
digraph orbit {
  "(-2,+1)" [label="(-2,+1)/Large"];
  "(-1,+1)" [label="(-1,+1)/Medium"];
  "(0,+1)" [label="(0,+1)/Small"];
  "(1,+1)" [label="(1,+1)/Large"];
  "(2,+1)" [label="(2,+1)/Medium"];
  "(-2,-1)" [label="(-2,-1)/Medium"];
  "(-1,-1)" [label="(-1,-1)/Small"];
  "(0,-1)" [label="(0,-1)/Large"];
  "(1,-1)" [label="(1,-1)/Medium"];
  "(2,-1)" [label="(2,-1)/Small"];
  "(-2,+1)" -> "(2,-1)" [label="1"];
  "(-1,+1)" -> "(1,-1)" [label="1"];
  "(-1,+1)" -> "(2,-1)" [label="a"];
  "(0,+1)" -> "(0,-1)" [label="1"];
  "(0,+1)" -> "(1,-1)" [label="a"];
  "(1,+1)" -> "(-1,-1)" [label="1"];
  "(1,+1)" -> "(0,+1)" [label="a"];
  "(2,+1)" -> "(-2,-1)" [label="1"];
  "(2,+1)" -> "(-1,-1)" [label="a"];
  "(-2,-1)" -> "(2,+1)" [label="1"];
  "(-1,-1)" -> "(1,+1)" [label="1"];
  "(-1,-1)" -> "(2,+1)" [label="a"];
  "(0,-1)" -> "(0,+1)" [label="1"];
  "(0,-1)" -> "(-1,-1)" [label="a"];
  "(1,-1)" -> "(-1,+1)" [label="1"];
  "(1,-1)" -> "(0,+1)" [label="a"];
  "(2,-1)" -> "(-2,+1)" [label="1"];
  "(2,-1)" -> "(-1,+1)" [label="a"];
}
"""


def bits(y) -> np.ndarray:
    return np.asarray(y, dtype=float).view(np.int64)


class TestFractionalPart:
    """y - floor(y) against y % 1.0, compared by their int64 bit patterns."""

    TINY = 5e-324  # the smallest subnormal

    @pytest.mark.parametrize("y", [
        0.0, -0.0, TINY, -TINY, 1e-310, -1e-310, 2.2250738585072014e-308,
        -2.2250738585072014e-308, -1e-17, -2.0 ** -54, -2.0 ** -53, -0.5, 0.5,
        1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53), 1.0, -1.0, 3.0, -7.0, 2.5, -2.5,
        2.0 ** 52, -(2.0 ** 52), 2.0 ** 52 + 1.0, -(2.0 ** 52 + 1.0), 2.0 ** 53,
        -(2.0 ** 53), 1e300, -1e300, 4503599627370495.5, -4503599627370495.5,
    ])
    def test_edge_values(self, y):
        got, want = orbit.fractional_part(np.array([y])), np.array([y]) % 1.0
        assert bits(got) == bits(want)

    def test_tiny_negative_rounds_to_one(self):
        # r + 1 rounds to 1.0 for r = -5e-324, in both forms
        assert orbit.fractional_part(np.array([-self.TINY]))[0] == 1.0
        assert bits(orbit.fractional_part(np.array([-0.0]))) == bits(0.0)

    @pytest.mark.parametrize("alpha", [ALPHA, GOLDEN, 0.3 + 1e-5 * math.sqrt(2)])
    @pytest.mark.parametrize("x", [0.0, 0.2, 0.5, 1.0])
    def test_label_rows_up_to_the_precision_cap(self, alpha, x):
        # the rows n*alpha +- x for |n| <= W_MAX, and window_values on them
        n = np.arange(-orbit.W_MAX, orbit.W_MAX + 1)
        rows = [n * alpha + x, n * alpha - x]
        want = np.concatenate([row % 1.0 for row in rows])
        got = np.concatenate([orbit.fractional_part(row) for row in rows])
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(orbit.window_values(alpha, x, orbit.W_MAX)), bits(want))


def assert_stable_coincidences(g):
    """The graph's coincidences are the gaps below SINGULAR_TOL of
    np.diff(np.sort(values)), named by the stable order, and there are some."""
    order = np.argsort(g.values, kind="stable")
    close = np.flatnonzero(np.diff(g.values[order]) < orbit.SINGULAR_TOL)
    assert close.size
    assert g.coincidences == [(g.label_at(int(order[j])), g.label_at(int(order[j + 1])))
                              for j in close]


class TestGraphWindow:
    def test_class_frequencies(self):
        g = build_graph_window(ALPHA, 0.2, 50)
        freqs = g.class_frequencies()
        assert abs(freqs["small"] - (1 - ALPHA)) < 0.1
        assert abs(freqs["medium"] - (2 * ALPHA - 1)) < 0.1
        assert abs(freqs["large"] - (1 - ALPHA)) < 0.1
        assert abs(sum(freqs.values()) - 1.0) < 1e-12

    def test_full_fold_is_involution(self):
        g = build_graph_window(ALPHA, 0.2, 50)
        for i in range(g.size):
            lab = g.label_at(i)
            rung = dict(g.out_edges(lab))[1.0]
            assert dict(g.out_edges(rung))[1.0] == lab

    def test_alpha_edge_in_window_except_lower_edge(self):
        g = build_graph_window(ALPHA, 0.2, 50)
        out = [g.label_at(i) for i in range(g.size)
               if ALPHA not in dict(g.out_edges(g.label_at(i)))]
        assert sorted(out, key=lambda lab: lab.eps) == [OrbitLabel(-50, -1),
                                                        OrbitLabel(-50, 1)]

    def test_index_round_trip(self):
        g = build_graph_window(ALPHA, 0.2, 7)
        for n in range(-7, 8):
            for eps in (1, -1):
                lab = OrbitLabel(n, eps)
                assert g.label_at(g.index_of(lab)) == lab
        with pytest.raises(PreconditionError):
            g.index_of(OrbitLabel(8, 1))

    def test_out_edges(self):
        g = build_graph_window(ALPHA, 0.2, 7)
        edges = dict(g.out_edges(OrbitLabel(0, 1)))
        assert edges[1.0] == OrbitLabel(0, -1)
        assert edges[ALPHA] == OrbitLabel(1, -1)

    def test_edges_match_label_automaton(self):
        # to_dot derives its targets from the values by the ladder rule; the
        # automaton's in-window images, on every vertex up to n = +-W, are the
        # same edges
        for alpha, x in [(ALPHA, 0.2), (GOLDEN, 0.17), (0.3 + 1e-5, 0.1)]:
            g = build_graph_window(alpha, x, 30)
            got = set(re.findall(r'"(\S+)" -> "(\S+)" \[label="(1|a)"\]', g.to_dot()))
            want = set()
            for i in range(g.size):
                lab = g.label_at(i)
                for theta, name in ((1.0, "1"), (alpha, "a")):
                    image = apply_theta_label(alpha, x, lab, theta)
                    if abs(image.n) <= 30:
                        want.add((str(lab), str(image), name))
                        assert dict(g.out_edges(lab))[theta] == image
                    else:
                        assert theta not in dict(g.out_edges(lab))
            assert got == want
            assert len(want) == 2 * g.size - 2

    def test_to_dot(self):
        dot = build_graph_window(ALPHA, 0.2, 2).to_dot()
        assert dot == DOT_WINDOW_2

    # alpha 0.5 is rational: its values coincide, and x = 0.5 puts some on a cut
    @pytest.mark.parametrize("alpha", [ALPHA, GOLDEN, math.e - 2.0, 0.5],
                             ids=["inv-sqrt2", "golden-conj", "e-minus-2", "half"])
    @pytest.mark.parametrize("x", [0.2, 0.17, 0.5])
    @pytest.mark.parametrize("window", [1, 2, 3, 50, 1000])
    def test_exports_match_the_line_writers(self, alpha, x, window):
        # tests/export_oracle.py formats one line per vertex and edge; both
        # writers start from the graph, so where its build raises both do
        try:
            g = build_graph_window(alpha, x, window)
        except ClassBoundaryError:
            assert (alpha, x) == (0.5, 0.5)  # every value <n/2 + 1/2> is 0 or 1/2
            return
        # as line lists, so that a failure names the first line that differs
        assert g.to_dot().split("\n") == export_oracle.to_dot(g).split("\n")
        assert g.to_csv().split("\n") == export_oracle.to_csv(g).split("\n")

    def test_to_dot_memory(self):
        # the pieces list, the label strs and the text: at most 3 texts, where
        # a line list and its joined copy took 3.9 (209 MB)
        tracemalloc.start()
        try:
            text = build_graph_window(ALPHA, 0.2, 10 ** 5).to_dot()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 53499303
        assert peak <= 3 * len(text)

    def test_coincidences_on_singular_seed(self):
        # x = alpha/2 makes (n,+1) and (n+1,-1) share a value for every n
        g = build_graph_window(ALPHA, ALPHA / 2, 20)
        assert len(g.coincidences) >= 2 * 20
        pair = {g.coincidences[0][0].eps, g.coincidences[0][1].eps}
        assert pair == {1, -1}
        assert build_graph_window(ALPHA, 0.2, 20).coincidences == []

    @pytest.mark.parametrize("x", [ALPHA / 2, 0.5, (1 + ALPHA) / 2, (0.5 - 3 * ALPHA) % 1.0])
    @pytest.mark.parametrize("window", [20, 3000])
    def test_coincidences_follow_the_stable_order(self, x, window):
        assert_stable_coincidences(build_graph_window(ALPHA, x, window))

    def test_orbit_of_zero_hits_boundary(self):
        # x = 0 puts <-alpha> = 1 - alpha exactly on the cut
        with pytest.raises(ClassBoundaryError):
            build_graph_window(ALPHA, 0.0, 20)

    def test_rational_alpha_hits_boundary(self):
        with pytest.raises(ClassBoundaryError):
            build_graph_window(0.87, 0.2, 50)

    def test_validation(self):
        with pytest.raises(PreconditionError):
            build_graph_window(ALPHA, 0.2, 0)
        with pytest.raises(PrecisionError):
            build_graph_window(ALPHA, 0.2, 10 ** 6 + 1)

    @pytest.mark.parametrize("alpha", BAD_ALPHAS)
    def test_alpha_outside_unit_interval(self, alpha):
        # the ladder rule, which every edge reader applies, needs 0 < alpha < 1
        with pytest.raises(PreconditionError, match=r"alpha must lie in \(0, 1\)"):
            orbit.check_graph_window(alpha, 0.2, 10)
        with pytest.raises(PreconditionError, match=r"alpha must lie in \(0, 1\)"):
            build_graph_window(alpha, 0.2, 10)


def untiled_scan(alpha, x, window):
    """(values, classes) of the whole window at once, or the message of its
    first class tie: window_values, then the first value in index order within
    CLASS_TOL of a cut, then classes by two nested np.where."""
    values = orbit.window_values(alpha, x, window)
    on_cut = np.abs(values - alpha) <= orbit.CLASS_TOL
    on_cut |= np.abs(values - (1.0 - alpha)) <= orbit.CLASS_TOL
    if on_cut.any():
        i = int(np.flatnonzero(on_cut)[0])
        return i, (f"label {orbit._label_of(i, window)} value {float(values[i])!r} ties "
                   "a class boundary; alpha rational or x on a cut orbit")
    lo_cut, hi_cut = sorted((alpha, 1.0 - alpha))
    classes = np.where(values < lo_cut, 0, np.where(values < hi_cut, 1, 2)).astype(np.int8)
    return values, classes


class TestTiledScan:
    """build_graph_window scans its window a tile of orbit.TILE_CELLS labels at
    a time; every tile edge gives what the untiled scan gives."""

    # row lengths 2W + 1 one below, equal to and one above a multiple of the tile
    EDGES = [(8, 7), (7, 10), (8, 8), (7, 3), (orbit.TILE_CELLS, 32767),
             (orbit.TILE_CELLS, 32768)]

    @pytest.mark.parametrize("tile, window", EDGES)
    @pytest.mark.parametrize("alpha, x", [(ALPHA, 0.2), (GOLDEN, 0.17),
                                          (0.3 + 1e-5 * math.sqrt(2), 0.93), (ALPHA, ALPHA / 2)])
    def test_values_and_classes(self, monkeypatch, tile, window, alpha, x):
        monkeypatch.setattr(orbit, "TILE_CELLS", tile)
        values, classes = untiled_scan(alpha, x, window)
        g = build_graph_window(alpha, x, window)
        assert g.values.tobytes() == values.tobytes()
        assert g.classes.dtype == np.int8
        assert g.classes.tobytes() == classes.tobytes()
        assert orbit._scan_window(alpha, x, window, keep=False) is None

    @pytest.mark.parametrize("tile, window", [(8, 9), (orbit.TILE_CELLS, orbit.TILE_CELLS + 1)])
    def test_tie_in_the_second_tile(self, monkeypatch, tile, window):
        # x = 0: (-1, +1) has value <-alpha> = 1 - alpha, at index W - 1 = tile
        monkeypatch.setattr(orbit, "TILE_CELLS", tile)
        index, message = untiled_scan(ALPHA, 0.0, window)
        assert index == tile
        for keep in (True, False):
            with pytest.raises(ClassBoundaryError, match=f"^{re.escape(message)}$"):
                orbit._scan_window(ALPHA, 0.0, window, keep)

    # a value and its mirror <-y> = 1 - <y> round apart at this (alpha, x): (0, -1) has
    # fl(1 - x) within CLASS_TOL of alpha, while (0, +1), at x, is just over
    # CLASS_TOL from 1 - alpha, so the first tie is in the eps = -1 row
    MIRROR = (0.9237168684686163, 0.07628313153238367)

    @pytest.mark.parametrize("tile, window", [(8, 3), (8, 8), (orbit.TILE_CELLS, 3),
                                              (orbit.TILE_CELLS, orbit.TILE_CELLS)])
    def test_tie_in_the_minus_row(self, monkeypatch, tile, window):
        monkeypatch.setattr(orbit, "TILE_CELLS", tile)
        index, message = untiled_scan(*self.MIRROR, window)
        assert index == 3 * window + 1  # (0, -1)
        assert message.startswith("label (0,-1) value ")
        for keep in (True, False):
            with pytest.raises(ClassBoundaryError, match=f"^{re.escape(message)}$"):
                orbit._scan_window(*self.MIRROR, window, keep)

    @pytest.mark.parametrize("tile", [7, 64])
    @pytest.mark.parametrize("x", [ALPHA / 2, 0.5])
    def test_coincidences_across_gap_tiles(self, monkeypatch, tile, x):
        # the sorted values' gaps are taken a quarter tile at a time
        monkeypatch.setattr(orbit, "TILE_CELLS", tile)
        assert_stable_coincidences(build_graph_window(ALPHA, x, 50))

    def test_build_and_stats_memory(self):
        # the values, the classes and one sorted copy, and little besides
        for window, bound in ((10 ** 5, 7), (10 ** 6, 66)):
            tracemalloc.start()
            try:
                structure_stats(build_graph_window(ALPHA, 0.2, window))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * 2 ** 20


class TestRhoChart:
    def setup_method(self):
        self.graph = build_graph_window(ALPHA, 0.2, 50)
        self.base = OrbitLabel(0, 1)
        self.chart = rho_chart(self.graph, self.base)

    def test_base_and_orientation(self):
        assert self.chart.rho_of(self.graph, self.base) == 0
        assert self.chart.rho_of(self.graph, OrbitLabel(1, 1)) == 1

    def test_both_signs_present(self):
        assert self.chart.rho.min() < 0 < self.chart.rho.max()

    def test_unit_increments_along_edges(self):
        # any edge avoiding the base vertex moves rho by at most one and
        # never crosses zero; edges at the base land on rho = +-1
        g, rho = self.graph, self.chart.rho
        v0 = g.index_of(self.base)
        edges = [(u, g.index_of(t)) for u in range(g.size)
                 for _, t in g.out_edges(g.label_at(u))]
        src, tgt = np.array(edges).T
        ru, rw = rho[src], rho[tgt]
        through = (src == v0) | (tgt == v0)
        assert np.all(np.abs(ru[~through] - rw[~through]) <= 1)
        assert np.all(ru[~through] * rw[~through] > 0)
        assert np.all(np.abs(ru[through] + rw[through]) >= 1)

    def test_level_minima(self):
        lm, lo = self.chart.level_min, self.chart.level_lo
        assert abs(lm[0 - lo] - 0.2) < 1e-15
        assert np.all(np.isfinite(lm))
        assert np.all((0.0 <= lm) & (lm < 1.0))

    def test_non_small_base_rejected(self):
        with pytest.raises(PreconditionError):
            rho_chart(self.graph, OrbitLabel(2, 1))  # value ~ .614

    @pytest.mark.parametrize("alpha, x, window", [
        (ALPHA, 0.2, 3), (ALPHA, 0.2, 50), (ALPHA, 0.2, 2000),
        (ALPHA, 0.05, 2000), (0.3 + 1e-5 * math.sqrt(2), 0.1, 2000),
        (GOLDEN, 0.17, 2000)])
    def test_matches_reference_bfs(self, alpha, x, window):
        graph = build_graph_window(alpha, x, window)
        base = OrbitLabel(0, 1)
        assert _outcome(graph, base) == _reference_outcome(graph, base)


def _reference_chart(graph, base):
    """rho and per-level minima from plain-Python BFS runs.

    The edges are the label automaton's in-window images, so the reference
    shares nothing with the vector ladder rule that rho_chart applies.
    Distance is a BFS from the base vertex. The sign comes from the
    components of the graph with the base vertex deleted, one BFS from each
    base neighbour not yet covered; there must be exactly two.
    """
    adj = [set() for _ in range(graph.size)]
    for u in range(graph.size):
        for theta in (1.0, graph.alpha):
            image = apply_theta_label(graph.alpha, graph.base_x, graph.label_at(u), theta)
            if abs(image.n) <= graph.window:
                w = graph.index_of(image)
                adj[u].add(w)
                adj[w].add(u)

    def bfs(start, blocked=None):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist and w != blocked:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    v0 = graph.index_of(base)
    dist = bfs(v0)
    plus_ref = graph.index_of(OrbitLabel(base.n + 1, base.eps))
    sides = []
    for w in sorted(adj[v0]):
        if not any(w in side for side in sides):
            sides.append(bfs(w, blocked=v0))
    assert len(sides) == 2
    plus_side = next(side for side in sides if plus_ref in side)
    rho = [None] * graph.size
    level_min = {}
    for v, d in dist.items():
        rho[v] = d if v in plus_side or v == v0 else -d
        level_min[rho[v]] = min(level_min.get(rho[v], 1.0), float(graph.values[v]))
    return rho, level_min


LADDER_PAIRS = [(ALPHA, 0.2), (ALPHA, 0.05), (GOLDEN, 0.17), (math.e - 2.0, 0.1),
                (0.3 + 1e-5 * math.sqrt(2), 0.1), (0.87 + 1e-5 * math.sqrt(2), 0.03)]


def _outcome(graph, base):
    """rho_chart's rho, level_lo and level_min, or the type and message it raised."""
    try:
        chart = rho_chart(graph, base)
    except FoldmapError as exc:
        return type(exc), str(exc)
    return chart.rho.tolist(), chart.level_lo, chart.level_min.tolist()


def _reference_outcome(graph, base):
    """_reference_chart in the form _outcome returns a chart."""
    rho, level_min = _reference_chart(graph, base)
    lo, hi = min(level_min), max(level_min)
    return rho, lo, [level_min[r] for r in range(lo, hi + 1)]


def _edge_outcome(graph, base):
    """The error rho_chart raises for a base at a window edge, else None.

    At n0 = -W the base has nothing below it, so it cuts nothing; at n0 = W
    the orientation reference (W+1, eps0) lies outside the window.
    """
    if base.n == -graph.window:
        return StructuralError, "base vertex is not a cut vertex of the window"
    if base.n == graph.window:
        return (PreconditionError,
                f"label {OrbitLabel(base.n + 1, base.eps)} outside window {graph.window}")
    return None


class TestLadderScan:
    def test_matches_bfs_on_every_small_base(self):
        seen = set()
        for alpha, x in LADDER_PAIRS:
            for window in [*range(1, 9), 50]:
                graph = build_graph_window(alpha, x, window)
                small = (graph.values > 0.0) & (graph.values < min(alpha, 1.0 - alpha))
                for i in np.flatnonzero(small):
                    base = graph.label_at(i)
                    got = _outcome(graph, base)
                    want = _edge_outcome(graph, base) or _reference_outcome(graph, base)
                    assert got == want, (alpha, x, window, base)
                    edge = {-window: "lower", window: "upper"}.get(base.n, "inner")
                    kind = got[0].__name__ if isinstance(got[0], type) else "chart"
                    seen |= {("eps", base.eps), ("edge", edge), ("outcome", kind)}
        assert seen == {("eps", 1), ("eps", -1),
                        ("edge", "lower"), ("edge", "upper"), ("edge", "inner"),
                        ("outcome", "chart"), ("outcome", "StructuralError"),
                        ("outcome", "PreconditionError")}

    def test_matches_bfs_on_random_windows(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            alpha, x = rng.uniform(0.05, 0.95), rng.uniform(0.0, 1.0)
            graph = build_graph_window(alpha, x, int(rng.integers(1, 300)))
            small = (graph.values > 0.0) & (graph.values < min(alpha, 1.0 - alpha))
            for i in rng.permutation(np.flatnonzero(small))[:3]:
                base = graph.label_at(i)
                want = _edge_outcome(graph, base) or _reference_outcome(graph, base)
                assert _outcome(graph, base) == want, (alpha, x, graph.window, base)


class TestStructureStats:
    def test_inv_sqrt2(self):
        g = build_graph_window(ALPHA, 0.2, 10 ** 4)
        stats = structure_stats(g)
        assert stats["q"] == 2
        assert set(stats["run_histogram"]) == {2, 3}
        assert abs(stats["expected_ratio"] - math.sqrt(2)) < 1e-9
        assert abs(stats["measured_ratio"] - math.sqrt(2)) < 0.05

    def test_large_alpha(self):
        alpha = 0.87 + 1e-5 * math.sqrt(2)  # nudge off the rational grid
        stats = structure_stats(build_graph_window(alpha, 0.2, 2 * 10 ** 4))
        assert stats["q"] == 6
        assert set(stats["run_histogram"]) == {6, 7}
        assert abs(stats["measured_ratio"] - stats["expected_ratio"]) < 0.05

    def test_small_alpha(self):
        alpha = 0.29 + 1e-5 * math.sqrt(2)
        stats = structure_stats(build_graph_window(alpha, 0.2, 2 * 10 ** 4))
        assert stats["q"] == 2
        assert set(stats["run_histogram"]) == {2, 3}
        assert abs(stats["measured_ratio"] - stats["expected_ratio"]) < 0.05

    def test_small_windows(self):
        # window 3 holds no run of length q + 1; window 1 nothing inside the margin
        assert structure_stats(build_graph_window(ALPHA, 0.2, 3))["measured_ratio"] is None
        with pytest.raises(PreconditionError, match="no vertex inside margin"):
            structure_stats(build_graph_window(ALPHA, 0.2, 1))


class TestShrinkWord:
    def test_already_below(self):
        assert shrink_word(ALPHA, 1.0, 0.005, 0.01) == []

    def test_replay_lands_below(self):
        word = shrink_word(ALPHA, 1.0, 0.5, 0.01)
        assert 0 < len(word) <= 256
        assert iterate_forward(word, 0.5)[-1] < 0.01

    def test_frozen_deep_search(self):
        word = shrink_word(ALPHA, 1.0, 0.9, 0.01)
        assert len(word) == 23
        final = iterate_forward(word, 0.9)[-1]
        assert abs(final - 0.000505) < 5e-5

    def test_rational_closure(self):
        # alpha = 1/3, beta = 1, m = 1/2: reachable values are {1/2, 1/6, 5/6}
        word = shrink_word(1 / 3, 1.0, 0.5, 0.34)
        assert iterate_forward(word, 0.5)[-1] < 0.34
        with pytest.raises(WordNotFoundError):
            shrink_word(1 / 3, 1.0, 0.5, 0.1)

    def test_huge_values_exhaust_without_overflow(self):
        # no word of 256 letters folds 1e300 down, and 1e300 / 1e-12 overflows to inf
        with pytest.raises(WordNotFoundError):
            shrink_word(ALPHA, 1.0, 1e300, 0.01)
        assert shrink_word(ALPHA, 1e300, 0.9, 0.01) == [1e300, 1e300]

    @pytest.mark.parametrize("beta, m, threshold", [
        (1.0, math.nan, 0.01), (1.0, math.inf, 0.01), (math.inf, 0.9, 0.01),
        (math.nan, 0.9, 0.01), (1.0, 0.9, math.nan), (1.0, 0.9, math.inf)])
    def test_non_finite_rejected_at_default_max_len(self, beta, m, threshold):
        # a NaN bucket never deduplicates, so the search at max_len=256 did not end
        with pytest.raises(PreconditionError, match="must be finite"):
            shrink_word(ALPHA, beta, m, threshold)

    def test_validation(self):
        with pytest.raises(PreconditionError):
            shrink_word(1.0, 0.5, 0.5, 0.01)
        with pytest.raises(PreconditionError):
            shrink_word(0.5, 1.0, 0.5, 0.0)
        with pytest.raises(PreconditionError):
            shrink_word(0.5, 1.0, -0.1, 0.01)
