"""Folding step, word iteration, and exact interval arithmetic."""

import itertools
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from foldmap import (EmpiricalCDF, Interval, PreconditionError, ThetaDist,
                     TrialPlan, backward_diam_ensemble, experiments, process,
                     forward_values, interval_fold, iterate_forward,
                     ks_distance, rate_experiment, sample_theta,
                     stationary_cdf, step, substream_seed, theta_from_uniform)
from foldmap.process import (_CHAIN_CUTS, TILE_CELLS, _cell_hashes, _cut_letters,
                             _fold_scalar, fold_interval_arrays, letter_columns, letter_run,
                             substream_keys, uniform_cells)

import bit_oracle

ALPHA = math.sqrt(0.5)


class TestStep:
    def test_basic_values(self):
        assert step(1.0, 0.2) == 0.8
        assert abs(step(ALPHA, 0.2) - 0.5071067811865476) < 1e-15
        assert step(0.5, 0.5) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(PreconditionError):
            step(-0.1, 0.2)
        with pytest.raises(PreconditionError):
            step(0.5, -0.2)

    def test_lipschitz_one(self):
        rng = np.random.default_rng(0)
        for theta, x, y in rng.random((300, 3)):
            assert abs(step(theta, x) - step(theta, y)) <= abs(x - y) + 1e-15


class TestThetaDist:
    def test_two_point_flag(self):
        d = ThetaDist.two_point(ALPHA)
        assert d.support.tolist() == [ALPHA, 1.0]
        assert d.weights.tolist() == [0.5, 0.5]
        assert d.bound == 1.0
        assert abs(d.mean - (1 + ALPHA) / 2) < 1e-15

    def test_validation(self):
        with pytest.raises(PreconditionError):
            ThetaDist([0.0, 1.0], [0.5, 0.5])  # zero fold point
        with pytest.raises(PreconditionError):
            ThetaDist([0.5, 1.0], [0.6, 0.5])  # weights exceed 1
        with pytest.raises(PreconditionError):
            ThetaDist([0.5, 0.5], [0.5, 0.5])  # duplicate support
        with pytest.raises(PreconditionError):
            ThetaDist([], [])
        with pytest.raises(PreconditionError):
            ThetaDist.two_point(1.0)

    def test_nan_support_rejected(self):
        with pytest.raises(PreconditionError):
            ThetaDist([float("nan"), 1.0], [0.5, 0.5])

    def test_nan_weight_rejected(self):
        with pytest.raises(PreconditionError):
            ThetaDist([0.5, 1.0], [float("nan"), 1.0])

    def test_inf_support_rejected(self):
        with pytest.raises(PreconditionError):
            ThetaDist([0.5, float("inf")], [0.5, 0.5])

    def test_support_sorted_and_frozen(self):
        d = ThetaDist([1.0, 0.3], [0.4, 0.6])
        assert d.support.tolist() == [0.3, 1.0]
        assert d.weights.tolist() == [0.6, 0.4]
        with pytest.raises(ValueError):
            d.support[0] = 0.1


class TestSampling:
    def test_two_point_frequency(self):
        d = ThetaDist.two_point(ALPHA)
        draws = sample_theta(d, np.random.default_rng(7), 10 ** 6)
        freq = np.mean(draws == ALPHA)
        assert 0.498 <= freq <= 0.502

    def test_degenerate_support(self):
        d = ThetaDist([0.4], [1.0])
        draws = sample_theta(d, np.random.default_rng(1), 1000)
        assert np.all(draws == 0.4)
        assert sample_theta(d, np.random.default_rng(2)) == 0.4

    def test_three_point_weights(self):
        d = ThetaDist([0.2, 0.5, 0.9], [0.2, 0.3, 0.5])
        draws = sample_theta(d, np.random.default_rng(3), 10 ** 6)
        for point, weight in zip(d.support, d.weights):
            assert abs(np.mean(draws == point) - weight) < 0.005

    def test_uniform_mapping_boundaries(self):
        d = ThetaDist.two_point(ALPHA)
        assert theta_from_uniform(d, 0.0) == ALPHA
        assert theta_from_uniform(d, 0.49999) == ALPHA
        assert theta_from_uniform(d, 0.5) == 1.0
        assert theta_from_uniform(d, 0.99999) == 1.0


def backward_point(word, x):
    """x folded through the word, first letter outermost: the backward image of [x, x]."""
    return interval_fold(word, Interval(x, x), "backward")[-1].lo


class TestIteration:
    def test_forward_trajectory(self):
        traj = iterate_forward([1.0, ALPHA], 0.2)
        assert traj[0] == 0.2 and traj[1] == 0.8
        assert abs(traj[2] - 0.09289321881345254) < 1e-15

    def test_empty_word_is_identity(self):
        assert iterate_forward([], 0.3).tolist() == [0.3]
        assert backward_point([], 0.3) == 0.3

    def test_alternating_word_stays_in_unit_interval(self):
        word = [ALPHA, 1.0] * 50
        traj = iterate_forward(word, 0.37)
        assert np.all((traj >= 0) & (traj <= 1))

    def test_backward_single_letter_matches_forward(self):
        assert backward_point([1.0], 0.2) == iterate_forward([1.0], 0.2)[-1]

    def test_backward_reverses_composition(self):
        got = backward_point([1.0, ALPHA], 0.2)
        assert abs(got - 0.49289321881345254) < 1e-15
        assert got == iterate_forward([ALPHA, 1.0], 0.2)[-1]

    def test_reversal_duality_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            word = np.where(rng.random(40) < 0.5, ALPHA, 1.0)
            x = float(rng.random())
            assert backward_point(word, x) == iterate_forward(word[::-1], x)[-1]


def one_fold(theta, iv):
    """The image of iv under one fold, by interval_fold; its forward path (a
    scalar loop) and its backward path (fold_interval_arrays) agree bit for bit."""
    fwd = interval_fold([theta], iv, "forward")[1]
    bwd = interval_fold([theta], iv, "backward")[1]
    assert (bits(fwd.lo), bits(fwd.hi)) == (bits(bwd.lo), bits(bwd.hi))
    return fwd


class TestIntervalImage:
    def test_full_interval_reflection(self):
        assert one_fold(1.0, Interval(0, 1)) == Interval(0, 1)

    def test_interior_fold(self):
        img = one_fold(ALPHA, Interval(0, 1))
        assert img.lo == 0.0 and img.hi == ALPHA

    def test_pure_translation(self):
        img = one_fold(0.3, Interval(0.5, 0.9))
        assert abs(img.lo - 0.2) < 1e-15 and abs(img.hi - 0.6) < 1e-15

    def test_grid_exactness(self):
        # image == exact range of the fold over I: a grid through I plus the
        # fold point itself (where the minimum 0 is attained) witnesses both
        # endpoints to within float error
        rng = np.random.default_rng(5)
        grid = np.linspace(0.0, 1.0, 1000)
        for _ in range(200):
            lo, hi = np.sort(rng.random(2))
            theta = float(rng.random() * 1.5)
            img = one_fold(theta, Interval(lo, hi))
            xs = lo + grid * (hi - lo)
            if lo < theta < hi:
                xs = np.append(xs, theta)
            pts = np.abs(theta - xs)
            assert img.lo <= pts.min() + 1e-15 and pts.max() <= img.hi + 1e-15
            assert pts.min() - img.lo < 1e-12 and img.hi - pts.max() < 1e-12

    def test_length_never_increases(self):
        # 1e-15 slack: translation endpoints round independently, so the
        # float length can exceed the exact one by an ulp
        rng = np.random.default_rng(6)
        for _ in range(300):
            lo, hi = np.sort(rng.random(2))
            theta = float(rng.random() * 1.5)
            assert one_fold(theta, Interval(lo, hi)).length <= hi - lo + 1e-15

    def test_endpoint_theta_takes_translation_branch(self):
        img = one_fold(0.5, Interval(0.5, 0.9))
        assert img == Interval(0.0, 0.4)  # translation, not a fold through 0


def three_branch_fold(theta, lo, hi):
    """The case-by-case fold of [lo, hi]: translate, reflect or fold through 0."""
    if theta <= lo:
        return lo - theta, hi - theta
    if theta >= hi:
        return theta - hi, theta - lo
    return 0.0, max(theta - lo, hi - theta)


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


class TestFoldKernel:
    @staticmethod
    def edge_cases():
        rng = np.random.default_rng(11)
        cases = [(0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 1.0),
                 (0.5, 0.5, 0.5), (ALPHA, 0.0, ALPHA), (ALPHA, ALPHA, 1.0),
                 (0.3, 0.1, 0.3), (0.1, 0.1, 0.3), (0.2, 0.7, 0.7),
                 (0.9, 0.7, 0.7), (0.7, 0.7, 0.7), (1e-300, 0.0, 1e-300)]
        for _ in range(300):
            lo, hi = np.sort(rng.random(2))
            theta = float(rng.random() * 1.5)
            cases += [(theta, lo, hi), (lo, lo, hi), (hi, lo, hi), (theta, lo, lo),
                      (lo, lo, lo)]
        return [tuple(map(float, case)) for case in cases]

    @staticmethod
    def zero_and_tiny_cases():
        """Every theta of a set with -0.0 and 5e-324 against every interval of
        sign-free ends from it, so theta = lo, theta = hi and lo = hi all occur."""
        ends = [0.0, 5e-324, 1e-300, 0.3, ALPHA, 1.0]
        return [(theta, lo, hi) for theta in [-0.0, *ends, 1.5]
                for lo in ends for hi in ends if lo <= hi]

    def test_zeros_and_subnormals_match_three_branch(self):
        theta, lo, hi = map(np.array, zip(*self.zero_and_tiny_cases()))
        ref_lo, ref_hi = map(np.array, zip(*map(three_branch_fold, theta, lo, hi)))
        for new_lo, new_hi in (fold_interval_arrays(theta, lo, hi),
                               fold_interval_arrays(theta, lo.copy(), hi.copy(),
                                                    scratch=(np.empty_like(lo),
                                                             np.empty_like(lo)))):
            assert np.array_equal(bits(new_lo), bits(ref_lo))
            assert np.array_equal(bits(new_hi), bits(ref_hi))
            assert not np.any(np.signbit(new_lo) | np.signbit(new_hi))

    def test_in_place_with_reused_scratch_matches_three_branch(self):
        theta, lo, hi = map(np.array, zip(*(self.edge_cases() + self.zero_and_tiny_cases())))
        scratch = np.empty_like(lo), np.empty_like(lo)
        want = list(zip(lo.tolist(), hi.tolist()))
        rng = np.random.default_rng(13)
        letters = [theta, -0.0, 0.0, 5e-324, 1.0, *(rng.random(20) * 1.5), 0.0, -0.0]
        for letter in letters:  # fold the same two arrays again and again
            got = fold_interval_arrays(letter, lo, hi, out=(lo, hi), scratch=scratch)
            assert got[0] is lo and got[1] is hi
            thetas = np.broadcast_to(letter, lo.shape).tolist()
            want = [three_branch_fold(t, a, b) for t, (a, b) in zip(thetas, want)]
            assert np.array_equal(bits(lo), bits([a for a, _ in want]))
            assert np.array_equal(bits(hi), bits([b for _, b in want]))
            assert not np.any(np.signbit(lo) | np.signbit(hi))

    def test_negative_zero_ends_fold_like_zero(self):
        for theta in (-0.0, 0.0, 0.5):
            img = one_fold(theta, Interval(-0.0, -0.0))
            assert (bits(img.lo), bits(img.hi)) == tuple(map(bits, three_branch_fold(theta, 0.0, 0.0)))

    def test_scalar_inputs_give_arrays(self):
        lo, hi = fold_interval_arrays(0.3, 0.1, 0.2)
        assert (lo.shape, hi.shape) == ((), ())
        assert (float(lo), float(hi)) == three_branch_fold(0.3, 0.1, 0.2)

    def test_vector_kernel_matches_three_branch(self):
        theta, lo, hi = map(np.array, zip(*self.edge_cases()))
        new_lo, new_hi = fold_interval_arrays(theta, lo, hi)
        ref_lo, ref_hi = map(np.array, zip(*map(three_branch_fold, theta, lo, hi)))
        assert np.array_equal(bits(new_lo), bits(ref_lo))
        assert np.array_equal(bits(new_hi), bits(ref_hi))
        assert not np.any(np.signbit(new_lo))

    def test_in_place_matches_allocating(self):
        theta, lo, hi = map(np.array, zip(*self.edge_cases()))
        want = fold_interval_arrays(theta, lo, hi)
        got = fold_interval_arrays(theta, lo, hi, out=(lo, hi))
        assert got[0] is lo and got[1] is hi
        assert np.array_equal(bits(lo), bits(want[0]))
        assert np.array_equal(bits(hi), bits(want[1]))

    def test_scalar_forward_loop_matches_three_branch(self):
        for theta, lo, hi in self.edge_cases():
            img = interval_fold([theta], Interval(lo, hi), "forward")[1]
            ref_lo, ref_hi = three_branch_fold(theta, lo, hi)
            assert bits(img.lo) == bits(ref_lo) and bits(img.hi) == bits(ref_hi)
            assert not np.signbit(img.lo)

    @staticmethod
    @st.composite
    def scalar_folds(draw, ends, letters):
        """(t, lo, hi), lo <= hi, with t = lo and t = hi drawn as often as any t."""
        lo, hi = sorted((draw(ends), draw(ends)))
        return draw(st.one_of(letters, st.sampled_from([lo, hi]))), lo, hi

    @given(scalar_folds(st.integers(0, 2 ** 62), st.integers(0, 2 ** 62)))
    @example((5, 5, 5))
    def test_scalar_fold_on_ints_is_exact(self, fold):
        # rate's chain folds ints on the power-of-two grid, below 2^61
        t, lo, hi = fold
        got = _fold_scalar(t, lo, hi)
        nearest = 0 if lo <= t <= hi else min(abs(t - lo), abs(t - hi))
        assert got == (nearest, max(abs(t - lo), abs(t - hi)))
        assert all(type(end) is int for end in got)

    @given(scalar_folds(st.floats(0.0, 1e300), st.one_of(st.floats(0.0, 1e300),
                                                          st.just(-0.0))))
    @example((0.0, 0.0, 0.0))
    @example((-0.0, 0.0, 0.0))
    @example((ALPHA, ALPHA, ALPHA))
    @example((ALPHA, ALPHA, 1.0))
    @example((1.0, ALPHA, 1.0))
    def test_scalar_fold_on_floats_is_the_kernel(self, fold):
        # ends carry no sign bit, as Interval and the state search keep them
        t, lo, hi = fold
        got = _fold_scalar(t, lo, hi)
        assert tuple(map(bits, got)) == tuple(map(bits, fold_interval_arrays(t, lo, hi)))
        assert not any(map(np.signbit, got))

    def test_long_words_match_three_branch(self):
        rng = np.random.default_rng(12)
        word = (rng.random(3000) * 1.5).tolist() + [0.0, 0.0, 1.0, 1.0]
        lo, hi = 0.0, 1.0
        images = interval_fold(word, Interval(lo, hi), "forward")
        for t, img in zip(word, images[1:]):
            lo, hi = three_branch_fold(t, lo, hi)
            assert bits(img.lo) == bits(lo) and bits(img.hi) == bits(hi)


class TestIntervalFold:
    def test_singleton_follows_point_trajectory(self):
        word = [ALPHA, 1.0, ALPHA, ALPHA, 1.0]
        seq = interval_fold(word, Interval(0.3, 0.3), "forward")
        traj = iterate_forward(word, 0.3)
        assert [iv.lo for iv in seq] == traj.tolist()
        assert all(iv.length == 0 for iv in seq)

    def test_two_letter_orders_same_final_length(self):
        ab = interval_fold([ALPHA, 1.0], Interval(0, 1), "forward")
        ba = interval_fold([1.0, ALPHA], Interval(0, 1), "forward")
        assert abs(ab[-1].length - ba[-1].length) < 1e-15
        assert ab[1] != ba[1]

    def test_backward_prefixes_nested_exactly(self):
        rng = np.random.default_rng(8)
        word = np.where(rng.random(500) < 0.5, ALPHA, 1.0)
        seq = interval_fold(word, Interval(0, 1), "backward")
        for prev, cur in zip(seq, seq[1:]):
            assert prev.contains(cur)

    def test_lengths_nonincreasing_both_directions(self):
        rng = np.random.default_rng(9)
        word = np.where(rng.random(300) < 0.5, ALPHA, 1.0)
        for direction in ("forward", "backward"):
            seq = interval_fold(word, Interval(0, 1), direction)
            lengths = [iv.length for iv in seq]
            assert all(b <= a for a, b in zip(lengths, lengths[1:]))

    def test_backward_final_matches_pointwise_composition(self):
        rng = np.random.default_rng(10)
        word = np.where(rng.random(60) < 0.5, ALPHA, 1.0)
        final = interval_fold(word, Interval(0.2, 0.2), "backward")[-1]
        assert final.lo == iterate_forward(word[::-1], 0.2)[-1]

    def test_long_words_contract(self):
        # measured at 10^4 letters: median final length 0.012, max 0.029
        # over 400 trials, so 0.05 holds with ample margin (1e-3 would need
        # word lengths near 10^6)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            word = np.where(rng.random(10 ** 4) < 0.5, ALPHA, 1.0)
            if interval_fold(word, Interval(0, 1), "forward")[-1].length < 0.05:
                hits += 1
        assert hits >= 99

    def test_images_stay_inside_state_space(self):
        rng = np.random.default_rng(12)
        word = np.where(rng.random(200) < 0.5, ALPHA, 1.0)
        for direction in ("forward", "backward"):
            for iv in interval_fold(word, Interval(0, 1), direction):
                assert 0.0 <= iv.lo and iv.hi <= 1.0

    def test_bad_direction_rejected(self):
        with pytest.raises(PreconditionError):
            interval_fold([1.0], Interval(0, 1), "sideways")


class TestTrialPlan:
    def test_substreams_are_reproducible(self):
        plan = TrialPlan(123, trials=4)
        a = plan.substream(2).random(5)
        b = plan.substream(2).random(5)
        assert np.array_equal(a, b)

    def test_substreams_differ_across_indices(self):
        seeds = {substream_seed(99, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_validation(self):
        with pytest.raises(PreconditionError):
            TrialPlan(0, trials=0)
        with pytest.raises(PreconditionError):
            substream_seed(0, -1)


class TestUniformGrid:
    """Contract and quality of the counter-based grid u[t, j]."""

    @pytest.mark.parametrize("seed", [0, -1, 2 ** 64 + 5])
    def test_vector_keys_equal_scalar_keys(self, seed):
        for first in (0, 7, 2 ** 40):
            keys = substream_keys(seed, first, 50)
            assert keys.dtype == np.uint64
            assert keys.tolist() == [substream_seed(seed, first + i) for i in range(50)]

    @pytest.mark.parametrize("seed", [0, -1, 2 ** 64 + 5])
    def test_scalar_keys_follow_the_formula(self, seed):
        # key_t = mix64(seed + (t + 1) G), in Python integers
        for t in (0, 1, 2 ** 40, 2 ** 64 - 1, 2 ** 64, 2 ** 70):
            assert substream_seed(seed, t) == bit_oracle.row_key(seed, t)

    def test_cells_follow_the_formula(self):
        # u[t, j] = (mix64(key_t + (j + 1) G) >> 11) 2^-53, in Python integers
        golden, mask = 0x9E3779B97F4A7C15, (1 << 64) - 1

        def mix64(z):
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
            return z ^ (z >> 31)

        for seed, t, j in [(0, 0, 0), (-1, 3, 9), (2 ** 64 + 5, 2 ** 33, 10 ** 12)]:
            key = mix64((seed + (t + 1) * golden) & mask)
            want = (mix64((key + (j + 1) * golden) & mask) >> 11) * 2.0 ** -53
            assert uniform_cells(substream_keys(seed, t, 1), j)[0] == want
            assert TrialPlan(seed, 1).substream(t, start=j).random() == want

    @pytest.mark.parametrize("keys_shape, steps", [
        ((1,), np.arange(50)),                     # runs of one-cell rows, the last short
        ((3, 1), np.arange(20)),                   # rows longer than a tile, tiled each
        ((5, 1), np.arange(3)),                    # two rows a tile
        ((2, 1, 1), np.arange(12).reshape(3, 4)),  # a tile of one row in each of (3, 4)
        ((10,), 9),                                # one step for every row
        ((4,), np.arange(4, dtype=np.uint64)),     # one tile, uint64 steps
        ((), 5),                                   # one 0-d cell
        ((3, 1), np.arange(0)),                    # no cells
    ])
    def test_tiles_follow_the_formula(self, monkeypatch, keys_shape, steps):
        # seven cells a tile, so every shape above spans several tiles or one ragged one
        monkeypatch.setattr(process, "TILE_CELLS", 7)
        keys = substream_keys(8, 0, math.prod(keys_shape)).reshape(keys_shape)
        got = uniform_cells(keys, steps)
        key_grid, step_grid = np.broadcast_arrays(keys, steps)
        want = [(bit_oracle.mix64((k + (j + 1) * 0x9E3779B97F4A7C15) % 2 ** 64) >> 11)
                * 2.0 ** -53 for k, j in zip(key_grid.ravel().tolist(),
                                              step_grid.ravel().tolist())]
        assert got.shape == key_grid.shape
        assert got.ravel().tolist() == want

    def test_cells_memory(self):
        # hashed a tile at a time: 10^6 cells peak at their 8 MB of floats and
        # one 512 KB hash buffer, where whole-size step offsets, hashes, shift
        # scratch and product took 24 MB
        keys, steps = substream_keys(17, 0, 1), np.arange(10 ** 6)
        tracemalloc.start()
        try:
            cells = uniform_cells(keys, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cells.nbytes + 2 ** 20

    def test_column_read_equals_row_view(self):
        plan = TrialPlan(2026, trials=40)
        keys = substream_keys(plan.master_seed, 10, 30)
        for j in (0, 1, 17):
            rows = [plan.substream(10 + i).random(j + 1)[j] for i in range(30)]
            assert np.array_equal(uniform_cells(keys, j), rows)

    def test_prefix_property(self):
        plan = TrialPlan(5, trials=1)
        whole = plan.substream(3).random(100)
        row = plan.substream(3)
        parts = [row.random(30), row.random(), row.random((3, 23))]
        assert np.array_equal(np.concatenate([parts[0], [parts[1]], parts[2].ravel()]),
                              whole)
        assert np.array_equal(plan.substream(3, start=40).random(60), whole[40:])

    @pytest.mark.parametrize("block", [64, 1000])
    def test_paths_identical_across_blocks(self, monkeypatch, block):
        dist = ThetaDist.two_point(ALPHA)

        def outputs():
            plan = TrialPlan(77, trials=3000)
            return (forward_values(dist, 0.2, 30, plan),
                    backward_diam_ensemble(dist, 30, plan),
                    rate_experiment(ALPHA, 4, 0.5, plan).to_json())

        ref = outputs()
        monkeypatch.setattr(experiments, "_TRIAL_BLOCK", block)
        blocked = outputs()
        assert np.array_equal(ref[0], blocked[0])
        assert np.array_equal(ref[1], blocked[1])
        assert ref[2] == blocked[2]

    def _grid(self):
        # 10^6 cells: 1000 trials x 1000 steps
        return uniform_cells(substream_keys(12345, 0, 1000), np.arange(1000)[:, None]).T

    def test_cells_uniform_ks(self):
        cells = self._grid().ravel()
        assert cells.min() >= 0.0 and cells.max() < 1.0
        n = cells.size
        # DKW: Pr{KS > t} <= 2 exp(-2 n t^2); 5.7e-7 is the two-sided 5-sigma tail
        bound = math.sqrt(math.log(2 / 5.7e-7) / (2 * n))
        uniform = stationary_cdf(ThetaDist([1.0], [1.0]))
        assert ks_distance(EmpiricalCDF(cells), uniform) < bound

    def test_neighbour_correlations(self):
        u = self._grid()
        # a sample correlation of m independent pairs has sd 1/sqrt(m)
        for a, b in ((u[:-1], u[1:]), (u[:, :-1], u[:, 1:])):  # trials, then steps
            r = np.corrcoef(a.ravel(), b.ravel())[0, 1]
            assert abs(r) < 5 / math.sqrt(a.size)


GOLDEN, MASK64 = 0x9E3779B97F4A7C15, (1 << 64) - 1


def unmix64(z: int) -> int:
    """Inverse of the splitmix64 finalizer, so a test can choose a hash."""
    def unshift(y, s):
        x = y
        for _ in range(64 // s):
            x = y ^ (x >> s)
        return x

    z = unshift(z, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64, 27)
    return unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64, 30)


def keys_hashing_to(zs) -> np.ndarray:
    """Row keys whose cell 0 hashes to the given 64-bit integers."""
    return np.array([(unmix64(z) - GOLDEN) & MASK64 for z in zs], dtype=np.uint64)


_W40 = np.random.default_rng(40).random(40) + 0.05
LETTER_DISTS = {
    "one-point": (ThetaDist([0.7], [1.0]), 0),
    "two-point": (ThetaDist.two_point(ALPHA), 1),
    "dyadic-3": (ThetaDist([0.3, ALPHA, 1.0], [0.2, 0.3, 0.5]), 2),
    "non-dyadic-3": (ThetaDist([0.3, ALPHA, 1.0], [0.1, 0.2, 0.7]), 2),
    # cum is [1.0, 1.0]: the one cut would be 2^64, and no cell reaches it
    "cum-at-1": (ThetaDist([0.5, 1.0], [1.0, 1e-13]), 0),
    # cum[1] > 1, the top weight pinned back to 1
    "cum-above-1": (ThetaDist([0.2, 0.5, 1.0], [0.3, 0.7 + 2e-13, 1e-13]), 1),
    "forty-point": (ThetaDist(np.linspace(0.05, 2.0, 40), _W40 / _W40.sum()), 39),
    "twenty-point": (ThetaDist(np.linspace(0.05, 1.0, 20), np.arange(1, 21) / 210), 19),
    # cumulative weights below, at and near a few units of 2^-53
    "tiny-weights": (ThetaDist([0.2, 0.4, 0.5, 1.0],
                               [1e-17, 2.0 ** -53, 2.0 ** -52, 1 - 4.0 * 2.0 ** -53]), 3),
    # cumulative weights on multiples of 2^-31: cuts on multiples of 2^33
    "coarse-2^-31": (ThetaDist([0.3, 0.6, 1.0], [2.0 ** -31, 0.5, 0.5 - 2.0 ** -31]), 2),
    # one cumulative weight at an odd multiple of 2^-32: a cut off the 2^33 grid
    "fine-2^-32": (ThetaDist([0.3, 0.6, 1.0], [2.0 ** -32, 0.5, 0.5 - 2.0 ** -32]), 2),
}


def expected_letters(dist, keys, steps):
    """theta_from_uniform over uniform_cells, or, for a dist that reads one
    bit a letter, tests/bit_oracle.py cell by cell."""
    if not dist._bits:
        return theta_from_uniform(dist, uniform_cells(keys, steps))
    k, j = np.broadcast_arrays(keys, steps)
    return np.array([bit_oracle.cell_letter(dist.support, int(a), int(b))
                     for a, b in zip(k.ravel().tolist(), j.ravel().tolist())]).reshape(k.shape)


def read_letters(dist, keys, steps):
    """The letters of cells (keys, steps), broadcast, as the library reads
    them: by the cut rule, or, for a dist that reads one bit a letter, by
    letter_columns, one column for each distinct step."""
    if not dist._bits:
        return _cut_letters(dist, keys, steps)
    k, j = np.broadcast_arrays(keys, steps)
    out = np.empty(k.shape)
    for step in np.unique(j).tolist():
        at = j == step
        out[at] = next(letter_columns(dist, k[at], range(step, step + 1)))
    return out


class TestLetterColumns:
    """letter_columns and the cut rule equal theta_from_uniform over
    uniform_cells, or the bit oracle, bit for bit."""

    def test_supports_reach_the_edge_cases(self):
        assert LETTER_DISTS["cum-at-1"][0]._cum.tolist() == [1.0, 1.0]
        assert LETTER_DISTS["cum-above-1"][0]._cum[1] > 1.0
        # both ways of counting cuts, compares and bisection, are exercised
        assert {d._cuts.size > _CHAIN_CUTS for d, _ in LETTER_DISTS.values()} == {True, False}

    @pytest.mark.parametrize("name", sorted(LETTER_DISTS))
    def test_cut_counts(self, name):
        dist, cuts = LETTER_DISTS[name]
        assert dist._cuts.size == cuts and dist._cuts.dtype == np.uint64
        assert np.all(dist._cuts[1:] >= dist._cuts[:-1])

    @pytest.mark.parametrize("name", sorted(LETTER_DISTS))
    def test_crafted_integers_at_the_cuts(self, name):
        dist, _ = LETTER_DISTS[name]
        # every cumulative weight's cut, kept or dropped, one integer either
        # side, and the ends of the 2^33-cells on either side
        edges = [math.ceil(c * 2.0 ** 53) << 11 for c in dist._cum.tolist()]
        shifts = (-(1 << 33), -1, 0, 1, (1 << 33) - 1)
        zs = sorted({min(max(e + d, 0), MASK64) for e in edges for d in shifts}
                    | {0, MASK64})
        keys = keys_hashing_to(zs)
        z = np.array(zs, dtype=np.uint64)
        u = (z >> np.uint64(11)) * 2.0 ** -53
        assert np.array_equal(uniform_cells(keys, 0), u)
        (column,) = letter_columns(dist, keys, range(1))
        assert np.array_equal(column, theta_from_uniform(dist, u))
        # the cut rule itself, which a two-point dist's letter 0 also follows
        assert np.array_equal(_cut_letters(dist, keys, 0), column)

    @pytest.mark.parametrize("name", sorted(LETTER_DISTS))
    def test_random_columns(self, name):
        dist, _ = LETTER_DISTS[name]
        keys = substream_keys(314, 5, 3000)
        for steps in (range(3), range(79, 76, -1), range(10 ** 9, 10 ** 9 + 2)):
            columns = [c.copy() for c in letter_columns(dist, keys, steps)]
            assert len(columns) == len(steps)
            for j, column in zip(steps, columns):
                assert np.array_equal(column, expected_letters(dist, keys, j))

    @pytest.mark.parametrize("name", sorted(LETTER_DISTS))
    def test_letter_cells_random_keys_and_steps(self, name):
        dist, _ = LETTER_DISTS[name]
        rng = np.random.default_rng(len(name))
        keys = rng.integers(0, MASK64, size=700, dtype=np.uint64, endpoint=True)
        steps = rng.integers(0, 1 << 40, size=(9, 1))
        # a column of steps against every row, one step a row, single steps
        for k, j in ((keys, steps), (keys[:9], steps[:, 0]), (keys, 0), (keys, 1 << 62)):
            got = read_letters(dist, k, j)
            assert got.shape == np.broadcast(k, j).shape
            assert np.array_equal(got, expected_letters(dist, k, j))

    def test_letter_cells_one_row(self):
        # one key against a range of steps: the cells of one row, as UniformRow reads them
        dist = LETTER_DISTS["dyadic-3"][0]
        plan = TrialPlan(77, trials=2)
        keys = substream_keys(77, 1, 1)
        assert np.array_equal(_cut_letters(dist, keys, np.arange(5, 505)),
                              theta_from_uniform(dist, plan.substream(1, 5).random(500)))

    def test_column_is_one_read_only_buffer(self):
        keys = substream_keys(3, 0, 10)
        for dist, _ in (LETTER_DISTS["two-point"], LETTER_DISTS["one-point"]):
            columns = list(letter_columns(dist, keys, range(3)))
            assert all(c.base is columns[0].base for c in columns)
            assert not columns[0].flags.writeable


def same_bits(a, b) -> bool:
    return np.array_equal(bits(a), bits(b))


# dists whose cuts are [2^63], so they read one bit a letter
SIGN_DISTS = {
    "two-point": ThetaDist.two_point(ALPHA),
    "alpha-1e-9": ThetaDist.two_point(1e-9),
    "subnormal-1": ThetaDist([5e-324, 1.0], [0.5, 0.5]),
    "subnormal-huge": ThetaDist([5e-324, 1e308], [0.5, 0.5]),
    "1e-9-huge": ThetaDist([1e-9, 1e308], [0.5, 0.5]),
    # cum [0.5, 1.0, 1.0]: the second cut is dropped, and the third point never drawn
    "three-point-one-cut": ThetaDist([0.5, 1.0, 2.0], [0.5, 0.5, 1e-13]),
}


class TestSignLetters:
    """The bit rule: letter j is bit 63 - (j mod 64) of the hash of cell j // 64."""

    CRAFTED = [0, (1 << 63) - (1 << 33), (1 << 63) - 1, 1 << 63,
               (1 << 63) + (1 << 33) - 1, MASK64, 0x0123456789ABCDEF]

    @pytest.mark.parametrize("name", sorted(SIGN_DISTS))
    def test_crafted_hashes(self, name):
        # cell 0 of these rows hashes to CRAFTED, so letters 0..63 are its bits
        dist = SIGN_DISTS[name]
        assert dist._bits
        keys = keys_hashing_to(self.CRAFTED)
        assert np.array_equal(_cell_hashes(keys, 0), np.array(self.CRAFTED, np.uint64))
        want = dist.support[[[(z >> (63 - j)) & 1 for z in self.CRAFTED] for j in range(64)]]
        assert same_bits(want[0], dist.support[[0, 0, 0, 1, 1, 1, 0]])
        assert same_bits(np.stack(tiled_columns(dist, keys, range(64))), want)
        assert same_bits(letter_run(dist, keys, 0, 64).T, want)

    @pytest.mark.parametrize("name", sorted(SIGN_DISTS))
    def test_random_cells(self, name):
        dist = SIGN_DISTS[name]
        keys = substream_keys(63, 0, 500)
        steps = np.array([0, 1, 7, 8, 9, 62, 63, 64, 65, 127, 128, 10 ** 6])[:, None]
        assert same_bits(read_letters(dist, keys, steps), expected_letters(dist, keys, steps))

    def test_two_point_dists_cut_at_2_63(self):
        for alpha in (ALPHA, 0.1, 0.9, 1e-9):
            dist = ThetaDist.two_point(alpha)
            assert dist._bits and dist._cuts.tolist() == [1 << 63]

    def test_only_the_cut_2_63_selects(self):
        sign = {name for name, (d, _) in LETTER_DISTS.items() if d._bits}
        assert sign == {"two-point"}
        assert not ThetaDist([ALPHA, 1.0], [0.3, 0.7])._bits


def tiled_columns(dist, keys, steps):
    return [c.copy() for c in letter_columns(dist, keys, steps)]


def cells_of(dist, keys, steps):
    return expected_letters(dist, keys, np.array(steps, dtype=np.uint64)[:, None])


TILE_DISTS = ["two-point", "dyadic-3", "forty-point"]  # select, compares, bisection


class TestLetterTiles:
    """Column j of letter_columns is letter j of each row, by the float formula
    or the bit oracle, however the tiles fall."""

    @pytest.mark.parametrize("name", TILE_DISTS)
    @pytest.mark.parametrize("rows, steps", [
        (1, range(3, 3 + TILE_CELLS + 5)),   # two tiles, the second of five columns
        (TILE_CELLS - 1, range(3)),          # width 1
        (TILE_CELLS + 1, range(2)),          # width 1
        (3000, range(50)),                   # width 21, a ragged last tile
        (3000, range(49, -1, -1)),           # descending
        (3000, range(7, 200)),               # from inside a word
        (3000, range(5, 5)),                 # empty
        (700, range(2 ** 62 + 150, 2 ** 62 - 150, -1)),  # near 2^62, across tiles
    ])
    def test_columns_equal_cells(self, name, rows, steps):
        dist = LETTER_DISTS[name][0]
        keys = substream_keys(17, 3, rows)
        columns = tiled_columns(dist, keys, steps)
        assert len(columns) == len(steps)
        if columns:
            assert same_bits(np.stack(columns), cells_of(dist, keys, list(steps)))

    def test_columns_equal_float_path(self):
        dist = LETTER_DISTS["dyadic-3"][0]
        keys = substream_keys(5, 0, 3000)
        for j, column in zip(range(60, 0, -1), letter_columns(dist, keys, range(60, 0, -1))):
            assert same_bits(column, theta_from_uniform(dist, uniform_cells(keys, j)))

    def test_steps_are_read_one_tile_ahead(self):
        # a range far too long to list is read a tile (or a hash) at a time, either way
        keys = substream_keys(9, 0, 3000)  # width 21
        for dist, steps in itertools.product([LETTER_DISTS[name][0] for name in TILE_DISTS],
                                             (range(10 ** 18), range(10 ** 18, -1, -1))):
            first = [c.copy() for c in itertools.islice(letter_columns(dist, keys, steps), 30)]
            assert same_bits(np.stack(first), cells_of(dist, keys, steps[:30]))

    def test_threaded_blocks(self):
        # two threads read 2^15 rows each (width 2), as two blocks of a run at 2^16 rows
        dist = LETTER_DISTS["dyadic-3"][0]
        blocks = [substream_keys(21, start, 1 << 15) for start in (0, 1 << 15)]
        steps = range(9, -1, -1)
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(lambda keys: tiled_columns(dist, keys, steps), blocks))
        for keys, columns in zip(blocks, got):
            assert same_bits(np.stack(columns), cells_of(dist, keys, list(steps)))

    def test_out_and_scratch(self):
        dist = LETTER_DISTS["dyadic-3"][0]
        keys = substream_keys(4, 0, 100)
        steps = np.arange(8)[:, None]
        out = np.empty((8, 100))
        scratch = np.empty((8, 100), np.uint64), np.empty((8, 100), np.uint64)
        for d in (dist, LETTER_DISTS["one-point"][0], LETTER_DISTS["forty-point"][0]):
            got = _cut_letters(d, keys, steps, out=out, scratch=scratch)
            assert got is out
            assert same_bits(got, _cut_letters(d, keys, steps))


class TestLetterRun:
    """Row i of letter_run(dist, keys, start, count) is letters start ..
    start + count - 1 of row i, by the float formula or the bit oracle."""

    @pytest.mark.parametrize("name", sorted(LETTER_DISTS))
    @pytest.mark.parametrize("start, count", [
        (0, 1), (0, 64), (5, 3), (60, 8), (63, 66), (64, 64), (2 ** 40 + 1, 200), (9, 0)])
    def test_run_equals_cells(self, name, start, count):
        dist = LETTER_DISTS[name][0]
        keys = substream_keys(12, 4, 30)
        got = letter_run(dist, keys, start, count)
        assert got.shape == (30, count)
        assert same_bits(got, expected_letters(dist, keys[:, None],
                                               np.arange(start, start + count)))
