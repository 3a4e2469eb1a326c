"""Folding step, word iteration, and exact interval arithmetic."""

import itertools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from foldmap import (EmpiricalCDF, Interval, PreconditionError, ThetaDist,
                     TrialPlan, backward_diam_ensemble, experiments,
                     fold_backward, forward_values, interval_fold,
                     interval_image, iterate_forward, ks_distance,
                     rate_experiment, sample_theta, stationary_cdf, step,
                     substream_seed, theta_from_uniform)
from foldmap.process import (_CHAIN_CUTS, TILE_CELLS, _cell_hashes,
                             fold_interval_arrays, letter_cells, letter_columns,
                             substream_keys, uniform_cells)

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
        assert d.is_two_point
        assert d.bound == 1.0
        assert abs(d.mean - (1 + ALPHA) / 2) < 1e-15

    def test_general_dist_not_two_point(self):
        assert not ThetaDist([0.3, 0.5, 1.0], [0.2, 0.3, 0.5]).is_two_point
        assert not ThetaDist([0.4, 0.9], [0.5, 0.5]).is_two_point

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


class TestIteration:
    def test_forward_trajectory(self):
        traj = iterate_forward([1.0, ALPHA], 0.2)
        assert traj[0] == 0.2 and traj[1] == 0.8
        assert abs(traj[2] - 0.09289321881345254) < 1e-15

    def test_empty_word_is_identity(self):
        assert iterate_forward([], 0.3).tolist() == [0.3]
        assert fold_backward([], 0.3) == 0.3

    def test_alternating_word_stays_in_unit_interval(self):
        word = [ALPHA, 1.0] * 50
        traj = iterate_forward(word, 0.37)
        assert np.all((traj >= 0) & (traj <= 1))

    def test_backward_single_letter_matches_forward(self):
        assert fold_backward([1.0], 0.2) == iterate_forward([1.0], 0.2)[-1]

    def test_backward_reverses_composition(self):
        got = fold_backward([1.0, ALPHA], 0.2)
        assert abs(got - 0.49289321881345254) < 1e-15

    def test_reversal_duality_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            word = np.where(rng.random(40) < 0.5, ALPHA, 1.0)
            x = float(rng.random())
            assert fold_backward(word, x) == iterate_forward(word[::-1], x)[-1]


class TestIntervalImage:
    def test_full_interval_reflection(self):
        assert interval_image(1.0, Interval(0, 1)) == Interval(0, 1)

    def test_interior_fold(self):
        img = interval_image(ALPHA, Interval(0, 1))
        assert img.lo == 0.0 and img.hi == ALPHA

    def test_pure_translation(self):
        img = interval_image(0.3, Interval(0.5, 0.9))
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
            img = interval_image(theta, Interval(lo, hi))
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
            assert interval_image(theta, Interval(lo, hi)).length <= hi - lo + 1e-15

    def test_endpoint_theta_takes_translation_branch(self):
        img = interval_image(0.5, Interval(0.5, 0.9))
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
            img = interval_image(theta, Interval(-0.0, -0.0))
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
        assert final.lo == fold_backward(word, 0.2)

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

    def test_integers_scale_the_same_cells(self):
        plan = TrialPlan(8, trials=1)
        u = plan.substream(1).random(1000)
        k = plan.substream(1).integers(3, 10, size=1000)
        assert np.array_equal(k, 3 + np.floor(u * 7).astype(np.int64))
        assert 3 <= plan.substream(1).integers(3, 10) < 10
        with pytest.raises(PreconditionError):
            plan.substream(1).integers(5, 5)

    @pytest.mark.parametrize("block", [64, 1000])
    def test_paths_identical_across_workers_and_blocks(self, monkeypatch, block):
        dist = ThetaDist.two_point(ALPHA)

        def outputs(workers):
            plan = TrialPlan(77, trials=3000)
            return (forward_values(dist, 0.2, 30, plan, workers=workers),
                    backward_diam_ensemble(dist, 30, plan, workers=workers),
                    rate_experiment(ALPHA, 4, 0.5, plan, workers=workers).to_json())

        ref = outputs(1)
        monkeypatch.setattr(experiments, "_TRIAL_BLOCK", block)
        threaded = outputs(3)
        assert np.array_equal(ref[0], threaded[0])
        assert np.array_equal(ref[1], threaded[1])
        assert ref[2] == threaded[2]

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
# the dists whose letters skip the hash's last xor-shift
COARSE = {"one-point", "two-point", "cum-at-1", "coarse-2^-31"}


class TestLetterColumns:
    """letter_columns and letter_cells equal theta_from_uniform over uniform_cells, bit for bit."""

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

    def test_which_dists_are_coarse(self):
        assert {name for name, (d, _) in LETTER_DISTS.items() if d._coarse} == COARSE
        for dist, _ in LETTER_DISTS.values():
            assert dist._coarse == all(int(c) % (1 << 33) == 0 for c in dist._cuts)
        # every uniform two-point dist cuts at 2^63
        for alpha in (ALPHA, 0.1, 0.9, 1e-9):
            dist = ThetaDist.two_point(alpha)
            assert dist._coarse and dist._cuts.tolist() == [1 << 63]

    def test_last_xor_shift_keeps_coarse_comparisons(self):
        cut = 1 << 63
        rng = np.random.default_rng(63)
        low = rng.integers(0, 1 << 33, size=50).tolist()
        high = [cut - (1 << 33), cut]  # the 2^33-cells either side of the cut
        pre = sorted({cut - 1, cut, cut + 1, cut + (1 << 33) - 1}
                     | {h + r for h in high for r in low})
        for z in pre:
            assert (z ^ (z >> 31) >= cut) == (z >= cut)
        # the library's coarse hash is the full hash before that step
        keys = rng.integers(0, MASK64, size=2000, dtype=np.uint64, endpoint=True)
        full = _cell_hashes(keys, 5)
        coarse = _cell_hashes(keys, 5, coarse=True)
        assert np.array_equal(coarse ^ (coarse >> np.uint64(31)), full)
        assert np.array_equal(coarse >= np.uint64(cut), full >= np.uint64(cut))
        # and a cut off the 2^33 grid can tell the two apart
        fine, z = cut + (1 << 32), cut + (1 << 32) - 1
        assert (z ^ (z >> 31) >= fine) != (z >= fine)

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
        (column,) = letter_columns(dist, keys, [0])
        assert np.array_equal(column, theta_from_uniform(dist, u))
        assert np.array_equal(letter_cells(dist, keys, 0), column)

    @pytest.mark.parametrize("name", sorted(LETTER_DISTS))
    def test_random_columns(self, name):
        dist, _ = LETTER_DISTS[name]
        keys = substream_keys(314, 5, 3000)
        steps = [0, 1, 2, 77, 10 ** 9]
        columns = [c.copy() for c in letter_columns(dist, keys, steps)]
        assert len(columns) == len(steps)
        for j, column in zip(steps, columns):
            assert np.array_equal(column, theta_from_uniform(dist, uniform_cells(keys, j)))

    @pytest.mark.parametrize("name", sorted(LETTER_DISTS))
    def test_letter_cells_random_keys_and_steps(self, name):
        dist, _ = LETTER_DISTS[name]
        rng = np.random.default_rng(len(name))
        keys = rng.integers(0, MASK64, size=700, dtype=np.uint64, endpoint=True)
        steps = rng.integers(0, 1 << 40, size=(9, 1))
        # a column of steps against every row, one step a row, single steps
        for k, j in ((keys, steps), (keys[:9], steps[:, 0]), (keys, 0), (keys, 1 << 62)):
            got = letter_cells(dist, k, j)
            assert got.shape == np.broadcast(k, j).shape
            assert np.array_equal(got, theta_from_uniform(dist, uniform_cells(k, j)))

    def test_letter_cells_one_row(self):
        # one key against a range of steps: the cells of one row, as UniformRow reads them
        dist = LETTER_DISTS["dyadic-3"][0]
        plan = TrialPlan(77, trials=2)
        keys = substream_keys(77, 1, 1)
        assert np.array_equal(letter_cells(dist, keys, np.arange(5, 505)),
                              theta_from_uniform(dist, plan.substream(1, 5).random(500)))

    def test_column_is_one_read_only_buffer(self):
        keys = substream_keys(3, 0, 10)
        for dist, _ in (LETTER_DISTS["two-point"], LETTER_DISTS["one-point"]):
            columns = list(letter_columns(dist, keys, range(3)))
            assert all(c.base is columns[0].base for c in columns)
            assert not columns[0].flags.writeable


def same_bits(a, b) -> bool:
    return np.array_equal(bits(a), bits(b))


# dists whose only cut is 2^63, so their letters are the top-bit select
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
    """The top-bit select equals the float path bit for bit."""

    CRAFTED = [0, (1 << 63) - (1 << 33), (1 << 63) - 1, 1 << 63,
               (1 << 63) + (1 << 33) - 1, MASK64]

    @pytest.mark.parametrize("name", sorted(SIGN_DISTS))
    def test_crafted_hashes(self, name):
        dist = SIGN_DISTS[name]
        assert dist._sign_bits is not None and dist._coarse
        keys = keys_hashing_to(self.CRAFTED)
        want = theta_from_uniform(dist, uniform_cells(keys, 0))
        assert same_bits(want, dist.support[[0, 0, 0, 1, 1, 1]])
        assert same_bits(letter_cells(dist, keys, 0), want)
        (column,) = letter_columns(dist, keys, [0])
        assert same_bits(column, want)

    @pytest.mark.parametrize("name", sorted(SIGN_DISTS))
    def test_random_cells(self, name):
        dist = SIGN_DISTS[name]
        keys = substream_keys(63, 0, 500)
        steps = np.arange(40)[:, None]
        assert same_bits(letter_cells(dist, keys, steps),
                         theta_from_uniform(dist, uniform_cells(keys, steps)))

    def test_only_the_cut_2_63_selects(self):
        sign = {name for name, (d, _) in LETTER_DISTS.items() if d._sign_bits is not None}
        assert sign == {"two-point"}
        assert ThetaDist([ALPHA, 1.0], [0.3, 0.7])._sign_bits is None


def tiled_columns(dist, keys, steps):
    return [c.copy() for c in letter_columns(dist, keys, steps)]


def cells_of(dist, keys, steps):
    return letter_cells(dist, keys, np.array(steps, dtype=np.uint64)[:, None])


TILE_DISTS = ["two-point", "dyadic-3", "forty-point"]  # select, compares, bisection


class TestLetterTiles:
    """Column j of letter_columns is letter_cells(dist, keys, j), however the tiles fall."""

    @pytest.mark.parametrize("name", TILE_DISTS)
    @pytest.mark.parametrize("rows, steps", [
        (1, range(3, 3 + TILE_CELLS + 5)),   # two tiles, the second of five columns
        (TILE_CELLS - 1, range(3)),          # width 1
        (TILE_CELLS + 1, range(2)),          # width 1
        (3000, range(50)),                   # width 21, a ragged last tile
        (3000, range(49, -1, -1)),           # descending
        (3000, range(7, 200, 9)),            # a stride
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

    @pytest.mark.parametrize("name", TILE_DISTS)
    def test_one_pass_generator(self, name):
        dist = LETTER_DISTS[name][0]
        keys = substream_keys(8, 0, 3000)
        steps = [4, 0, 9, 9, 2 ** 40, 1, *range(100, 140)]
        columns = tiled_columns(dist, keys, (j for j in steps))
        assert same_bits(np.stack(columns), cells_of(dist, keys, steps))

    def test_steps_are_read_one_tile_ahead(self):
        dist = LETTER_DISTS["two-point"][0]
        keys = substream_keys(9, 0, 3000)  # width 21
        read = []

        def counting(steps):
            for j in steps:
                read.append(j)
                yield j

        columns = letter_columns(dist, keys, counting(itertools.count()))
        first = [c.copy() for c in itertools.islice(columns, 30)]
        assert len(read) == 42  # two tiles of an endless iterable
        assert same_bits(np.stack(first), cells_of(dist, keys, range(30)))
        # a range far too long to list is sliced, one tile at a time
        (column,) = itertools.islice(letter_columns(dist, keys, range(10 ** 18)), 1)
        assert same_bits(column, letter_cells(dist, keys, 0))

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
        for d in (dist, LETTER_DISTS["two-point"][0], LETTER_DISTS["forty-point"][0]):
            got = letter_cells(d, keys, steps, out=out, scratch=scratch)
            assert got is out
            assert same_bits(got, letter_cells(d, keys, steps))
