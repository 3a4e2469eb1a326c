"""Monte Carlo experiments: convergence, contraction rate, audits, oracles."""

import dataclasses
import math
import re
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from foldmap import (ClassBoundaryError, EmpiricalCDF, Interval, PreconditionError,
                     StructuralError, ThetaDist, TrialPlan, WindowError, _chain,
                     backward_diam_ensemble, cli,
                     ensemble_forward, experiments, forward_values,
                     interval_fold, iterate_forward, ks_distance,
                     law_equality_report,
                     one_step_invariance_report, rate_experiment, rate_steps,
                     rho_walk_audit, stationary_cdf, stationary_quantile,
                     theta_from_uniform, walk_confinement_dp)
from foldmap.orbit import (OrbitLabel, apply_theta_label, build_graph_window,
                           label_value, rho_chart)
from foldmap.contfrac import contfrac_expand, convergents
from foldmap.process import (letter_run, letter_words, substream_keys, uniform_cells,
                             word_run)

import bit_oracle

ALPHA = math.sqrt(0.5)
TWO_POINT = ThetaDist.two_point(ALPHA)
STAT_CDF = stationary_cdf(TWO_POINT)


def two_point_word(alpha, plan, t, n):
    """Letters 0 .. n-1 of row t for the dist {alpha, 1}, by tests/bit_oracle.py."""
    return np.where(bit_oracle.bits(plan.master_seed, t, 1, n)[0] == 1, 1.0, alpha)


def row_cells(seed, t, n):
    """Cells (t, 0) .. (t, n-1) of the seed's grid."""
    return uniform_cells(substream_keys(seed, t, 1), np.arange(n))


def on_workers(call, workers=3):
    """call() on each of `workers` threads of a caller's own pool, at once."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda _: call(), range(workers)))


def pooled_ks(a, b):
    """The two-sample KS as it was computed before: both CDFs on the pooled samples."""
    grid = np.concatenate([a.values, b.values])
    return float(np.max(np.abs(a.evaluate(grid) - b.evaluate(grid))))


def _ks_pairs() -> dict:
    rng = np.random.default_rng(2024)
    orbit = rng.random(6)
    up = np.nextafter(0.5, 1.0)  # adjacent floats are distinct values
    return {
        "no-ties": (rng.random(300), rng.random(300)),
        "no-ties-n-ne-m": (rng.random(17), rng.random(400)),
        "ties": (rng.choice(orbit, 500), rng.choice(orbit, 500)),
        "ties-n-ne-m": (rng.choice(orbit, 97), rng.choice(orbit[:4], 1000)),
        "size-1": ([0.3], [0.3]),
        "size-1-apart": ([0.3], rng.random(50)),
        "both-size-1": ([0.7], [0.2]),
        "signed-zeros": ([-0.0, 0.0, 0.0, 0.5], [0.0, -0.0, 0.5, 0.5, 0.5]),
        "zeros-only": ([-0.0] * 3, [0.0] * 7),
        "adjacent-floats": ([0.5, 0.5, 0.5, up, up], [up, up, up, up, 0.5]),
        "shared-and-own": (np.r_[orbit[:3].repeat(40), rng.random(30)], orbit.repeat(11)),
    }


KS_PAIRS = _ks_pairs()


class TestKSDistance:
    @pytest.mark.parametrize("name", sorted(KS_PAIRS))
    def test_two_sample_equals_pooled_formula(self, name):
        a, b = (EmpiricalCDF(v) for v in KS_PAIRS[name])
        for s, t in ((a, b), (b, a), (a, a)):
            got, want = ks_distance(s, t), pooled_ks(s, t)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_two_sample_random_pairs_equal_pooled_formula(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n, m = rng.integers(1, 200, size=2)
            pool = np.r_[rng.random(rng.integers(1, 12)), -0.0, 0.0]
            x, y = ((rng.random(n), rng.random(m)) if rng.random() < 0.3
                    else (rng.choice(pool, n), rng.choice(pool, m)))
            a, b = EmpiricalCDF(x), EmpiricalCDF(y)
            assert ks_distance(a, b) == pooled_ks(a, b)

    def test_identical_samples(self):
        a = EmpiricalCDF(np.linspace(0.1, 0.9, 100))
        b = EmpiricalCDF(np.linspace(0.1, 0.9, 100))
        assert ks_distance(a, b) == 0.0

    def test_grid_against_uniform_cdf(self):
        # theta = 1 surely makes the stationary law uniform on [0, 1]
        uniform = stationary_cdf(ThetaDist([1.0], [1.0]))
        size = 1000
        grid = EmpiricalCDF((np.arange(size) + 0.5) / size)
        assert ks_distance(grid, uniform) <= 0.5 / size + 1e-12

    def test_disjoint_samples(self):
        a = EmpiricalCDF(np.full(10, 0.1))
        b = EmpiricalCDF(np.full(10, 0.9))
        assert ks_distance(a, b) == 1.0

    BLOCK_SIZES = [(1 << 16) - 1, 1 << 16, (1 << 16) + 1, 3 * (1 << 16) + 7]

    @staticmethod
    def full_array_ks(sample):
        # the jumps i / n and (i - 1) / n, each divided from its own integer,
        # over the whole sample at once
        size = sample.size
        f = STAT_CDF.evaluate(sample.values)
        i = np.arange(1, size + 1)
        return max(np.max(i / size - f), np.max(f - (i - 1) / size))

    @pytest.mark.parametrize("size", [1, 2, 7, 1000] + BLOCK_SIZES)
    def test_one_sample_steps_from_the_integers(self, size):
        # ks_distance walks the sample in blocks of 2^16 values: these sizes
        # end a block one short of, at and one past a block edge, and 3 past
        rng = np.random.default_rng(size)
        values = rng.random(size) * 1.4 - 0.2  # below 0 and above 1 as well
        on_breaks = rng.integers(0, size, size // 7)
        values[on_breaks] = rng.choice(STAT_CDF.xs, on_breaks.size)
        sample = EmpiricalCDF(values)
        assert ks_distance(sample, STAT_CDF) == self.full_array_ks(sample)

    @pytest.mark.parametrize("size", [1] + BLOCK_SIZES)
    @pytest.mark.parametrize("value", [-0.5, 0.0, ALPHA, 0.4, 1.0, 1.5])
    def test_one_sample_all_ties(self, size, value):
        sample = EmpiricalCDF(np.full(size, value))
        assert ks_distance(sample, STAT_CDF) == self.full_array_ks(sample)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        for values in ([0.1, bad], [bad], [bad, 0.3, 0.2]):
            with pytest.raises(PreconditionError):
                EmpiricalCDF(values)


class TestForwardConvergence:
    def test_zero_steps_is_point_mass(self):
        plan = TrialPlan(5, trials=100)
        vals = forward_values(TWO_POINT, 0.2, 0, plan)
        assert np.all(vals == 0.2)

    def test_ks_after_200_steps(self):
        plan = TrialPlan(101, trials=2 * 10 ** 4)
        ks = ks_distance(ensemble_forward(TWO_POINT, 0.2, 200, plan), STAT_CDF)
        assert ks < 0.07

    def test_ks_decreases_with_depth(self):
        ks = {}
        for n in (50, 200, 800):
            plan = TrialPlan(101, trials=2 * 10 ** 4)
            ks[n] = ks_distance(ensemble_forward(TWO_POINT, 0.2, n, plan), STAT_CDF)
        assert ks[50] > ks[200] > ks[800]

    def test_start_point_forgotten(self):
        # ensembles from two starts approach each other
        plans = TrialPlan(7, 2 * 10 ** 4), TrialPlan(8, 2 * 10 ** 4)
        gap = {}
        for n in (200, 800):
            a = ensemble_forward(TWO_POINT, 0.05, n, plans[0])
            b = ensemble_forward(TWO_POINT, 0.95, n, plans[1])
            gap[n] = ks_distance(a, b)
        assert gap[200] < 0.12
        assert gap[800] < gap[200]

    def test_deterministic_across_runs_and_workers(self):
        plan = TrialPlan(3, trials=3 * 10 ** 3)
        ref = forward_values(TWO_POINT, 0.2, 50, plan)
        again = forward_values(TWO_POINT, 0.2, 50, plan)
        assert np.array_equal(ref, again)
        for threaded in on_workers(lambda: forward_values(TWO_POINT, 0.2, 50, plan)):
            assert np.array_equal(ref, threaded)

    def test_trial_folds_its_row(self):
        plan = TrialPlan(3, trials=20)
        vals = forward_values(TWO_POINT, 0.2, 15, plan)
        for t in range(20):
            word = two_point_word(ALPHA, plan, t, 15)
            assert vals[t] == iterate_forward(word, 0.2)[-1]

    def test_validation(self):
        plan = TrialPlan(0, trials=10)
        for x0 in (-0.1, math.nan, math.inf):
            with pytest.raises(PreconditionError):
                forward_values(TWO_POINT, x0, 5, plan)
        with pytest.raises(PreconditionError):
            forward_values(TWO_POINT, 0.2, -1, plan)


class TestBlockPlan:
    """A run folds its rows a block of at most _TRIAL_BLOCK rows at a time;
    bytes never depend on the blocks, or on a caller's threads."""

    @pytest.mark.parametrize("rows", [1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 10 ** 6 + 7])
    def test_blocks_cover_the_rows_in_order(self, rows):
        blocks = list(experiments._blocks(rows))
        starts, counts = [s for s, _ in blocks], [c for _, c in blocks]
        assert starts == np.cumsum([0] + counts)[:-1].tolist()
        assert sum(counts) == rows
        assert 1 <= min(counts) and max(counts) <= experiments._TRIAL_BLOCK

    @pytest.mark.parametrize("run", [
        lambda: forward_values(TWO_POINT, 0.2, 12, TrialPlan(3, 1 << 16)),
        lambda: backward_diam_ensemble(TWO_POINT, 12, TrialPlan(13, 1 << 16)),
        lambda: rate_experiment(ALPHA, 4, 0.6, TrialPlan(41, 1 << 16)).to_json(),
    ], ids=["forward_values", "backward_diam_ensemble", "rate_experiment"])
    def test_threaded_byte_identity(self, monkeypatch, run):
        ref = run()
        # a caller's two threads make the same run: each keys its block of
        # rows and waits there until the other has, so the test passes only
        # when both threads hold a block at the same time
        barrier = threading.Barrier(2, timeout=30)
        idents = set()
        keys = experiments.substream_keys

        def meeting(*args):
            idents.add(threading.get_ident())
            barrier.wait()
            return keys(*args)

        monkeypatch.setattr(experiments, "substream_keys", meeting)
        threaded = on_workers(run, 2)
        assert len(idents) == 2 and threading.get_ident() not in idents
        for got in threaded:
            assert np.array_equal(ref, got)


class TestBackwardDiameter:
    def test_zero_letters(self):
        plan = TrialPlan(5, trials=64)
        assert np.all(backward_diam_ensemble(TWO_POINT, 0, plan) == 1.0)

    def test_median_after_1000_letters(self):
        plan = TrialPlan(13, trials=10 ** 4)
        diam = backward_diam_ensemble(TWO_POINT, 1000, plan)
        assert np.median(diam) < 0.1
        assert np.all(diam <= 1.0)

    def test_prefix_monotonicity(self):
        # same plan: the 500-letter word is a prefix of the 1000-letter word
        plan = TrialPlan(13, trials=2000)
        d500 = backward_diam_ensemble(TWO_POINT, 500, plan)
        d1000 = backward_diam_ensemble(TWO_POINT, 1000, plan)
        assert np.all(d1000 <= d500 + 1e-15)

    def test_trial_folds_its_row_cell_0_outermost(self):
        dist = ThetaDist([0.3, 0.6, 1.5], [0.2, 0.3, 0.5])
        plan = TrialPlan(17, trials=20)
        diam = backward_diam_ensemble(dist, 12, plan)
        for t in range(20):
            word = theta_from_uniform(dist, row_cells(17, t, 12))
            images = interval_fold(word, Interval(0.0, 1.5), "backward")
            assert diam[t] == images[-1].length

    def test_worker_count_irrelevant(self):
        plan = TrialPlan(13, trials=5000)
        a = backward_diam_ensemble(TWO_POINT, 100, plan)
        for b in on_workers(lambda: backward_diam_ensemble(TWO_POINT, 100, plan)):
            assert np.array_equal(a, b)


class TestRateExperiment:
    def test_letter_budget(self):
        assert rate_steps(17) == 160654
        assert rate_steps(41) == 2953983

    def test_q17_all_trials_succeed(self):
        plan = TrialPlan(2024, trials=50)
        rep = rate_experiment(ALPHA, 4, 0.5, plan)
        assert rep.q_k == 17
        assert rep.n_steps == 160654
        assert rep.success_count == 50
        assert rep.success_fraction == 1.0
        assert rep.implied_c is None
        assert max(rep.letters_used) < 200  # contraction is far faster than the bound

    def test_loose_epsilon_needs_no_letters(self):
        plan = TrialPlan(2024, trials=10)
        rep = rate_experiment(ALPHA, 4, 1.1, plan)  # above the initial diameter
        assert rep.letters_used == [0] * 10

    def test_tighter_epsilon_needs_more_letters(self):
        plan = TrialPlan(99, trials=30)
        loose = rate_experiment(ALPHA, 4, 0.90, plan)
        tight = rate_experiment(ALPHA, 4, 0.48, plan)
        assert all(l <= t for l, t in zip(loose.letters_used, tight.letters_used))
        assert sum(tight.letters_used) > sum(loose.letters_used)

    def test_report_serialization(self):
        plan = TrialPlan(7, trials=5)
        rep = rate_experiment(ALPHA, 3, 1.2, plan)  # q_3 = 7
        js = rep.to_json()
        assert js.endswith("\n")
        assert '"schema": 1' in js
        assert "runtime_seconds" not in js
        csv = rep.to_csv()
        assert csv.splitlines()[0] == "trial,success,letters_used"
        assert len(csv.splitlines()) == 6

    def test_letters_used_is_the_exact_stopping_time(self):
        # trial t folds [0, 1] through cells (t, 0), (t, 1), ... in that order
        plan = TrialPlan(99, trials=30)
        rep = rate_experiment(ALPHA, 4, 0.48, plan)
        assert rep.success_count == 30
        for t, k in enumerate(rep.letters_used):
            below = exact_below(two_point_word(ALPHA, plan, t, k), 0.48)
            assert below[-1] and not below[-2]

    def test_budget_exhausted_is_failure(self, monkeypatch):
        # a tiny budget is read in one chunk of five 8-letter words; at N = 37
        # it reads three letters past N, and a stop there is a failure
        for budget in (40, 37):
            monkeypatch.setattr(experiments, "rate_steps", lambda q: budget)
            plan = TrialPlan(99, trials=60)
            rep = rate_experiment(ALPHA, 5, 0.2, plan)  # q_5 = 41
            assert 0 < rep.success_count < 60
            assert rep.implied_c is not None
            for t in range(60):
                word = two_point_word(ALPHA, plan, t, budget)
                widths = np.array([iv.length
                                   for iv in interval_fold(word, Interval(0.0, 1.0))])
                below = np.flatnonzero(widths < 0.2)
                assert rep.successes[t] == bool(below.size)
                assert rep.letters_used[t] == (below[0] if below.size else budget)

    def test_worker_byte_identity(self):
        ref = rate_experiment(ALPHA, 4, 0.5, TrialPlan(41, trials=20)).to_json()
        assert on_workers(lambda: rate_experiment(
            ALPHA, 4, 0.5, TrialPlan(41, trials=20)).to_json()) == [ref] * 3

    def test_guards(self):
        plan = TrialPlan(0, trials=2)
        with pytest.raises(PreconditionError):
            rate_experiment(ALPHA, 0, 0.5, plan)  # q_0 = 1
        with pytest.raises(PreconditionError):
            rate_experiment(ALPHA, 7, 0.5, plan)  # q_7 = 239 > cap
        with pytest.raises(PreconditionError):
            rate_experiment(ALPHA, 4, 0.4, plan)  # epsilon <= 8/17
        for eps in (math.nan, math.inf):
            with pytest.raises(PreconditionError):
                rate_experiment(ALPHA, 4, eps, plan)
        with pytest.raises(PreconditionError):
            rate_experiment(ALPHA, 99, 0.5, plan)


def exact_below(word, epsilon):
    """For [0, 1] and its images under the word's prefixes, letter 0
    innermost, whether the diameter is below epsilon, folded exactly: on
    ints, the values times the largest of their Fraction denominators (all
    powers of two, so every value becomes whole)."""
    letters = set(word.tolist())
    scale = max(Fraction(v).denominator for v in (1.0, epsilon, *letters))
    grid = {v: int(Fraction(v) * scale) for v in letters}
    lo, hi, eps = 0, scale, int(Fraction(epsilon) * scale)
    below = [hi - lo < eps]
    for t in map(grid.get, word.tolist()):
        lo, hi = max(0, lo - t, t - hi), max(abs(t - lo), abs(t - hi))
        below.append(hi - lo < eps)
    return below


def float_below(word, epsilon):
    """The same by interval_fold, whose float ends round."""
    return [iv.length < epsilon for iv in interval_fold(word, Interval(0.0, 1.0))]


def assert_rate_matches_folds(alpha, epsilon, plan, rep, below=exact_below):
    """Each trial's stopping time is the first k whose k-letter image of
    [0, 1] has a diameter below epsilon, exact unless below is
    float_below, or the budget on failure."""
    for t in range(plan.trials):
        k = rep.letters_used[t]
        first = next((i for i, b in enumerate(below(two_point_word(alpha, plan, t, k), epsilon))
                      if b), None)
        if rep.successes[t]:
            assert first == k
        else:
            assert (k, first) == (rep.n_steps, None)


def _rate_cases():
    """(alpha, k_index, q): random alphas at their largest q_k in 9..99, and
    three whose q_1 gives a chain of a few thousand states: alpha = 0.01049
    and 0.01048 at q = 95, where float keys pass the state cap at 0.01048,
    and alpha = 0.0101 at q = 99, the largest chain found for q <= 99."""
    cases = [(0.01049, 1, 95)]
    rng = np.random.default_rng(18)
    while len(cases) < 4:
        alpha = rng.random()
        fits = [c for c in convergents(contfrac_expand(alpha, 40)) if 9 <= c.q <= 99]
        if fits:
            cases.append((alpha, fits[-1].index, fits[-1].q))
    return cases + [(0.01048, 1, 95), (0.0101, 1, 99)]


class TestRateAutomaton:
    """The float-exact state chain that rate_experiment steps eight letters a time."""

    @pytest.mark.parametrize("epsilon, states", [(0.5, 3), (0.2, 12), (10 / 99, 37)],
                             ids=["q17", "q41", "q99"])
    def test_state_counts(self, epsilon, states):
        next_at, reads, stop = _chain._rate_automaton(ALPHA, epsilon)
        assert stop == 256 * states  # STOP follows the live states
        assert next_at.shape == reads.shape == (256 * (states + 1),)

    def test_letter_words_are_the_letters(self):
        keys = substream_keys(7, 3, 50)
        words = np.stack([w.copy() for w in letter_words(keys, range(5, 8))])
        bits = np.unpackbits(words, axis=0)
        assert np.array_equal(bits, bit_oracle.bits(7, 3, 50, 64)[:, 40:].T)

    @pytest.mark.parametrize("blocks", [1, 2, 3])
    @pytest.mark.parametrize("alpha, k_index, q", _rate_cases(),
                             ids=lambda v: f"{v:.5g}" if isinstance(v, float) else str(v))
    def test_matches_interval_fold(self, split_runs, alpha, k_index, q, blocks):
        split_runs(12, blocks)
        for epsilon in (np.nextafter(8 / q, 1.0), 10 / q, 1.5):
            plan = TrialPlan(q + blocks, trials=12)
            rep = rate_experiment(alpha, k_index, epsilon, plan)
            assert rep.q_k == q
            assert_rate_matches_folds(alpha, epsilon, plan, rep)
            # no image of these cases lies within rounding of epsilon
            assert_rate_matches_folds(alpha, epsilon, plan, rep, float_below)

    def test_diameter_equal_to_epsilon_is_no_stop(self):
        # the letter alpha folds [0, 1] to [0, alpha], whose diameter is epsilon
        plan = TrialPlan(3, trials=40)
        rep = rate_experiment(ALPHA, 4, ALPHA, plan)
        assert 1 not in rep.letters_used
        assert_rate_matches_folds(ALPHA, ALPHA, plan, rep)

    def test_a_float_tie_stops_on_the_exact_diameter(self):
        # the letter alpha = 0.1 folds [0, 1] to [0, 1 - alpha], exactly
        # below 0.9; the float fold rounds 1 - 0.1 to 0.9, which is no stop
        assert interval_fold([0.1], Interval(0.0, 1.0))[1].length == 0.9
        plan = TrialPlan(4, trials=40)
        rep = rate_experiment(0.1, 1, 0.9, plan)  # q_1 = 10
        assert rep.q_k == 10
        firsts = [two_point_word(0.1, plan, t, 1)[0] for t in range(40)]
        assert [k == 1 for k in rep.letters_used] == [x == 0.1 for x in firsts]
        assert 1 in rep.letters_used
        assert_rate_matches_folds(0.1, 0.9, plan, rep)

    def test_past_the_cap_is_a_structural_failure(self, monkeypatch, capsys):
        # every trial walks the exact chain, so one past _WORD_STATES states
        # is refused, and the CLI exits 3
        monkeypatch.setattr(_chain, "_WORD_STATES", 2)
        with pytest.raises(StructuralError, match="more than 2 states"):
            rate_experiment(ALPHA, 4, 0.5, TrialPlan(1, 3))
        assert cli.run(["rate", "--alpha", "inv-sqrt2", "--qk", "17", "--eps", "0.5",
                        "--trials", "3", "--seed", "1"]) == 3
        assert "structural failure" in capsys.readouterr().err

    def test_one_state_per_real_image(self):
        # at alpha = 0.01048, q = 95, float keys reach one real image as many
        # floats and pass the cap; exact keys give each image one state
        next_at, reads, stop = _chain._rate_automaton(0.01048, 10 / 95)
        assert stop == 256 * 3741
        assert next_at.shape == reads.shape == (256 * 3742,)
        plan = TrialPlan(5, trials=3)
        rep = rate_experiment(0.01048, 1, 10 / 95, plan)
        assert rep.q_k == 95 and rep.success_count == 3
        assert_rate_matches_folds(0.01048, 10 / 95, plan, rep)


def transfer_dp(n):
    """Count walks of n^3 steps with |S_i| <= n, one step at a time."""
    width = 2 * n + 1
    counts = [0] * width
    counts[n] = 1  # origin
    for _ in range(n ** 3):
        nxt = [0] * width
        for i, c in enumerate(counts):
            if not c:
                continue
            if i > 0:
                nxt[i - 1] += c
            if i < width - 1:
                nxt[i + 1] += c
        counts = nxt
    return Fraction(sum(counts), 2 ** n ** 3)


def reflection_sum(n):
    """The reflection-principle sum of the oracle, one binomial term at a time."""
    h = n ** 3
    period = 4 * n + 4
    inside = mirrored = 0  # sums of C(h, j) over j < h/2 with weight +1 / -1
    c = 1  # C(h, j)
    for j in range((h + 1) // 2):
        r = (2 * j - h) % period
        if r <= n or r >= 3 * n + 4:
            inside += c
        elif r != n + 1 and r != 3 * n + 3:
            mirrored += c
        c = c * (h - j) // (j + 1)
    count = 2 * (inside - mirrored)
    if h % 2 == 0:
        count += c
    return Fraction(count, 2 ** h)


class TestWalkOracle:
    def test_period_blocks_equal_term_by_term_sum(self):
        for n in range(1, 31):
            expected = reflection_sum(n)
            assert walk_confinement_dp(n) == expected, n
            assert walk_confinement_dp(n, exact=False) == float(expected), n

    @pytest.mark.parametrize("n", [*range(1, 21), 30])
    def test_reflection_sum_equals_transfer_dp(self, n):
        expected = transfer_dp(n)
        assert walk_confinement_dp(n) == expected
        assert walk_confinement_dp(n, exact=False) == float(expected)

    def test_certain_at_one(self):
        assert walk_confinement_dp(1) == Fraction(1)

    def test_exact_small_case(self):
        # 108 of the 2^8 paths of length 8 stay within distance 2
        assert walk_confinement_dp(2) == Fraction(108, 256)
        assert abs(walk_confinement_dp(2, exact=False) - 27 / 64) < 1e-14

    def test_decreasing_in_n(self):
        ps = [walk_confinement_dp(n, exact=False) for n in range(4, 13)]
        assert all(b < a for a, b in zip(ps, ps[1:]))

    def test_uniform_escape_rate(self):
        # confinement degrades by at least e^-1 between n=4 and n=12
        assert walk_confinement_dp(12, exact=False) \
            < walk_confinement_dp(4, exact=False) / math.e

    def test_range_guard(self):
        with pytest.raises(PreconditionError):
            walk_confinement_dp(0)
        with pytest.raises(PreconditionError):
            walk_confinement_dp(31)


class TestRhoWalkAudit:
    def test_long_walk(self):
        plan = TrialPlan(17, trials=1)
        rep = rho_walk_audit(ALPHA, 0.2, 10 ** 5, plan, q_values=(7, 17))
        assert 0.49 < rep["plus_fraction"] < 0.51
        assert rep["farsmall_violations"] == 0
        assert rep["segments_checked"] > 100
        lo, hi = rep["rho_range"]
        assert lo < 0 < hi

    def test_zero_steps(self):
        rep = rho_walk_audit(ALPHA, 0.2, 0, TrialPlan(1, trials=1))
        assert rep["plus_fraction"] is None
        assert rep["farsmall"] == []

    def test_base_point_must_be_small(self):
        with pytest.raises(PreconditionError):
            rho_walk_audit(ALPHA, 0.5, 10, TrialPlan(1, trials=1))

    def test_window_too_small(self):
        with pytest.raises(WindowError):
            rho_walk_audit(ALPHA, 0.2, 1000, TrialPlan(17, trials=1), window=5)

    @pytest.mark.parametrize("kwargs, message", [
        ({"segments": -1}, "segments must be >= 0"),
        ({"window": 0}, "window must be >= 1"),
        ({"window": -1}, "window must be >= 1"),
        ({"window": 10 ** 6 + 1}, "window > 1000000 exceeds the precision cap"),
    ])
    @pytest.mark.parametrize("steps", [0, 100])
    def test_segment_and_window_ranges(self, kwargs, message, steps):
        with pytest.raises(PreconditionError, match=message):
            rho_walk_audit(ALPHA, 0.2, steps, TrialPlan(17, trials=1), **kwargs)

    @pytest.mark.parametrize("alpha, x0, seed", [
        (ALPHA, 0.2, 17), (ALPHA, 0.2, 18), (ALPHA, 0.05, 3),
        ((math.sqrt(5.0) - 1.0) / 2.0, 0.1, 1), (0.3 + 1e-5 * math.sqrt(2), 0.1, 29)])
    def test_label_walk_matches_automaton(self, alpha, x0, seed):
        word = self.fixed_word(alpha, seed, 3000)
        path, w = self.label_walk(alpha, x0, word)
        assert path.dtype == np.int64
        assert self.walk_labels(path, w) == self.automaton_labels(alpha, x0, word)

    @staticmethod
    def fixed_word(alpha, seed, n):
        """n letters of {alpha, 1}, at alpha where cell (0, k) of the seed's
        grid is below 1/2: fixed words on which the walk tests below find
        their window exits."""
        u = uniform_cells(substream_keys(seed, 0, 1), np.arange(n))
        return np.where(u < 0.5, alpha, 1.0)

    @staticmethod
    def label_walk(alpha, x0, word):
        """experiments._label_walk on a word of letters in {alpha, 1}, given
        as its bits, a bit of 1 a fold at 1, eight a word."""
        return experiments._label_walk(alpha, x0, np.packbits(word == 1.0), word.size)

    @staticmethod
    def audit_word(alpha, seed, steps):
        """The letters the audit at this seed walks: row 0 of the two-point dist."""
        return letter_run(ThetaDist.two_point(alpha), substream_keys(seed, 0, 1), 0, steps)[0]

    @staticmethod
    def automaton_labels(alpha, x0, word):
        """The label walk from (0, +1) by apply_theta_label, one fold a letter."""
        label = OrbitLabel(0, 1)
        labels = [label]
        for theta in word:
            label = apply_theta_label(alpha, x0, label, theta)
            labels.append(label)
        return labels

    @pytest.mark.parametrize("seed", [1, 17, 99])
    def test_walk_folds_trial_0_letters(self, monkeypatch, seed):
        # fold k of the audit is letter k of row 0 of the two-point dist,
        # the letter simulate's trial 0 folds at its k-th step; on its labels
        # the walk takes the values of the forward chain from x0
        steps, walk, calls = 3000, experiments._label_walk, []

        def walk_spy(alpha, x0, words, n):
            calls.append((words.copy(), n))
            return walk(alpha, x0, words, n)

        monkeypatch.setattr(experiments, "_label_walk", walk_spy)
        rho_walk_audit(ALPHA, 0.2, steps, TrialPlan(seed, trials=1))
        word = self.audit_word(ALPHA, seed, steps)
        (words, n), = calls
        assert n == steps and words.size == steps // 8
        assert np.array_equal(np.where(np.unpackbits(words) == 1, 1.0, ALPHA), word)
        forward = iterate_forward(word, 0.2)
        labels = self.walk_labels(*walk(ALPHA, 0.2, words, n))
        values = np.array([label_value(ALPHA, 0.2, lab) for lab in labels])
        assert np.max(np.abs(values - forward)) < 1e-9
        for n in (0, 1, 8, 63, 64, 65, 1000, steps):
            got = forward_values(TWO_POINT, 0.2, n, TrialPlan(seed, trials=1))[0]
            assert got == forward[n]

    @staticmethod
    def walk_labels(path, w):
        """The labels of the flat indices in path, in the window |n| <= w."""
        m = 2 * w + 1
        return [OrbitLabel(i % m - w, 1 - 2 * (i // m)) for i in path.tolist()]

    WALK_ALPHAS = [(ALPHA, 0.2), ((math.sqrt(5.0) - 1.0) / 2.0, 0.1),
                   (0.3 + 1e-5 * math.sqrt(2), 0.1)]

    @pytest.mark.parametrize("alpha, x0", WALK_ALPHAS)
    def test_label_walk_partial_words(self, alpha, x0):
        # the folds are read eight a word; 0..17 folds end in every position
        # of a first, second and third word, the last one padded
        for seed in (1, 2):
            word = self.fixed_word(alpha, seed, 17)
            for steps in range(18):
                path, w = self.label_walk(alpha, x0, word[:steps])
                assert path.dtype == np.int64 and path.shape == (steps + 1,)
                assert (self.walk_labels(path, w)
                        == self.automaton_labels(alpha, x0, word[:steps]))

    def test_label_walk_pads_with_folds_at_1(self, monkeypatch):
        # the audit's words are raw hashes: the bits past n in the last word
        # are set to folds at 1, so a walk whose n folds end at the window
        # edge n = -w, where the next raw bit would fold at alpha out of the
        # window, keeps the window of its real folds
        monkeypatch.setattr(experiments, "_WALK_WINDOW", 1)
        cases = 0
        for seed in range(1, 11):
            words = word_run(substream_keys(seed, 0, 1), 0, 25)[0]
            word = self.audit_word(ALPHA, seed, 200)
            labels = self.automaton_labels(ALPHA, 0.2, word)
            for n in range(1, 200):
                w = 2 ** len(self.window_exits(labels[:n + 1], 1))
                raw_alpha = word[n] == ALPHA  # the raw bit past n folds at alpha
                if n % 8 == 0 or labels[n].n != -w or not raw_alpha:
                    continue
                cases += 1
                path, got_w = experiments._label_walk(ALPHA, 0.2, words, n)
                assert got_w == w and self.walk_labels(path, w) == labels[:n + 1]
        assert cases >= 5

    @staticmethod
    def window_exits(labels, w):
        """The folds k (1-based) at which a walk from window w leaves it, the
        window doubling at each."""
        exits = []
        for k, label in enumerate(labels):
            if abs(label.n) > w:
                exits.append(k)
                w *= 2
        return exits

    @pytest.mark.parametrize("alpha, x0", WALK_ALPHAS)
    def test_label_walk_leaves_at_every_fold_of_a_word(self, monkeypatch, alpha, x0):
        # from a window of 1 the walk leaves at folds in each of the eight
        # positions of a word, and goes on from that word's first vertex
        monkeypatch.setattr(experiments, "_WALK_WINDOW", 1)
        positions = set()
        for seed in range(1, 31):  # at ALPHA, seed 24 is the first to leave at fold 3
            word = self.fixed_word(alpha, seed, 600)
            want = self.automaton_labels(alpha, x0, word)
            exits = self.window_exits(want, 1)
            positions.update((k - 1) % 8 for k in exits)
            path, w = self.label_walk(alpha, x0, word)
            assert w == 2 ** len(exits)
            assert self.walk_labels(path, w) == want
        assert positions == set(range(8))

    def test_label_walk_leaves_the_precision_cap_inside_a_word(self, monkeypatch):
        # the walk leaves |n| <= W_MAX = 5 at a fold that is neither the first
        # nor the last of its word: the folds before it walk, and it raises
        monkeypatch.setattr(experiments, "W_MAX", 5)
        monkeypatch.setattr(experiments, "_WALK_WINDOW", 2)
        word = self.fixed_word(ALPHA, 17, 1000)
        labels = self.automaton_labels(ALPHA, 0.2, word)
        k = next(k for k, label in enumerate(labels) if abs(label.n) > 5)
        assert (k - 1) % 8 not in (0, 7)
        path, w = self.label_walk(ALPHA, 0.2, word[:k - 1])
        assert w == 5 and self.walk_labels(path, w) == labels[:k]
        with pytest.raises(WindowError, match=re.escape("walk reached |n| = 6 > 5")):
            self.label_walk(ALPHA, 0.2, word[:k])

    @pytest.mark.parametrize("alpha, x0, seed", [
        (ALPHA, 0.2, 17), ((math.sqrt(5.0) - 1.0) / 2.0, 0.1, 1),
        (0.3 + 1e-5 * math.sqrt(2), 0.1, 29)])
    def test_label_walk_grows_its_window(self, monkeypatch, alpha, x0, seed):
        # from a window of 1 the walk doubles it several times on the way
        word = self.fixed_word(alpha, seed, 3000)
        want = self.walk_labels(*self.label_walk(alpha, x0, word))
        monkeypatch.setattr(experiments, "_WALK_WINDOW", 1)
        got = self.walk_labels(*self.label_walk(alpha, x0, word))
        assert max(abs(lab.n) for lab in got) > 8
        assert got == want

    def test_walk_memory(self):
        # 10^6 steps: the path takes 8 bytes a step, where a list of fresh
        # ints and its (n, eps) copies took about 90 bytes a step (89 MB);
        # the peak, 26 MB, is the increment check: the path, its rho levels
        # and their differences (8 MB each) and three byte masks. The walk
        # itself peaks at 13.5 MB: the path and the 8-fold word table of its
        # last window, w = 1024 (4.2 MB), beside 0.25 MB of words
        tracemalloc.start()
        try:
            rho_walk_audit(ALPHA, 0.2, 10 ** 6, TrialPlan(17, trials=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30 * 10 ** 6

    def test_segments_memory(self):
        # 10^6 segments: the two cells of a segment (16 MB) become its picks in
        # place, and its two ends, then its span and level indices, take 24 MB;
        # the peak, 58 MB, comes with the level counts of the far-small check,
        # where fresh picks and a sorted stack of the ends took 90 MB
        tracemalloc.start()
        try:
            rho_walk_audit(ALPHA, 0.2, 1000, TrialPlan(17, trials=1), segments=10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 10 ** 6

    def test_walk_past_precision_cap(self, monkeypatch):
        monkeypatch.setattr(experiments, "W_MAX", 5)
        with pytest.raises(WindowError) as info:
            rho_walk_audit(ALPHA, 0.2, 1000, TrialPlan(17, trials=1))
        assert str(info.value) == "walk reached |n| = 6 > 5"

    def test_walk_grows_to_the_precision_cap(self, monkeypatch):
        # from a window of 2 the walk grows to 4, then to the cap 5
        monkeypatch.setattr(experiments, "W_MAX", 5)
        monkeypatch.setattr(experiments, "_WALK_WINDOW", 2)
        with pytest.raises(WindowError) as info:
            rho_walk_audit(ALPHA, 0.2, 1000, TrialPlan(17, trials=1))
        assert str(info.value) == "walk reached |n| = 6 > 5"

    @pytest.mark.parametrize("window", [None, 20, 20000])
    def test_graph_no_wider_than_the_walk(self, monkeypatch, window):
        plan = TrialPlan(17, trials=1)
        word = self.audit_word(ALPHA, 17, 20000)
        walk = self.walk_labels(*self.label_walk(ALPHA, 0.2, word))
        reach = max(abs(lab.n) for lab in walk)
        widths = []

        def build_spy(alpha, x, w):
            widths.append(w)
            return build_graph_window(alpha, x, w)

        monkeypatch.setattr(experiments, "build_graph_window", build_spy)
        if window == 20:
            with pytest.raises(WindowError, match=re.escape(f"|n| = {reach} > window 20;")):
                rho_walk_audit(ALPHA, 0.2, 20000, plan, window=window)
            assert widths == []
        else:
            rho_walk_audit(ALPHA, 0.2, 20000, plan, window=window)
            assert widths == [reach + 4]

    @pytest.mark.parametrize("seed", range(17, 27))
    def test_chart_on_the_walk_reads_the_window_levels(self, monkeypatch, seed):
        # every level strictly between two path points is one the walk visits,
        # so the report is the same on the walk's reach and on the whole window
        plan = TrialPlan(seed, trials=1)
        rep = rho_walk_audit(ALPHA, 0.2, 20000, plan, window=20000)
        fit = rho_walk_audit(ALPHA, 0.2, 20000, plan)
        assert rep["window"] == 20000 and fit["window"] < 20000
        assert {**fit, "window": 20000} == rep
        monkeypatch.setattr(experiments, "build_graph_window",
                            lambda alpha, x, w: build_graph_window(alpha, x, 20000))
        assert rho_walk_audit(ALPHA, 0.2, 20000, plan, window=20000) == rep

    def test_class_tie_beyond_the_walk(self):
        # (901, +1) has value <-alpha> = 1 - alpha, a cut, far past the walk
        x0 = ((1 - 903) * ALPHA) % 1.0
        plan = TrialPlan(17, trials=1)
        walk = self.automaton_labels(ALPHA, x0, self.audit_word(ALPHA, 17, 200))
        reach = max(abs(lab.n) for lab in walk)
        assert reach + 4 < 901
        assert rho_walk_audit(ALPHA, x0, 200, plan)["window"] == reach + 4
        with pytest.raises(ClassBoundaryError, match=r"^label \(901,\+1\) value "):
            rho_walk_audit(ALPHA, x0, 200, plan, window=2000)

    @staticmethod
    def reference_farsmall(chart, graph, seed, steps, q_values, segments):
        """The audit's far-small counts by one slice and scan per segment."""
        labels = TestRhoWalkAudit.automaton_labels(
            ALPHA, 0.2, TestRhoWalkAudit.audit_word(ALPHA, seed, steps))
        rho_path = [chart.rho_of(graph, lab) for lab in labels]
        # pair s scales cells (1, s) and (1, segments + s) to path indices
        u = uniform_cells(substream_keys(seed, 1, 1), np.arange(2 * segments))
        i_idx, j_idx = np.floor(u * (steps + 1)).astype(np.int64).reshape(2, segments)
        out = []
        for q in q_values:
            checked = violations = 0
            for i, j in zip(i_idx, j_idx):
                a, b = sorted((rho_path[i], rho_path[j]))
                if b - a < 2 * q:
                    continue
                checked += 1
                inner = chart.level_min[a + 1 - chart.level_lo: b - chart.level_lo]
                violations += not np.any(inner < 3.0 / (2.0 * q))
            out.append((q, checked, violations))
        return out

    @pytest.mark.parametrize("seed", [17, 18, 42])
    def test_prefix_counts_equal_segment_scans(self, monkeypatch, seed):
        # a second chart keeps the true minimum only on every 40th level, so
        # that many segments have no small level and violations are counted;
        # the spy keeps the graph it was handed, which the chart indexes
        charts = []

        def chart_spy(graph, v0):
            chart = rho_chart(graph, v0)
            if sparse:
                keep = np.arange(chart.level_min.size) % 40 == 0
                chart = dataclasses.replace(
                    chart, level_min=np.where(keep, chart.level_min, 1.0))
            charts.append((chart, graph))
            return chart

        monkeypatch.setattr(experiments, "rho_chart", chart_spy)
        steps = window = 20000
        for sparse in (False, True):
            rep = rho_walk_audit(ALPHA, 0.2, steps, TrialPlan(seed, trials=1),
                                 q_values=(3, 7, 17), window=window)
            got = [(f["q"], f["segments_checked"], f["violations"])
                   for f in rep["farsmall"]]
            assert got == self.reference_farsmall(*charts[-1], seed, steps,
                                                  (3, 7, 17), 1000)
            assert (rep["farsmall_violations"] > 0) == sparse


class TestDistributionReports:
    def test_one_step_invariance(self):
        rep = one_step_invariance_report(TWO_POINT, 10 ** 5, master_seed=29)
        assert rep["ks_distance"] < 0.01

    @pytest.mark.parametrize("dist", [
        TWO_POINT,
        ThetaDist([0.3, 0.6, 1.0], [0.2, 0.3, 0.5]),
        ThetaDist(np.linspace(0.05, 1.0, 20), np.arange(1, 21) / 210),
    ], ids=["two-point", "three-point", "twenty-point"])
    def test_one_step_rows_by_the_float_path(self, dist):
        # sample i: the quantile of cell (0, i), folded at the letter of cell (1, i)
        plan, cdf = TrialPlan(29, trials=2), stationary_cdf(dist)
        x = stationary_quantile(cdf, row_cells(29, 0, 500))
        if dist is TWO_POINT:  # one bit a letter (tests/bit_oracle.py)
            theta = two_point_word(ALPHA, plan, 1, 500)
        else:
            theta = theta_from_uniform(dist, row_cells(29, 1, 500))
        want = ks_distance(EmpiricalCDF(np.abs(theta - x)), cdf)
        assert one_step_invariance_report(dist, 500, master_seed=29)["ks_distance"] == want

    def test_one_step_memory(self):
        # one buffer of the 10^6 samples (8 MB), sorted in place and measured
        # in blocks: the peak stays within 1.5 buffers, where a sorted copy,
        # a concatenation and full-size KS arrays took about 40 MB
        tracemalloc.start()
        try:
            one_step_invariance_report(TWO_POINT, 10 ** 6, master_seed=29)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * 10 ** 6

    def test_one_step_worker_determinism(self):
        ref = one_step_invariance_report(TWO_POINT, 10 ** 5, master_seed=29)
        assert on_workers(lambda: one_step_invariance_report(
            TWO_POINT, 10 ** 5, master_seed=29)) == [ref] * 3

    def test_law_equality(self):
        rep = law_equality_report(TWO_POINT, 0.2, 20, 5000, master_seed=31)
        assert rep["ks_distance"] < 0.03

    def test_law_equality_backward_rows(self):
        # backward trial t folds row trials + t with cell 0 outermost
        dist = ThetaDist([0.3, 0.6, 1.0], [0.2, 0.3, 0.5])
        plan = TrialPlan(31, trials=50)
        fwd = experiments._point_folds(dist, 0.2, 12, plan)
        bwd = experiments._point_folds(dist, 0.2, 12, plan, first=50, backward=True)
        for t in range(50):
            assert fwd[t] == iterate_forward(
                theta_from_uniform(dist, row_cells(31, t, 12)), 0.2)[-1]
            assert bwd[t] == iterate_forward(
                theta_from_uniform(dist, row_cells(31, 50 + t, 12))[::-1], 0.2)[-1]

    def test_law_equality_validation(self):
        with pytest.raises(PreconditionError):
            law_equality_report(TWO_POINT, 0.2, -1, 10, master_seed=0)
        for x0 in (-0.1, math.nan, math.inf):
            with pytest.raises(PreconditionError):
                law_equality_report(TWO_POINT, x0, 5, 10, master_seed=0)
