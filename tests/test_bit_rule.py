"""The two-point letter stream against the scalar model in tests/bit_oracle.py.

A uniform two-point dist reads one bit a letter: letter j of row t is
support[bit 63 - (j mod 64) of h[t, j // 64]]. Every consumer of those
letters is compared with the model, at depths on the edges of a word (8
letters) and of a hash (64 letters), and every pinned digest of a two-point
report is checked to be the bytes the model gives.
"""

import contextlib
import hashlib
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from foldmap import (EmpiricalCDF, ThetaDist, TrialPlan, _chain, backward_diam_ensemble,
                     experiments, forward_values, ks_distance, law_equality_report,
                     rate_experiment)
from foldmap.cli import run
from foldmap.process import letter_columns, letter_run, substream_keys

import bit_oracle
from test_cli import REPORT_SHA256
from test_pinned_mc import CLI_SHA256, DIAM_SHA256

ALPHA = math.sqrt(0.5)
TWO_POINT = ThetaDist.two_point(ALPHA)
SUPPORT = (ALPHA, 1.0)
EDGES = [0, 1, 7, 8, 9, 63, 64, 65]
BLOCKS = [1, 2]  # a run folds its rows in one block or in two


def oracle_point_folds(dist, x0, n, plan, first=0, backward=False, **_):
    return bit_oracle.point_folds(dist.support.tolist(), x0, n, plan.master_seed,
                                  first, plan.trials, backward)


def cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    return out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestOracle:
    def test_keys_and_hashes(self):
        keys = substream_keys(2024, 5, 4)
        assert keys.tolist() == [bit_oracle.row_key(2024, t) for t in range(5, 9)]
        assert bit_oracle.hashes(2024, 5, 1, 130).shape == (1, 3)

    def test_bit_order(self):
        # letter 0 is the top bit of hash cell 0, letter 64 the top bit of cell 1
        h = bit_oracle.hashes(7, 0, 1, 128)[0]
        bits = bit_oracle.bits(7, 0, 1, 128)[0]
        assert bits[0] == int(h[0]) >> 63 and bits[63] == int(h[0]) & 1
        assert bits[64] == int(h[1]) >> 63


class TestLetters:
    @pytest.mark.parametrize("n", EDGES + [130])
    def test_letter_cells_and_columns(self, n):
        keys = substream_keys(11, 3, 40)
        want = np.where(bit_oracle.bits(11, 3, 40, n) == 1, 1.0, ALPHA).T
        columns = [c.copy() for c in letter_columns(TWO_POINT, keys, range(n))]
        assert np.array_equal(np.array(columns).reshape(n, 40), want)

    @pytest.mark.parametrize("letters", [
        range(7, -1, -1), range(8, -1, -1), range(63, -1, -1), range(64, -1, -1),
        range(129, -1, -1),                     # every letter down from a row's start
        range(5, 12), range(12, 4, -1),         # across the word edge at 8
        range(60, 68), range(67, 59, -1),       # across the hash edge at 64
        range(120, 136), range(135, 119, -1),   # across both at 128
        range(9, 9),                            # empty
    ])
    def test_columns_either_way(self, letters):
        keys = substream_keys(11, 3, 40)
        want = np.where(bit_oracle.bits(11, 3, 40, 136) == 1, 1.0, ALPHA).T
        columns = [c.copy() for c in letter_columns(TWO_POINT, keys, letters)]
        assert len(columns) == len(letters)
        for j, column in zip(letters, columns):
            assert np.array_equal(column, want[j])

    @pytest.mark.parametrize("start, count", [(0, 130), (5, 3), (60, 8), (63, 66), (64, 1)])
    def test_letter_run(self, start, count):
        keys = substream_keys(11, 3, 40)
        want = np.where(bit_oracle.bits(11, 3, 40, 136) == 1, 1.0, ALPHA)
        assert np.array_equal(letter_run(TWO_POINT, keys, start, count),
                              want[:, start:start + count])

    @pytest.mark.parametrize("rows", [0, 3])
    @pytest.mark.parametrize("start", [0, 63, 64, 65])
    @pytest.mark.parametrize("count", [0, 1, 64, 65])
    def test_letter_run_edges(self, rows, start, count):
        # zero rows and zero letters keep the (rows, count) shape
        keys = substream_keys(11, 3, rows)
        got = letter_run(TWO_POINT, keys, start, count)
        assert got.shape == (rows, count) and got.dtype == np.float64
        want = np.where(bit_oracle.bits(11, 3, rows, start + count) == 1, 1.0, ALPHA)
        assert np.array_equal(got, want[:, start:])


class TestFolds:
    @pytest.mark.parametrize("blocks", BLOCKS)
    @pytest.mark.parametrize("n", EDGES)
    def test_forward_values(self, split_runs, n, blocks):
        split_runs(500, blocks)
        plan = TrialPlan(31 + n, 500)
        got = forward_values(TWO_POINT, 0.2, n, plan)
        assert np.array_equal(got, bit_oracle.point_folds(SUPPORT, 0.2, n, 31 + n, 0, 500))

    @pytest.mark.parametrize("blocks", BLOCKS)
    @pytest.mark.parametrize("n", EDGES)
    def test_law_equality_both_directions(self, split_runs, n, blocks):
        seed, trials = 40 + n, 400
        split_runs(trials, blocks)
        plan = TrialPlan(seed, trials)
        fwd = bit_oracle.point_folds(SUPPORT, 0.3, n, seed, 0, trials)
        bwd = bit_oracle.point_folds(SUPPORT, 0.3, n, seed, trials, trials, backward=True)
        for graph in (_chain._dist_graph(TWO_POINT, (0.3, 0.3), n), None):  # tables, bits
            assert np.array_equal(experiments._point_folds(
                TWO_POINT, 0.3, n, plan, graph=graph), fwd)
            assert np.array_equal(experiments._point_folds(
                TWO_POINT, 0.3, n, plan, first=trials, backward=True, graph=graph), bwd)
        rep = law_equality_report(TWO_POINT, 0.3, n, trials, seed)
        assert rep["ks_distance"] == ks_distance(EmpiricalCDF(fwd), EmpiricalCDF(bwd))

    @pytest.mark.parametrize("blocks", BLOCKS)
    @pytest.mark.parametrize("n", EDGES)
    def test_backward_diameters(self, split_runs, n, blocks):
        split_runs(500, blocks)
        plan = TrialPlan(50 + n, 500)
        got = backward_diam_ensemble(TWO_POINT, n, plan)
        assert np.array_equal(got, bit_oracle.backward_diameters(SUPPORT, n, 50 + n, 500))

    def test_two_threads(self):
        # 2^16 + 5 rows: a block of 2^16 and one of 5, in two runs at once
        # on the two threads of a caller's pool
        trials = (1 << 16) + 5
        plan = TrialPlan(9, trials)
        with ThreadPoolExecutor(max_workers=2) as pool:
            fwd = pool.submit(forward_values, TWO_POINT, 0.2, 65, plan)
            diam = pool.submit(backward_diam_ensemble, TWO_POINT, 9, plan)
            want = bit_oracle.point_folds(SUPPORT, 0.2, 65, 9, 0, trials)
            assert np.array_equal(fwd.result(), want)
            want = bit_oracle.backward_diameters(SUPPORT, 9, 9, trials)
            assert np.array_equal(diam.result(), want)

    def test_a_third_point_a_bit_never_selects(self):
        # cuts [2^63]: the letters are the two lowest points, the bound the third
        dist = ThetaDist([0.5, 1.0, 2.0], [0.5, 0.5, 1e-13])
        assert dist._bits
        plan = TrialPlan(6, 300)
        assert np.array_equal(forward_values(dist, 0.2, 65, plan),
                              bit_oracle.point_folds((0.5, 1.0), 0.2, 65, 6, 0, 300))
        assert np.array_equal(backward_diam_ensemble(dist, 65, plan),
                              bit_oracle.backward_diameters((0.5, 1.0), 65, 6, 300, bound=2.0))

    @pytest.mark.parametrize("alpha", [ALPHA, 0.01049, 0.9])
    def test_other_alphas(self, alpha):
        dist, support = ThetaDist.two_point(alpha), (alpha, 1.0)
        plan = TrialPlan(77, 300)
        assert np.array_equal(forward_values(dist, 0.05, 130, plan),
                              bit_oracle.point_folds(support, 0.05, 130, 77, 0, 300))
        assert np.array_equal(backward_diam_ensemble(dist, 130, plan),
                              bit_oracle.backward_diameters(support, 130, 77, 300))


class TestRate:
    @pytest.mark.parametrize("blocks", BLOCKS)
    @pytest.mark.parametrize("k_index, epsilon", [(4, 0.5), (5, 0.2), (4, ALPHA)])
    def test_stopping_times(self, split_runs, k_index, epsilon, blocks):
        split_runs(80, blocks)
        plan = TrialPlan(60 + k_index, 80)
        rep = rate_experiment(ALPHA, k_index, epsilon, plan)
        want = [bit_oracle.stopping_time(ALPHA, epsilon, plan.master_seed, t, rep.n_steps)
                for t in range(plan.trials)]
        assert rep.letters_used == [min(k, rep.n_steps) for k in want]
        assert rep.successes == [k <= rep.n_steps for k in want]

    @pytest.mark.parametrize("budget", [7, 8, 9, 63, 64, 65])
    def test_budgets_at_the_edges(self, monkeypatch, budget):
        monkeypatch.setattr(experiments, "rate_steps", lambda q: budget)
        plan = TrialPlan(5, 200)
        rep = rate_experiment(ALPHA, 5, 0.2, plan)
        want = [bit_oracle.stopping_time(ALPHA, 0.2, 5, t, budget) for t in range(200)]
        assert rep.letters_used == [min(k, budget) for k in want]
        assert rep.successes == [k <= budget for k in want]


def _two_point_pins():
    pins = [(argv, pin) for argv, pin in CLI_SHA256 + REPORT_SHA256
            if argv[0] in ("simulate", "bvf-check")
            and argv[argv.index("--dist") + 1].startswith("two-point:")]
    assert len(pins) == 5
    return pins


def _pin_ids(value):
    return value[:8] if isinstance(value, str) else "-".join(value[:1] + value[-5:])


def _rate_pins():
    pins = [(argv, pin) for argv, pin in CLI_SHA256 + REPORT_SHA256 if argv[0] == "rate"]
    assert len(pins) == 8
    return pins


class TestPinsAreTheOracles:
    """Each pinned digest of a two-point report is the digest of the model's bytes."""

    @pytest.mark.parametrize("argv, pin", _two_point_pins(), ids=_pin_ids)
    def test_point_fold_reports(self, monkeypatch, argv, pin):
        monkeypatch.setattr(experiments, "_point_folds", oracle_point_folds)
        assert digest(cli(argv)) == pin

    @pytest.mark.parametrize("argv, pin", _rate_pins(), ids=_pin_ids)
    def test_rate_reports(self, argv, pin):
        text = cli(argv)
        assert digest(text) == pin
        if "csv" in argv:
            used = [int(line.split(",")[2]) for line in text.splitlines()[1:]]
        else:
            used = json.loads(text)["letters_used"]
        eps, seed = float(argv[argv.index("--eps") + 1]), int(argv[argv.index("--seed") + 1])
        budget = experiments.rate_steps(int(argv[argv.index("--qk") + 1]))
        assert used == [min(bit_oracle.stopping_time(ALPHA, eps, seed, t, budget), budget)
                        for t in range(len(used))]

    def test_backward_diameter_digest(self):
        diam = bit_oracle.backward_diameters(SUPPORT, 1000, 2025, 10 ** 4)
        assert digest_bytes(diam) == DIAM_SHA256


def digest_bytes(values: np.ndarray) -> str:
    return hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()


RAGGED = [0, 1, 7, 9, 63, 65, 130]


class TestFallback:
    """Past the state cap the folds read the same words one bit at a time,
    and give the same bytes as the word tables."""

    def _runs(self, n):
        plan = TrialPlan(70 + n, 700)
        return [
            forward_values(TWO_POINT, 0.2, n, plan),
            experiments._point_folds(TWO_POINT, 0.2, n, plan, first=700, backward=True,
                                     graph=_chain._dist_graph(TWO_POINT, (0.2, 0.2), n)),
            backward_diam_ensemble(TWO_POINT, n, plan),
        ]

    @pytest.mark.parametrize("blocks", BLOCKS)
    @pytest.mark.parametrize("n", RAGGED)
    @pytest.mark.parametrize("cap", [0, 1, 40])
    def test_same_bytes_past_the_cap(self, monkeypatch, split_runs, n, blocks, cap):
        tables = self._runs(n)
        split_runs(700, blocks)
        monkeypatch.setattr(_chain, "_WORD_STATES", cap)
        folds = self._runs(n)
        for table, fold in zip(tables, folds):
            assert table.tobytes() == fold.tobytes()

    def test_the_cap_turns_the_tables_off(self, monkeypatch):
        assert _chain._dist_graph(TWO_POINT, (0.2, 0.2), 65) is not None
        monkeypatch.setattr(_chain, "_WORD_STATES", 40)
        assert _chain._dist_graph(TWO_POINT, (0.2, 0.2), 7) is not None
        assert _chain._dist_graph(TWO_POINT, (0.2, 0.2), 65) is None
        assert _chain._state_graph(TWO_POINT.support, (0.0, 1.0), 130) is None

    def test_fold_path_matches_the_oracle(self, monkeypatch):
        monkeypatch.setattr(_chain, "_WORD_STATES", 0)
        plan = TrialPlan(8, 300)
        assert np.array_equal(forward_values(TWO_POINT, 0.2, 65, plan),
                              bit_oracle.point_folds(SUPPORT, 0.2, 65, 8, 0, 300))
        assert np.array_equal(backward_diam_ensemble(TWO_POINT, 65, plan),
                              bit_oracle.backward_diameters(SUPPORT, 65, 8, 300))


class TestPastTheCap:
    """Real inputs whose state graph passes the cap, with none patched. An
    uncapped search finds 85,850 point states in the first and 1,228,662
    images of [0, 1] in the second, which is why the cap and the fold stay."""

    def test_point_states(self):
        dist = ThetaDist.two_point(0.01048)
        assert _chain._state_graph(dist.support, (0.2, 0.2), 200) is None
        assert np.array_equal(forward_values(dist, 0.2, 200, TrialPlan(12, 100)),
                              bit_oracle.point_folds((0.01048, 1.0), 0.2, 200, 12, 0, 100))

    def test_backward_images(self):
        dist = ThetaDist.two_point(0.3)
        assert _chain._state_graph(dist.support, (0.0, 1.0), 1000) is None
        assert np.array_equal(backward_diam_ensemble(dist, 1000, TrialPlan(13, 100)),
                              bit_oracle.backward_diameters((0.3, 1.0), 1000, 13, 100))
