"""Acceptance suite: ten end-to-end checks, one pass/fail line each.

Each criterion prints exactly one line, ACCEPTANCE k: PASS/FAIL (detail),
then asserts. Stochastic criteria use fixed master seeds; the reports they
produce are byte-identical across reruns (criterion 10).
"""

import json
import math
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np

from foldmap import (OrbitLabel, TrialPlan, ThetaDist, apply_theta_label,
                     build_graph_window, canonical_json,
                     convergent_denominators, contfrac_expand, convergents,
                     find_close_k, is_small_vertex, label_value,
                     law_equality_report, one_step_invariance_report,
                     rate_experiment, step, structure_stats,
                     walk_confinement_dp, z_estimate)

ALPHA = math.sqrt(0.5)
TWO_POINT = ThetaDist.two_point(ALPHA)
Z_TARGET = 0.8284271247

SEED_INVARIANCE = 20260814
SEED_RATE = 424242
SEED_LAW = 777


def _line(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


@lru_cache(maxsize=None)
def _invariance_report() -> str:
    return canonical_json(one_step_invariance_report(TWO_POINT, 10 ** 6, SEED_INVARIANCE))


@lru_cache(maxsize=None)
def _rate_reports() -> tuple:
    r17 = rate_experiment(ALPHA, 4, 0.5, TrialPlan(SEED_RATE, 200))
    r41 = rate_experiment(ALPHA, 5, 0.2, TrialPlan(SEED_RATE + 1, 200))
    return r17.to_json(), r41.to_json()


@lru_cache(maxsize=None)
def _law_report() -> str:
    return canonical_json(law_equality_report(TWO_POINT, 0.2, 50, 10 ** 5, SEED_LAW))


def test_criterion_01_one_step_invariance():
    t0 = time.perf_counter()
    ks = json.loads(_invariance_report())["ks_distance"]
    elapsed = time.perf_counter() - t0
    _line(1, ks <= 0.005 and elapsed < 10.0,
          f"10^6 samples, one-step KS={ks:.5f} <= 0.005, {elapsed:.1f}s < 10s")


def test_criterion_02_recurrence_limit():
    qs = [q for q in convergent_denominators(ALPHA, 10 ** 4)
          if is_small_vertex(ALPHA, q)]
    estimates = [z_estimate(ALPHA, q) for q in qs]
    errors = [abs(e - Z_TARGET) for e in estimates]
    ok = (qs == [3, 17, 99, 577, 3363]
          and errors[-1] <= 1e-2
          and all(b < a for a, b in zip(errors[-4:], errors[-3:])))
    _line(2, ok, f"q={qs}, final z={estimates[-1]:.10f}, "
                 f"|err|={errors[-1]:.2e} <= 1e-2, last-4 errors decreasing")


def test_criterion_03_affine_identity():
    n_max = 10 ** 4
    n = np.arange(1, n_max + 1)
    frac = n * ALPHA % 1.0
    L = np.cumsum(frac >= ALPHA)  # brute-force tally, no library involved
    z = 2 * ALPHA / (1 + ALPHA)
    small = frac < min(ALPHA, 1 - ALPHA) - 1e-12
    gap = np.max(np.abs(((2 * n - L) * z - (2 * n - 2 * L))[small]
                        - 2 * frac[small] / (1 + ALPHA)))
    _line(3, bool(gap < 1e-9),
          f"{int(small.sum())} small n <= 10^4, max identity gap {gap:.2e} < 1e-9")


def test_criterion_04_automaton_and_density():
    x = 0.2
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(10 ** 4):
        lab = OrbitLabel(int(rng.integers(-10 ** 5, 10 ** 5 + 1)),
                         1 if rng.random() < 0.5 else -1)
        theta = ALPHA if rng.random() < 0.5 else 1.0
        image = apply_theta_label(ALPHA, x, lab, theta)
        worst = max(worst, abs(label_value(ALPHA, x, image)
                               - step(theta, label_value(ALPHA, x, lab))))
    n = np.arange(-10 ** 5, 10 ** 5 + 1)
    vals = np.concatenate([(n * ALPHA + x) % 1.0, (n * ALPHA - x) % 1.0])
    counts, _ = np.histogram(vals, bins=1000, range=(0.0, 1.0))
    _line(4, worst < 1e-9 and int(counts.min()) > 0,
          f"10^4 commutation checks, worst gap {worst:.2e} < 1e-9; "
          f"all 1000 bins hit (min count {int(counts.min())})")


def test_criterion_05_graph_statistics():
    graph = build_graph_window(ALPHA, 0.2, 10 ** 5)
    stats = structure_stats(graph)
    freqs = stats["class_frequencies"]
    targets = {"small": 1 - ALPHA, "medium": 2 * ALPHA - 1, "large": 1 - ALPHA}
    freq_gap = max(abs(freqs[k] - targets[k]) for k in targets)
    ratio_gap = abs(stats["measured_ratio"] - math.sqrt(2))
    _line(5, freq_gap < 0.01 and ratio_gap < 0.05,
          f"W=10^5 class freq gap {freq_gap:.4f} < 0.01, "
          f"run ratio {stats['measured_ratio']:.4f} within 0.05 of sqrt2")


def test_criterion_06_continued_fractions():
    qs = [c.q for c in convergents(contfrac_expand(ALPHA, 20))]
    a, b = 1, 0  # (1 + sqrt2)^n tracked exactly in Z[sqrt2]
    closed = []
    for _ in range(21):
        closed.append(a)
        a, b = a + 2 * b, a + b
    grid = np.round(np.arange(0.0, 1.0 + 1e-12, 1e-4), 10)
    worst_ratio = 0.0
    for q in (3, 7, 17, 41, 99, 239):
        for x in grid:
            hit = find_close_k(ALPHA, float(x), q)  # raises when it fails
            worst_ratio = max(worst_ratio, hit["value"] * q / 1.5)
    _line(6, qs == closed and worst_ratio < 1.0,
          f"q-sequence exact for n <= 20; close-k found for all "
          f"{grid.size} grid x at 6 denominators, worst value/bound {worst_ratio:.3f}")


def test_criterion_07_rate_bound():
    t0 = time.perf_counter()
    js17, js41 = _rate_reports()
    elapsed = time.perf_counter() - t0
    r17, r41 = json.loads(js17), json.loads(js41)
    ok = (r17["n_steps"] == 160654 and r41["n_steps"] == 2953983
          and r17["trials"] == r41["trials"] == 200
          and r17["success_fraction"] >= 0.99
          and r41["success_fraction"] >= 0.99
          and elapsed < 300.0)
    _line(7, ok,
          f"q=17 eps=0.5 N={r17['n_steps']}: {r17['success_count']}/200; "
          f"q=41 eps=0.2 N={r41['n_steps']}: {r41['success_count']}/200; "
          f"{elapsed:.1f}s < 300s")


def test_criterion_08_walk_oracle():
    ps = [walk_confinement_dp(n, exact=False) for n in range(4, 13)]
    ok = (walk_confinement_dp(1) == Fraction(1)
          and all(b < a for a, b in zip(ps, ps[1:]))
          and ps[-1] < ps[0] / math.e)
    _line(8, ok, f"p(1)=1 exact; p(4..12) strictly decreasing; "
                 f"p(12)/p(4)={ps[-1] / ps[0]:.3f} < 1/e")


def test_criterion_09_law_equality():
    ks = json.loads(_law_report())["ks_distance"]
    _line(9, ks <= 0.01,
          f"n=50, 10^5 forward vs backward trials, two-sample KS={ks:.5f} <= 0.01")


def test_criterion_10_determinism():
    # each report made again, beside the one criteria 1, 7 and 9 read
    same_1, same_7, same_9 = (report.__wrapped__() == report()
                              for report in (_invariance_report, _rate_reports, _law_report))
    _line(10, same_1 and same_7 and same_9,
          f"byte-identical reports across reruns: "
          f"criterion1={same_1}, criterion7={same_7}, criterion9={same_9}")
