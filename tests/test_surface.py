"""The names foldmap exports, and the precondition at each input boundary."""

import ast
import enum
import importlib
import inspect
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import foldmap
from foldmap import (Interval, OrbitLabel, PiecewiseLinearCDF, PreconditionError,
                     ThetaDist, TrialPlan, apply_theta_label, backward_diam_ensemble,
                     build_graph_window, contfrac_expand, convergent_denominators,
                     convergents, find_close_k, forward_values, interval_fold, is_small_vertex,
                     iterate_forward, large_count, law_equality_report,
                     one_step_invariance_report, rate_experiment, rate_steps,
                     rho_walk_audit, shrink_word, step,
                     theta_from_uniform, walk_confinement_dp, z_estimate)
from foldmap.experiments import EmpiricalCDF, check_forward_values, check_rate, check_rho_walk
from foldmap.process import substream_keys
from foldmap.stationary import stationary_cdf

ALPHA = math.sqrt(0.5)
NAN, INF = math.nan, math.inf
UNIT = Interval(0.0, 1.0)
TWO_POINT = ThetaDist.two_point(ALPHA)
PLAN = TrialPlan(0, 1)


def test_exported_names():
    # a name joins or leaves the package root only by a change to this list
    assert sorted(foldmap.__all__) == [
        "ClassBoundaryError", "Convergent", "DEFAULT_WINDOW", "EmpiricalCDF",
        "FoldmapError", "Interval", "LemmaViolationError", "OrbitGraphWindow",
        "OrbitLabel", "PiecewiseLinearCDF", "PrecisionError", "PreconditionError",
        "RateReport", "RhoChart", "StructuralError", "ThetaDist", "TrialPlan",
        "VertexClass", "W_MAX", "WindowError", "WordNotFoundError",
        "apply_theta_label", "backward_diam_ensemble", "build_graph_window",
        "canonical_json", "contfrac", "contfrac_expand", "convergent_denominators",
        "convergents", "ensemble_forward", "errors", "experiments", "find_close_k",
        "forward_values", "interval_fold", "is_small_vertex", "iterate_forward",
        "ks_distance", "label_value", "large_count", "law_equality_report",
        "one_step_invariance_report", "orbit", "process",
        "rate_experiment", "rate_steps", "rho_chart", "rho_walk_audit",
        "rows_to_csv", "sample_stationary", "sample_theta", "serialize",
        "shrink_word", "stationary", "stationary_cdf", "stationary_quantile",
        "step", "structure_stats", "theta_from_uniform",
        "walk_confinement_dp", "z_estimate",
    ]


# the parameter names of each public callable; exceptions and the enum take
# Python's own constructor arguments and are left out
SIGNATURES = {
    "Convergent": ("index", "a", "p", "q"),
    "EmpiricalCDF": ("values",),
    "Interval": ("lo", "hi"),
    "OrbitGraphWindow": ("alpha", "x", "window", "values", "classes", "coincidences"),
    "OrbitGraphWindow.class_frequencies": ("self",),
    "OrbitLabel": ("n", "eps"),
    "PiecewiseLinearCDF": ("xs", "values"),
    "RateReport": ("alpha", "k_index", "q_k", "epsilon", "n_steps", "trials",
                   "success_count", "letters_used", "successes", "implied_c",
                   "master_seed", "runtime_seconds"),
    "RhoChart": ("v0", "rho", "level_lo", "level_min"),
    "ThetaDist": ("support", "weights"),
    "TrialPlan": ("master_seed", "trials"),
    "apply_theta_label": ("alpha", "x", "label", "theta"),
    "backward_diam_ensemble": ("dist", "n", "plan"),
    "build_graph_window": ("alpha", "x", "window"),
    "canonical_json": ("obj",),
    "contfrac_expand": ("alpha", "terms"),
    "convergent_denominators": ("alpha", "q_max"),
    "convergents": ("quotients", "q_max"),
    "ensemble_forward": ("dist", "x0", "n", "plan"),
    "find_close_k": ("alpha", "x", "q_n"),
    "forward_values": ("dist", "x0", "n", "plan"),
    "interval_fold": ("word", "iv", "direction"),
    "is_small_vertex": ("alpha", "n"),
    "iterate_forward": ("word", "x0"),
    "ks_distance": ("sample", "reference"),
    "label_value": ("alpha", "x", "label"),
    "large_count": ("alpha", "n"),
    "law_equality_report": ("dist", "x0", "n", "trials", "master_seed"),
    "one_step_invariance_report": ("dist", "n_samples", "master_seed"),
    "rate_experiment": ("alpha", "k_index", "epsilon", "plan"),
    "rate_steps": ("q_k",),
    "rho_chart": ("graph", "x0_label"),
    "rho_walk_audit": ("alpha", "x0", "steps", "plan", "q_values", "segments", "window"),
    "rows_to_csv": ("header", "rows"),
    "sample_stationary": ("cdf", "rng", "size"),
    "sample_theta": ("dist", "rng", "size"),
    "shrink_word": ("alpha", "beta", "m", "threshold", "max_len"),
    "stationary_cdf": ("dist",),
    "stationary_quantile": ("cdf", "u"),
    "step": ("theta", "x"),
    "structure_stats": ("graph",),
    "theta_from_uniform": ("dist", "u"),
    "walk_confinement_dp": ("n", "exact"),
    "z_estimate": ("alpha", "n"),
}


def test_public_signatures():
    # a parameter joins or leaves the public surface only by a change to this table
    names = [name for name in foldmap.__all__ if callable(obj := getattr(foldmap, name))
             and not (isinstance(obj, type) and issubclass(obj, (BaseException, enum.Enum)))]
    assert sorted(SIGNATURES) == sorted(names + ["OrbitGraphWindow.class_frequencies"])
    for name, params in SIGNATURES.items():
        target = foldmap
        for part in name.split("."):
            target = getattr(target, part)
        assert tuple(inspect.signature(target).parameters) == params, name


def _literal(path: Path, name: str):
    """The value of a module-level `name = <literal>` in a source file, read with ast."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {path}")


def test_benchmark_trace_sites_resolve():
    # a traced benchmark run with a site the package no longer has prints
    # correct: false; perfbench/spans.py looks each site up as the tracer does,
    # in the own namespace of its module or class
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    layers = _literal(bench / "run.py", "LAYER_FUNCTIONS")
    sites = _literal(bench / "spans.py", "SITES")
    assert layers and set(layers) <= {name for name, _, _ in sites}
    for name, module, path in sites:
        assert module == "foldmap." + name.split(".")[0]
        *outer, attr = path.split(".")
        owner = importlib.import_module(module)
        for part in outer:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), name


LETTERS = "letters must be finite and >= 0"
QK = r"q_k must be finite and >= 2 \(log2 q_k must be positive\)"
X_UNIT = r"x must lie in \[0, 1\]"
ALPHA_UNIT = r"alpha must lie in \(0, 1\)"
SEED = "master seed must be an integer"
DRAWS = r"uniform draws must lie in \[0, 1\)"
FINITE = "breakpoints and values must be finite"
SLOPES = "slopes must be finite"
NAN_POINT = "CDF argument must not be NaN"


@pytest.mark.parametrize("call, message", [
    # each of these returned nan, inf or a number, or raised a bare ValueError
    pytest.param(lambda: step(NAN, 0.2), "step requires finite", id="step-theta-nan"),
    pytest.param(lambda: step(INF, 0.2), "step requires finite", id="step-theta-inf"),
    pytest.param(lambda: step(0.5, NAN), "step requires finite", id="step-x-nan"),
    pytest.param(lambda: step(0.5, INF), "step requires finite", id="step-x-inf"),
    pytest.param(lambda: iterate_forward([0.5], NAN), "x0 must be finite", id="forward-x0-nan"),
    pytest.param(lambda: iterate_forward([0.5], INF), "x0 must be finite", id="forward-x0-inf"),
    pytest.param(lambda: iterate_forward([NAN], 0.2), LETTERS, id="forward-letter-nan"),
    pytest.param(lambda: iterate_forward([0.5, INF], 0.2), LETTERS, id="forward-letter-inf"),
    pytest.param(lambda: iterate_forward([0.5, -1.0], 0.2), LETTERS,
                 id="forward-letter-negative"),
    pytest.param(lambda: interval_fold([-1.0], UNIT), LETTERS, id="interval-negative"),
    pytest.param(lambda: interval_fold([-1.0], UNIT, "backward"), LETTERS,
                 id="interval-negative-backward"),
    pytest.param(lambda: interval_fold([0.5, NAN], UNIT), LETTERS, id="interval-nan"),
    pytest.param(lambda: interval_fold([NAN], UNIT, "backward"), LETTERS,
                 id="interval-nan-backward"),
    pytest.param(lambda: interval_fold([INF], UNIT), LETTERS, id="interval-inf"),
    pytest.param(lambda: rate_steps(0), QK, id="rate-steps-0"),
    pytest.param(lambda: rate_steps(1), QK, id="rate-steps-1"),
    pytest.param(lambda: rate_steps(NAN), QK, id="rate-steps-nan"),
    pytest.param(lambda: rate_steps(INF), QK, id="rate-steps-inf"),
    pytest.param(lambda: apply_theta_label(ALPHA, NAN, OrbitLabel(1, 1), 1.0), X_UNIT,
                 id="label-x-nan-full-fold"),
    pytest.param(lambda: apply_theta_label(ALPHA, INF, OrbitLabel(1, 1), 1.0), X_UNIT,
                 id="label-x-inf-full-fold"),
    pytest.param(lambda: apply_theta_label(ALPHA, 1.5, OrbitLabel(1, 1), 1.0), X_UNIT,
                 id="label-x-above-full-fold"),
    # alpha first: 0 < x0 < min(alpha, 1-alpha) has no solution outside (0, 1)
    pytest.param(lambda: check_rho_walk(1.5, 0.2, 10, 10, 10), ALPHA_UNIT,
                 id="rho-walk-alpha-above"),
    pytest.param(lambda: check_rho_walk(1.5, 0.2, 10, 10, None), ALPHA_UNIT,
                 id="rho-walk-alpha-above-no-window"),
    pytest.param(lambda: check_rho_walk(NAN, 0.2, 10, 10, None), ALPHA_UNIT,
                 id="rho-walk-alpha-nan"),
    pytest.param(lambda: rho_walk_audit(-INF, 0.2, 10, TrialPlan(1, 1)), ALPHA_UNIT,
                 id="rho-walk-audit-alpha-inf"),
    # integer counts: NaN and inf raised a bare ValueError or TypeError
    pytest.param(lambda: forward_values(TWO_POINT, 0.2, 5, TrialPlan(0, NAN)),
                 "trials must be >= 1", id="plan-trials-nan"),
    pytest.param(lambda: TrialPlan(0, INF), "trials must be >= 1", id="plan-trials-inf"),
    pytest.param(lambda: forward_values(TWO_POINT, 0.2, NAN, PLAN), "n must be >= 0",
                 id="forward-values-n-nan"),
    pytest.param(lambda: forward_values(TWO_POINT, 0.2, INF, PLAN), "n must be >= 0",
                 id="forward-values-n-inf"),
    pytest.param(lambda: one_step_invariance_report(TWO_POINT, NAN, 0),
                 "n_samples must be >= 1", id="invariance-samples-nan"),
    pytest.param(lambda: one_step_invariance_report(TWO_POINT, INF, 0),
                 "n_samples must be >= 1", id="invariance-samples-inf"),
    pytest.param(lambda: large_count(0.7, NAN), "n must be >= 1", id="large-count-nan"),
    pytest.param(lambda: large_count(0.7, INF), "n must be >= 1", id="large-count-inf"),
    # a float n returned a count, an estimate or False; a huge one raised OverflowError
    pytest.param(lambda: large_count(ALPHA, 2.5), "n must be an integer",
                 id="large-count-float"),
    pytest.param(lambda: z_estimate(ALPHA, 2.5), "n must be an integer", id="z-estimate-float"),
    pytest.param(lambda: is_small_vertex(ALPHA, NAN), "n must be an integer",
                 id="small-vertex-n-nan"),
    pytest.param(lambda: is_small_vertex(ALPHA, INF), "n must be an integer",
                 id="small-vertex-n-inf"),
    pytest.param(lambda: is_small_vertex(ALPHA, 2.5), "n must be an integer",
                 id="small-vertex-n-float"),
    pytest.param(lambda: law_equality_report(TWO_POINT, 0.2, NAN, 10, 0), "n must be >= 0",
                 id="law-equality-n-nan"),
    pytest.param(lambda: law_equality_report(TWO_POINT, 0.2, 5, INF, 0),
                 "trials must be >= 1", id="law-equality-trials-inf"),
    pytest.param(lambda: backward_diam_ensemble(TWO_POINT, NAN, PLAN), "n must be >= 0",
                 id="backward-diam-n-nan"),
    pytest.param(lambda: backward_diam_ensemble(TWO_POINT, INF, PLAN), "n must be >= 0",
                 id="backward-diam-n-inf"),
    # the audit's own counts and window: NaN raised a bare ValueError
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, NAN, PLAN), "steps must be >= 0",
                 id="rho-walk-audit-steps-nan"),
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 10, PLAN, segments=NAN),
                 "segments must be >= 0", id="rho-walk-audit-segments-nan"),
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 10, PLAN, window=NAN),
                 "window must be >= 1", id="rho-walk-audit-window-nan"),
    pytest.param(lambda: check_rho_walk(ALPHA, 0.2, INF, 10, None), "steps must be >= 0",
                 id="rho-walk-steps-inf"),
    pytest.param(lambda: build_graph_window(0.7, 0.2, NAN), "window must be >= 1",
                 id="graph-window-nan"),
    # a NaN count or q_n returned [0] or a full list, or raised a bare TypeError
    pytest.param(lambda: contfrac_expand(ALPHA, NAN), "terms must be >= 0",
                 id="contfrac-terms-nan"),
    pytest.param(lambda: convergent_denominators(ALPHA, NAN), "q_max must be a number",
                 id="denominators-qmax-nan"),
    pytest.param(lambda: find_close_k(ALPHA, 0.5, NAN), "q_n must be an integer",
                 id="close-k-qn-nan"),
    pytest.param(lambda: find_close_k(ALPHA, 0.5, INF), "q_n must be an integer",
                 id="close-k-qn-inf"),
    pytest.param(lambda: find_close_k(ALPHA, 0.5, 17.0), "q_n must be an integer",
                 id="close-k-qn-float"),
    # a non-integer n gave label_value nan
    pytest.param(lambda: OrbitLabel(NAN, 1), "n must be an integer", id="label-n-nan"),
    pytest.param(lambda: OrbitLabel(1.0, 1), "n must be an integer", id="label-n-float"),
    # uniform draws past the last cumulative weight raised a bare IndexError
    pytest.param(lambda: theta_from_uniform(TWO_POINT, NAN), DRAWS, id="theta-uniform-nan"),
    pytest.param(lambda: theta_from_uniform(TWO_POINT, 1.0), DRAWS, id="theta-uniform-1"),
    pytest.param(lambda: theta_from_uniform(TWO_POINT, 1.5), DRAWS, id="theta-uniform-1.5"),
    pytest.param(lambda: theta_from_uniform(TWO_POINT, [0.2, -0.1]), DRAWS,
                 id="theta-uniform-negative"),
    # a NaN passed the order checks of breakpoints and values
    pytest.param(lambda: PiecewiseLinearCDF([0, NAN, 1], [0, 0.5, 1]), FINITE,
                 id="cdf-breakpoint-nan"),
    pytest.param(lambda: PiecewiseLinearCDF([0, 0.5, INF], [0, 0.5, 1]), FINITE,
                 id="cdf-breakpoint-inf"),
    pytest.param(lambda: PiecewiseLinearCDF([0, 0.5, 1], [0, NAN, 1]), FINITE,
                 id="cdf-value-nan"),
    # a slope that overflows gave evaluate inf inside its piece, and NaN (0 * inf)
    # at its knot in the piecewise kernels
    pytest.param(lambda: PiecewiseLinearCDF([0, 5e-324, 1], [0, 0.5, 1]), SLOPES,
                 id="cdf-slope-overflow"),
    pytest.param(lambda: PiecewiseLinearCDF([0, 1, 2], [0, 1e-320, 1]), SLOPES,
                 id="cdf-inverse-slope-overflow"),
    pytest.param(lambda: PiecewiseLinearCDF([-1e308, 1e308], [0, 1]), SLOPES,
                 id="cdf-span-overflow"),
    # NaN sorted last, so an empirical CDF read 1.0 there; np.interp gave nan
    pytest.param(lambda: EmpiricalCDF([0.1, 0.5])(NAN), NAN_POINT, id="ecdf-eval-nan"),
    pytest.param(lambda: EmpiricalCDF([0.1, 0.5]).evaluate([0.2, NAN]), NAN_POINT,
                 id="ecdf-eval-array-nan"),
    pytest.param(lambda: stationary_cdf(TWO_POINT)(NAN), NAN_POINT, id="cdf-eval-nan"),
    pytest.param(lambda: stationary_cdf(TWO_POINT).evaluate(np.array([[0.2], [NAN]])),
                 NAN_POINT, id="cdf-eval-array-nan"),
    # a str compared as text (0.5 here) and None gave nan
    pytest.param(lambda: EmpiricalCDF([0.1, 0.5])("0.3"), "CDF arguments must be numbers",
                 id="ecdf-eval-str"),
    pytest.param(lambda: stationary_cdf(TWO_POINT)([0.2, None]),
                 "CDF arguments must be numbers", id="cdf-eval-none"),
    # a float count raised a bare TypeError
    pytest.param(lambda: forward_values(TWO_POINT, 0.2, 2.5, PLAN), "n must be an integer",
                 id="forward-values-n-float"),
    pytest.param(lambda: backward_diam_ensemble(TWO_POINT, 2.5, PLAN), "n must be an integer",
                 id="backward-diam-n-float"),
    pytest.param(lambda: law_equality_report(TWO_POINT, 0.2, 2.5, 10, 0), "n must be an integer",
                 id="law-equality-n-float"),
    pytest.param(lambda: law_equality_report(TWO_POINT, 0.2, 5, 2.5, 0),
                 "trials must be an integer", id="law-equality-trials-float"),
    pytest.param(lambda: TrialPlan(1, 2.5), "trials must be an integer", id="plan-trials-float"),
    pytest.param(lambda: one_step_invariance_report(TWO_POINT, 2.5, 0),
                 "n_samples must be an integer", id="invariance-samples-float"),
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 10, PLAN, segments=2.5),
                 "segments must be an integer", id="rho-walk-audit-segments-float"),
    pytest.param(lambda: walk_confinement_dp(2.5), "n must be an integer", id="walk-n-float"),
    # a float count ran on: a report of "steps": 2.5, a window, 3 quotients, 166 letters
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 2.5, PLAN), "steps must be an integer",
                 id="rho-walk-audit-steps-float"),
    pytest.param(lambda: build_graph_window(0.7, 0.2, 2.5), "window must be an integer",
                 id="graph-window-float"),
    pytest.param(lambda: contfrac_expand(ALPHA, 2.5), "terms must be an integer",
                 id="contfrac-terms-float"),
    pytest.param(lambda: rate_steps(2.5), "q_k must be an integer", id="rate-steps-float"),
    pytest.param(lambda: rate_experiment(ALPHA, 2.5, 0.5, PLAN), "k_index must be an integer",
                 id="rate-k-index-float"),
    pytest.param(lambda: shrink_word(ALPHA, 1.0, 0.9, 0.01, max_len=2.5),
                 "max_len must be an integer", id="shrink-word-max-len-float"),
    # a count that is not a number raised a bare TypeError from a range check
    pytest.param(lambda: walk_confinement_dp("3"), "n must be an integer", id="walk-n-str"),
    pytest.param(lambda: walk_confinement_dp(None), "n must be an integer", id="walk-n-none"),
    pytest.param(lambda: rate_steps("3"), "q_k must be an integer", id="rate-steps-str"),
    pytest.param(lambda: check_rate("17", 0.5, 10), "q_k must be an integer",
                 id="rate-qk-str"),
    pytest.param(lambda: TrialPlan(1, "5"), "trials must be an integer", id="plan-trials-str"),
    pytest.param(lambda: forward_values(TWO_POINT, 0.2, None, PLAN), "n must be an integer",
                 id="forward-values-n-none"),
    pytest.param(lambda: law_equality_report(TWO_POINT, 0.2, "5", 10, 0),
                 "n must be an integer", id="law-equality-n-str"),
    pytest.param(lambda: check_forward_values(0.2, 5, None), "trials must be an integer",
                 id="law-equality-trials-none"),
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 10, PLAN, window="64"),
                 "window must be an integer", id="rho-walk-audit-window-str"),
    pytest.param(lambda: build_graph_window(0.7, 0.2, None), "window must be an integer",
                 id="graph-window-none"),
    pytest.param(lambda: contfrac_expand(ALPHA, "3"), "terms must be an integer",
                 id="contfrac-terms-str"),
    pytest.param(lambda: PLAN.substream([1]), "substream index must be an integer",
                 id="substream-index-list"),
    # a float or an array of floats that is not a number raised a bare
    # TypeError from a range check, or was parsed by np.asarray(dtype=float)
    pytest.param(lambda: find_close_k(ALPHA, "0.5", 17), "x must be a number",
                 id="close-k-x-str"),
    pytest.param(lambda: find_close_k(ALPHA, None, 17), "x must be a number",
                 id="close-k-x-none"),
    pytest.param(lambda: find_close_k(ALPHA, 0.5, "3"), "q_n must be an integer",
                 id="close-k-qn-str"),
    pytest.param(lambda: find_close_k(ALPHA, 0.5, None), "q_n must be an integer",
                 id="close-k-qn-none"),
    pytest.param(lambda: find_close_k("0.5", 0.5, 17), "alpha must be a number",
                 id="close-k-alpha-str"),
    pytest.param(lambda: contfrac_expand("0.5", 3), "alpha must be a number",
                 id="contfrac-alpha-str"),
    pytest.param(lambda: rate_experiment(None, 1, 0.5, PLAN), "alpha must be a number",
                 id="rate-alpha-none"),
    pytest.param(lambda: check_rate(17, "0.5", 10), "epsilon must be a number",
                 id="rate-epsilon-str"),
    pytest.param(lambda: convergent_denominators(ALPHA, "3"), "q_max must be a number",
                 id="convergent-qmax-str"),
    pytest.param(lambda: ThetaDist.two_point("0.5"), "alpha must be a number",
                 id="two-point-alpha-str"),
    pytest.param(lambda: ThetaDist(["0.5"], [1.0]), "fold points must be numbers",
                 id="dist-support-str"),
    pytest.param(lambda: ThetaDist([0.5, 1.0], [0.5, None]), "weights must be numbers",
                 id="dist-weight-none"),
    pytest.param(lambda: forward_values(TWO_POINT, "0.5", 5, PLAN), "x0 must be a number",
                 id="forward-values-x0-str"),
    pytest.param(lambda: iterate_forward(["0.5"], 0.2), "letters must be numbers",
                 id="forward-letter-str"),
    pytest.param(lambda: interval_fold([None], UNIT), "letters must be numbers",
                 id="interval-letter-none"),
    pytest.param(lambda: Interval("0.5", 1.0), "interval ends must be numbers",
                 id="interval-lo-str"),
    pytest.param(lambda: Interval("0.5", "1.0"), "interval ends must be numbers",
                 id="interval-ends-str"),
    pytest.param(lambda: step("0.5", 0.2), "theta must be a number", id="step-theta-str"),
    pytest.param(lambda: step(0.5, None), "x must be a number", id="step-x-none"),
    pytest.param(lambda: shrink_word(ALPHA, 1.0, 0.9, "0.5"), "threshold must be a number",
                 id="shrink-word-threshold-str"),
    pytest.param(lambda: rho_walk_audit(ALPHA, "0.2", 10, PLAN), "x0 must be a number",
                 id="rho-walk-audit-x0-str"),
    pytest.param(lambda: build_graph_window(ALPHA, None, 10), "x must be a number",
                 id="graph-x-none"),
    pytest.param(lambda: theta_from_uniform(TWO_POINT, ["0.5"]),
                 "uniform draws must be numbers", id="theta-uniform-str"),
    pytest.param(lambda: PiecewiseLinearCDF([0.0, "1.0"], [0.0, 1.0]),
                 "breakpoints must be numbers", id="cdf-breakpoint-str"),
    # NaN and the ends still read as out of range
    pytest.param(lambda: walk_confinement_dp(NAN), r"n must lie in 1\.\.30", id="walk-n-nan"),
    pytest.param(lambda: walk_confinement_dp(0), r"n must lie in 1\.\.30", id="walk-n-0"),
    pytest.param(lambda: walk_confinement_dp(31), r"n must lie in 1\.\.30", id="walk-n-31"),
    # an alpha outside (0, 1) would run the rate chain on {alpha, 1}
    pytest.param(lambda: rate_experiment(1.5, 1, 0.5, PLAN), ALPHA_UNIT,
                 id="rate-alpha-above"),
    # an n past the bound raised a bare MemoryError or ValueError
    pytest.param(lambda: large_count(ALPHA, 10 ** 13), r"n must be <= 10\*\*7",
                 id="large-count-n-huge"),
    pytest.param(lambda: z_estimate(ALPHA, 10 ** 400), r"n must be <= 10\*\*7",
                 id="z-estimate-n-past-float-range"),
    # a count past the bound allocated its buffers, or looped, before any output
    pytest.param(lambda: TrialPlan(1, 10 ** 8 + 1), r"trials must be <= 100000000",
                 id="plan-trials-past-bound"),
    pytest.param(lambda: TrialPlan(1, 10 ** 400), r"trials must be <= 100000000",
                 id="plan-trials-past-float-range"),
    pytest.param(lambda: one_step_invariance_report(TWO_POINT, 10 ** 8 + 1, 0),
                 r"n_samples must be <= 100000000", id="invariance-samples-past-bound"),
    pytest.param(lambda: one_step_invariance_report(TWO_POINT, 10 ** 400, 0),
                 r"n_samples must be <= 100000000", id="invariance-samples-past-float-range"),
    pytest.param(lambda: law_equality_report(TWO_POINT, 0.2, 5, 10 ** 8 + 1, 0),
                 r"trials must be <= 100000000", id="law-equality-trials-past-bound"),
    pytest.param(lambda: find_close_k(ALPHA, 0.5, 10 ** 7 + 1), r"q_n must be <= 10000000",
                 id="close-k-qn-past-bound"),
    pytest.param(lambda: find_close_k(ALPHA, 0.5, 10 ** 400), r"q_n must be <= 10000000",
                 id="close-k-qn-past-float-range"),
    # an unchecked master seed raised a bare TypeError or OverflowError, or was kept
    pytest.param(lambda: TrialPlan(2.5, 4), SEED, id="plan-seed-float"),
    pytest.param(lambda: TrialPlan(NAN, 4), SEED, id="plan-seed-nan"),
    pytest.param(lambda: TrialPlan(INF, 4), SEED, id="plan-seed-inf"),
    pytest.param(lambda: substream_keys(2.5, 0, 1), SEED, id="substream-seed-float"),
    pytest.param(lambda: law_equality_report(TWO_POINT, 0.2, 5, 10, 2.5), SEED,
                 id="law-equality-seed-float"),
    pytest.param(lambda: one_step_invariance_report(TWO_POINT, 10, NAN), SEED,
                 id="invariance-seed-nan"),
    # one past the bound on letters a trial, rho walk steps and audit segments
    pytest.param(lambda: forward_values(TWO_POINT, 0.2, 10 ** 7 + 1, PLAN),
                 "n must be <= 10000000", id="forward-values-n-cap"),
    pytest.param(lambda: backward_diam_ensemble(TWO_POINT, 10 ** 7 + 1, PLAN),
                 "n must be <= 10000000", id="backward-diam-n-cap"),
    pytest.param(lambda: law_equality_report(TWO_POINT, 0.2, 10 ** 7 + 1, 10, 0),
                 "n must be <= 10000000", id="law-equality-n-cap"),
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 10 ** 6 + 1, PLAN),
                 "steps must be <= 1000000", id="rho-walk-audit-steps-cap"),
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 10, PLAN, segments=10 ** 6 + 1),
                 "segments must be <= 1000000", id="rho-walk-audit-segments-cap"),
    # only the CLI checked q: 0 divided by zero, -3 reported 20 violations of
    # 20 segments at bound -0.5, 2.5 reported "q": 2 beside bound 0.6, and the
    # others raised a bare ValueError, OverflowError or TypeError
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 100, PLAN, q_values=(0,), segments=20),
                 "q_values must be >= 1", id="rho-walk-audit-q-0"),
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 100, PLAN, q_values=(-3,), segments=20),
                 "q_values must be >= 1", id="rho-walk-audit-q-negative"),
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 100, PLAN, q_values=(7, NAN)),
                 "q_values must be >= 1", id="rho-walk-audit-q-nan"),
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 100, PLAN, q_values=(INF,)),
                 "q_values must be >= 1", id="rho-walk-audit-q-inf"),
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 100, PLAN, q_values=(2.5,), segments=20),
                 "q_values must be an integer", id="rho-walk-audit-q-float"),
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 100, PLAN, q_values=("7",)),
                 "q_values must be an integer", id="rho-walk-audit-q-str"),
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 100, PLAN, q_values=7),
                 "q_values must be a sequence", id="rho-walk-audit-q-bare"),
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 100, PLAN, q_values=None),
                 "q_values must be a sequence", id="rho-walk-audit-q-none"),
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 100, PLAN, q_values=iter((7, 17))),
                 "q_values must be a sequence", id="rho-walk-audit-q-iterator"),
    pytest.param(lambda: check_rho_walk(ALPHA, 0.2, 10, 10, None, (0,)),
                 "q_values must be >= 1", id="rho-walk-q-0"),
    # a q past the longest walk's rho span raised a bare OverflowError at 10**400
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 100, PLAN, q_values=(7, 10 ** 6 + 1)),
                 "q_values must be <= 1000000", id="rho-walk-audit-q-cap"),
    pytest.param(lambda: rho_walk_audit(ALPHA, 0.2, 100, PLAN, q_values=(10 ** 400,)),
                 "q_values must be <= 1000000", id="rho-walk-audit-q-past-float-range"),
    # an empty support divided by zero; an infinite end made an interval
    pytest.param(lambda: ThetaDist.uniform([]),
                 "support and weights must be nonempty and equal-length",
                 id="dist-uniform-empty"),
    pytest.param(lambda: Interval(0.0, INF), "interval ends must be finite",
                 id="interval-hi-inf"),
    pytest.param(lambda: Interval(-INF, 0.0), "interval ends must be finite",
                 id="interval-lo-minus-inf"),
    # an empirical sample of text was parsed, and one that is no number raised
    # a bare ValueError
    pytest.param(lambda: EmpiricalCDF(["0.5", "0.25"]), "empirical CDF values must be numbers",
                 id="ecdf-sample-str"),
    pytest.param(lambda: EmpiricalCDF(["a"]), "empirical CDF values must be numbers",
                 id="ecdf-sample-not-a-number"),
    # a 2-d support raised a bare IndexError, and a column of points was
    # refused as not distinct
    pytest.param(lambda: ThetaDist([[0.5, 1.0]], [[0.5, 0.5]]),
                 "fold points and weights must be 1-d", id="dist-support-row"),
    pytest.param(lambda: ThetaDist([[0.5], [1.0]], [[0.5], [0.5]]),
                 "fold points and weights must be 1-d", id="dist-support-column"),
    # the letter budget's float product overflowed, a bare OverflowError
    pytest.param(lambda: rate_steps(10 ** 400), "q_k is too large",
                 id="rate-steps-past-float-range"),
    # convergents took any quotient: NaN gave NaN convergents, 1.5 gave
    # q = 1.5, a str raised a bare TypeError, and a NaN q_max was no cap
    pytest.param(lambda: convergents([0, NAN, 2]), "partial quotient must be an integer",
                 id="convergents-quotient-nan"),
    pytest.param(lambda: convergents([0, 1.5, 2]), "partial quotient must be an integer",
                 id="convergents-quotient-float"),
    pytest.param(lambda: convergents([0, "2"]), "partial quotient must be an integer",
                 id="convergents-quotient-str"),
    pytest.param(lambda: convergents([0, 0]), "partial quotients after a_0 must be >= 1",
                 id="convergents-quotient-0"),
    pytest.param(lambda: convergents(None), "partial quotients must be a sequence",
                 id="convergents-quotients-none"),
    pytest.param(lambda: convergents([0, 1, 2], q_max=NAN), "q_max must be a number, not NaN",
                 id="convergents-qmax-nan"),
])
def test_boundary_rejects(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()


def test_count_bounds_raise_before_allocating():
    calls = [lambda: TrialPlan(1, 10 ** 8 + 1),
             lambda: one_step_invariance_report(TWO_POINT, 10 ** 8 + 1, 0),
             lambda: one_step_invariance_report(TWO_POINT, 10 ** 400, 0),
             lambda: law_equality_report(TWO_POINT, 0.2, 5, 10 ** 8 + 1, 0)]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 5


def test_step_bounds_hold_the_bound_itself():
    # 10^7 letters and 10^6 walk steps and segments pass every check; one
    # more is refused above, before the graph search, the fold or the walk
    check_forward_values(0.2, 10 ** 7, 1)
    check_rho_walk(ALPHA, 0.2, 10 ** 6, 10 ** 6, None)
    for call in (lambda: backward_diam_ensemble(TWO_POINT, 10 ** 30, PLAN),
                 lambda: forward_values(TWO_POINT, 0.2, 10 ** 30, PLAN)):
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="n must be <= 10000000"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 ** 5


def _owners(tree) -> dict:
    """Each node of tree with the qualified name of the innermost def or
    class around it, None at module level."""
    owner = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child.name if name is None else f"{name}.{child.name}"
            owner[child] = inner
            visit(child, inner)

    visit(tree, None)
    return owner


def test_only_the_chain_reads_the_bit_rule():
    # a dist's bit rule (._bits) is set once, and read only by the two letter
    # readers that choose a rule and where _chain._dist_graph decides whether
    # word tables exist; so no caller reads a bit dist by the cut rule
    allowed = {("process.py", "ThetaDist.__init__", "Store"),
               ("process.py", "letter_columns", "Load"),
               ("process.py", "letter_run", "Load"),
               ("_chain.py", "_dist_graph", "Load")}
    found = set()
    for path in sorted(Path(foldmap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        found |= {(path.name, owner[node], type(node.ctx).__name__)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "_bits"}
    assert found == allowed


def test_one_word_reader():
    # a hash becomes letters in one of two places: the cut rule reads a
    # letter a hash, and word_run reads the bit rule's 8-letter words, which
    # every other two-point reader spells or walks
    callers = set()
    for path in sorted(Path(foldmap.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = _owners(tree)
        callers |= {(path.name, owner[node]) for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and "_cell_hashes" in (getattr(node.func, "id", None),
                                           getattr(node.func, "attr", None))}
    assert callers == {("process.py", "_cut_letters"), ("process.py", "word_run")}


def test_only_row_values_folds_in_the_chain():
    # rate's trials walk the exact chain, always; in _chain only the point
    # and backward folds past the state cap read letters a column at a time
    # and fold them, and the state search calls the one scalar fold, on
    # floats and on rate's ints alike, so no second scalar fold comes back
    tree = ast.parse((Path(foldmap.__file__).parent / "_chain.py").read_text())
    owner = _owners(tree)
    calls = {(owner[node], getattr(node.func, "id", None) or getattr(node.func, "attr", ""))
             for node in ast.walk(tree) if isinstance(node, ast.Call)}
    callers = {(where, name) for where, name in calls if name.startswith("_fold")
               or name in ("fold_interval_arrays", "letter_columns")}
    assert callers == {("_row_values.fold", "fold_interval_arrays"),
                       ("_row_values.fold", "letter_columns"),
                       ("_state_graph", "_fold_scalar")}


def test_no_module_starts_threads():
    # every run folds its rows in one loop on the caller's thread: on two
    # cores a pool of two was slower than one at every size measured
    found = []
    for path in sorted(Path(foldmap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] in ("threading", "concurrent")]
    assert found == []


def test_takes_into_out_do_not_buffer():
    # numpy copies out= into a buffer for a take in the default mode="raise",
    # and for a strided out= in any mode; every take into an output in the
    # library clips or wraps, into a name or a first-axis slice such as
    # buf[:k], never a multi-axis subscript such as out[:, h, :]
    takes, buffered = 0, []
    for path in sorted(Path(foldmap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "take"):
                continue
            keywords = {k.arg: k.value for k in node.keywords}
            if "out" not in keywords:
                continue
            takes += 1
            mode, out = keywords.get("mode"), keywords["out"]
            if not (isinstance(mode, ast.Constant) and mode.value in ("clip", "wrap")):
                buffered.append(f"{path.name}:{node.lineno}")
            if isinstance(out, ast.Subscript) and isinstance(out.slice, ast.Tuple):
                buffered.append(f"{path.name}:{node.lineno} strided")
    assert takes and buffered == []


def test_numpy_ints_are_integers():
    assert OrbitLabel(np.int64(3), -1) == OrbitLabel(3, -1)
    assert find_close_k(ALPHA, 0.5, np.int64(17)) == find_close_k(ALPHA, 0.5, 17)
    # every count as an np.int64 gives what the int gives; the walk DP,
    # rate_steps at 10**7 and the numpy-sized plans overflowed
    calls = [
        lambda c: walk_confinement_dp(c(5)),
        lambda c: rate_steps(c(10 ** 7)),
        lambda c: contfrac_expand(ALPHA, c(5)),
        lambda c: large_count(ALPHA, c(100)),
        lambda c: z_estimate(ALPHA, c(100)),
        lambda c: is_small_vertex(ALPHA, c(12)),
        lambda c: build_graph_window(ALPHA, 0.2, c(10)).values.tobytes(),
        lambda c: shrink_word(ALPHA, 1.0, 0.9, 0.01, max_len=c(256)),
        lambda c: forward_values(TWO_POINT, 0.2, c(9), TrialPlan(1, c(70000))).tobytes(),
        lambda c: backward_diam_ensemble(TWO_POINT, c(9), TrialPlan(1, c(40))).tobytes(),
        lambda c: law_equality_report(TWO_POINT, 0.2, c(9), c(30), 1),
        lambda c: one_step_invariance_report(TWO_POINT, c(70000), 1),
        lambda c: rate_experiment(ALPHA, c(4), 0.5, TrialPlan(1, c(5))).to_json(),
        lambda c: rho_walk_audit(ALPHA, 0.2, c(100), PLAN, segments=c(10)),
        # the master seed: a numpy int overflowed the row keys
        lambda c: forward_values(TWO_POINT, 0.2, 5, TrialPlan(c(3), 4)).tobytes(),
        lambda c: one_step_invariance_report(TWO_POINT, 10, c(3)),
        lambda c: substream_keys(c(3), 1, 1).tolist(),
    ]
    for call in calls:
        assert call(np.int64) == call(int)
