"""The names foldmap exports, and the precondition at each input boundary."""

import math

import pytest

import foldmap
from foldmap import (Interval, OrbitLabel, PreconditionError, TrialPlan,
                     apply_theta_label, build_graph_window, interval_fold,
                     iterate_forward, rate_steps, rho_walk_audit, step,
                     structure_stats)
from foldmap.experiments import check_rho_walk

ALPHA = math.sqrt(0.5)
NAN, INF = math.nan, math.inf
UNIT = Interval(0.0, 1.0)


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
        "ks_distance", "label_value", "large_count", "large_count_cumulative",
        "law_equality_report", "one_step_invariance_report", "orbit", "process",
        "rate_experiment", "rate_steps", "rho_chart", "rho_walk_audit",
        "rows_to_csv", "sample_stationary", "sample_theta", "serialize",
        "shrink_word", "stationary", "stationary_cdf", "stationary_quantile",
        "step", "structure_stats", "substream_seed", "theta_from_uniform",
        "walk_confinement_dp", "z_estimate",
    ]


GRAPH = build_graph_window(ALPHA, 0.2, 10)
LETTERS = "letters must be finite and >= 0"
QK = r"q_k must be finite and >= 2 \(log2 q_k must be positive\)"
X_UNIT = r"x must lie in \[0, 1\]"
ALPHA_UNIT = r"alpha must lie in \(0, 1\)"


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
    pytest.param(lambda: structure_stats(GRAPH, margin=-1), "margin must be >= 0",
                 id="structure-margin-negative"),
    pytest.param(lambda: structure_stats(GRAPH, margin=NAN), "margin must be >= 0",
                 id="structure-margin-nan"),
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
])
def test_boundary_rejects(call, message):
    with pytest.raises(PreconditionError, match=message):
        call()
