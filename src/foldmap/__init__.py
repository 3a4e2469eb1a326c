"""Random folding maps x -> |theta - x|.

Simulation of the folding Markov chain, its exact stationary law, symbolic
orbit graphs, continued-fraction tooling, and reproducible convergence
experiments. See the README for the map of the package.
"""

from .contfrac import (Convergent, contfrac_expand, convergent_denominators,
                       convergents, find_close_k)
from .errors import (ClassBoundaryError, FoldmapError, LemmaViolationError,
                     PrecisionError, PreconditionError, StructuralError,
                     WindowError, WordNotFoundError)
from .experiments import (EmpiricalCDF, RateReport, backward_diam_ensemble,
                          ensemble_forward, forward_values, ks_distance,
                          law_equality_report, one_step_invariance_report,
                          rate_experiment, rate_steps, rho_walk_audit,
                          walk_confinement_dp)
from .orbit import (DEFAULT_WINDOW, OrbitGraphWindow, OrbitLabel, RhoChart,
                    VertexClass, W_MAX, apply_theta_label, build_graph_window,
                    label_value, rho_chart, shrink_word, structure_stats)
from .process import (Interval, ThetaDist, TrialPlan, interval_fold,
                      iterate_forward, sample_theta, step, substream_seed,
                      theta_from_uniform)
from .serialize import canonical_json, rows_to_csv
from .stationary import (PiecewiseLinearCDF, is_small_vertex, large_count,
                         sample_stationary, stationary_cdf, stationary_quantile,
                         z_estimate)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
