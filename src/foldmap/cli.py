"""Command-line front end.

Every experiment is reachable as a subcommand with an explicit seed, so any
output is reproducible byte for byte from its command line. Exit codes:
0 success, 1 usage, 2 precondition violation (bad values, including non-finite
numbers and an --out path that cannot be written), 3 structural/guarantee
failure.

All subcommands accept --dry-run, which prints the fully resolved
configuration as canonical JSON and performs no computation.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import experiments, orbit
from .contfrac import contfrac_expand, convergents, find_close_k
from .errors import PreconditionError, StructuralError
from .process import ThetaDist, TrialPlan, iterate_forward
from .serialize import canonical_json, rows_to_csv
from .stationary import stationary_cdf

ALPHA_PRESETS = {
    "inv-sqrt2": math.sqrt(0.5),
    "golden-conj": (math.sqrt(5.0) - 1.0) / 2.0,
    "e-minus-2": math.e - 2.0,
}
_MIN_SIG_DIGITS = 15


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want exit 1
        raise _UsageError(message)


def _sig_digits(text: str) -> int:
    digits = [c for c in text.lstrip("+-").replace(".", "") if c.isdigit()]
    stripped = "".join(digits).lstrip("0")
    return len(stripped)


def parse_alpha(spec: str) -> float:
    """Preset name or decimal literal in (0, 1); warns on short literals."""
    if spec in ALPHA_PRESETS:
        return ALPHA_PRESETS[spec]
    try:
        value = float(spec)
    except ValueError:
        raise PreconditionError(f"alpha {spec!r} is neither a preset nor a number")
    if not 0.0 < value < 1.0:
        raise PreconditionError("alpha must lie strictly inside (0, 1)")
    if _sig_digits(spec) < _MIN_SIG_DIGITS:
        print(f"warning: alpha literal {spec!r} has fewer than {_MIN_SIG_DIGITS} "
              "significant digits; orbit computations are precision-sensitive",
              file=sys.stderr)
    return value


def parse_dist(spec: str) -> ThetaDist:
    """'two-point:<alpha>' or comma-separated 'point:weight' pairs."""
    if spec.startswith("two-point:"):
        return ThetaDist.two_point(parse_alpha(spec[len("two-point:"):]))
    support, weights = [], []
    for token in spec.split(","):
        parts = token.split(":")
        if len(parts) != 2:
            raise PreconditionError(f"bad distribution token {token!r}; want point:weight")
        support.append(float(parts[0]))
        weights.append(float(parts[1]))
    return ThetaDist(support, weights)


def _check_out(out: str | None):
    """Refuse an --out path whose directory is missing, before any computing."""
    if out is not None and not os.path.isdir(os.path.dirname(out) or "."):
        raise PreconditionError(f"--out directory {os.path.dirname(out)!r} does not exist")


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise PreconditionError(f"cannot write --out {out!r}: {exc.strerror}")


def _dry_run(args, resolved: dict) -> str:
    try:
        return canonical_json({"schema": 1, "kind": "dry_run",
                               "subcommand": args.command, **resolved})
    except ValueError:  # canonical JSON has no NaN or inf
        raise PreconditionError("the configuration holds a non-finite number")


def _build_parser() -> _Parser:
    parser = _Parser(prog="foldmap",
                     description="Random folding maps: simulation and structure experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--dry-run", action="store_true",
                       help="print resolved config as JSON and exit")
        return p

    p = add("simulate", "forward-iterate an ensemble and compare to the stationary law")
    p.add_argument("--dist", required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("stationary", "evaluate or export the exact stationary CDF")
    p.add_argument("--dist", required=True)
    p.add_argument("--eval", type=float, default=None,
                   help="print the CDF at this point instead of exporting")
    p.add_argument("--format", choices=["json", "csv"], default="csv")

    p = add("orbit", "build an orbit graph window and export it")
    p.add_argument("--alpha", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--window", type=int, default=orbit.DEFAULT_WINDOW)
    p.add_argument("--format", choices=["dot", "json", "csv"], default="dot")

    p = add("contfrac", "partial quotients and convergents of alpha")
    p.add_argument("--alpha", required=True)
    p.add_argument("--terms", type=int, default=20)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = add("closek", "smallest k with <x - k*alpha> below 3/(2 q_n)")
    p.add_argument("--alpha", required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--qn", type=int, required=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("shrinkword", "shortest fold word over {alpha, beta} below a threshold")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--max-len", type=int, default=256)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("rate", "backward-contraction rate experiment at one convergent")
    p.add_argument("--alpha", required=True)
    p.add_argument("--qk", type=int, required=True,
                   help="convergent denominator q_k of alpha")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = add("walk-oracle", "exact confinement probability of a +-1 walk")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--float", action="store_true", dest="as_float",
                   help="report the probability in floating point only")

    p = add("rho-audit", "walk the orbit graph and audit its rho coordinate")
    p.add_argument("--alpha", required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--segments", type=int, default=1000)
    p.add_argument("--q-values", default="7,17")
    p.add_argument("--window", type=int, default=None)

    p = add("bvf-check", "two-sample test that backward and forward laws agree")
    p.add_argument("--dist", required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)

    return parser


# ---- subcommand bodies -----------------------------------------------------


def _cmd_simulate(args) -> str:
    dist = parse_dist(args.dist)
    resolved = {"dist_support": dist.support.tolist(),
                "dist_weights": dist.weights.tolist(), "x0": args.x0,
                "n": args.n, "trials": args.trials, "seed": args.seed,
                "workers": args.workers, "format": args.format}
    if args.dry_run:
        return _dry_run(args, resolved)
    plan = TrialPlan(args.seed, args.trials)
    values = experiments.forward_values(dist, args.x0, args.n, plan,
                                        workers=args.workers)
    if args.format == "csv":
        return rows_to_csv(["trial", "value"], enumerate(values))
    ecdf = experiments.EmpiricalCDF(values)
    ks = experiments.ks_distance(ecdf, stationary_cdf(dist))
    qs = np.quantile(ecdf.values, [0.1, 0.25, 0.5, 0.75, 0.9])
    # execution details (workers, format) stay out of the canonical report
    payload = {k: v for k, v in resolved.items() if k not in ("workers", "format")}
    return canonical_json({"schema": 1, "kind": "simulate", **payload,
                           "ks_to_stationary": ks,
                           "quantiles": {"q10": qs[0], "q25": qs[1], "q50": qs[2],
                                         "q75": qs[3], "q90": qs[4]}})


def _cmd_stationary(args) -> str:
    dist = parse_dist(args.dist)
    resolved = {"dist_support": dist.support.tolist(),
                "dist_weights": dist.weights.tolist(), "eval": args.eval,
                "format": args.format}
    if args.dry_run:
        return _dry_run(args, resolved)
    cdf = stationary_cdf(dist)
    if args.eval is not None:
        return repr(float(cdf.evaluate(args.eval))) + "\n"
    return cdf.to_csv() if args.format == "csv" else cdf.to_json()


def _cmd_orbit(args) -> str:
    alpha = parse_alpha(args.alpha)
    resolved = {"alpha": alpha, "x": args.x, "window": args.window,
                "format": args.format}
    if args.dry_run:
        return _dry_run(args, resolved)
    graph = orbit.build_graph_window(alpha, args.x, args.window)
    if args.format == "dot":
        return graph.to_dot()
    if args.format == "json":
        stats = orbit.structure_stats(graph)
        return canonical_json({"schema": 1, "kind": "orbit_structure", **resolved,
                               **stats,
                               "coincidences": [[str(a), str(b)]
                                                for a, b in graph.coincidences]})
    rows = []
    for i in range(graph.size):
        lab = graph.label_at(i)
        rows.append((lab.n, lab.eps, graph.values[i],
                     orbit.VertexClass(int(graph.classes[i])).name.lower()))
    return rows_to_csv(["n", "eps", "value", "class"], rows)


def _cmd_contfrac(args) -> str:
    alpha = parse_alpha(args.alpha)
    resolved = {"alpha": alpha, "terms": args.terms, "format": args.format}
    if args.dry_run:
        return _dry_run(args, resolved)
    cs = convergents(contfrac_expand(alpha, args.terms))
    rows = [(c.index, c.a, c.p, c.q, abs(alpha - c.p / c.q) * 2 * c.q ** 2)
            for c in cs]
    if args.format == "json":
        return canonical_json({"schema": 1, "kind": "contfrac", **resolved,
                               "quotients": [c.a for c in cs],
                               "convergents": [{"n": c.index, "p": c.p, "q": c.q}
                                               for c in cs]})
    return rows_to_csv(["n", "a_n", "p_n", "q_n", "err_times_2q2"], rows)


def _cmd_closek(args) -> str:
    alpha = parse_alpha(args.alpha)
    resolved = {"alpha": alpha, "x": args.x, "qn": args.qn, "format": args.format}
    if args.dry_run:
        return _dry_run(args, resolved)
    hit = find_close_k(alpha, args.x, args.qn)
    if args.format == "csv":
        return rows_to_csv(["k", "value", "bound"],
                           [(hit["k"], hit["value"], 1.5 / args.qn)])
    return canonical_json({"schema": 1, "kind": "closek", **resolved,
                           "k": hit["k"], "value": hit["value"],
                           "bound": 1.5 / args.qn})


def _cmd_shrinkword(args) -> str:
    alpha = parse_alpha(args.alpha)
    resolved = {"alpha": alpha, "beta": args.beta, "m": args.m,
                "threshold": args.threshold, "max_len": args.max_len,
                "format": args.format}
    if args.dry_run:
        return _dry_run(args, resolved)
    word = orbit.shrink_word(alpha, args.beta, args.m, args.threshold,
                             max_len=args.max_len)
    final = float(iterate_forward(word, args.m)[-1])
    if args.format == "csv":
        return rows_to_csv(["position", "letter"], enumerate(word))
    return canonical_json({"schema": 1, "kind": "shrink_word", **resolved,
                           "word": list(word), "length": len(word),
                           "replay_final": final})


def _cmd_rate(args) -> str:
    alpha = parse_alpha(args.alpha)
    qs = convergents(contfrac_expand(alpha, 40))
    k_index = next((c.index for c in qs if c.q == args.qk), None)
    if k_index is None:
        raise PreconditionError(f"{args.qk} is not a convergent denominator of alpha")
    resolved = {"alpha": alpha, "qk": args.qk, "k_index": k_index,
                "eps": args.eps, "trials": args.trials, "seed": args.seed,
                "workers": args.workers, "format": args.format,
                "n_steps": experiments.rate_steps(args.qk)}
    if args.dry_run:
        return _dry_run(args, resolved)
    plan = TrialPlan(args.seed, args.trials)
    report = experiments.rate_experiment(alpha, k_index, args.eps, plan,
                                         workers=args.workers)
    return report.to_csv() if args.format == "csv" else report.to_json()


def _allow_int_digits(digits: int) -> None:
    """Let str() and int() convert integers of up to `digits` digits.

    Python 3.10.7 and later cap these conversions (4300 digits by default).
    The cap is only ever raised, and it stays raised, so that a caller in the
    same process can parse a printed value back with int().
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return
    limit = get_limit()
    if limit and limit < digits:
        sys.set_int_max_str_digits(digits)


def _cmd_walk_oracle(args) -> str:
    resolved = {"n": args.n, "float": args.as_float}
    if args.dry_run:
        return _dry_run(args, resolved)
    p = experiments.walk_confinement_dp(args.n, exact=True)
    payload = {"schema": 1, "kind": "walk_oracle", "n": args.n,
               "horizon": args.n ** 3, "probability": float(p)}
    if not args.as_float:
        # numerator < denominator = 2^k, of at most floor(k log10 2) + 1 digits
        _allow_int_digits(p.denominator.bit_length() * 30103 // 100000 + 1)
        payload["numerator"] = str(p.numerator)
        payload["denominator"] = str(p.denominator)
    return canonical_json(payload)


def _cmd_rho_audit(args) -> str:
    alpha = parse_alpha(args.alpha)
    q_values = tuple(int(tok) for tok in args.q_values.split(","))
    resolved = {"alpha": alpha, "x0": args.x0, "steps": args.steps,
                "seed": args.seed, "segments": args.segments,
                "q_values": list(q_values), "window": args.window}
    if args.dry_run:
        return _dry_run(args, resolved)
    plan = TrialPlan(args.seed, trials=1, steps=args.steps)
    report = experiments.rho_walk_audit(alpha, args.x0, args.steps, plan,
                                        q_values=q_values,
                                        segments=args.segments,
                                        window=args.window)
    return canonical_json(report)


def _cmd_bvf_check(args) -> str:
    dist = parse_dist(args.dist)
    resolved = {"dist_support": dist.support.tolist(),
                "dist_weights": dist.weights.tolist(), "x0": args.x0,
                "n": args.n, "trials": args.trials, "seed": args.seed,
                "workers": args.workers}
    if args.dry_run:
        return _dry_run(args, resolved)
    report = experiments.law_equality_report(dist, args.x0, args.n, args.trials,
                                             args.seed, workers=args.workers)
    return canonical_json(report)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "stationary": _cmd_stationary,
    "orbit": _cmd_orbit,
    "contfrac": _cmd_contfrac,
    "closek": _cmd_closek,
    "shrinkword": _cmd_shrinkword,
    "rate": _cmd_rate,
    "walk-oracle": _cmd_walk_oracle,
    "rho-audit": _cmd_rho_audit,
    "bvf-check": _cmd_bvf_check,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        _check_out(args.out)
        _write(_COMMANDS[args.command](args), args.out)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructuralError as exc:
        print(f"structural failure: {exc}", file=sys.stderr)
        return 3
    return 0


def console_entry():
    raise SystemExit(run())


if __name__ == "__main__":
    console_entry()
