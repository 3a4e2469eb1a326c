"""Command-line front end.

Every experiment is reachable as a subcommand with an explicit seed, so any
output is reproducible byte for byte from its command line. Exit codes:
0 success, 1 usage (including a malformed literal), 2 precondition violation
(bad values, including non-finite numbers and an --out path that cannot be
written), 3 structural/guarantee failure.

The subcommands are the rows of one table, COMMANDS. A row lists its options,
each of a kind that fixes its syntax (parsed by argparse) and its value check
(applied after parsing), a resolve step that gives the configuration --dry-run
prints as canonical JSON, a check step that applies the range checks of the
library function the row calls, and a compute step that turns the
configuration into the report text. run() does the common work once for every
row; --dry-run stops before the compute step, so it refuses exactly what a
real run refuses, with the same message.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import experiments, orbit
from .contfrac import (check_close_k, check_contfrac, contfrac_expand, convergents,
                       find_close_k)
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
        try:
            point, weight = map(float, token.split(":"))
        except ValueError:
            raise PreconditionError(f"bad distribution token {token!r}; want point:weight")
        support.append(point)
        weights.append(weight)
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


def _dry_run(name: str, resolved: dict) -> str:
    return canonical_json({"schema": 1, "kind": "dry_run", "subcommand": name, **resolved})


def int_list(text: str) -> tuple:
    """Comma-separated integer literals; a malformed one is a usage error."""
    return tuple(int(tok) for tok in text.split(","))


# ---- the subcommand table --------------------------------------------------

REQUIRED = object()  # Arg default of an option that must be given

_SYNTAX = {"int": int, "float": float, "ints": int_list}


@dataclass(frozen=True)
class Arg:
    """One option of a subcommand.

    kind is int, float (finite), ints (integers, comma-separated),
    alpha (see parse_alpha), dist (see parse_dist), choice or switch.
    """

    flag: str
    kind: str = "int"
    default: object = REQUIRED
    choices: tuple = ()
    help: str | None = None

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


def _format(*choices: str, default: str | None = None) -> Arg:
    return Arg("--format", "choice", default or choices[0], choices)


# kept so that existing command lines still run; --dry-run echoes it
_WORKERS = Arg("--workers", default=1,
               help="accepted in 1..64 and unused: every run uses one thread")


def _options(args) -> dict:
    """The checked option values by name; a distribution gives its support and weights."""
    resolved = {k: v for k, v in vars(args).items()
                if k not in ("command", "out", "dry_run")}
    dist = resolved.pop("dist", None)
    if dist is not None:
        resolved.update(dist_support=dist.support.tolist(),
                        dist_weights=dist.weights.tolist())
    return resolved


def _no_check(args) -> None:
    pass


@dataclass(frozen=True)
class Command:
    """One subcommand: its options, its resolve, check and compute steps.

    resolve maps the checked options to the configuration --dry-run prints;
    check applies the range checks of the library function that computes,
    which is also where that function keeps them, so --dry-run refuses what
    the real run refuses, with the same message; compute maps the options
    and the configuration to the report text.
    """

    name: str
    help: str
    args: tuple[Arg, ...]
    compute: Callable[[argparse.Namespace, dict], str]
    resolve: Callable[[argparse.Namespace], dict] = _options
    check: Callable[[argparse.Namespace], None] = _no_check


def _simulate(a, resolved) -> str:
    values = experiments.forward_values(a.dist, a.x0, a.n, TrialPlan(a.seed, a.trials))
    if a.format == "csv":
        return rows_to_csv(["trial", "value"], values)
    ecdf = experiments.EmpiricalCDF(values)
    ks = experiments.ks_distance(ecdf, stationary_cdf(a.dist))
    qs = np.quantile(ecdf.values, [0.1, 0.25, 0.5, 0.75, 0.9])
    # execution details (workers, format) stay out of the canonical report
    payload = {k: v for k, v in resolved.items() if k not in ("workers", "format")}
    return canonical_json({"schema": 1, "kind": "simulate", **payload,
                           "ks_to_stationary": ks,
                           "quantiles": {"q10": qs[0], "q25": qs[1], "q50": qs[2],
                                         "q75": qs[3], "q90": qs[4]}})


def _stationary(a, resolved) -> str:
    cdf = stationary_cdf(a.dist)
    if a.eval is not None:
        return repr(float(cdf.evaluate(a.eval))) + "\n"
    return cdf.to_csv() if a.format == "csv" else cdf.to_json()


def _orbit(a, resolved) -> str:
    graph = orbit.build_graph_window(a.alpha, a.x, a.window)
    if a.format == "dot":
        return graph.to_dot()
    if a.format == "json":
        return canonical_json({"schema": 1, "kind": "orbit_structure", **resolved,
                               **orbit.structure_stats(graph),
                               "coincidences": [[str(p), str(q)]
                                                for p, q in graph.coincidences]})
    return graph.to_csv()


def _check_orbit(a) -> None:
    orbit.check_graph_window(a.alpha, a.x, a.window)
    if a.format == "json":
        orbit.check_margin(a.window)


def _contfrac(a, resolved) -> str:
    cs = convergents(contfrac_expand(a.alpha, a.terms))
    if a.format == "json":
        return canonical_json({"schema": 1, "kind": "contfrac", **resolved,
                               "quotients": [c.a for c in cs],
                               "convergents": [{"n": c.index, "p": c.p, "q": c.q}
                                               for c in cs]})
    return rows_to_csv(["n", "a_n", "p_n", "q_n", "err_times_2q2"],
                       [(c.index, c.a, c.p, c.q, abs(a.alpha - c.p / c.q) * 2 * c.q ** 2)
                        for c in cs])


def _closek(a, resolved) -> str:
    hit = find_close_k(a.alpha, a.x, a.qn)
    if a.format == "csv":
        return rows_to_csv(["k", "value", "bound"], [(hit["k"], hit["value"], 1.5 / a.qn)])
    return canonical_json({"schema": 1, "kind": "closek", **resolved,
                           "k": hit["k"], "value": hit["value"], "bound": 1.5 / a.qn})


def _shrinkword(a, resolved) -> str:
    word = orbit.shrink_word(a.alpha, a.beta, a.m, a.threshold, max_len=a.max_len)
    if a.format == "csv":
        return rows_to_csv(["position", "letter"], enumerate(word))
    return canonical_json({"schema": 1, "kind": "shrink_word", **resolved,
                           "word": list(word), "length": len(word),
                           "replay_final": float(iterate_forward(word, a.m)[-1])})


def _rate_plan(a) -> dict:
    k_index = next((c.index for c in convergents(contfrac_expand(a.alpha, 40), a.qk)
                    if c.q == a.qk), None)
    if k_index is None:
        raise PreconditionError(f"{a.qk} is not a convergent denominator of alpha")
    return {**_options(a), "k_index": k_index, "n_steps": experiments.rate_steps(a.qk)}


def _rate(a, resolved) -> str:
    report = experiments.rate_experiment(a.alpha, resolved["k_index"], a.eps,
                                         TrialPlan(a.seed, a.trials))
    return report.to_csv() if a.format == "csv" else report.to_json()


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


def _walk_oracle(a, resolved) -> str:
    h = a.n ** 3
    count = experiments._walk_count(a.n)  # of the 2^h paths; a.n is checked
    payload = {"schema": 1, "kind": "walk_oracle", "n": a.n,
               "horizon": h, "probability": count / (1 << h)}
    if not a.float:
        # count / 2^h in lowest terms: 0 < count <= 2^h, so v <= h
        v = (count & -count).bit_length() - 1  # the trailing zeros of count
        # numerator <= denominator = 2^k, of at most floor(k log10 2) + 1 digits
        _allow_int_digits((h - v + 1) * 30103 // 100000 + 1)
        payload["numerator"] = str(count >> v)
        payload["denominator"] = str(1 << (h - v))
    return canonical_json(payload)


def _rho_audit(a, resolved) -> str:
    return canonical_json(experiments.rho_walk_audit(
        a.alpha, a.x0, a.steps, TrialPlan(a.seed, trials=1), q_values=a.q_values,
        segments=a.segments, window=a.window))


def _bvf_check(a, resolved) -> str:
    return canonical_json(experiments.law_equality_report(
        a.dist, a.x0, a.n, a.trials, a.seed))


COMMANDS = {row.name: row for row in (
    Command("simulate", "forward-iterate an ensemble and compare to the stationary law",
            (Arg("--dist", "dist"), Arg("--x0", "float"), Arg("--n"), Arg("--trials"),
             Arg("--seed"), _WORKERS, _format("json", "csv")),
            _simulate,
            check=lambda a: experiments.check_forward_values(a.x0, a.n, a.trials)),
    Command("stationary", "evaluate or export the exact stationary CDF",
            (Arg("--dist", "dist"),
             Arg("--eval", "float", None,
                 help="print the CDF at this point instead of exporting"),
             _format("json", "csv", default="csv")),
            _stationary),
    Command("orbit", "build an orbit graph window and export it",
            (Arg("--alpha", "alpha"), Arg("--x", "float"),
             Arg("--window", default=orbit.DEFAULT_WINDOW),
             _format("dot", "json", "csv")),
            _orbit, check=_check_orbit),
    Command("contfrac", "partial quotients and convergents of alpha",
            (Arg("--alpha", "alpha"), Arg("--terms", default=20), _format("csv", "json")),
            _contfrac, check=lambda a: check_contfrac(a.alpha, a.terms)),
    Command("closek", "smallest k with <x - k*alpha> below 3/(2 q_n)",
            (Arg("--alpha", "alpha"), Arg("--x", "float"), Arg("--qn"),
             _format("json", "csv")),
            _closek, check=lambda a: check_close_k(a.alpha, a.x, a.qn)),
    Command("shrinkword", "shortest fold word over {alpha, beta} below a threshold",
            (Arg("--alpha", "alpha"), Arg("--beta", "float", 1.0), Arg("--m", "float"),
             Arg("--threshold", "float"), Arg("--max-len", default=256),
             _format("json", "csv")),
            _shrinkword,
            check=lambda a: orbit.check_shrink_word(a.alpha, a.beta, a.m, a.threshold,
                                                    a.max_len)),
    Command("rate", "backward-contraction rate experiment at one convergent",
            (Arg("--alpha", "alpha"),
             Arg("--qk", help="convergent denominator q_k of alpha"),
             Arg("--eps", "float"), Arg("--trials"), Arg("--seed"),
             _WORKERS, _format("json", "csv")),
            _rate, _rate_plan,
            check=lambda a: experiments.check_rate(a.qk, a.eps, a.trials)),
    Command("walk-oracle", "exact confinement probability of a +-1 walk",
            (Arg("--n"),
             Arg("--float", "switch", False,
                 help="report the probability in floating point only")),
            _walk_oracle, check=lambda a: experiments.check_walk_confinement(a.n)),
    Command("rho-audit", "walk the orbit graph and audit its rho coordinate",
            (Arg("--alpha", "alpha"), Arg("--x0", "float"), Arg("--steps"), Arg("--seed"),
             Arg("--segments", default=1000), Arg("--q-values", "ints", "7,17"),
             Arg("--window", default=None)),
            _rho_audit,
            check=lambda a: experiments.check_rho_walk(a.alpha, a.x0, a.steps, a.segments,
                                                       a.window, a.q_values)),
    Command("bvf-check", "two-sample test that backward and forward laws agree",
            (Arg("--dist", "dist"), Arg("--x0", "float"), Arg("--n"), Arg("--trials"),
             Arg("--seed"), _WORKERS),
            _bvf_check,
            check=lambda a: experiments.check_forward_values(a.x0, a.n, a.trials)),
)}


@functools.cache
def _build_parser() -> _Parser:
    """The parser of every row, built once a process: parsing leaves it unchanged."""
    parser = _Parser(prog="foldmap",
                     description="Random folding maps: simulation and structure experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for row in COMMANDS.values():
        p = sub.add_parser(row.name, help=row.help)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--dry-run", action="store_true",
                       help="print resolved config as JSON and exit")
        for arg in row.args:
            if arg.kind == "switch":
                p.add_argument(arg.flag, action="store_true", help=arg.help)
            else:
                required = arg.default is REQUIRED
                p.add_argument(arg.flag, type=_SYNTAX.get(arg.kind), required=required,
                               default=None if required else arg.default,
                               choices=arg.choices or None, help=arg.help)
    return parser


_CONVERT = {"alpha": parse_alpha, "dist": parse_dist}


def _check_values(row: Command, args) -> None:
    """Check the parsed option values and convert --alpha and --dist, in place;
    a float of -0.0 is stored as 0.0, so it computes and prints as 0.0 does.

    These checks raise PreconditionError (exit 2) rather than run as argparse
    type= callables, which would turn them into usage errors (exit 1).
    """
    for arg in row.args:
        value = getattr(args, arg.dest)
        if arg.kind == "float" and value is not None:
            if not math.isfinite(value):
                raise PreconditionError(f"{arg.dest} must be finite")
            setattr(args, arg.dest, value + 0.0)
        if arg is _WORKERS and not 1 <= value <= 64:
            raise PreconditionError("workers must lie in 1..64")
        if arg.kind in _CONVERT:
            setattr(args, arg.dest, _CONVERT[arg.kind](value))


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    row = COMMANDS[args.command]
    try:
        _check_values(row, args)
        _check_out(args.out)
        resolved = row.resolve(args)
        row.check(args)
        text = _dry_run(row.name, resolved) if args.dry_run else row.compute(args, resolved)
        _write(text, args.out)
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
