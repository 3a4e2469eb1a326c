"""Benchmark of the foldmap package, run from the root of a source checkout.

    python3 perfbench/run.py --workload mc_law --seed 0 --seconds 40 --trace 0

One process is one closed-loop client: it runs the workload's job list (see
workloads.py) in passes back to back for --seconds. After each job it times
a host probe, a fixed piece of work that uses no foldmap code, and after each
pass one fresh-interpreter import (set-up time). The speed of a shared host
drifts by a quarter over minutes, so the gated times are scaled to a fixed
host speed: mean pass time x PROBE_REF_S / mean probe time, both means over
the same stretch of the run. Raw medians are printed and recorded beside
them. foldmap is imported from ./src, never from an installed copy.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced passes and reports the per-layer metrics: calls and self time of each
layer's public functions, work counters, and the tracing overhead. Spans and a
result record (with the machine description) are written to
.bench_build/perfbench/ when the run ends. The last line of standard output is
the JSON result; the lines before it are the same numbers for people.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict, deque
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

END_TO_END = {
    "wall_norm_s": "s",
    "cpu_norm_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
    "lead_cmd_norm_s": "s",
}

LAYER_FUNCTIONS = [
    "process.substream", "process.theta_from_uniform", "process.fold_interval_arrays",
    "stationary.sample_stationary",
    "orbit.build_graph_window", "orbit.rho_chart", "orbit.structure_stats",
    "orbit.to_dot", "orbit.apply_theta_label",
    "contfrac.contfrac_expand", "contfrac.find_close_k",
    "experiments.law_equality_report", "experiments.forward_values",
    "experiments.one_step_invariance_report", "experiments.ks_distance",
    "experiments.EmpiricalCDF", "experiments.backward_diam_ensemble",
    "experiments.rate_experiment", "experiments.walk_confinement_dp",
    "experiments.rho_walk_audit",
    "serialize.canonical_json", "serialize.rows_to_csv",
    "cli.run",
]

PER_LAYER = {
    **{f"{fn}.{kind}": unit for fn in LAYER_FUNCTIONS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "process.uniforms_drawn": "count",
    "process.letters_applied": "count",
    "experiments.rate.letters_used_frac": "frac",
    "experiments.rate.letters_used_p50": "count",
    "experiments.rate.letters_used_max": "count",
    "experiments.forward_values.w1_s": "s",
    "experiments.forward_values.w2_s": "s",
    "orbit.vertices": "count",
    "orbit.bfs_depth": "count",
    "orbit.coincidences": "count",
    "serialize.canonical_json.bytes": "bytes",
    "serialize.rows_to_csv.bytes": "bytes",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}

SETUP_MIN_SAMPLES = 9
# about the mean host_probe() time on the host that defined the benchmark
# (2-core Intel Xeon, Python 3.11.7, numpy 2.4.6); gated times are scaled to it
PROBE_REF_S = 0.05
# Share of each traced job that its layer spans (cli.run or the library calls)
# must cover; a job that runs outside every traced site covers 0. Not higher:
# the find_close_k grid makes 60006 calls of about 3 us each, so the wrappers'
# own cost and the benchmark's loop leave about 48 % of its traced time
# outside the spans.
COVERAGE_MIN = 0.5


def import_foldmap():
    """Import foldmap from the checkout's src/, or exit nonzero."""
    if not (SRC / "foldmap" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no foldmap sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import foldmap
    if Path(foldmap.__file__).resolve().parent != SRC / "foldmap":
        raise SystemExit(f"perfbench: imported foldmap from {foldmap.__file__}, not {SRC}")
    return foldmap


def machine(seed: int) -> dict:
    info = {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "cpu_model": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "seed": seed}
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        if models:
            info["cpu_model"] = models[0]
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}{'d' if level == '1' else ''}_cache"] = size
    return info


def setup_timer():
    """A function giving one time from spawning a fresh interpreter until
    `import foldmap` returns; one untimed spawn first warms file caches."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            "import foldmap; print(repr(time.monotonic()))")
    cmd = [sys.executable, "-c", code]
    subprocess.run(cmd, check=True, capture_output=True, cwd=ROOT)

    def sample() -> float:
        t0 = time.monotonic()
        done = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=ROOT)
        return float(done.stdout) - t0

    return sample


def host_probe() -> float:
    """Seconds for a fixed piece of work that uses no foldmap code: a BFS over
    a list-of-lists graph, numpy draws, sort and search, and PCG64 set-up."""
    t0 = time.perf_counter()
    n = 10_000
    adj = [[(i + 1) % n, (i - 1) % n, (i * 7) % n] for i in range(n)]
    dist = [-1] * n
    dist[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    u = np.random.Generator(np.random.PCG64(0)).random(100_000)
    np.searchsorted(np.sort(u), np.abs(0.5 - u))
    for i in range(1000):
        np.random.Generator(np.random.PCG64(i)).random(8)
    return time.perf_counter() - t0


def run_pass(ops, tracer=None, after_op=None) -> dict:
    """Run the job list once; times cover op.run() only, not the checks.
    after_op() runs after each job, outside its time."""
    rec = {"wall": 0.0, "cpu": 0.0, "attempted": 0, "failed": 0, "wrong": 0,
           "errors": [], "ops": {}, "groups": {}, "bytes_out": 0,
           "counts": defaultdict(int), "lists": defaultdict(list), "roots": []}
    outputs = {}
    for op in ops:
        root = tracer.open_root(op.name) if tracer else None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            out, error = None, f"{type(exc).__name__}: {str(exc)[:300]}"
        dt, dc = time.perf_counter() - t0, time.process_time() - c0
        if tracer:
            tracer.close(root)
            rec["roots"].append(tracer.run_id)
        rec["wall"] += dt
        rec["cpu"] += dc
        rec["ops"][op.name] = dt
        rec["groups"][op.name] = op.group
        rec["attempted"] += 1
        if after_op is not None:
            after_op()
        if error is None:
            reason = op.check(out, outputs)
            if reason is not None:
                rec["wrong"] += 1
                error = f"wrong output: {reason}"
        if error is not None:
            rec["failed"] += 1
            rec["errors"].append(f"{op.name}: {error}")
            continue
        outputs[op.name] = out
        if op.is_cli:
            rec["bytes_out"] += len(out)
        for key, value in op.tally(out).items():
            if isinstance(value, list):
                rec["lists"][key].extend(value)
            else:
                rec["counts"][key] += value
    return rec


def warm_up(ops):
    """Run every job once at toy size so lazy set-up finishes before timing."""
    for op in ops:
        try:
            op.run()
        except Exception:  # warm-up outputs are discarded; failures show when timed
            pass


def measure(ops, seconds: float, tracer=None, between=None, after_op=None) -> list[dict]:
    """Run whole passes back to back, stopping nearest to `seconds` of passes.

    With a tracer, untraced and traced passes alternate, starting untraced,
    and at least one of each runs. between() runs after every pass and
    after_op() after every job.
    """
    passes = []
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()  # every pass starts from the same heap state
        t0 = time.perf_counter()
        if traced:
            tracer.counters.clear()
            with tracer.installed():
                rec = run_pass(ops, tracer, after_op)
            rec["counters"] = dict(tracer.counters)
        else:
            rec = run_pass(ops, after_op=after_op)
        rec["traced"] = traced
        rec["elapsed"] = time.perf_counter() - t0
        passes.append(rec)
        if between is not None:
            between()
        typical = statistics.median(p["elapsed"] for p in passes)
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - begin + typical / 2 > seconds:
            return passes


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def command_times(passes) -> dict:
    """Median per-pass time of each subcommand group, e.g. rate_s."""
    groups = passes[0]["groups"]
    return {group: statistics.median(
                sum(t for name, t in p["ops"].items() if groups[name] == group)
                for p in passes)
            for group in sorted({g for g in groups.values() if g})}


def raw_times(passes, lead: str) -> dict:
    """Median pass wall and CPU time and the lead subcommand's time, unscaled."""
    return {"wall_s": _median(passes, "wall"), "cpu_s": _median(passes, "cpu"),
            "lead_cmd_s": command_times(passes)[lead]}


def end_to_end(passes, setup_s: float, probe_s: float, lead: str) -> dict:
    """probe_s is the mean probe time over the passes; the scaled times are
    means too, since a pass averages the host's speed over its length."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    scale = PROBE_REF_S / probe_s
    return {
        "wall_norm_s": statistics.fmean(p["wall"] for p in passes) * scale,
        "cpu_norm_s": statistics.fmean(p["cpu"] for p in passes) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "ok_frac": 1.0 - failed / attempted,
        "lead_cmd_norm_s": statistics.fmean(
            sum(t for name, t in p["ops"].items() if p["groups"][name] == lead)
            for p in passes) * scale,
    }


def trace_problems(tracer) -> list[str]:
    """Why the trace cannot be trusted: sites the package no longer has, or
    jobs whose time the layer spans do not cover."""
    problems = [f"trace site not found: {name}" for name in tracer.missing]
    for job, seconds, share in tracer.job_coverage():
        if share < COVERAGE_MIN:
            problems.append(f"layer spans cover {share:.1%} of {job} ({seconds:.3f} s), "
                            f"want {COVERAGE_MIN:.0%}")
    return sorted(set(problems))


def layer_metrics(tracer, plain, traced) -> dict:
    """Per-layer metrics: medians over traced passes."""
    per_pass = []
    summaries = tracer.summarize([rec["roots"] for rec in traced])
    for rec, summary in zip(traced, summaries):
        m = {name: 0 for name in PER_LAYER}
        for fn in LAYER_FUNCTIONS:
            m[f"{fn}.calls"] = summary.get(fn, {}).get("calls", 0)
            m[f"{fn}.self_s"] = summary.get(fn, {}).get("self_s", 0.0)
        for key, value in rec["counters"].items():
            m[key] = value
        # letters the rate folds used, as their reports give them
        m["process.letters_applied"] += rec["counts"]["process.letters_applied"]
        used = rec["lists"]["rate.letters_used"]
        if used:
            m["experiments.rate.letters_used_frac"] = (
                sum(used) / rec["counts"]["rate.letter_budget"])
            m["experiments.rate.letters_used_p50"] = statistics.median(used)
            m["experiments.rate.letters_used_max"] = max(used)
        m["cli.bytes_out"] = rec["bytes_out"]
        per_pass.append(m)
    # counts take the lower median so they stay whole numbers
    metrics = {name: (statistics.median_low if unit in ("count", "bytes") else
                      statistics.median)(m[name] for m in per_pass)
               for name, unit in PER_LAYER.items()}
    metrics["trace.overhead_s"] = _median(traced, "wall") - _median(plain, "wall")
    return metrics


def report(metrics: dict, units: dict, correct: bool, attempted: int, failed: int) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                   for k in units}})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_foldmap()
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    info = machine(args.seed)
    print("# machine " + json.dumps(info, sort_keys=True), flush=True)

    setup_sample = setup_timer()
    setup_samples, probe_samples = [setup_sample()], []
    host_probe()  # untimed: first-call allocations
    warm_up(build(args.seed, small=True))
    tracer = spans.Tracer() if args.trace else None
    passes = measure(build(args.seed), args.seconds, tracer,
                     between=lambda: setup_samples.append(setup_sample()),
                     after_op=lambda: probe_samples.append(host_probe()))
    while len(setup_samples) < SETUP_MIN_SAMPLES:
        setup_samples.append(setup_sample())
    setup_s = statistics.median(setup_samples)
    probe_s = statistics.fmean(probe_samples)

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    lead = workloads.LEAD_COMMAND[args.workload]
    e2e = end_to_end(plain, setup_s, probe_s, lead)
    raw = raw_times(plain, lead)
    commands = command_times(plain)
    problems = sorted(set(e for p in passes for e in p["errors"]))
    correct = sum(p["wrong"] for p in passes) == 0
    if tracer:
        metrics = layer_metrics(tracer, plain, traced)
        broken = trace_problems(tracer)
        problems += broken
        correct = correct and not broken
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced passes, "
          f"{attempted} ops attempted, {failed} failed", flush=True)
    for line in problems:
        print(f"# FAILED {line}")
    for name, unit in units.items():
        alias = f"  ({lead}, scaled)" if name == "lead_cmd_norm_s" else ""
        value = metrics[name]
        shown = f"{value:>16.0f}" if float(value).is_integer() else f"{value:>16.6g}"
        print(f"{name:44s} {shown} {unit}{alias}")
    if not tracer:
        print(f"# not gated: raw median times (mean host probe {probe_s:.4g} s, "
              f"reference {PROBE_REF_S} s) and fail_frac")
        for name, value in {**raw, **commands}.items():
            print(f"{name:44s} {value:>16.6g} s")
        print(f"{'fail_frac':44s} {failed / attempted:>16.6g} frac")

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"machine": info, "args": vars(args), "metrics": metrics,
              "setup_samples": setup_samples, "probe_samples": probe_samples,
              "end_to_end_untraced": e2e, "raw_untraced": raw,
              "commands_untraced": commands,
              "problems": problems,
              "passes": [{k: p[k] for k in ("traced", "wall", "cpu", "ops", "failed")}
                         for p in passes]}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer:
        tracer.save(OUT / f"{stem}-spans.npz")
    print(report(metrics, units, correct, attempted, failed), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
