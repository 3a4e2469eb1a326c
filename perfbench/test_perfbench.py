"""Self-tests of the benchmark harness on toy job lists.

    python3 -m pytest -q perfbench

They check the harness, not foldmap: every declared metric is printed with
its unit, failing operations are counted, self times add up, and a copy of
the benchmark without the package sources refuses to run.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run

run.import_foldmap()

import foldmap  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def toy_jobs(seed, small=False):
    """Single-threaded toy job list touching the cli, experiments and serialize layers."""
    sim = ["simulate", "--dist", "two-point:inv-sqrt2", "--x0", 0.2, "--n", 20,
           "--trials", 300, "--seed", 101 + seed]
    return [
        workloads.cli_op("walk-oracle", ["walk-oracle", "--n", 5],
                         workloads._walk_ok(5), "walk_oracle_s"),
        workloads.cli_op("simulate-w1", sim, workloads._simulate_ok(300, 20), "simulate_s"),
        workloads.cli_op("simulate-csv", sim + ["--format", "csv"],
                         workloads._csv_matches("simulate-w1", 300), "simulate_s"),
    ]


def boom():
    raise RuntimeError("injected failure")


def test_declared_workloads_exist():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.LEAD_COMMAND) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section, units", [
    (0, "end_to_end", run.END_TO_END), (1, "per_layer", run.PER_LAYER)])
def test_every_declared_metric_printed_with_unit(trace, section, units, monkeypatch,
                                                  tmp_path, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, "mc_law", toy_jobs)
    monkeypatch.setitem(workloads.LEAD_COMMAND, "mc_law", "walk_oracle_s")
    assert run.main(["--workload", "mc_law", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert declared == units
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {ln.split()[0]: ln.split()[2] for ln in lines[:-1] if not ln.startswith("#")}
    for name, unit in declared.items():
        assert printed[name] == unit
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_injected_failing_op_raises_fail_frac():
    ops = toy_jobs(0)
    clean = run.run_pass(ops)
    bad = run.run_pass(ops + [workloads.Op("boom", boom, lambda out, outputs: None)])
    wrong = run.run_pass(ops + [workloads.Op("wrong", lambda: 1, lambda out, outputs: "no")])
    assert (clean["failed"], bad["failed"], wrong["failed"]) == (0, 1, 1)
    assert (clean["wrong"], bad["wrong"], wrong["wrong"]) == (0, 0, 1)
    assert run.end_to_end([clean], 1.0, 1.0, "simulate_s")["ok_frac"] == 1.0
    assert run.end_to_end([bad], 1.0, 1.0, "simulate_s")["ok_frac"] == pytest.approx(0.75)


def test_gated_times_scale_with_host_probe():
    rec = run.run_pass(toy_jobs(0))
    at_ref = run.end_to_end([rec], 1.0, run.PROBE_REF_S, "simulate_s")
    slow_host = run.end_to_end([rec], 1.0, 2 * run.PROBE_REF_S, "simulate_s")
    assert at_ref["wall_norm_s"] == pytest.approx(rec["wall"])
    assert slow_host["wall_norm_s"] == pytest.approx(rec["wall"] / 2)
    assert slow_host["lead_cmd_norm_s"] == pytest.approx(at_ref["lead_cmd_norm_s"] / 2)


def test_span_self_times_sum_to_traced_total():
    ops = toy_jobs(0)
    tracer = spans.Tracer()
    with tracer.installed():
        rec = run.run_pass(ops, tracer)
    assert rec["failed"] == 0 and not tracer.missing
    summary, = tracer.summarize([rec["roots"]])
    roots = sum(v["total_s"] for k, v in summary.items() if k.startswith("job."))
    assert sum(v["self_s"] for v in summary.values()) == pytest.approx(roots, rel=1e-9)
    assert roots == pytest.approx(rec["wall"], rel=0.01)
    assert summary["cli.run"]["calls"] == 3
    assert summary["experiments.walk_confinement_dp"]["calls"] == 1
    assert summary["serialize.rows_to_csv"]["calls"] == 1
    assert tracer.counters["serialize.rows_to_csv.bytes"] == len(ops[2].run())
    # two simulate jobs of 300 trials x 20 letters, counted where they are drawn
    assert tracer.counters["process.uniforms_drawn"] == 12000
    assert tracer.counters["process.letters_applied"] == 12000
    assert run.trace_problems(tracer) == []


def traced_toy_run(monkeypatch, tmp_path, capsys, jobs):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, "mc_law", jobs)
    monkeypatch.setitem(workloads.LEAD_COMMAND, "mc_law", "walk_oracle_s")
    assert run.main(["--workload", "mc_law", "--seconds", "0.1", "--trace", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    return json.loads(out[-1]), out


def test_missing_trace_site_marks_run_incorrect(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(spans, "SITES", spans.SITES + [
        ("process.renamed_away", "foldmap.process", "renamed_away")])
    result, out = traced_toy_run(monkeypatch, tmp_path, capsys, toy_jobs)
    assert result["correct"] is False and result["failed"] == 0
    assert any("trace site not found: process.renamed_away" in ln for ln in out)


def test_untraced_work_marks_run_incorrect(monkeypatch, tmp_path, capsys):
    def jobs(seed, small=False):
        busy = workloads.Op("busy", lambda: sum(range(300_000)), lambda out, outputs: None)
        return toy_jobs(seed) + [busy]
    result, out = traced_toy_run(monkeypatch, tmp_path, capsys, jobs)
    assert result["correct"] is False and result["failed"] == 0
    assert any("of job.busy" in ln for ln in out)


def test_uninstall_restores_every_binding():
    originals = (foldmap.experiments.forward_values, foldmap.cli.canonical_json,
                 foldmap.TrialPlan.substream, foldmap.experiments.EmpiricalCDF.__init__)
    with spans.Tracer().installed():
        assert foldmap.experiments.forward_values is not originals[0]
        assert foldmap.cli.canonical_json is not originals[1]
    assert (foldmap.experiments.forward_values, foldmap.cli.canonical_json,
            foldmap.TrialPlan.substream,
            foldmap.experiments.EmpiricalCDF.__init__) == originals


def test_self_times_subtract_union_of_overlapping_children():
    own = spans.self_times([0, 1, 2, 7], [10, 4, 5, 8], [-1, 0, 0, 0])
    assert own.tolist() == [5.0, 3.0, 3.0, 1.0]


def test_walk_oracle_check_is_independent_and_exact():
    for n in range(1, 9):
        assert workloads.walk_confinement_count(n) == foldmap.walk_confinement_dp(n)
    check = workloads._walk_ok(3)
    good = workloads.walk_confinement_count(3)
    assert check(json.dumps({"numerator": str(good.numerator),
                             "denominator": str(good.denominator)}), {}) is None
    off = good + Fraction(1, good.denominator)
    assert check(json.dumps({"numerator": str(off.numerator),
                             "denominator": str(off.denominator)}), {}) is not None


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                           "mc_law", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout
