"""Command line interface: exit codes, formats, determinism."""

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction

import pytest

from foldmap import (PreconditionError, TrialPlan, cli, convergents, experiments,
                     forward_values, walk_confinement_dp)
from foldmap.cli import COMMANDS, _build_parser, parse_dist, run
from foldmap.serialize import rows_to_csv

INV_SQRT2 = "0.7071067811865476"
ALPHA_F = math.sqrt(0.5)


def out_of(capsys):
    return capsys.readouterr().out


@pytest.fixture
def int_digit_limit():
    """Restore the interpreter's int/str digit limit, which walk-oracle raises."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python has no int/str digit limit")
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert run([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["walk-oracle", "--n", "2", "--bogus"]) == 1

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "subcommand" in capsys.readouterr().out.lower() or True

    def test_precondition_exit(self, capsys):
        # epsilon below 8/q_k
        code = run(["rate", "--alpha", "inv-sqrt2", "--qk", "17",
                    "--eps", "0.1", "--trials", "2", "--seed", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_convergent_qk(self, capsys):
        assert run(["rate", "--alpha", "inv-sqrt2", "--qk", "5",
                    "--eps", "0.9", "--trials", "2", "--seed", "0"]) == 2

    def test_unknown_preset(self, capsys):
        assert run(["contfrac", "--alpha", "definitely-not-a-preset"]) == 2

    def test_structural_exit_on_rational_orbit(self, capsys):
        code = run(["orbit", "--alpha", "0.87000000000000000", "--x", "0.2",
                    "--window", "50"])
        assert code == 3
        assert "structural failure" in capsys.readouterr().err

    def test_structural_exit_on_lemma_violation(self, capsys):
        code = run(["closek", "--alpha", "0.10000000000000000", "--x", "0.9",
                    "--qn", "2"])
        assert code == 3


    def test_non_finite_x0(self, capsys):
        sim = ["simulate", "--dist", "two-point:inv-sqrt2", "--n", "5",
               "--trials", "10", "--seed", "1"]
        bvf = ["bvf-check", "--dist", "two-point:inv-sqrt2", "--n", "5",
               "--trials", "10", "--seed", "1"]
        for argv in (sim, bvf):
            for x0 in ("nan", "inf", "-0.5"):
                assert run(argv + ["--x0", x0]) == 2
                assert "x0 must be finite" in capsys.readouterr().err
        assert run(sim + ["--x0", "nan", "--dry-run"]) == 2

    def test_out_in_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        assert run(["walk-oracle", "--n", "2", "--out", str(path)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert not path.parent.exists()

    def test_out_is_a_directory(self, capsys, tmp_path):
        assert run(["walk-oracle", "--n", "2", "--out", str(tmp_path)]) == 2
        assert "cannot write" in capsys.readouterr().err


class TestAlphaParsing:
    def test_low_precision_literal_warns(self, capsys):
        assert run(["contfrac", "--alpha", "0.87", "--terms", "3"]) == 0
        assert "significant digits" in capsys.readouterr().err

    def test_preset_does_not_warn(self, capsys):
        assert run(["contfrac", "--alpha", "inv-sqrt2", "--terms", "3"]) == 0
        assert "significant digits" not in capsys.readouterr().err


class TestStationary:
    def test_eval_prints_float(self, capsys):
        assert run(["stationary", "--dist", "two-point:inv-sqrt2",
                    "--eval", INV_SQRT2]) == 0
        assert abs(float(out_of(capsys)) - 0.8284271247461903) < 1e-12

    def test_csv_table(self, capsys):
        assert run(["stationary", "--dist", "0.3:0.5,1.0:0.5"]) == 0
        lines = out_of(capsys).splitlines()
        assert lines[0] == "x,F"
        assert len(lines) >= 3


class TestDryRun:
    def test_resolves_without_computing(self, capsys):
        argv = ["rate", "--alpha", "inv-sqrt2", "--qk", "17", "--eps", "0.5",
                "--trials", "10**6", "--seed", "1", "--dry-run"]
        # bad int literal still caught by argparse before any compute
        assert run(argv) == 1

    def test_rate_plan(self, capsys):
        assert run(["rate", "--alpha", "inv-sqrt2", "--qk", "17", "--eps", "0.5",
                    "--trials", "200", "--seed", "1", "--dry-run"]) == 0
        payload = json.loads(out_of(capsys))
        assert payload["kind"] == "dry_run"
        assert payload["n_steps"] == 160654
        assert payload["k_index"] == 4

    def test_byte_stable(self, capsys):
        argv = ["simulate", "--dist", "two-point:inv-sqrt2", "--x0", "0.2",
                "--n", "100", "--trials", "1000", "--seed", "5", "--dry-run"]
        assert run(argv) == 0
        first = out_of(capsys)
        assert run(argv) == 0
        assert out_of(capsys) == first


class TestSimulate:
    def test_json_report(self, capsys):
        assert run(["simulate", "--dist", "two-point:inv-sqrt2", "--x0", "0.2",
                    "--n", "200", "--trials", "2000", "--seed", "9"]) == 0
        payload = json.loads(out_of(capsys))
        assert payload["schema"] == 1
        assert payload["ks_to_stationary"] < 0.1
        assert 0.0 <= payload["quantiles"]["q10"] <= payload["quantiles"]["q90"] <= 1.0

    def test_csv_rows(self, capsys):
        assert run(["simulate", "--dist", "two-point:inv-sqrt2", "--x0", "0.2",
                    "--n", "10", "--trials", "50", "--seed", "9",
                    "--format", "csv"]) == 0
        lines = out_of(capsys).splitlines()
        assert lines[0] == "trial,value"
        assert len(lines) == 51

    def test_csv_equals_row_rendering(self, capsys):
        argv = ["simulate", "--dist", "0.3:0.25,1.0:0.75", "--x0", "0.6", "--n", "3",
                "--trials", "400", "--seed", "2"]
        assert run(argv + ["--format", "csv"]) == 0
        values = forward_values(parse_dist("0.3:0.25,1.0:0.75"), 0.6, 3, TrialPlan(2, 400))
        assert out_of(capsys) == rows_to_csv(["trial", "value"], enumerate(values.tolist()))

    def test_csv_keeps_negative_zero(self, capsys):
        # the CSV keeps the sign of zero that the fold gives, and a start of
        # -0.0 is stored as +0.0 (as Interval does), so it prints as --x0 0.0
        for n in ("0", "2"):
            outs = []
            for x0 in ("-0.0", "0.0"):
                assert run(["simulate", "--dist", "two-point:inv-sqrt2", "--x0", x0, "--n", n,
                            "--trials", "8", "--seed", "5", "--format", "csv"]) == 0
                outs.append(out_of(capsys))
            assert outs[0] == outs[1] and "-0.0" not in outs[0]
        assert outs[0].splitlines()[:3] == ["trial,value", "0,0.0", "1,0.0"]

    def test_worker_byte_identity(self, capsys, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path, workers in zip(paths, ("1", "3")):
            assert run(["simulate", "--dist", "two-point:inv-sqrt2", "--x0", "0.2",
                        "--n", "100", "--trials", "3000", "--seed", "5",
                        "--workers", workers, "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestOrbit:
    def test_dot_output(self, capsys):
        assert run(["orbit", "--alpha", "inv-sqrt2", "--x", "0.2",
                    "--window", "3"]) == 0
        dot = out_of(capsys)
        assert '"(0,+1)" [label="(0,+1)/Small"];' in dot
        assert '[label="a"]' in dot and '[label="1"]' in dot

    def test_json_structure(self, capsys):
        assert run(["orbit", "--alpha", "inv-sqrt2", "--x", "0.2",
                    "--window", "2000", "--format", "json"]) == 0
        payload = json.loads(out_of(capsys))
        assert payload["q"] == 2
        assert set(payload["run_histogram"]) == {"2", "3"}
        assert abs(payload["measured_ratio"] - math.sqrt(2)) < 0.1

    @pytest.mark.parametrize("alpha, q", [("0.5", 1), ("0.6666666666666666", 2),
                                          ("0.3333333333333333", 2)])
    def test_json_at_rational_alpha(self, capsys, alpha, q):
        # r = 0 up to round-off, so the run ratio has no limit to report; at 2/3
        # the quotient alpha/(1-alpha) is 1.9999999999999996
        assert run(["orbit", "--alpha", alpha, "--x", "0.25", "--window", "5",
                    "--format", "json"]) == 0
        payload = json.loads(out_of(capsys))
        assert payload["q"] == q
        assert set(payload["run_histogram"]) == {str(q)}
        assert payload["expected_ratio"] is None

    def test_csv_vertex_table(self, capsys):
        assert run(["orbit", "--alpha", "inv-sqrt2", "--x", "0.2",
                    "--window", "5", "--format", "csv"]) == 0
        lines = out_of(capsys).splitlines()
        assert lines[0] == "n,eps,value,class"
        assert len(lines) == 2 * (2 * 5 + 1) + 1


class TestContfrac:
    def test_csv_error_column_bounded(self, capsys):
        assert run(["contfrac", "--alpha", "inv-sqrt2", "--terms", "12"]) == 0
        lines = out_of(capsys).splitlines()
        assert lines[0] == "n,a_n,p_n,q_n,err_times_2q2"
        for line in lines[2:]:  # the 0/1 convergent is off the scale
            assert float(line.split(",")[4]) < 1.0

    def test_json_quotients(self, capsys):
        assert run(["contfrac", "--alpha", "golden-conj", "--terms", "6",
                    "--format", "json"]) == 0
        assert json.loads(out_of(capsys))["quotients"] == [0, 1, 1, 1, 1, 1, 1]


class TestCloseK:
    def test_json_hit(self, capsys):
        assert run(["closek", "--alpha", "inv-sqrt2", "--x", "0.5",
                    "--qn", "17"]) == 0
        payload = json.loads(out_of(capsys))
        assert payload["k"] == 2
        assert abs(payload["value"] - 0.08578643762690485) < 1e-12
        assert payload["value"] < payload["bound"]


class TestShrinkWord:
    def test_replay_lands_below_threshold(self, capsys):
        assert run(["shrinkword", "--alpha", "inv-sqrt2", "--m", "0.9",
                    "--threshold", "0.01"]) == 0
        payload = json.loads(out_of(capsys))
        assert payload["length"] == len(payload["word"]) == 23
        assert payload["replay_final"] < 0.01


class TestRate:
    def test_small_run_json(self, capsys):
        assert run(["rate", "--alpha", "inv-sqrt2", "--qk", "7", "--eps", "1.2",
                    "--trials", "5", "--seed", "3"]) == 0
        payload = json.loads(out_of(capsys))
        assert payload["schema"] == 1
        assert payload["q_k"] == 7
        assert payload["success_count"] == 5
        assert "runtime_seconds" not in payload

    def test_convergents_built_once_up_to_qk(self, capsys, monkeypatch):
        # alpha = 0.0105 has q_1 = 95; its late convergents pass the 128-bit guard
        cli_calls, library_calls = [], []

        def spy(calls):
            def spied(quotients, q_max=None):
                calls.append((len(quotients), q_max))
                return convergents(quotients, q_max)
            return spied

        monkeypatch.setattr(cli, "convergents", spy(cli_calls))
        monkeypatch.setattr(experiments, "convergents", spy(library_calls))
        argv = ["rate", "--alpha", "0.0105", "--qk", "95", "--eps", "0.2",
                "--trials", "2", "--seed", "1"]
        assert run(argv) == 0
        payload = json.loads(out_of(capsys))
        assert (payload["k_index"], payload["q_k"], payload["success_count"]) == (1, 95, 2)
        # the CLI stops at q_k; the library sees at most k_index + 1 quotients
        assert [q_max for _, q_max in cli_calls] == [95]
        assert len(library_calls) == 1 and library_calls[0][0] <= 2
        assert run(argv + ["--dry-run"]) == 0
        assert [q_max for _, q_max in cli_calls] == [95, 95] and len(library_calls) == 1

    def test_library_builds_convergents_up_to_k_index(self):
        plan = TrialPlan(1, 2)
        rep = experiments.rate_experiment(0.010493179433368311, 1, 0.2, plan)
        assert rep.q_k == 95
        with pytest.raises(PreconditionError, match="k_index 41 out of range"):
            experiments.rate_experiment(ALPHA_F, 41, 0.2, plan)


class TestWalkOracle:
    def test_exact_fraction_strings(self, capsys):
        assert run(["walk-oracle", "--n", "2"]) == 0
        payload = json.loads(out_of(capsys))
        assert (payload["numerator"], payload["denominator"]) == ("27", "64")
        assert payload["horizon"] == 8

    def test_n30_prints_8127_digits(self, capsys, int_digit_limit):
        # the exact value passes Python's default 4300-digit str/int limit
        assert run(["walk-oracle", "--n", "30"]) == 0
        payload = json.loads(out_of(capsys))
        assert len(payload["denominator"]) == 8127
        assert Fraction(int(payload["numerator"]), int(payload["denominator"])) \
            == walk_confinement_dp(30)

    @pytest.mark.parametrize("limit", [0, 10 ** 5])
    def test_digit_limit_never_lowered(self, capsys, int_digit_limit, limit):
        sys.set_int_max_str_digits(limit)
        assert run(["walk-oracle", "--n", "30"]) == 0
        assert sys.get_int_max_str_digits() == limit

    def test_float_only(self, capsys):
        assert run(["walk-oracle", "--n", "2", "--float"]) == 0
        payload = json.loads(out_of(capsys))
        assert "numerator" not in payload
        assert abs(payload["probability"] - 27 / 64) < 1e-14


class TestRhoAudit:
    def test_small_audit(self, capsys):
        assert run(["rho-audit", "--alpha", "inv-sqrt2", "--x0", "0.2",
                    "--steps", "2000", "--seed", "17",
                    "--q-values", "7,17"]) == 0
        payload = json.loads(out_of(capsys))
        assert payload["farsmall_violations"] == 0
        assert 0.4 < payload["plus_fraction"] < 0.6


class TestBvfCheck:
    def test_law_agreement(self, capsys):
        assert run(["bvf-check", "--dist", "two-point:inv-sqrt2", "--x0", "0.2",
                    "--n", "20", "--trials", "3000", "--seed", "23"]) == 0
        payload = json.loads(out_of(capsys))
        assert payload["kind"] == "law_equality"
        assert payload["ks_distance"] < 0.05


class TestInputBoundary:
    """Each value is checked once after parsing, with or without --dry-run."""

    AUDIT = ["rho-audit", "--alpha", "inv-sqrt2", "--x0", "0.2", "--steps", "200",
             "--seed", "1"]

    @pytest.mark.parametrize("dry", [[], ["--dry-run"]])
    @pytest.mark.parametrize("q_values", ["0", "-3", "7,0"])
    def test_q_values_not_positive(self, capsys, q_values, dry):
        assert run(self.AUDIT + [f"--q-values={q_values}", *dry]) == 2
        assert "q_values must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("dry", [[], ["--dry-run"]])
    @pytest.mark.parametrize("q_values", ["1000001", "1" + "0" * 400], ids=["1e6+1", "1e400"])
    def test_q_values_past_cap(self, capsys, q_values, dry):
        assert run(self.AUDIT + [f"--q-values={q_values}", *dry]) == 2
        assert "q_values must be <= 1000000" in capsys.readouterr().err

    @pytest.mark.parametrize("q_values", ["x", "", "7,", "1.5"])
    def test_q_values_malformed(self, capsys, q_values):
        assert run(self.AUDIT + [f"--q-values={q_values}"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--segments", "-1", "segments must be >= 0"),
        ("--window", "-1", "window must be >= 1"),
        ("--window", "0", "window must be >= 1"),
    ])
    def test_audit_ranges(self, capsys, flag, value, message):
        assert run(self.AUDIT + [flag, value]) == 2
        assert message in capsys.readouterr().err

    ORBIT = ["orbit", "--alpha", "inv-sqrt2", "--x", "0.2"]
    SIM = ["simulate", "--dist", "two-point:inv-sqrt2", "--x0", "0.2", "--n", "10",
           "--trials", "100", "--seed", "1"]
    BVF = ["bvf-check", *SIM[1:]]
    RATE = ["rate", "--alpha", "inv-sqrt2", "--qk", "17", "--eps", "0.5", "--trials", "4",
            "--seed", "1"]
    CLOSEK = ["closek", "--alpha", "inv-sqrt2", "--x", "0.5", "--qn", "17"]
    WORD = ["shrinkword", "--alpha", "inv-sqrt2", "--m", "0.9", "--threshold", "0.01"]

    @pytest.mark.parametrize("dry", [[], ["--dry-run"]])
    @pytest.mark.parametrize("argv, message", [
        (ORBIT + ["--window", "0"], "window must be >= 1"),
        (ORBIT + ["--window", "1000001"], "window > 1000000 exceeds the precision cap"),
        (ORBIT + ["--x", "1.5"], "x must lie in [0, 1]"),
        (ORBIT + ["--window", "1", "--format", "json"], "window 1 has no vertex inside margin 2"),
        (AUDIT + ["--x0", "0.9"], "x0 must satisfy 0 < x0 < min(alpha, 1-alpha)"),
        (AUDIT + ["--alpha", "1.5"], "alpha must lie strictly inside (0, 1)"),
        (AUDIT + ["--steps", "-5"], "steps must be >= 0"),
        (AUDIT + ["--window", "0"], "window must be >= 1"),
        (AUDIT + ["--window", "1000001"], "window > 1000000 exceeds the precision cap"),
        (AUDIT + ["--segments", "-1"], "segments must be >= 0"),
        (AUDIT + ["--steps", "1000001"], "steps must be <= 1000000"),
        (AUDIT + ["--steps", str(10 ** 13)], "steps must be <= 1000000"),
        (AUDIT + ["--segments", str(10 ** 13)], "segments must be <= 1000000"),
        (["walk-oracle", "--n", "31"], "n must lie in 1..30"),
        (["walk-oracle", "--n", "0"], "n must lie in 1..30"),
        (CLOSEK + ["--qn", "0"], "q_n must be >= 1"),
        (CLOSEK + ["--qn", "1000000000000"], "q_n must be <= 10000000"),
        (CLOSEK + ["--x", "1.5"], "x must lie in [0, 1]"),
        (CLOSEK + ["--alpha", "1.5"], "alpha must lie strictly inside (0, 1)"),
        (SIM + ["--trials", "0"], "trials must be >= 1"),
        (SIM + ["--trials", "100000001"], "trials must be <= 100000000"),
        (SIM + ["--x0", "-0.5"], "x0 must be finite and >= 0"),
        (SIM + ["--n", "-1"], "n must be >= 0"),
        (SIM + ["--n", "10000001"], "n must be <= 10000000"),
        (SIM + ["--n", str(10 ** 30)], "n must be <= 10000000"),
        (SIM + ["--workers", "0"], "workers must lie in 1..64"),
        (BVF + ["--trials", "0"], "trials must be >= 1"),
        (BVF + ["--trials", "100000001"], "trials must be <= 100000000"),
        (BVF + ["--x0", "-0.5"], "x0 must be finite and >= 0"),
        (BVF + ["--n", "10000001"], "n must be <= 10000000"),
        (BVF + ["--n", str(10 ** 12)], "n must be <= 10000000"),
        (BVF + ["--workers", "65"], "workers must lie in 1..64"),
        (RATE + ["--trials", "0"], "trials must be >= 1"),
        (RATE + ["--trials", "10000000000000"], "trials must be <= 100000000"),
        (RATE + ["--qk", "239"], "q_k > 99 is beyond the desk-scale cap"),
        (RATE + ["--eps", "0.4"], "epsilon must be finite and exceed 8/q_k = 0.47058823529411764"),
        (RATE + ["--workers", "0"], "workers must lie in 1..64"),
        (["contfrac", "--alpha", "inv-sqrt2", "--terms", "41"],
         "terms > 40 exceeds double-precision reliability"),
        (["contfrac", "--alpha", "inv-sqrt2", "--terms", "-1"], "terms must be >= 0"),
        (WORD + ["--beta", "0.5"], "need 0 < alpha < beta"),
        (WORD + ["--threshold", "0"], "threshold must be positive"),
        (WORD + ["--m", "-1"], "m must be >= 0"),
        (WORD + ["--max-len", "-1"], "max_len must be >= 0"),
    ], ids=["orbit-window-0", "orbit-window-cap", "orbit-x", "orbit-json-margin", "audit-x0",
            "audit-alpha", "audit-steps",
            "audit-window-0", "audit-window-cap", "audit-segments", "audit-steps-cap",
            "audit-steps-huge", "audit-segments-huge", "walk-n-31", "walk-n-0",
            "closek-qn", "closek-qn-cap", "closek-x", "closek-alpha", "simulate-trials",
            "simulate-trials-cap", "simulate-x0", "simulate-n", "simulate-n-cap",
            "simulate-n-huge", "simulate-workers", "bvf-trials", "bvf-trials-cap",
            "bvf-x0", "bvf-n-cap", "bvf-n-huge", "bvf-workers", "rate-trials",
            "rate-trials-cap", "rate-qk-cap", "rate-eps", "rate-workers", "contfrac-terms-cap",
            "contfrac-terms-negative", "word-beta", "word-threshold", "word-m",
            "word-max-len"])
    def test_library_ranges_with_and_without_dry_run(self, capsys, argv, message, dry):
        assert run(argv + dry) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, name", [
        (["stationary", "--dist", "two-point:inv-sqrt2", "--eval", "nan"], "eval"),
        (["shrinkword", "--alpha", "inv-sqrt2", "--m", "nan", "--threshold", "0.01"], "m"),
        (["shrinkword", "--alpha", "inv-sqrt2", "--m", "0.9", "--threshold", "inf"],
         "threshold"),
        (["shrinkword", "--alpha", "inv-sqrt2", "--beta=-inf", "--m", "0.9",
          "--threshold", "0.01"], "beta"),
        (["closek", "--alpha", "inv-sqrt2", "--x", "nan", "--qn", "17"], "x"),
        (["rate", "--alpha", "inv-sqrt2", "--qk", "17", "--eps", "nan", "--trials", "2",
          "--seed", "0"], "eps"),
    ])
    @pytest.mark.parametrize("dry", [[], ["--dry-run"]])
    def test_non_finite_float(self, capsys, argv, name, dry):
        assert run(argv + dry) == 2
        assert f"{name} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--dist", "two-point:inv-sqrt2", "--x0", "{}", "--n", "5",
         "--trials", "20", "--seed", "1"],
        ["bvf-check", "--dist", "two-point:inv-sqrt2", "--x0", "{}", "--n", "5",
         "--trials", "20", "--seed", "1"],
        ["closek", "--alpha", "inv-sqrt2", "--x", "{}", "--qn", "17"],
        ["shrinkword", "--alpha", "inv-sqrt2", "--m", "{}", "--threshold", "0.01"],
    ], ids=["simulate", "bvf-check", "closek", "shrinkword"])
    @pytest.mark.parametrize("dry", [[], ["--dry-run"]])
    def test_negative_zero_float_is_zero(self, capsys, argv, dry):
        # -0.0 computes what 0.0 does, so it prints as 0.0 too, echo included
        outs = []
        for zero in ("-0.0", "0.0"):
            assert run([a.format(zero) for a in argv] + dry) == 0
            outs.append(out_of(capsys))
        assert outs[0] == outs[1] and "-0.0" not in outs[0]

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, 1.5, 1.0, 0.0, -0.3])
    def test_closek_row_checks_alpha(self, alpha):
        # --alpha is parsed into (0, 1); the row's check holds the library's range too
        args = argparse.Namespace(alpha=alpha, x=0.5, qn=17)
        with pytest.raises(PreconditionError, match=r"alpha must lie in \(0, 1\)"):
            COMMANDS["closek"].check(args)

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, 1.5, 1.0, 0.0, -0.3])
    def test_rho_audit_row_checks_alpha(self, alpha):
        # the x0 range min(alpha, 1-alpha) means nothing outside (0, 1), so alpha comes first
        args = argparse.Namespace(alpha=alpha, x0=0.2, steps=10, segments=10, window=None,
                                  q_values=(7, 17))
        with pytest.raises(PreconditionError, match=r"alpha must lie in \(0, 1\)"):
            COMMANDS["rho-audit"].check(args)

    def test_non_finite_threshold_stops_before_search(self, capsys, monkeypatch):
        def search(*args, **kwargs):
            raise AssertionError("the word search ran")
        monkeypatch.setattr("foldmap.orbit.shrink_word", search)
        assert run(["shrinkword", "--alpha", "inv-sqrt2", "--m", "0.9",
                    "--threshold", "nan"]) == 2

    WORKER_COMMANDS = {
        "simulate": ["--dist", "two-point:inv-sqrt2", "--x0", "0.2", "--n", "10",
                     "--trials", "100", "--seed", "1"],
        "bvf-check": ["--dist", "two-point:inv-sqrt2", "--x0", "0.2", "--n", "10",
                      "--trials", "100", "--seed", "1"],
        "rate": ["--alpha", "inv-sqrt2", "--qk", "17", "--eps", "0.5", "--trials", "4",
                 "--seed", "1"],
    }

    @pytest.mark.parametrize("workers", ["0", "-3", "65", str(10 ** 6)])
    @pytest.mark.parametrize("name", sorted(WORKER_COMMANDS))
    def test_workers_out_of_range_starts_no_thread(self, capsys, monkeypatch, name, workers):
        # the flag is checked with the other option values, and starts no run
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")
        for fold in ("forward_values", "law_equality_report", "rate_experiment"):
            monkeypatch.setattr(f"foldmap.experiments.{fold}", no_run)
        assert run([name, *self.WORKER_COMMANDS[name], "--workers", workers]) == 2
        assert "workers must lie in 1..64" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["1:x", "x:1", "1", "1:1:1", "0.3:0.5,", ":"])
    def test_bad_dist_token(self, capsys, spec):
        assert run(["stationary", "--dist", spec]) == 2
        assert "bad distribution token" in capsys.readouterr().err

    def test_huge_fold_value_exhausts_search(self, capsys):
        assert run(["shrinkword", "--alpha", "inv-sqrt2", "--m", "1e300",
                    "--threshold", "0.01"]) == 2
        assert "no word of length" in capsys.readouterr().err

    def test_orbit_json_without_long_runs(self, capsys):
        # a window this small holds no run of length q + 1, so no ratio
        assert run(["orbit", "--alpha", "inv-sqrt2", "--x", "0.2", "--window", "3",
                    "--format", "json"]) == 0
        payload = json.loads(out_of(capsys))
        assert payload["run_histogram"] == {}
        assert payload["measured_ratio"] is None


# ---- pinned bytes ----------------------------------------------------------
# The --dry-run text, the report digests and the flag sets below were recorded
# from the command-line front end and must not drift: a report is reproducible
# byte for byte from its command line.

DRY_RUNS = {
    'simulate': (
        ['--dist', 'two-point:inv-sqrt2', '--x0', '0.2', '--n', '100', '--trials', '1000', '--seed', '5'],
        '{"dist_support": [0.7071067811865476, 1.0], "dist_weights": [0.5, 0.5], "format": "json", "kind": "dry_run", "n": 100, "schema": 1, "seed": 5, "subcommand": "simulate", "trials": 1000, "workers": 1, "x0": 0.2}\n'),
    'stationary': (
        ['--dist', '1.0:0.5,0.3:0.5', '--eval', '0.25'],
        '{"dist_support": [0.3, 1.0], "dist_weights": [0.5, 0.5], "eval": 0.25, "format": "csv", "kind": "dry_run", "schema": 1, "subcommand": "stationary"}\n'),
    'orbit': (
        ['--alpha', 'golden-conj', '--x', '0.17', '--window', '50', '--format', 'json'],
        '{"alpha": 0.6180339887498949, "format": "json", "kind": "dry_run", "schema": 1, "subcommand": "orbit", "window": 50, "x": 0.17}\n'),
    'contfrac': (
        ['--alpha', 'e-minus-2'],
        '{"alpha": 0.7182818284590451, "format": "csv", "kind": "dry_run", "schema": 1, "subcommand": "contfrac", "terms": 20}\n'),
    'closek': (
        ['--alpha', 'inv-sqrt2', '--x', '0.5', '--qn', '17', '--format', 'csv'],
        '{"alpha": 0.7071067811865476, "format": "csv", "kind": "dry_run", "qn": 17, "schema": 1, "subcommand": "closek", "x": 0.5}\n'),
    'shrinkword': (
        ['--alpha', 'inv-sqrt2', '--m', '0.9', '--threshold', '0.01'],
        '{"alpha": 0.7071067811865476, "beta": 1.0, "format": "json", "kind": "dry_run", "m": 0.9, "max_len": 256, "schema": 1, "subcommand": "shrinkword", "threshold": 0.01}\n'),
    'rate': (
        ['--alpha', 'inv-sqrt2', '--qk', '17', '--eps', '0.5', '--trials', '200', '--seed', '1', '--workers', '2'],
        '{"alpha": 0.7071067811865476, "eps": 0.5, "format": "json", "k_index": 4, "kind": "dry_run", "n_steps": 160654, "qk": 17, "schema": 1, "seed": 1, "subcommand": "rate", "trials": 200, "workers": 2}\n'),
    'walk-oracle': (
        ['--n', '30', '--float'],
        '{"float": true, "kind": "dry_run", "n": 30, "schema": 1, "subcommand": "walk-oracle"}\n'),
    'rho-audit': (
        ['--alpha', 'inv-sqrt2', '--x0', '0.2', '--steps', '20000', '--seed', '17'],
        '{"alpha": 0.7071067811865476, "kind": "dry_run", "q_values": [7, 17], "schema": 1, "seed": 17, "segments": 1000, "steps": 20000, "subcommand": "rho-audit", "window": null, "x0": 0.2}\n'),
    'bvf-check': (
        ['--dist', 'two-point:golden-conj', '--x0', '0.1', '--n', '50', '--trials', '100000', '--seed', '7'],
        '{"dist_support": [0.6180339887498949, 1.0], "dist_weights": [0.5, 0.5], "kind": "dry_run", "n": 50, "schema": 1, "seed": 7, "subcommand": "bvf-check", "trials": 100000, "workers": 1, "x0": 0.1}\n'),
}

REPORT_SHA256 = [
    (['simulate', '--dist', 'two-point:inv-sqrt2', '--x0', '0.2', '--n', '20', '--trials', '50', '--seed', '3'],
     'fd120a1ac3085b98eaa2cb4d219fec6c70cf70cc1f7726d69c59c1d3b82f2366'),
    (['simulate', '--dist', '0.3:0.25,1.0:0.75', '--x0', '0.6', '--n', '10', '--trials', '20', '--seed', '4', '--format', 'csv'],
     'b9d2fc6682d8e30ee2ca6b803652a8b3bcb4f060ac234536b8b3179907649e23'),
    (['stationary', '--dist', 'two-point:inv-sqrt2'],
     'd5f5f85036ed817dac4e2e6e0458e3d887c8bdc5c7c555721d51dd2a0afe1863'),
    (['stationary', '--dist', '0.3:0.5,1.0:0.5', '--format', 'json'],
     'ddfe82862cf70ec16f01f2a9b3c68411d85d3cf82a895f6ca817730fc4fedd4a'),
    (['stationary', '--dist', 'two-point:inv-sqrt2', '--eval', '0.5'],
     '9c8386bcbf6070c2e0dc98994d4bb21b3ddf68927320c62912011d43e76b9e2d'),
    (['orbit', '--alpha', 'inv-sqrt2', '--x', '0.2', '--window', '3'],
     'c29d6ddfa43b304c3195724a7fc8ae3793ef59c53374e02cb012e39bec923452'),
    (['orbit', '--alpha', 'inv-sqrt2', '--x', '0.2', '--window', '10', '--format', 'json'],
     '2606a0b13c686e74c424b61e4d68d6d243625755afa941563ca6b0b45f137f88'),
    (['orbit', '--alpha', 'inv-sqrt2', '--x', '0.2', '--window', '3', '--format', 'csv'],
     'b7ef5407157df3d53b466f6ff17ac44a6ffddc99c9a879a35bde06ab9bb83a3f'),
    (['contfrac', '--alpha', 'inv-sqrt2', '--terms', '8'],
     'e5f2699ee7fe63b0b99fd3879adceabc74d63de19a950f2f523fe3a6cfe4010e'),
    (['contfrac', '--alpha', 'golden-conj', '--terms', '6', '--format', 'json'],
     '24c1de36834d6b3239791ad619a92b97f781db088f13b170ee761240065cc6b7'),
    (['closek', '--alpha', 'inv-sqrt2', '--x', '0.5', '--qn', '17'],
     'a68426145fd48f0f48c99a4a8101016d3df6269c79d32fe18f276f23848d3c30'),
    (['closek', '--alpha', 'inv-sqrt2', '--x', '0.5', '--qn', '17', '--format', 'csv'],
     'fd19c06e4edcfef2574ba0ca1799e6377ffa956af0de8f03d5b30e3cb5237a77'),
    (['shrinkword', '--alpha', 'inv-sqrt2', '--m', '0.9', '--threshold', '0.01'],
     'e33867cbb126d08a7750ca370c3bc94c041bee0af8739f88bf69f02ae7cb8083'),
    (['shrinkword', '--alpha', 'inv-sqrt2', '--beta', '0.95', '--m', '0.9', '--threshold', '0.05', '--format', 'csv'],
     '8ce86d81eaea55ecdb294eb77b6a47d7ac751e87a29442c1d2f533585af1455f'),
    (['rate', '--alpha', 'inv-sqrt2', '--qk', '7', '--eps', '1.2', '--trials', '5', '--seed', '3'],
     '85532d038361e21b004235c02fbe5699d3b9a7311724e522d7d1a9e86b28646e'),
    (['rate', '--alpha', 'inv-sqrt2', '--qk', '7', '--eps', '1.2', '--trials', '5', '--seed', '3', '--format', 'csv'],
     'bab8382ba033c7bbd1302f44e90bbb73496ad5633ff3e285d5120bc6294d3665'),
    (['walk-oracle', '--n', '5'],
     '7ed4ada33e2b74a68cb6834e7bdf92b043ca277cd7df952091925034567ec62d'),
    (['walk-oracle', '--n', '5', '--float'],
     '1c5c5eb26f5ac6158d5d355b178029f931b0804b74f90ed2cf51363a8bd8099a'),
    (['rho-audit', '--alpha', 'inv-sqrt2', '--x0', '0.2', '--steps', '200', '--seed', '17'],
     '7512be12bbcb3d4449d1683304b4bdc2015f0757d34726253b722e4ca262b0a4'),
    (['rho-audit', '--alpha', 'inv-sqrt2', '--x0', '0.2', '--steps', '200', '--seed', '18', '--segments', '50', '--q-values', '3,7', '--window', '200'],
     '5cb8bcb6152f886d3db488e07d67fab2e259d2f5fab2df12cda7a6327150469a'),
    (['bvf-check', '--dist', 'two-point:inv-sqrt2', '--x0', '0.2', '--n', '10', '--trials', '200', '--seed', '23'],
     '7903e894a791d857ce96a2769295c3cd2b93e3c4646687db546839dcaf31c662'),
]

# (flag, default, choices, required, takes no value) per subcommand, in order
FLAGS = {
    'simulate': [
        ('--out', None, None, False, False),
        ('--dry-run', False, None, False, True),
        ('--dist', None, None, True, False),
        ('--x0', None, None, True, False),
        ('--n', None, None, True, False),
        ('--trials', None, None, True, False),
        ('--seed', None, None, True, False),
        ('--workers', 1, None, False, False),
        ('--format', 'json', ['json', 'csv'], False, False),
    ],
    'stationary': [
        ('--out', None, None, False, False),
        ('--dry-run', False, None, False, True),
        ('--dist', None, None, True, False),
        ('--eval', None, None, False, False),
        ('--format', 'csv', ['json', 'csv'], False, False),
    ],
    'orbit': [
        ('--out', None, None, False, False),
        ('--dry-run', False, None, False, True),
        ('--alpha', None, None, True, False),
        ('--x', None, None, True, False),
        ('--window', 10000, None, False, False),
        ('--format', 'dot', ['dot', 'json', 'csv'], False, False),
    ],
    'contfrac': [
        ('--out', None, None, False, False),
        ('--dry-run', False, None, False, True),
        ('--alpha', None, None, True, False),
        ('--terms', 20, None, False, False),
        ('--format', 'csv', ['csv', 'json'], False, False),
    ],
    'closek': [
        ('--out', None, None, False, False),
        ('--dry-run', False, None, False, True),
        ('--alpha', None, None, True, False),
        ('--x', None, None, True, False),
        ('--qn', None, None, True, False),
        ('--format', 'json', ['json', 'csv'], False, False),
    ],
    'shrinkword': [
        ('--out', None, None, False, False),
        ('--dry-run', False, None, False, True),
        ('--alpha', None, None, True, False),
        ('--beta', 1.0, None, False, False),
        ('--m', None, None, True, False),
        ('--threshold', None, None, True, False),
        ('--max-len', 256, None, False, False),
        ('--format', 'json', ['json', 'csv'], False, False),
    ],
    'rate': [
        ('--out', None, None, False, False),
        ('--dry-run', False, None, False, True),
        ('--alpha', None, None, True, False),
        ('--qk', None, None, True, False),
        ('--eps', None, None, True, False),
        ('--trials', None, None, True, False),
        ('--seed', None, None, True, False),
        ('--workers', 1, None, False, False),
        ('--format', 'json', ['json', 'csv'], False, False),
    ],
    'walk-oracle': [
        ('--out', None, None, False, False),
        ('--dry-run', False, None, False, True),
        ('--n', None, None, True, False),
        ('--float', False, None, False, True),
    ],
    'rho-audit': [
        ('--out', None, None, False, False),
        ('--dry-run', False, None, False, True),
        ('--alpha', None, None, True, False),
        ('--x0', None, None, True, False),
        ('--steps', None, None, True, False),
        ('--seed', None, None, True, False),
        ('--segments', 1000, None, False, False),
        ('--q-values', '7,17', None, False, False),
        ('--window', None, None, False, False),
    ],
    'bvf-check': [
        ('--out', None, None, False, False),
        ('--dry-run', False, None, False, True),
        ('--dist', None, None, True, False),
        ('--x0', None, None, True, False),
        ('--n', None, None, True, False),
        ('--trials', None, None, True, False),
        ('--seed', None, None, True, False),
        ('--workers', 1, None, False, False),
    ],
}


def _subparsers():
    parser = _build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestPinnedBytes:
    @pytest.mark.parametrize("name", sorted(DRY_RUNS))
    def test_dry_run_text(self, capsys, name):
        argv, expected = DRY_RUNS[name]
        assert run([name, *argv, "--dry-run"]) == 0
        assert out_of(capsys) == expected

    @pytest.mark.parametrize(
        "argv, digest", REPORT_SHA256,
        ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(REPORT_SHA256)])
    def test_report_digest(self, capsys, argv, digest):
        assert run(argv) == 0
        assert hashlib.sha256(out_of(capsys).encode()).hexdigest() == digest

    def test_every_subcommand_pinned(self):
        assert set(_subparsers()) == set(FLAGS) == set(DRY_RUNS)
        assert set(FLAGS) == {argv[0] for argv, _ in REPORT_SHA256}

    @pytest.mark.parametrize("name", sorted(FLAGS))
    def test_flag_set(self, name):
        actions = [a for a in _subparsers()[name]._actions if "-h" not in a.option_strings]
        got = [(a.option_strings[0], a.default,
                None if a.choices is None else list(a.choices), a.required, a.nargs == 0)
               for a in actions]
        assert got == FLAGS[name]


class TestParserReuse:
    """One parser serves every run of a process and keeps no state between them."""

    def test_built_once(self):
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize("bad", [
        ["walk-oracle", "--n", "x"],
        ["walk-oracle"],
        ["rho-audit", "--alpha", "inv-sqrt2", "--x0", "0.2", "--steps", "200",
         "--seed", "1", "--q-values", "7,"],
        ["simulate", "--bogus", "1"],
        ["nonesuch"],
    ], ids=["bad-int", "missing-flag", "bad-ints", "unknown-flag", "unknown-command"])
    def test_usage_error_then_pinned_run(self, capsys, bad):
        assert run(bad) == 1
        assert capsys.readouterr().err.startswith("usage error:")
        for argv, digest in REPORT_SHA256:
            if argv[0] in ("walk-oracle", "rho-audit", "simulate"):
                assert run(argv) == 0
                assert hashlib.sha256(out_of(capsys).encode()).hexdigest() == digest
        argv, expected = DRY_RUNS["rho-audit"]
        assert run(["rho-audit", *argv, "--dry-run"]) == 0
        assert out_of(capsys) == expected
