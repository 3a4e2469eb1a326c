"""Command line interface: exit codes, formats, determinism."""

import json
import math
import sys
from fractions import Fraction

import pytest

from foldmap import walk_confinement_dp
from foldmap.cli import run

INV_SQRT2 = "0.7071067811865476"


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
