"""CLI behavior: exit codes, formats, round trips, determinism."""

import json

from padicelim.cli import main
from padicelim.eliminator import run_elimination, trace_from_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPredict:
    def test_json_label(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--p", "5", "--r", "8", "--emit", "json")
        assert code == 0
        data = json.loads(out)
        assert data["prediction"]["label"] == "ind omega2^9"

    def test_r_2p_minus_1_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "predict", "--p", "5", "--r", "9")
        assert code == 2
        assert "prediction unavailable: r = 2p-1" in err

    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "predict", "--p", "7", "--r", "10")
        assert code == 0
        assert "survivor" in out and "ω₂^11" in out

    def test_composite_p_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "predict", "--p", "9", "--r", "12")
        assert code == 2 and "prime" in err


class TestEliminate:
    def test_json_shape_and_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "eliminate", "--p", "5", "--r", "8", "--emit", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["subquotients"]) == 9
        assert sum(1 for row in data["subquotients"] if row["status"] == "survivor") == 1
        assert trace_from_dict(data) == run_elimination(5, 8)

    def test_custom_vl(self, capsys):
        code, out, _ = run_cli(
            capsys, "eliminate", "--p", "5", "--r", "8", "--vL", "-13/2", "--emit", "json"
        )
        assert code == 0 and json.loads(out)["vL"] == "-13/2"

    def test_decimal_vl_rejected(self, capsys):
        code, _, err = run_cli(capsys, "eliminate", "--p", "5", "--r", "8", "--vL", "-4.5")
        assert code == 2 and "decimal" in err

    def test_zero_denominator_vl_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "eliminate", "--p", "5", "--r", "8", "--vL", "1/0")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "zero denominator" in err and "Traceback" not in err

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "eliminate", "--p", "5", "--r", "11")
        assert code == 2


class TestVerify:
    def test_lambda_p5_reports_observed_deviation(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "lambda", "--p", "5")
        assert code == 0
        assert "observed" in out and "b=0" in out and "PASS" in out

    def test_lucas2_p5(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "lucas2", "--p", "5")
        assert code == 0 and "PASS" in out

    def test_json_emission(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "stirling-lucas", "--p", "5", "--emit", "json")
        assert code == 0
        data = json.loads(out)
        assert data["name"] == "stirling-lucas" and data["passed"]

    def test_unknown_lemma_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "everything")
        assert code == 2


class TestLambdaCommand:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "--p", "5", "--b", "1", "--n", "6")
        assert code == 0
        assert "lambda_10 = -1" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "lambda", "--p", "5", "--b", "0", "--n", "3", "--emit", "json")
        assert code == 0
        data = json.loads(out)
        assert data["entries"]["1"] == 15
        assert data["bullets"]["2_mode"] == "observed" and data["passed"]

    def test_invalid_window_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "lambda", "--p", "5", "--b", "1", "--n", "3")
        assert code == 2


class TestCongruenceCommand:
    def test_term_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "congruence", "--p", "5", "--r", "8", "--n", "7", "--vL", "-5"
        )
        assert code == 0
        assert "vFall = 0" in out and "12768" in out  # C(7,5) * 608

    def test_json_slacks(self, capsys):
        code, out, _ = run_cli(
            capsys, "congruence", "--p", "5", "--r", "8", "--n", "7", "--emit", "json"
        )
        assert code == 0
        data = json.loads(out)
        slack = {(t["line"], t["a"], t["j"]): t["slack"] for t in data["terms"]}
        assert slack[(2, 0, 5)] == "0" and slack[(2, 0, 6)] == "1"


class TestSweep:
    def test_tsv_exponents(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--p-range", "5:7", "--emit", "tsv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p\tr\tc\tvL\texponent\tlabel"
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 8  # (2p - 8) predictions per prime
        for row in rows:
            p, r, c, _vl, exponent, label = row
            assert int(exponent) == int(r) + 1
            assert label == f"ind omega2^{int(r) + 1}"

    def test_deterministic_order(self, capsys):
        _, out1, _ = run_cli(capsys, "sweep", "--p-range", "5:7", "--emit", "tsv")
        _, out2, _ = run_cli(capsys, "sweep", "--p-range", "5:7", "--emit", "tsv")
        assert out1 == out2
        pr = [tuple(map(int, line.split("\t")[:2])) for line in out1.strip().splitlines()[1:]]
        assert pr == sorted(pr)

    def test_empty_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--p-range", "5:5", "--r-range", "100:200")
        assert code == 2 and "empty" in err

    def test_parallel_matches_serial(self, capsys):
        _, serial, _ = run_cli(capsys, "sweep", "--p-range", "5:5", "--emit", "json")
        _, parallel, _ = run_cli(
            capsys, "sweep", "--p-range", "5:5", "--emit", "json", "--jobs", "2"
        )
        assert json.loads(serial) == json.loads(parallel)


class TestUsage:
    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_help_exits_0(self, capsys):
        assert main(["--help"]) == 0
