"""CLI behavior: exit codes, formats, round trips, determinism."""

import ast
import hashlib
import importlib
import itertools
import json
import os
import pickle
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import padicelim
from padicelim import cli, congruence, eliminator, exactnum
from padicelim.cli import emit_report, main
from padicelim.congruence import SubquotientEntry
from padicelim.eliminator import (
    KillTrace,
    ReductionResult,
    predict,
    theorem_r_values,
    trace_from_dict,
)
from padicelim.exactnum import is_prime
from padicelim.verify import VerifyResult
from trace_reference import reference_dict, reference_json, slack_window

PACKAGE_DIR = Path(padicelim.__file__).parent
BENCH_DIR = PACKAGE_DIR.parents[1] / "perfbench"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPredict:
    def test_a_large_prime_p_exits_2_on_its_r(self):
        # p = 10^18 + 3 is prime, decided at once; then r is out of range
        env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
        argv = [sys.executable, "-m", "padicelim", "predict", "--p", "1000000000000000003", "--r", "5"]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            "error: r = 5 outside [1000000000000000006, 2000000000000000004]"
            " u [2000000000000000010, 3000000000000000008]\n"
        )

    def test_a_strong_probable_prime_past_the_bound_exits_2_at_once(self):
        # 2^89 - 1 passes the strong test to every base, but lies where that
        # decides nothing: one line, exit 2, no trial division
        env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
        argv = [sys.executable, "-m", "padicelim", "predict", "--p", "618970019642690137449562111", "--r", "5"]
        start = time.perf_counter()
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert time.perf_counter() - start < 1
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            "error: p = 618970019642690137449562111 passes the strong test to the bases 2..41,"
            " which decides primality only below 3317044064679887385961981\n"
        )

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
        assert trace_from_dict(data).to_dict() == data

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

    # a digit group and Arabic-Indic digits: Fraction reads the first two as
    # 1/2 and the last as 1/0, which is not an a/b literal either
    @pytest.mark.parametrize("vl", ["abc", "one", "1_0/2_0", "\u0661/\u0662", "1_0/0"])
    def test_garbage_vl_exits_2_with_one_line(self, capsys, vl):
        code, out, err = run_cli(capsys, "eliminate", "--p", "5", "--r", "8", "--vL", vl)
        assert code == 2 and out == ""
        assert err == f"error: rational literal expected (got '{vl}')\n"

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "eliminate", "--p", "5", "--r", "11")
        assert code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["eliminate", "--p", "4", "--r", "8"], "p = 4 is not a prime >= 5"),
            (["congruence", "--p", "5", "--r", "8", "--n", "9"], "n = 9 outside the window [6, 8]"),
        ],
    )
    def test_vl_fault_comes_after_earlier_faults(self, capsys, argv, message):
        # the CLI passes --vL on as text: the library parses it once, in its own order of checks
        assert run_cli(capsys, *argv, "--vL", "x") == (2, "", f"error: {message}\n")

    def test_failed_audit_exits_1_with_one_error_line(self, capsys, monkeypatch, mutate_table):
        # the good n = 11 of (7, 12) loses its generator: a kill fails on valid input
        mutate_table(monkeypatch, 11, (2, 0, 9), slack=1)
        code, out, err = run_cli(capsys, "eliminate", "--p", "7", "--r", "12")
        assert (code, out) == (1, "")
        assert err.startswith("error: good audit failed at n = 11: ") and err.count("\n") == 1


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

    @pytest.mark.parametrize(
        "argv",
        [
            [lemma, "--p", p]
            for lemma in ("lambda", "star", "inequalities", "vl-independence")
            for p in ("1", "0")
        ]
        + [["lucas2", "--p", "0"], ["inequalities", "--p", "2"], ["star", "--p", "5", "--p", "9"]],
    )
    def test_verify_rejects_p_not_a_prime_at_least_5(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: p = ") and err.endswith("is not a prime >= 5\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv", [["lucas2", "--p", "5", "--p", "5"], ["star", "--p", "7", "--p", "5", "--p", "7"]]
    )
    def test_verify_rejects_a_repeated_p(self, capsys, argv):
        assert run_cli(capsys, "verify", *argv) == (2, "", f"error: p = {argv[-1]} is repeated\n")


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

    def test_vl_at_the_bound_exits_2(self, capsys):
        assert run_cli(capsys, "congruence", "--p", "5", "--r", "8", "--n", "7", "--vL", "-3") == (
            2, "", "error: vL must be < r/2 - n = -3, got -3\n"
        )

    @pytest.mark.parametrize("n", [-3, 3, 7, 13])
    def test_n_outside_the_window_exits_2(self, capsys, n):
        # at p = 7, r = 12 the window n >= r/2 + b + 1, n <= r is [8, 12]
        assert run_cli(capsys, "congruence", "--p", "7", "--r", "12", "--n", str(n)) == (
            2, "", f"error: n = {n} outside the window [8, 12]\n"
        )


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
        assert code == 2 and err == "error: sweep range is empty\n"

    def test_r_range_below_every_theorem_range_exits_2_at_once(self, capsys, monkeypatch):
        # no prime of 5..20000 has a theorem-range r in [0, 1]: no prime is even tested
        monkeypatch.setattr(cli, "is_prime", lambda p: pytest.fail(f"is_prime({p}) was called"))
        code, out, err = run_cli(capsys, "sweep", "--p-range", "5:20000", "--r-range", "0:1")
        assert (code, out, err) == (2, "", "error: sweep range is empty\n")

    @pytest.mark.parametrize("r_range", ["20:70", "-4:16", "40:41", "100:200"])
    def test_r_range_gives_what_filtering_every_r_gave(self, capsys, r_range):
        r_lo, r_hi = map(int, r_range.split(":"))
        expected = [
            predict(p, r)
            for p in range(5, 42)
            if is_prime(p)
            for r in theorem_r_values(p)
            if r_lo <= r <= r_hi
        ]
        for fmt in ("json", "tsv"):
            code, out, err = run_cli(capsys, "sweep", "--p-range", "5:41", "--r-range", r_range, "--emit", fmt)
            assert (code, err) == (0, "")
            assert out == emit_report(expected, fmt) + "\n"

    def test_table_rows_and_footer(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--p-range", "5:7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p =   5  r =   8  c = 1  ind omega2^9"
        for line in lines[:-1]:
            m = re.fullmatch(r"p = ([ \d]{3})  r = ([ \d]{3})  c = (\d)  ind omega2\^(\d+)", line)
            assert m, line
            p, r, c, exponent = map(int, m.groups())
            assert c == r // p and exponent == r + 1
        assert lines[-1] == "8 predictions, all with exponent r + 1"

    def test_predict_tsv_row_matches_sweep_row(self, capsys):
        _, predicted, _ = run_cli(capsys, "predict", "--p", "7", "--r", "10", "--emit", "tsv")
        _, swept, _ = run_cli(capsys, "sweep", "--p-range", "7:7", "--emit", "tsv")
        header, row = predicted.splitlines()
        sweep_lines = swept.splitlines()
        assert header == sweep_lines[0]
        assert row in sweep_lines[1:] and row.startswith("7\t10\t")

    @pytest.mark.parametrize("flag,value", [("--p-range", "5"), ("--r-range", "9")])
    def test_malformed_range_exits_2(self, capsys, flag, value):
        argv = ["sweep", "--p-range", "5:7", flag, value]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"argument {flag}: range must look like A:B, got '{value}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--p-range", "--r-range"])
    def test_negative_range_bound(self, capsys, flag):
        argv = {"--p-range": ("5:7", "-5:7"), "--r-range": ("0:12", "-3:12")}[flag]
        _, expected, _ = run_cli(capsys, "sweep", "--p-range", "5:7", flag, argv[0])
        code, out, err = run_cli(capsys, "sweep", "--p-range", "5:7", flag, argv[1])
        assert code == 0 and err == ""
        assert out == expected

    @pytest.mark.usefixtures("no_prime_held")
    def test_each_term_table_is_built_once(self, capsys, monkeypatch):
        # the sweep goes prime by prime in one process, so no (p, n) table is built twice
        built = []
        original = congruence._build_table

        def counted(p, n):
            built.append((p, n))
            return original(p, n)

        monkeypatch.setattr(congruence, "_build_table", counted)
        code, _, err = run_cli(capsys, "sweep", "--p-range", "5:13", "--emit", "json")
        assert (code, err) == (0, "")
        assert len(built) == len(set(built)) == 88

    def test_prediction_is_one_tsv_row_and_pickles_whole(self):
        # a ReductionResult is a tuple, but it renders as one prediction,
        # and it comes back from a pickle as itself, for a caller that sends
        # results between processes
        res = predict(11, 15)
        assert emit_report(res, "tsv").splitlines()[1:] == ["11\t15\t1\t-8\t16\tind omega2^16"]
        back = pickle.loads(pickle.dumps(res))
        assert type(back) is ReductionResult and type(back.trace) is KillTrace
        assert back == res and emit_report(back, "json") == emit_report(res, "json")


class TestJsonRenderer:
    """emit_report's trace, prediction and sweep JSON equals json.dumps of the reference dicts."""

    @pytest.mark.parametrize("p", [p for p in range(5, 32) if is_prime(p)])
    def test_every_theorem_range_prediction(self, p):
        results = [predict(p, r) for r in theorem_r_values(p)]
        for res in results:
            assert emit_report(res, "json") == reference_json(res), res.trace.r
            assert emit_report(res.trace, "json") == reference_json(res.trace), res.trace.r
        assert emit_report(results, "json") == reference_json(results)

    def test_edge_shapes(self):
        res = hand_built()
        text = emit_report(res.trace, "json")
        assert text == reference_json(res.trace)
        assert emit_report(res, "json") == reference_json(res)
        assert emit_report([res, res], "json") == reference_json([res, res])
        assert res.to_dict() == reference_dict(res) and res.trace.to_dict() == reference_dict(res.trace)
        # the slack degrees sort as strings
        assert text.index('"10": "0"') < text.index('"9": "1"')
        # the empty lists: a kill with no witness, a trace with no entries,
        # a prediction excluding no residue, a sweep with no predictions
        no_witness = res.trace._replace(entries=(res.trace.entries[0]._replace(witness_n=()),))
        for obj in (no_witness, res.trace._replace(entries=()), res._replace(excluded_residues=()), []):
            assert emit_report(obj, "json") == reference_json(obj), obj


def slack_formats(results, calls) -> tuple[int, int, int]:
    """The slack lines among ``calls``, the strings formatted to render ``results``; their distinct (p, n, j); the lines of their tables.

    Every other string formatted is a label, a vL or a method.  A kill's
    table is (p, n) for its first n, and it holds one line-2 slack pair per
    degree from ceil(max(p, n)/2) - 1 to n - 1.
    """
    others = sum(2 + sum(e.method is not None for e in res.trace.entries) for res in results)
    distinct = {
        (res.trace.p, e.witness_n[0], j)
        for res in results for e in res.trace.entries if e.slack_table for j, _ in slack_window(e)
    }
    tables = {(p, n) for p, n, _j in distinct}
    return len(calls) - others, len(distinct), sum(n - (max(p, n) + 1) // 2 + 1 for p, n in tables)


def hand_built() -> ReductionResult:
    """A prediction no engine run gives: an empty slack table, a two-entry one, a survivor between."""
    trace = KillTrace(p=7, r=12, c=1, vL=Fraction(-27, 4), entries=(
        SubquotientEntry(0, "good", (9, 10), ()),
        SubquotientEntry(1, None),
        SubquotientEntry(2, "ugly", (10,), ((9, "1"), (10, "0"))),
    ))
    return ReductionResult(
        survivor=1, exponent=13, label="ind omega2^13", irreducibility_residue=4,
        excluded_residues=(1, 5), trace=trace,
    )


@pytest.mark.usefixtures("no_prime_held")
class TestSlackLines:
    """A slack table is read from the lines of its (p, n) table rendered before, and never stale ones."""

    def test_high_then_low_then_high_r(self):
        # at p = 13 the windows of r = 24 and 38 are suffixes of those of
        # r = 16 and 30 at the shared degrees n (15, 16 and 21..30)
        results = [predict(13, r) for r in (24, 16, 24, 38, 30, 38)]
        for res in results:
            assert emit_report(res, "json") == reference_json(res), res.trace.r
        short, long = (
            next(slack_window(e) for e in res.trace.entries if e.witness_n == (15,)) for res in results[:2]
        )
        assert long[len(long) - len(short):] == short != long
        # the writer holds table 15's pairs and their lines in degree order,
        # which crosses from one digit to two, so a window's lines are sorted
        pairs, lines = exactnum._KEPT[13]["slack_lines"][15]
        assert pairs is exactnum._KEPT[13]["tables"][15].slacks and pairs[len(pairs) - len(long):] == long
        assert [j for j, _ in pairs] == list(range(7, 15))
        assert lines == [f'"{j}": "{s}"' for j, s in pairs]
        # inside a sweep list, at its indent, with the lines of the
        # last prime dropped by the next
        results += [predict(11, 17), *results[:3]]
        assert emit_report(results, "json") == reference_json(results)
        assert list(exactnum._KEPT) == [13]

    def test_mutated_slack_after_a_clean_render(self, monkeypatch, mutate_table):
        clean = predict(13, 20)
        clean_text = emit_report(clean, "json")
        kill = next(e for e in clean.trace.entries if e.method == "good")
        j, slack = next((j, int(s)) for j, s in slack_window(kill) if j != 20 - kill.i and s not in ("0", "inf"))
        mutate_table(monkeypatch, kill.witness_n[0], (2, 0, j), slack=slack + 5)
        mutated = predict(13, 20)
        text = emit_report(mutated, "json")
        assert text == reference_json(mutated) and mutated.to_dict() == reference_dict(mutated)
        assert f'"{j}": "{slack + 5}"' in text and text != clean_text

    def test_hand_built_trace_after_real_traces(self):
        real = [predict(7, r) for r in (10, 11, 12)]
        # a real kill's pairs with their last slack edited, and the hand-built prediction
        kill = next(e for e in real[2].trace.entries if e.witness_n == (10,))
        edited = kill._replace(slack_table=(*kill.slack_table[:-1], (kill.slack_table[-1][0], "7")))
        edited = real[2].trace._replace(entries=(edited,))
        for obj in (*real, hand_built(), edited, *real):
            assert emit_report(obj, "json") == reference_json(obj)
            assert obj.to_dict() == reference_dict(obj)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shuffled_pass_formats_each_line_once(self, monkeypatch, seed):
        # the order of the benchmark's sweep: every theorem-range r of p = 31, shuffled
        rs = list(theorem_r_values(31))
        random.Random(seed).shuffle(rs)
        results = [predict(31, r) for r in rs]
        calls = []
        monkeypatch.setattr(eliminator, "_json_str", lambda text: calls.append(text) or json.dumps(text))
        for res in results:
            assert emit_report(res, "json") == reference_json(res), res.trace.r
        # each line of every table a kill reads, once: 2,022 lines, of which the
        # windows read 2,004 (the rest lie below the lowest r's windows)
        assert slack_formats(results, calls) == (2022, 2004, 2022)

    def test_p37_windows_across_degree_100(self):
        # at p = 37 the tables n >= 101 hold degrees on both sides of 100, so
        # their held lines are out of sort_keys order; every r, shuffled
        rs = list(theorem_r_values(37))
        random.Random(37).shuffle(rs)
        for r in rs:
            res = predict(37, r)
            assert emit_report(res, "json") == reference_json(res), r
        held = exactnum._KEPT[37]["slack_lines"]
        assert {n for n, (_pairs, lines) in held.items() if lines != sorted(lines)} == set(range(101, 111))

    def test_sweep_list_rendered_after_every_prime_is_computed(self, monkeypatch):
        # as the CLI's sweep does: every prediction first, then one list, so the
        # tables of a prime are gone when it is rendered; the rows still hold
        # their tables' pairs, so each line of a table is formatted once: 1,702
        # lines, of which the windows read 1,670
        results = [predict(p, r) for p in (13, 17, 19) for r in theorem_r_values(p)]
        calls = []
        monkeypatch.setattr(eliminator, "_json_str", lambda text: calls.append(text) or json.dumps(text))
        assert emit_report(results, "json") == reference_json(results)
        assert slack_formats(results, calls) == (1702, 1670, 1702)
        assert not exactnum._KEPT[19].get("tables")

    def test_primes_in_turn_and_alternating(self, monkeypatch):
        # prime by prime, as a sweep goes, each table is built and each slack line
        # formatted once; alternating r by r drops the other prime's each time and
        # renders the same reports, reading nothing stale
        built, calls = [], []
        build = congruence._build_table
        monkeypatch.setattr(congruence, "_build_table", lambda p, n: built.append((p, n)) or build(p, n))
        monkeypatch.setattr(eliminator, "_json_str", lambda text: calls.append(text) or json.dumps(text))

        def run(order):
            monkeypatch.setattr(exactnum, "_KEPT", {})
            built.clear()
            calls.clear()
            results, texts = [], []
            for p, r in order:
                results.append(predict(p, r))
                texts.append(emit_report(results[-1], "json"))
                assert texts[-1] == reference_json(results[-1]), (p, r)
            assert list(exactnum._KEPT) == [order[-1][0]]
            return sorted(texts), results

        ranges = [[(p, r) for r in theorem_r_values(p)] for p in (17, 19)]
        by_prime, results = run([*ranges[0], *ranges[1]])
        formats, _distinct, tables = slack_formats(results, calls)
        assert (len(built), formats) == (len(set(built)), tables)
        alternating, _ = run([pr for pair in itertools.zip_longest(*ranges) for pr in pair if pr])
        assert alternating == by_prime

    def test_pairs_out_of_degree_order(self):
        # pairs other than the ones held under their n are formatted afresh
        # and written in sort_keys order, whatever their own order
        trace = hand_built().trace
        kill = trace.entries[2]
        longer = trace._replace(entries=(kill._replace(slack_table=((12, "3"), *kill.slack_table)),))
        for obj in (longer, trace):
            assert emit_report(obj, "json") == reference_json(obj)
            assert obj.to_dict() == reference_dict(obj)


class TestGoldenOutput:
    """The exact bytes, per stream, and the exit code of the human tables."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["predict", "--p", "31", "--r", "80"],
             "3091c2c363481e63da140905e4d0ce7f49832a50085c67d218a9c131e4dc1ef9"),
            (["eliminate", "--p", "13", "--r", "20", "--vL", "-37/3"],
             "fde6d7385dc5d0be463afaf6ee90ad6b91f3f757538d994313330dd1d4e79dab"),
            (["sweep", "--p-range", "11:11", "--r-range", "15:15"],
             "3bf351e78967f7d8c18886af5beb052910d702e534c1b9dbdab09f8db6118cd6"),
        ],
    )
    def test_top_level_json_digest(self, capsys, argv, digest):
        # a trace or a prediction rendered at the top level, and a sweep of
        # one: the records are tuples, and a list of one is still a sweep
        code, out, err = run_cli(capsys, *argv, "--emit", "json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["--p", "13", "--b", "11", "--n", "155"],
             "52779dd680b4d1bbfee0838b2e9f080a5db2b2c8ed49f0460d457e2a964aa560"),
            (["--p", "5", "--b", "0", "--n", "3"],
             "6c201deb4cbf9e9811f0abe240586260531e240a39887a048d2d39dd1d4f93f7"),
        ],
    )
    def test_lambda_json_digest(self, capsys, argv, digest):
        # the largest family the sweeps verify, and the observed b = 0 deviation
        code, out, err = run_cli(capsys, "lambda", *argv, "--emit", "json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_sweep_json_digest(self, capsys):
        # the kill traces and predictions of every theorem-range (p, r) for p <= 31
        code, out, err = run_cli(capsys, "sweep", "--p-range", "5:31", "--emit", "json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "3bfadc6fbea98b6ff65be6043ace2c51200faf471b4eeaaf735c8229d54b2d61"
        )

    def test_sweep_json_digest_to_41(self, capsys):
        # every term table of nine primes
        code, out, err = run_cli(capsys, "sweep", "--p-range", "5:41", "--emit", "json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f1a85bc198642e06ee056d616bc111d5f02e92209ee92f97da96cbcc8fce6f9c"
        )

    @pytest.mark.skipif(
        not os.environ.get("PADICELIM_LONG_TESTS"),
        reason="about 10 s and 180 MB of output; set PADICELIM_LONG_TESTS=1 to run",
    )
    def test_sweep_json_digest_to_101(self):
        # streamed from a child process, so this process never holds the output
        env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
        argv = [sys.executable, "-m", "padicelim", "sweep", "--p-range", "5:101", "--emit", "json"]
        digest = hashlib.sha256()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env) as child:
            for chunk in iter(lambda: child.stdout.read(1 << 20), b""):
                digest.update(chunk)
            assert child.wait(timeout=60) == 0
        assert digest.hexdigest() == "1c2c8f724a7516d7bf877849cfbfacb108c636123657dd4b5655d428fa669d00"

    @pytest.mark.parametrize(
        "lemma,checks,digest",
        [
            ("lucas2", 8931, "96a26148dd540e55a17b1fd8b4c6c63b163811fa45fa568f61fbaee517ccb0bc"),
            ("stirling-lucas", 3433, "4cacdffa24390023ba7740adcca3b203135d3f70d4ebc9689ef2be6d0a4a7037"),
            ("lambda", 328, "6cd6e34a5a2dc7f54b48e791117e09580d3ce15a8342a233786928513e0b081d"),
            ("shallow", 584, "228a58a2198df4c0793f13c8b94a1ac8c711a64dc3b4ac5364b2ace9d24ab731"),
            ("star", 3700, "c42adaf051ba048d49e9f862697e73c3569ac77910c3383be9a62b93a09b2e21"),
            ("inequalities", 3112, "baced2410041e5afeaef77f7d2f3b28325605becc69071828ae3a7303248ade9"),
            ("vl-independence", 422, "d1868f224e2b52bb6f46d3fbe16cdbd57e696de1702e7ba59223dd3e0af090fc"),
        ],
    )
    def test_verify_json_digest(self, capsys, lemma, checks, digest):
        # every lemma sweep at its default primes: its checks, observations and verdict
        code, out, err = run_cli(capsys, "verify", lemma, "--emit", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["checked"] == checks
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.skipif(
        not os.environ.get("PADICELIM_LONG_TESTS"),
        reason="about 6 s; set PADICELIM_LONG_TESTS=1 to run",
    )
    @pytest.mark.parametrize(
        "lemma,p,checks",
        [
            ("lucas2", 13, 14_365), ("stirling-lucas", 13, 7_561), ("shallow", 13, 804),
            ("inequalities", 13, 5_532), ("stirling-lucas", 59, 437_431),
            ("lambda", 17, 272), ("lucas2", 17, 41_905), ("lambda", 23, 506),
            ("lambda", 29, 812),
        ],
    )
    def test_verify_at_larger_primes(self, lemma, p, checks):
        res = cli.VERIFIERS[lemma]((p,))
        assert res.passed and res.checked == checks, res.failures[:3]

    def test_congruence_table(self, capsys):
        assert run_cli(capsys, "congruence", "--p", "5", "--r", "8", "--n", "7") == (
            0,
            "p = 5  r = 8  n = 7  b = 1  eps = 2  vFall = 0  vL = -9/2  x = 3/2\n"
            "line   a    j  slack   total  coeff\n"
            "   1   1    4      2       2  -25200\n"
            "   1   1    5      1       0  15120\n"
            "   1   1    6      1      -1  -5040\n"
            "   1   2    4      2       2  6300\n"
            "   1   2    5      1       0  -3780\n"
            "   1   2    6      1      -1  1260\n"
            "   2   0    3      1       2  20860\n"
            "   2   0    4      1       1  -21140\n"
            "   2   0    5      0      -1  12768\n"
            "   2   0    6      1      -1  -4270\n",
            "",
        )

    def test_lambda_table_with_observed_deviations(self, capsys):
        deviations = [(0, 0), (0, 1)] + [(a, j) for a in (1, 2, 3) for j in range(4)]
        assert run_cli(capsys, "lambda", "--p", "5", "--b", "0", "--n", "3") == (
            0,
            "lambda family for p = 5, b = 0, n = 3\n"
            "  lambda_0 = -4\n"
            "  lambda_1 = 15\n"
            "  lambda_2 = -20\n"
            "  lambda_3 = 10\n"
            "  lambda_5 = -1\n"
            "bullets: 1 True, 2 False (observed), 3 True, 4 True\n"
            + "".join(f"  observed deviation at (a = {a}, j = {j})\n" for a, j in deviations),
            "",
        )

    def test_verify_table(self, capsys):
        assert run_cli(capsys, "verify", "lucas2", "--p", "5") == (
            0,
            "verify lucas2: primes (5,), 325 checks\n"
            "  observed: p=5: 225 pairs took the digit-formula path\n"
            "  PASS\n",
            "",
        )

    def test_failed_verify_sends_fail_lines_to_stderr_and_exits_1(self, capsys, monkeypatch):
        def failing(primes=(5, 7)):
            res = VerifyResult("lucas2", primes)
            res.checked, res.failures, res.observations = 3, ["first wrong", "second wrong"], ["seen"]
            return res

        monkeypatch.setitem(cli.VERIFIERS, "lucas2", failing)
        assert run_cli(capsys, "verify", "lucas2") == (
            1,
            "verify lucas2: primes (5, 7), 3 checks\n  observed: seen\n  FAIL\n",
            "  FAIL: first wrong\n  FAIL: second wrong\n",
        )
        code, out, err = run_cli(capsys, "verify", "lucas2", "--p", "5", "--emit", "json")
        assert (code, err) == (1, "")
        assert json.loads(out)["failures"] == ["first wrong", "second wrong"]


class TestUsage:
    def test_internal_value_error_is_not_mapped_to_exit_2(self, capsys, monkeypatch):
        def broken(p, r):
            raise ValueError("internal bug")

        monkeypatch.setattr(cli, "predict", broken)
        with pytest.raises(ValueError, match="internal bug"):
            main(["predict", "--p", "7", "--r", "10"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--p-range", "5:13", "--emit", "json"],
            ["congruence", "--p", "11", "--r", "30", "--n", "30"],
            ["predict", "--p", "5", "--r", "8"],
        ],
    )
    def test_closed_stdout_exits_1_with_nothing_on_stderr(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        # a buffered stdout, as by default, so a short output fails only at the flush
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(PACKAGE_DIR.parent)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "padicelim", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")

    def test_no_subcommand_exits_2(self, capsys):
        expected = "error: padicelim: the following arguments are required: cmd\n"
        assert run_cli(capsys) == (2, "", expected)

    @pytest.mark.parametrize(
        "argv,prog,message",
        [
            (["predict", "--p", "5", "--r", "x"], "padicelim predict", "argument --r: invalid int value: 'x'"),
            (["predict", "--p", "5"], "padicelim predict", "the following arguments are required: --r"),
            (
                ["verify", "everything"], "padicelim verify",
                "argument lemma: invalid choice: 'everything' (choose from 'inequalities', 'lambda', "
                "'lucas2', 'shallow', 'star', 'stirling-lucas', 'vl-independence')",
            ),
            (
                ["predict", "--p", "5", "--r", "8", "--emit", "xml"], "padicelim predict",
                "argument --emit: invalid choice: 'xml' (choose from 'table', 'json', 'tsv')",
            ),
            (["predict", "--p", "5", "--r", "8", "--x", "1"], "padicelim", "unrecognized arguments: --x 1"),
            (["sweep", "--p-range", "5:7", "--jobs", "2"], "padicelim", "unrecognized arguments: --jobs 2"),
            (
                ["sweep", "--p-range", "5"], "padicelim sweep",
                "argument --p-range: range must look like A:B, got '5'",
            ),
        ],
    )
    def test_argparse_error_is_one_line(self, capsys, argv, prog, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {prog}: {message}\n")

    def test_help_exits_0(self, capsys):
        for argv in (["--help"], ["predict", "--help"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), argv
            assert out.startswith(f"usage: {' '.join(['padicelim', *argv[:-1]])} [-h]"), out


class TestInvariantsUnderOptimization:
    def test_no_postponed_annotations(self):
        # every import would compile each record field's annotation again
        found = [
            path.name
            for path in sorted(PACKAGE_DIR.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ImportFrom) and node.module == "__future__"
            and any(alias.name == "annotations" for alias in node.names)
        ]
        assert found == []

    def test_no_assert_statements(self):
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(PACKAGE_DIR.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_all_lists_exactly_the_public_definitions(self):
        problems = []
        for path in sorted(PACKAGE_DIR.glob("*.py")):
            tree = ast.parse(path.read_text())
            assigned = {
                t.id for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)
            }
            if "__all__" not in assigned:
                continue
            module = importlib.import_module(
                "padicelim" if path.stem == "__init__" else f"padicelim.{path.stem}"
            )
            listed = set(module.__all__)
            problems += [
                f"{path.name}: {name} is listed but undefined"
                for name in sorted(listed)
                if not hasattr(module, name)
            ]
            public = {
                node.name
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
            }
            problems += [f"{path.name}: {name} is public but unlisted" for name in sorted(public - listed)]
        assert problems == []

    def test_every_listed_name_has_a_reader(self):
        # a listed name is read by another module's import, by its own
        # module, or by the benchmark
        trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE_DIR.glob("*.py"))}
        imported = {
            (node.module, alias.name)
            for tree in trees.values()
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        bench = "\n".join(path.read_text() for path in sorted(BENCH_DIR.rglob("*.py")))
        unread = []
        for stem, tree in trees.items():
            module = "padicelim" if stem == "__init__" else f"padicelim.{stem}"
            loads = {
                node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            listed = [
                name
                for node in tree.body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__"
                for name in ast.literal_eval(node.value)
            ]
            unread += [
                f"{module}.{name}"
                for name in listed
                if (module, name) not in imported
                and name not in loads
                and not re.search(rf"\b{name}\b", bench)
            ]
        assert unread == []

    def test_only_the_holder_drops_per_prime_state(self):
        # a process keeps per-prime state in exactnum.per_prime alone: functools
        # caches only a bounded or p-free function, and nothing else clears,
        # deletes from, pops or rebinds a module-level container
        cached, dropped = [], []
        for path in sorted(PACKAGE_DIR.glob("*.py")):
            tree = ast.parse(path.read_text())
            held = {
                node.id for top in tree.body if isinstance(top, (ast.Assign, ast.AnnAssign))
                for node in ast.walk(top) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            }
            for top in tree.body:
                where = f"{path.stem}.{getattr(top, 'name', '<module>')}"
                for node in ast.walk(top):
                    if isinstance(node, ast.FunctionDef) and any(
                        re.search(r"\b(lru_)?cache\b", ast.unparse(d)) for d in node.decorator_list
                    ):
                        cached.append(where)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in (
                        "clear", "pop", "popitem"
                    ) and ast.unparse(node.func.value) in held:
                        dropped.append(f"{where}: .{node.func.attr}()")
                    if isinstance(node, ast.Delete):
                        dropped += [
                            f"{where}: del" for t in node.targets
                            if isinstance(t, ast.Subscript) and ast.unparse(t.value) in held
                        ]
                    if isinstance(node, ast.Global):
                        dropped.append(f"{where}: global")
        assert cached == ["exactnum.is_prime", "exactnum.harmonic"]
        assert dropped == ["exactnum.per_prime: .clear()"]

    def test_one_module_writes_the_trace_json(self):
        # a second writer or dict builder of the JSON form would name its keys
        keys = ("subquotients", "slack_table", "witness_n")
        found = {
            (key, path.name)
            for path in sorted(PACKAGE_DIR.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for key in keys
            if node.value == key or f'"{key}"' in node.value
        }
        assert found == {(key, "eliminator.py") for key in keys}

    def test_only_main_prints_to_stdout(self):
        # one render path: a subcommand returns its output, main prints it
        stdout_calls, emit_reads = [], []
        for top in ast.parse((PACKAGE_DIR / "cli.py").read_text()).body:
            name = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = ast.unparse(node.func)
                    files = [ast.unparse(k.value) for k in node.keywords if k.arg == "file"]
                    if (func == "print" and files in ([], ["sys.stdout"])) or func == "sys.stdout.write":
                        stdout_calls.append(name)
                if name.startswith("_cmd_") and isinstance(node, ast.Attribute) and node.attr == "emit":
                    emit_reads.append(name)
        assert (stdout_calls, emit_reads) == (["main"], [])

    def test_no_module_imports_a_process_pool(self):
        # a sweep runs in one process: no second path through a pool
        pools = ("concurrent", "multiprocessing")
        found = [
            f"{path.stem}: {ast.unparse(node)}"
            for path in sorted(PACKAGE_DIR.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if (isinstance(node, ast.Import) and any(a.name.split(".")[0] in pools for a in node.names))
            or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in pools)
        ]
        assert found == []

    def test_cold_cli_import_loads_neither_dataclasses_nor_inspect(self):
        # every CLI request pays for its imports; inspect comes with dataclasses
        code = (
            "import padicelim.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
        )
        argv = [sys.executable, "-S", "-c", code]
        env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"

    def test_predict_under_python_O(self):
        env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
        argv = [sys.executable, "-O", "-m", "padicelim", "predict", "--p", "7", "--r", "10", "--emit", "json"]
        done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == emit_report(predict(7, 10), "json") + "\n"
