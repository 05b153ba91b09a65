"""Elimination engine: full traces, predictions, round trip."""

import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from padicelim import eliminator, exactnum
from padicelim.congruence import (
    audit_bad,
    audit_good,
    audit_ugly,
    fall_valuation,
    make_params,
    master_terms,
    window_degrees,
)
from padicelim.eliminator import (
    predict,
    run_elimination,
    theorem_r_values,
    trace_from_dict,
    trace_json,
)
from padicelim.errors import EliminationIncompleteError, PadicElimError
from padicelim.exactnum import is_prime
from trace_reference import slack_window


def good_candidates(p, r):
    """The n of r's window with vFall = 0: the degrees of its good kills."""
    return [n for n in window_degrees(p, r) if fall_valuation(p, n) == 0]


def survivors(trace):
    return [e.i for e in trace.entries if e.method is None]


def trace_summary(trace):
    out = {}
    for e in trace.entries:
        if e.method is None:
            out[e.i] = ("survivor", None)
        else:
            out[e.i] = (e.method, e.witness_n)
    return out


class TestRunElimination:
    def test_p5_r8(self):
        trace = run_elimination(5, 8, -5)
        assert trace_summary(trace) == {
            0: ("shallow", None),
            1: ("survivor", None),
            2: ("good", (8,)),
            3: ("good", (7,)),
            4: ("ugly", (6, 7)),
            5: ("trivial", None),
            6: ("trivial", None),
            7: ("trivial", None),
            8: ("trivial", None),
        }
        assert trace.c == 1 and survivors(trace) == [1]

    def test_p5_r14(self):
        trace = run_elimination(5, 14, -8)
        expected = {
            0: ("shallow", None),
            1: ("shallow", None),
            2: ("survivor", None),
            3: ("good", (14,)),
            4: ("good", (13,)),
            5: ("ugly", (12, 13)),
            6: ("bad", (11,)),
            7: ("good", (9,)),
        }
        expected.update({i: ("trivial", None) for i in range(8, 15)})
        assert trace_summary(trace) == expected

    def test_p7_r10(self):
        trace = run_elimination(7, 10, -6)
        expected = {
            0: ("shallow", None),
            1: ("survivor", None),
            2: ("good", (10,)),
            3: ("good", (9,)),
            4: ("ugly", (8, 9)),
            5: ("good", (6,)),
        }
        expected.update({i: ("trivial", None) for i in range(6, 11)})
        assert trace_summary(trace) == expected

    def test_r_2p_minus_1_succeeds_without_ugly(self):
        # the two-phase window fails at r = 2p - 1, but its target degree
        # p - 1 sits below the filtration window and the good kills cover
        # every deeper index
        trace = run_elimination(5, 9)
        assert survivors(trace) == [1]
        assert all(e.method != "ugly" for e in trace.entries)

    def test_index_degree_correspondence(self):
        trace = run_elimination(7, 18)
        rows = trace.to_dict()["subquotients"]
        for row in rows:
            assert row["j"] == trace.r - row["i"]
        assert rows[0]["j"] == trace.r
        half = trace.r // 2
        assert rows[half]["j"] == (trace.r + 1) // 2

    def test_audited_rows_are_the_audits_own(self):
        # the trace stores the row each audit returns, unchanged
        p, r = 7, 18
        audits = {
            "good": lambda e: audit_good(p, r, e.witness_n[0]),
            "bad": lambda e: audit_bad(p, r),
            "ugly": lambda e: audit_ugly(p, r, r // p),
        }
        audited = [e for e in run_elimination(p, r).entries if e.method in audits]
        assert {e.method for e in audited} == set(audits)
        for e in audited:
            assert e == audits[e.method](e), e.i

    def test_kill_partition(self):
        for p, r in [(5, 8), (5, 14), (7, 12), (7, 20), (11, 16)]:
            trace = run_elimination(p, r)
            killed = {e.i for e in trace.entries if e.method is not None}
            assert killed == set(range(r + 1)) - {trace.c}

    def test_default_and_explicit_vl(self):
        assert run_elimination(5, 8).vL == Fraction(-9, 2)
        assert run_elimination(5, 8, "-13/2").vL == Fraction(-13, 2)
        with pytest.raises(PadicElimError, match=r"^vL = -4 must be < -r/2 = -4$"):
            run_elimination(5, 8, -4)  # not < -r/2

    def test_every_audited_n_is_at_most_r(self):
        # the audits need vL < r/2 - n, which vL < -r/2 gives once n <= r:
        # so run_elimination's check is the one vL check of a kill
        for p in filter(is_prime, range(5, 60)):
            for r in filter(lambda r: eliminator._accepted_r(p, r), range(p, 3 * p)):
                c = r // p
                audited = set(good_candidates(p, r))
                if c == 2:
                    audited.add(2 * p + 1)
                if 2 * (c * p - 1) >= r:
                    audited |= {c * p + c, c * p + c + 1}
                assert all(n <= r for n in audited), (p, r)
                if p < 14:  # the n listed are those the trace's kills were audited at
                    trace = run_elimination(p, r)
                    assert {n for e in trace.entries if e.witness_n for n in e.witness_n} == audited, (p, r)

    @pytest.mark.parametrize("vL, message", [
        (-4.5, "rational literal expected (got -4.5)"),
        ("-4.5", "rational literal expected (got '-4.5'); decimals are not accepted"),
    ], ids=["float", "decimal-text"])
    def test_float_and_decimal_vl_rejected(self, vL, message):
        with pytest.raises(PadicElimError) as caught:
            run_elimination(5, 8, vL)
        assert type(caught.value) is PadicElimError and str(caught.value) == message

    def test_range_errors(self):
        outside = r" outside \[8, 9\] u \[14, 14\]$"
        with pytest.raises(PadicElimError, match="^r = 7" + outside):
            run_elimination(5, 7)  # below p + 3
        with pytest.raises(PadicElimError, match="^r = 10" + outside):
            run_elimination(5, 10)  # the gap [2p, 2p+3]
        with pytest.raises(PadicElimError, match="^r = 15" + outside):
            run_elimination(5, 15)  # above 3p - 1
        with pytest.raises(PadicElimError, match=r"^p = 9 is not a prime >= 5$"):
            run_elimination(9, 12)

    def test_good_candidates_never_target_survivor(self):
        for p in (5, 7, 11):
            for r in theorem_r_values(p):
                c = r // p
                for n in good_candidates(p, r):
                    assert r - (n - n // p - 1) != c

    def test_failed_audit_raises_with_term_rows(self, monkeypatch, mutate_table):
        n = good_candidates(7, 12)[0]
        target_j = n - n // 7 - 1
        mutate_table(monkeypatch, n, (2, 0, target_j), slack=1)
        with pytest.raises(EliminationIncompleteError) as info:
            run_elimination(7, 12)
        assert str(info.value) == (
            f"good audit failed at n = {n}: "
            f"term (line 2, a=0, j={target_j}) has slack 1, needs 0 with a unit residue (generator); "
            f"no generator found at degree {target_j}"
        )

    def test_repeated_kill_is_an_error(self, monkeypatch):
        original = eliminator.good_kills
        monkeypatch.setattr(eliminator, "good_kills", lambda p, r: original(p, r)[:1] * 2)
        with pytest.raises(EliminationIncompleteError) as info:
            run_elimination(7, 12)
        assert str(info.value) == "method good kills i = 5, already killed by good"

    def test_kill_inside_the_trivial_block_is_an_error(self, monkeypatch):
        # the trivial rows (r/2, r] are not recorded one by one; a kill among
        # them is still named, at the least such index
        original = eliminator.good_kills
        monkeypatch.setattr(
            eliminator, "good_kills", lambda p, r: (*original(p, r), original(p, r)[0]._replace(i=r))
        )
        with pytest.raises(EliminationIncompleteError) as info:
            run_elimination(7, 12)
        assert str(info.value) == "method trivial kills i = 12, already killed by good"

    def test_failed_shallow_certificate_names_each_failure(self, monkeypatch):
        original = eliminator.shallow_kill_check
        failures = ("f_1 has no unit at X^0Y^12", "summand at lam = 0 has X-degree 0 < 1")
        monkeypatch.setattr(
            eliminator, "shallow_kill_check", lambda p, r, i: original(p, r, i)._replace(failures=failures)
        )
        with pytest.raises(EliminationIncompleteError) as info:
            run_elimination(7, 12)
        assert str(info.value) == (
            "shallow certificate failed at i = 0: "
            "f_1 has no unit at X^0Y^12; summand at lam = 0 has X-degree 0 < 1"
        )

    def test_kill_of_the_survivor_is_an_error(self, monkeypatch):
        original = eliminator.good_kills
        monkeypatch.setattr(eliminator, "good_kills", lambda p, r: tuple(e._replace(i=1) for e in original(p, r)))
        with pytest.raises(EliminationIncompleteError) as info:
            run_elimination(7, 12)
        assert str(info.value) == "method good targets the surviving index i = 1"

    def test_missing_kill_is_an_error(self, monkeypatch):
        original = eliminator.good_kills
        monkeypatch.setattr(eliminator, "good_kills", lambda p, r: original(p, r)[1:])
        assert original(7, 12)[0].witness_n == (9,)
        with pytest.raises(EliminationIncompleteError) as info:
            run_elimination(7, 12)
        assert str(info.value) == "no kill found for indices [5]"

    def test_kill_of_a_negative_index_leaves_its_own_missing(self, monkeypatch):
        # a kill aimed below 0 does not stand in for the index it should
        # kill: here the two-phase kill of i = 6 = r/2, the last index checked
        original = eliminator.audit_ugly
        assert original(7, 12, 1).i == 6
        monkeypatch.setattr(eliminator, "audit_ugly", lambda p, r, c: original(p, r, c)._replace(i=-1))
        with pytest.raises(EliminationIncompleteError) as info:
            run_elimination(7, 12)
        assert str(info.value) == "no kill found for indices [6]"

    def test_a_miss_fails_the_windows_that_hold_it_only(self, monkeypatch, mutate_table):
        # the good n = 11 at p = 7 with its line-2 degree-6 slack at -1: the
        # table has a miss, and only the theorem-range r whose window holds
        # degree 6 (r <= 14) fail
        mutate_table(monkeypatch, 11, (2, 0, 6), slack=-1)
        for r, status in ((11, "deeper-integral"), (12, "deeper-integral"), (13, "below-range")):
            with pytest.raises(EliminationIncompleteError) as info:
                run_elimination(7, r)
            assert str(info.value) == (
                f"good audit failed at n = 11: term (line 2, a=0, j=6) has slack -1, needs >= 0 ({status})"
            ), r
        trace = run_elimination(7, 18)
        assert exactnum._KEPT[7]["tables"][11].misses
        row = next(e for e in trace.entries if e.witness_n == (11,))
        assert row == audit_good(7, 18, 11) and row.passed and (6, "-1") not in slack_window(row)

    @pytest.mark.parametrize("p", [p for p in range(5, 32) if is_prime(p)])
    def test_good_rows_and_table_verdicts_match_their_audits(self, no_prime_held, p):
        # each good row the engine stores is the row audit_good returns,
        # failures and all; whether a table has its generator and no miss is
        # recomputed from its terms, read whole at r = max(p, n)
        rows = 0
        for r in theorem_r_values(p) + (2 * p - 1,):
            for e in run_elimination(p, r).entries:
                if e.method == "good":
                    assert e == audit_good(p, r, e.witness_n[0]), (r, e.i)
                    rows += 1
        assert rows > 0
        tables = exactnum._KEPT[p]["tables"]
        good = {n: table.generator and not table.misses for n, table in tables.items()}
        assert {n for n in good if not good[n]} == {p + 1, 2 * p + 2}
        for n in good:
            r = max(p, n)
            terms = master_terms(make_params(p, r, n, Fraction(r, 2) - n - 1))
            assert good[n] == _good_by_terms(terms, n - n // p - 1), n


def _good_by_terms(terms, target):
    """Whether every term of an audit aimed at ``target`` with no residual or must-die degree meets its bound."""
    def meets(t):
        if t.slack is None:
            return True
        if t.j > target or (t.j == target and t.line == 1):
            return t.slack > 0  # dead
        if t.j == target:
            return t.slack == 0  # the generator
        return t.slack >= 0  # deeper-integral or below-range

    generator = any(t.line == 2 and t.j == target and t.slack == 0 for t in terms)
    return generator and all(map(meets, terms))


class TestPredict:
    def test_p5_r8(self):
        result = predict(5, 8)
        assert result.label == "ind omega2^9"
        assert result.exponent == 9 and result.survivor == 1
        assert result.irreducibility_residue not in result.excluded_residues

    def test_p5_r14(self):
        assert predict(5, 14).label == "ind omega2^15"

    def test_r_2p_minus_1_unavailable(self):
        with pytest.raises(PadicElimError, match=r"^prediction unavailable: r = 2p-1 = 9 \(the reducibility guard fails\)$"):
            predict(5, 9)

    def test_guard_fails_only_at_r_2p_minus_1(self):
        # pure arithmetic, no elimination: over [p+3, 2p-1] u [2p+4, 3p-1]
        # r - 2c is 1 or p - 2 mod p - 1 exactly when r = 2p - 1
        for p in filter(is_prime, range(5, 102)):
            for r in [*range(p + 3, 2 * p), *range(2 * p + 4, 3 * p)]:
                blocked = (r - 2 * (r // p)) % (p - 1) in (1, p - 2)
                assert blocked == (r == 2 * p - 1), (p, r)

    def test_gap_ranges_rejected(self):
        outside = r" outside \[8, 8\] u \[14, 14\]$"
        for r in (10, 11, 12, 13):  # [2p, 2p+3] for p = 5
            with pytest.raises(PadicElimError, match=f"^r = {r}" + outside):
                predict(5, r)
        with pytest.raises(PadicElimError, match="^r = 7" + outside):
            predict(5, 7)  # r <= p + 2 not covered

    def test_r_rejected_without_building_the_theorem_range(self):
        tracemalloc.start()
        try:
            with pytest.raises(PadicElimError, match=r"^r = 5 outside \[1000006, 2000004\] u \[2000010, 3000008\]$"):
                predict(1000003, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("p", [5, 7])
    def test_sweep_survivor_and_exponent(self, p):
        for r in theorem_r_values(p):
            result = predict(p, r)
            assert result.survivor == r // p
            assert result.exponent == r + 1


class TestSerialization:
    def test_json_round_trip(self):
        trace = run_elimination(5, 14, -8)
        data = json.loads(json.dumps(trace.to_dict()))
        assert trace_from_dict(data).to_dict() == data

    def test_a_parsed_trace_renders_as_the_engines(self, no_prime_held):
        # a parsed row holds its window alone, from 0; rendered between the
        # engine's traces it writes the same bytes and leaves no stale line
        traces = [run_elimination(13, r) for r in (20, 30, 38)]
        texts = [trace_json(trace) for trace in traces]
        for trace, text in zip(traces, texts):
            parsed = trace_from_dict(json.loads(text))
            assert trace_json(parsed) == text
            rows = [(e, row) for e, row in zip(trace.entries, parsed.entries) if e.slack_table is not None]
            assert all(row.slack_start == 0 and row.slack_table == slack_window(e) for e, row in rows)
        assert [trace_json(trace) for trace in traces] == texts

    def test_audited_rows_share_their_tables_slack_pairs(self, no_prime_held):
        # every audited row of a (p, n) holds that table's own slack tuple,
        # not a copy, and the start of its r's window in it
        rows = [e for r in theorem_r_values(13) for e in predict(13, r).trace.entries if e.slack_table is not None]
        tables = exactnum._KEPT[13]["tables"]
        assert {e.method for e in rows} == {"good", "bad", "ugly"}
        assert all(e.slack_table is tables[e.witness_n[0]].slacks for e in rows)
        assert {e.slack_start for e in rows} > {0}

    @pytest.mark.skipif(
        not os.environ.get("PADICELIM_LONG_TESTS"),
        reason="about 3 s; set PADICELIM_LONG_TESTS=1 to run",
    )
    def test_a_prime_range_with_its_results_kept_stays_small(self):
        # predict over the whole p = 211 range, every result kept, in a fresh
        # process: the rows share their tables' slack pairs, and the pass peaks
        # near 111 MB on Linux with Python 3.11 (191 MB with a copy per kill)
        code = (
            "from padicelim.eliminator import predict, theorem_r_values; "
            "results = [predict(211, r) for r in theorem_r_values(211)]"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(eliminator.__file__).parents[1])}
        child = subprocess.Popen([sys.executable, "-c", code], env=env)
        _pid, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        assert child.returncode == 0
        assert usage.ru_maxrss < 150 * 1024  # KiB

    @pytest.mark.parametrize("field", ["status", "j"])
    def test_a_row_disagreeing_on_a_derived_field_does_not_round_trip(self, field):
        # j = r - i and the status (survivor iff no method) are derived, not read
        data = run_elimination(7, 18).to_dict()
        assert trace_from_dict(data).to_dict() == data
        row = next(row for row in data["subquotients"] if row["method"] == "good")
        row[field] = "survivor" if field == "status" else row["j"] + 1
        assert trace_from_dict(data).to_dict() != data

    def test_prediction_dict_schema(self):
        data = predict(5, 8).to_dict()
        assert set(data) == {"p", "r", "c", "vL", "subquotients", "prediction"}
        assert data["vL"] == "-9/2"
        assert len(data["subquotients"]) == 9
        assert sum(1 for row in data["subquotients"] if row["status"] == "survivor") == 1
        pred = data["prediction"]
        assert pred["label"] == "ind omega2^9" and pred["exponent"] == 9
        assert pred["irreducibility"]["excluded"] == [1, 3]
