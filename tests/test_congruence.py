"""Master congruence: parameters, star coefficient, terms, audits, inequalities.

The worked numbers for (p, r, n) = (5, 8, 7) are frozen from exact desk
evaluation: star_5 = 608, star_6 = 610, with residues 8 and 10 mod 25.
"""

import math
import os
import tracemalloc
from fractions import Fraction

import pytest

from padicelim import combinat, congruence, eliminator, exactnum, verify
from padicelim.congruence import (
    BELOW,
    DEAD,
    DEEPER,
    GENERATOR,
    RESIDUAL,
    audit_bad,
    audit_good,
    audit_ugly,
    fall_valuation,
    good_kills,
    inequality_suite,
    make_params,
    master_terms,
    star_full,
    star_mod_p2,
    window_degrees,
)
from padicelim.errors import PadicElimError
from padicelim.combinat import stirling2
from padicelim.eliminator import predict, run_elimination, theorem_r_values
from padicelim.exactnum import INF, ValP, harmonic, is_prime, rational_mod, vp_factorial, vp_int
from padicelim.verify import VerifyResult, verify_star, verify_vl_independence
from trace_reference import slack_window
from valuation_reference import vp


class TestMakeParams:
    def test_example_n7(self):
        params = make_params(5, 8, 7, -5)
        assert (params.b, params.eps, params.v_fall) == (1, 2, 0)
        assert params.x == Fraction(4) - 7 - 0 + 5 == 2

    def test_example_n6(self):
        params = make_params(5, 8, 6, -5)
        assert params.v_fall == 1 and params.x == 2

    def test_window_error(self):
        with pytest.raises(PadicElimError, match=r"^n = 5 outside the window \[6, 8\]$"):
            make_params(5, 8, 5, -5)  # 5 < r/2 + b + 1 = 6
        with pytest.raises(PadicElimError, match=r"^n = 9 outside the window \[6, 8\]$"):
            make_params(5, 8, 9, -5)  # n > r

    def test_named_errors(self):
        with pytest.raises(PadicElimError, match=r"^p = 6 is not a prime >= 5$"):
            make_params(6, 8, 7, -5)
        with pytest.raises(PadicElimError, match=r"^r = 20 outside \[5, 19\]$"):
            make_params(5, 20, 12, -9)  # r > p^2 - p - 1
        with pytest.raises(PadicElimError, match=r"^vL must be < r/2 - n = -3, got -3$"):
            make_params(5, 8, 7, -3)  # needs < -3

    def test_n_above_r_is_a_window_error(self):
        with pytest.raises(PadicElimError, match=r"^n = 20 outside the window \[13, 19\]$"):
            make_params(5, 19, 20, -20)

    def test_window_error_does_not_build_the_window(self):
        # r may reach p^2 - p - 1; the message walks to the window's start
        tracemalloc.start()
        try:
            with pytest.raises(PadicElimError, match=r"^n = 0 outside the window \[508541, 1016071\]$"):
                make_params(1009, 1016071, 0, -10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_window_degrees_match_the_definition(self):
        for p in filter(is_prime, range(5, 40)):
            for r in range(p * p):
                want = tuple(n for n in range(r // 2 + 1, r + 1) if 2 * n >= r + 2 * (n // p) + 2)
                assert window_degrees(p, r) == want, (p, r)

    def test_admissible_degrees_keep_b_at_most_p_minus_2(self):
        # every admissible n has n <= r, and n = r is admissible, so the
        # largest b at r is r // p; it stays <= p - 2 up to r = p^2 - p - 1
        for p in filter(is_prime, range(5, 102)):
            for r in range(p, p * p - p):
                assert 2 * r >= r + 2 * (r // p) + 2 and r // p <= p - 2, (p, r)

    def test_consequences_hold(self):
        params = make_params(7, 18, 15, -10)
        assert params.x >= -params.v_fall >= -1
        assert params.n - params.v_fall > Fraction(params.r, 2)

    def test_every_admissible_degree_has_vfall_at_most_1_and_n_minus_vfall_above_half_r(self):
        # the hypotheses imply both, so _check_window does not test them
        checked = 0
        for p in filter(is_prime, range(5, 30)):
            for r in range(p, p * p - p):
                for n in window_degrees(p, r):
                    v_fall = fall_valuation(p, n)
                    assert v_fall <= 1 and 2 * (n - v_fall) > r, (p, r, n)
                    checked += 1
        assert checked == 273124


class TestFallValuation:
    def test_closed_form_matches_the_falling_factorial(self):
        # n < p^2: each multiple of p among n - b, ..., n adds exactly one p
        checked = 0
        for p in filter(is_prime, range(2, 32)):
            for n in range(1, p * p - p):
                b = n // p
                assert fall_valuation(p, n) == vp_int(math.prod(range(n - b, n + 1)), p), (p, n)
                checked += 1
        assert checked == 3187

    @pytest.mark.parametrize("n", [-1, 0, 49, 50])
    def test_rejects_n_outside_the_closed_form(self, n):
        with pytest.raises(PadicElimError, match=rf"n = {n} outside \[1, 48\]"):
            fall_valuation(7, n)


class TestFixedDegrees:
    """The identities of the bad and ugly degrees, which their audits take as given, for 5 <= p < 400."""

    PRIMES = tuple(filter(is_prime, range(5, 400)))

    def test_bad_and_ugly_degrees_have_their_b_vfall_and_target(self):
        for p in self.PRIMES:
            # (n, b, vFall, target n - b - 1)
            cases = [(2 * p + 1, 2, 1, 2 * p - 2)]
            for c in (1, 2):
                cases += [(c * p + c, c, 1, c * p - 1), (c * p + c + 1, c, 0, c * p)]
            for n, b, v_fall, target in cases:
                assert (n // p, fall_valuation(p, n), n - n // p - 1) == (b, v_fall, target), (p, n)

    def test_the_range_of_r_keeps_the_unchecked_degrees_in_the_window(self):
        # audit_bad checks no window for n = 2p + 1, and audit_ugly none for
        # n = cp + c + 1 once n = cp + c passes its own
        for p in self.PRIMES:
            for r in range(2 * p + 4, 3 * p):
                assert congruence._check_window(p, r, 2 * p + 1) == (2, 1, 1), (p, r)
            for c in (1, 2):
                for r in range(c * p + c + 2, (c + 1) * p):
                    if 2 * (c * p + c) >= r + 2 * c + 2:
                        assert congruence._check_window(p, r, c * p + c + 1) == (c, c + 1, 0), (p, r)

    def test_every_accepted_r_meets_the_shallow_bound(self):
        # run_elimination certifies i = 1..c with c = r // p, each needing r >= i(p + 1) - 1
        for p in self.PRIMES:
            for r in filter(lambda r: eliminator._accepted_r(p, r), range(p, 3 * p)):
                assert r // p * (p + 1) - 1 <= r <= p * p - p - 1, (p, r)


class TestAuditErrors:
    """The audits check make_params' hypotheses on p, r and n in integers, with its messages."""

    DECIMAL = "rational literal expected (got '-4.5'); decimals are not accepted"
    CASES = [
        (audit_good, (6, 8, 7), "p = 6 is not a prime >= 5"),
        (audit_good, (5, 20, 12), "r = 20 outside [5, 19]"),
        (audit_good, (5, 8, 5), "n = 5 outside the window [6, 8]"),
        (audit_good, (5, 8, 9), "n = 9 outside the window [6, 8]"),
        (audit_good, (5, 8, 6), "v_p([6]_2) = 1 != 0: n is not a good candidate"),
        (audit_bad, (6, 14), "p = 6 is not a prime >= 5"),
        (audit_bad, (5, 13), "r = 13 outside [14, 14]"),
        (audit_ugly, (6, 8, 1), "p = 6 is not a prime >= 5"),
        (audit_ugly, (5, 8, 3), "c = 3 must be 1 or 2"),
        (audit_ugly, (5, 7, 1), "r = 7 outside [8, 9]"),
        (audit_ugly, (7, 13, 1), "n = 8 outside the window [9, 13]"),
        # no floating point: a float or a decimal vL is refused, as the CLI refuses it
        (make_params, (5, 8, 7, -4.5), "rational literal expected (got -4.5)"),
        (make_params, (5, 8, 7, "-4.5"), DECIMAL),
    ]

    @pytest.mark.parametrize(
        "audit, args, message", CASES, ids=[f"{case[0].__name__}-{k}" for k, case in enumerate(CASES)]
    )
    def test_error_class_and_message(self, audit, args, message):
        with pytest.raises(PadicElimError) as caught:
            audit(*args)
        assert type(caught.value) is PadicElimError and str(caught.value) == message


class TestStar:
    def test_worked_values(self):
        params = make_params(5, 8, 7, -5)
        assert star_full(params, 5) == 608
        assert star_full(params, 6) == 610
        assert star_mod_p2(params, 5) == 8
        assert star_mod_p2(params, 6) == 10
        # mod p case values
        assert 608 % 5 == (-math.factorial(2)) % 5
        assert 610 % 5 == 0

    def test_simplified_matches_hand_formula(self):
        # -{1 brace 2} 2! - 5 H_2 {1 brace 1} 2! = -15 = 10 mod 25
        params = make_params(5, 8, 7, -5)
        assert star_mod_p2(params, 6) == rational_mod(-5 * harmonic(2) * 2, 25)

    def test_high_degree_vanishes_mod_p2(self):
        params = make_params(5, 14, 12, -8)
        assert rational_mod(star_full(params, 11), 25) == 0  # j in [n-b+1, n-1]

    def test_degree_range(self):
        params = make_params(5, 8, 7, -5)
        with pytest.raises(PadicElimError, match=r"^j = 2 outside \[3, 6\]$"):
            star_full(params, 2)
        with pytest.raises(PadicElimError, match=r"^j = 7 outside \[3, 6\]$"):
            star_full(params, 7)

    @pytest.mark.parametrize("p", [5, 7])
    def test_full_vs_simplified_small_sweep(self, p):
        for r in range(p, 3 * p):
            for n in range(r // 2 + 1, r + 1):
                b = n // p
                if b > p - 2 or 2 * n < r + 2 * b + 2:
                    continue
                params = make_params(p, r, n, Fraction(r, 2) - n - 1)
                for j in range((r + 1) // 2 - 1, n):
                    assert rational_mod(star_full(params, j), p * p) == star_mod_p2(params, j)


class TestMasterTerms:
    def test_generator_term_at_5_8_7(self):
        params = make_params(5, 8, 7, -5)
        terms = {(t.line, t.a, t.j): t for t in master_terms(params)}
        gen = terms[(2, 0, 5)]
        assert gen.slack == 0
        assert gen.coeff == math.comb(7, 5) * 608  # C(n,j) (-1)^(n-j) star_j
        assert terms[(2, 0, 6)].slack == 1  # 610 = 5 * 122

    def test_first_line_slack_at_least_one(self):
        params = make_params(5, 8, 7, -5)
        for t in master_terms(params):
            if t.line == 1 and t.coeff != 0:
                assert t.slack >= 1  # C(10, 8) = 45 carries the p

    def test_total_val_is_vl_independent(self):
        # each vL's un-cancelled sum x + (n - j) + vL + v_p(C) gives the same total_val
        for vL in (-5, -9, Fraction(-9, 2), -6):
            params = make_params(5, 8, 7, vL)
            for t in master_terms(params):
                if t.coeff == 0:
                    continue
                uncancelled = params.x + (params.n - t.j) + params.vL + vp(t.coeff, 5)
                assert t.total_val(params.r) == uncancelled, (vL, (t.line, t.a, t.j))

    @staticmethod
    def _closed_form_terms(p, r, n, oracle_cache):
        """(line, a, j, coeff, slack) from the docstring's closed forms."""
        params = make_params(p, r, n, Fraction(r, 2) - n - 1)
        b, eps = divmod(n, p)
        v_fall = vp(math.prod(range(n - b, n + 1)), p)
        ceil_half = (r + 1) // 2
        wanted = [(1, a, j) for a in range(1, eps + 1) for j in range(ceil_half, n)]
        wanted += [(2, 0, j) for j in range(ceil_half - 1, n)]
        rows = []
        for line, a, j in wanted:
            key = (p, n, line, a, j)
            if key not in oracle_cache:
                if line == 1:
                    coeff = Fraction(
                        math.comb(n, j) * math.comb(eps, a) * (-1) ** (a + j + b + 1)
                        * math.comb((b + 1) * p, n + 1) * (n + 1) * math.factorial(b)
                        * stirling2(n - j, b),
                        a,
                    )
                else:
                    coeff = math.comb(n, j) * (-1) ** (n - j) * star_full(params, j)
                oracle_cache[key] = (coeff, None if coeff == 0 else vp(coeff, p) - v_fall)
            rows.append((line, a, j) + oracle_cache[key])
        return rows

    def test_table_slices_match_closed_forms(self):
        # each prime's (r, n) pairs largest r first, so the terms of a (p, n)
        # are listed at a large r and then at smaller ones; the primes
        # alternate in halves
        halves = {}
        for p in (5, 7, 11):
            pairs = sorted(
                ((r, n) for r in range(p, p * p - p) for n in range(r // 2 + 1, r + 1)
                 if n // p <= p - 2 and 2 * n >= r + 2 * (n // p) + 2),
                reverse=True,
            )
            halves[p] = (pairs[: len(pairs) // 2], pairs[len(pairs) // 2:])
        oracle_cache = {}
        for half in (0, 1):
            for p in (5, 7, 11):
                for r, n in halves[p][half]:
                    got = [
                        (t.line, t.a, t.j, t.coeff, t.slack)
                        for t in master_terms(make_params(p, r, n, Fraction(r, 2) - n - 1))
                    ]
                    assert got == self._closed_form_terms(p, r, n, oracle_cache), (p, r, n)

    @pytest.mark.parametrize("r, n", [(200, 180), (300, 250)])
    def test_formed_terms_match_closed_forms_at_p101(self, r, n):
        # b = 1 and b = 2, with 79 and 48 line-1 rows formed from the columns
        params = make_params(101, r, n, Fraction(r, 2) - n - 1)
        terms = master_terms(params)
        got = [(t.line, t.a, t.j, t.coeff, t.slack) for t in terms]
        assert got == self._closed_form_terms(101, r, n, {})
        assert master_terms(params) == terms

    def test_every_table_of_the_p23_theorem_range_matches_closed_forms(self):
        # a theorem-range r <= 3p - 1 builds the degrees 13..68; r = max(p, n)
        # starts the window at the table's first degree, so each is read whole
        p = 23
        for n in range((p + 3) // 2, 3 * p):
            r = max(p, n)
            got = [
                (t.line, t.a, t.j, t.coeff, t.slack)
                for t in master_terms(make_params(p, r, n, Fraction(r, 2) - n - 1))
            ]
            assert got == self._closed_form_terms(p, r, n, {}), n
            if n < p:  # b = 0: every line-1 column vanishes
                assert {row[3:] for row in got if row[0] == 1} == {(0, None)}, n

    def test_tables_held_for_one_prime(self, no_prime_held):
        congruence._table(5, 8, 7)
        congruence._table(7, 18, 15)
        assert list(exactnum._KEPT) == [7]
        tables = exactnum._KEPT[7]["tables"]
        assert tables and all(table == congruence._build_table(7, n) for n, table in tables.items())

    def test_master_terms_keeps_nothing(self, no_prime_held):
        # the term listings build their one (p, n) exactly, and hold no table
        master_terms(make_params(7, 18, 15, -10))
        assert exactnum._KEPT == {}

    def test_a_miss_builds_from_the_lowest_degree_to_the_block_end(self, no_prime_held):
        # at p = 7 the lowest admissible degree is 5, and 13 ends its block at 16
        congruence._table(7, 18, 13)
        tables = exactnum._KEPT[7]["tables"]
        assert sorted(tables) == list(range(5, 17))
        built = dict(tables)
        congruence._table(7, 14, 9)
        assert tables == built
        # the block of 41 would end at 44, past the largest admissible r = 41
        congruence._table(7, 41, 41)
        assert sorted(tables) == list(range(5, 42))

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
    def test_only_two_tables_hold_misses(self, p):
        # an audit with no residual or must-die degree misses, as (line, j,
        # slack), only these terms of the tables n = p + 1 and 2p + 2
        expected = {
            p + 1: {(1, p, 0), (2, p, 0)},
            2 * p + 2: {(1, 2 * p, 0), (2, p, -1), (2, 2 * p, 0)},
        }
        for n in range((p + 3) // 2, 3 * p):
            misses = congruence._build_table(p, n).misses
            assert set(misses) == expected.get(n, set()), n

    def test_zero_terms_at_b0(self):
        # b = 0 makes every line-1 coefficient vanish ({m brace 0} = 0)
        params = make_params(5, 5, 4, -4)
        for t in master_terms(params):
            if t.line == 1:
                assert t.coeff == 0 and t.slack is None


def _exact_table(p, n):
    """The (p, n) table derived from the exact terms: the oracle of the engine's residue tables."""
    j0, columns, _factors, line2 = congruence._exact_terms(p, n)
    return j0, [t.slack for t in columns], [t.slack for t in line2]


def _assert_residue_tables_match(p, n_range):
    # every slack from residues equals the exact one, so every derived
    # field the audits read does too; no table falls back to exact terms
    for n in n_range:
        j0, *exact = _exact_table(p, n)
        slacks = congruence._residue_slacks(p, n, j0)
        assert slacks is not None and list(slacks) == exact, (p, n)
        assert congruence._build_table(p, n) == congruence._Table.of(p, n, j0, *exact), (p, n)


_SMALL_PRIMES = [p for p in range(5, 62) if is_prime(p)]


class TestResidueTables:
    """The engine's tables from residues mod p^6 against the exact builder."""

    @pytest.mark.parametrize("p", _SMALL_PRIMES)
    def test_every_table_matches_the_exact_builder(self, no_prime_held, p):
        _assert_residue_tables_match(p, range((p + 3) // 2, 3 * p + 2))

    @pytest.mark.skipif(
        not os.environ.get("PADICELIM_LONG_TESTS"),
        reason="about 2 s; set PADICELIM_LONG_TESTS=1 to run",
    )
    @pytest.mark.parametrize("p", [101, 127, 211])
    def test_every_table_matches_the_exact_builder_at_larger_primes(self, no_prime_held, p):
        _assert_residue_tables_match(p, range((p + 3) // 2, 3 * p + 2))

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_every_admissible_degree_matches(self, no_prime_held, p):
        # b up to p - 2, past the theorem range, as an audit at any admissible r reads
        _assert_residue_tables_match(p, range((p + 3) // 2, p * p - p))

    @pytest.mark.parametrize("p", [5, 7, 13, 31])
    def test_residues_mod_p_fall_back_to_exact_terms(self, monkeypatch, no_prime_held, p):
        # mod p^1 many residues are 0, which decides no slack: those tables
        # are built from the exact terms, and every table still matches
        monkeypatch.setattr(congruence, "_RESIDUE_EXPONENT", 1)
        exact = congruence._exact_terms
        fallbacks = []
        monkeypatch.setattr(congruence, "_exact_terms", lambda q, n: fallbacks.append(n) or exact(q, n))
        for n in range((p + 3) // 2, 3 * p + 2):
            table = congruence._build_table(p, n)
            assert table == congruence._Table.of(p, n, *_exact_table(p, n)), n
        assert exactnum._KEPT[p]["residues"].modulus == p
        assert fallbacks

    def test_a_stirling_residue_that_decides_nothing_falls_back(self, no_prime_held):
        # mod p^1 a star residue is 0 before any Stirling one (j >= n - b makes
        # star_j 0 mod p), so this sets {5 brace 2} to undecided by hand
        p, n = 13, 30  # b = 2, line-1 degrees m = 1..15
        j0 = (max(p, n) + 1) // 2
        assert congruence._residue_slacks(p, n, j0) is not None
        exactnum._KEPT[p]["residues"].columns[2][1][5] = None
        assert congruence._residue_slacks(p, n, j0) is None
        assert congruence._build_table(p, n) == congruence._Table.of(p, n, *_exact_table(p, n))

    def test_a_theorem_range_forms_no_term_and_few_stirling_rows(self, monkeypatch, no_prime_held):
        class NoTerm(congruence.CongruenceTerm):
            def __new__(cls, *args, **kwargs):
                raise AssertionError("a congruence term was formed")

        monkeypatch.setattr(congruence, "CongruenceTerm", NoTerm)
        for p in (13, 41):
            monkeypatch.setattr(combinat, "_STIRLING_ROWS", [[1]])
            for r in theorem_r_values(p):
                predict(p, r)
            # the tables, b = 3 among them past the range's last degree, and
            # audit_bad's Stirling rescue at r = 2p + 4 read residue columns
            assert 2 * p + 4 in theorem_r_values(p)
            assert combinat._STIRLING_ROWS == [[1]], p
            assert max(exactnum._KEPT[p]["tables"]) > 3 * p


def _statuses(params, residual=None, must_die=None):
    """(line, a, j) -> status of each non-zero term of the congruence ``params``, aimed at n - b - 1."""
    target_j = params.n - params.b - 1
    return {
        (t.line, t.a, t.j): congruence._status(t.line, t.j, target_j, params.ceil_half_r, residual, must_die)
        for t in master_terms(params)
        if t.slack is not None
    }


def _terms(params):
    return {(t.line, t.a, t.j): t for t in master_terms(params)}


def _line2_slacks(params):
    return tuple((t.j, t.slack_text) for t in master_terms(params) if t.line == 2)


class TestAuditGood:
    def test_kills_i3_via_n7(self):
        audit = audit_good(5, 8, 7)
        assert audit.passed and audit.i == 3  # target degree j* = r - i* = 5
        params = make_params(5, 8, 7, -5)
        assert _statuses(params)[(2, 0, 5)] == GENERATOR
        assert _terms(params)[(2, 0, 5)].slack == 0
        assert slack_window(audit) == _line2_slacks(params)

    def test_kills_i2_via_n8(self):
        audit = audit_good(5, 8, 8)
        assert audit.passed and audit.i == 2

    def test_rejects_vfall_nonzero(self):
        with pytest.raises(PadicElimError, match=r"^v_p\(\[6\]_2\) = 1 != 0: n is not a good candidate$"):
            audit_good(5, 8, 6)

    def test_good_kills_are_the_good_audits_of_r(self):
        assert good_kills(5, 8) == tuple(audit_good(5, 8, n) for n in (7, 8))
        # p and r are checked once, as every audit checks them
        for p, r, message in ((9, 12, "p = 9 is not a prime >= 5"), (7, 6, "r = 6 outside [7, 41]")):
            with pytest.raises(PadicElimError) as info:
                good_kills(p, r)
            assert str(info.value) == message

    def test_disposition_statuses(self):
        statuses = _statuses(make_params(5, 8, 7, -5))
        assert statuses[(2, 0, 5)] == GENERATOR
        assert statuses[(2, 0, 6)] == DEAD
        assert statuses[(2, 0, 4)] == DEEPER
        assert statuses[(2, 0, 3)] == BELOW
        assert statuses[(1, 1, 5)] == DEAD


class TestAuditBad:
    def test_kills_i6_at_p5_r14(self):
        audit = audit_bad(5, 14)
        assert audit.passed
        assert audit.witness_n == (11,) and audit.i == 6  # j* = 8
        params = make_params(5, 14, 11, -8)
        assert _statuses(params)[(2, 0, 8)] == GENERATOR
        generator = _terms(params)[(2, 0, 8)]
        assert generator.slack == 0

    def test_rescue_note_at_r_2p_plus_4(self, no_prime_held):
        # the j = p + 1 = 6 term is the below-range edge at r = 2p + 4
        assert _statuses(make_params(5, 14, 11, -8))[(2, 0, 6)] == BELOW
        assert audit_bad(5, 14).passed  # builds the (5, 11) term table
        # {5 brace 2} = 15 vanishes mod p; a unit in its place in p's residue
        # column breaks the rescue
        column = exactnum._KEPT[5]["residues"].columns[2][0]
        assert column[5] == 15
        column[5] = 16
        assert audit_bad(5, 14).failures == ("stirling rescue fails at j = 6",)

    def test_range_check(self):
        with pytest.raises(PadicElimError, match=r"^r = 9 outside \[14, 14\]$"):
            audit_bad(5, 9)
        with pytest.raises(PadicElimError, match=r"^r = 15 outside \[14, 14\]$"):
            audit_bad(5, 15)


class TestAuditUgly:
    def test_p5_r8_c1(self):
        audit = audit_ugly(5, 8, 1)
        assert audit.passed
        assert audit.witness_n == (6, 7) and audit.i == 4  # j* = 4
        # phase one: n = cp + c = 6 leaves a residual family at degree cp = 5
        params1 = make_params(5, 8, 6, -5)
        statuses = _statuses(params1, residual=5)
        # one line-1 term (a = 1) and one line-2 term
        assert {(line, j) for (line, _a, j), s in statuses.items() if s == RESIDUAL} == {(1, 5), (2, 5)}
        assert slack_window(audit) == _line2_slacks(params1)

    def test_p5_r14_c2(self):
        audit = audit_ugly(5, 14, 2)
        assert audit.passed and audit.i == 5 and audit.witness_n == (12, 13)
        statuses = _statuses(make_params(5, 14, 12, -8), residual=10)
        assert list(statuses.values()).count(RESIDUAL) == 3  # a = 0, 1, 2 at degree cp = 10

    def test_phase2_forces_cp_minus_1_dead(self, monkeypatch, mutate_table):
        # phase two: n = cp + c + 1 = 7, target cp = 5, degree cp - 1 = 4 forced dead
        assert _statuses(make_params(5, 8, 7, -5), must_die=4)[(2, 0, 4)] == DEAD
        assert audit_ugly(5, 8, 1).passed  # builds the (5, 6) and (5, 7) term tables
        with monkeypatch.context() as m:
            mutate_table(m, 7, (2, 0, 4), slack=0)
            failures = audit_ugly(5, 8, 1).failures
        assert failures == ("term (line 2, a=0, j=4) has slack 0, needs > 0 (dead)",)
        # C(7, 4) = 35 supplies the p; a unit in its place breaks the certificate
        comb = congruence.comb
        monkeypatch.setattr(congruence, "comb", lambda n, k: 1 if (n, k) == (7, 4) else comb(n, k))
        assert audit_ugly(5, 8, 1).failures == ("C(7, 4) is a p-unit; residual certificate fails",)

    def test_two_phase_audits_read_only_the_table_candidates(self, monkeypatch, no_prime_held):
        # _Table.of has derived every field when a table is built: a two-phase
        # audit that reads the slack pairs or the misses, not the candidates, raises
        class Unread:
            def __getitem__(self, key):
                raise AssertionError("a two-phase audit read more than the table's candidates")

            def __iter__(self):
                raise AssertionError("a two-phase audit read more than the table's candidates")

        build = congruence._build_table
        monkeypatch.setattr(
            congruence,
            "_build_table",
            lambda p, n: build(p, n)._replace(slacks=Unread(), misses=Unread()),
        )
        audits = 0
        for p in (7, 11):
            for r in theorem_r_values(p):
                assert audit_ugly(p, r, r // p).passed, (p, r)
                audits += 1
        assert audits == 20

    def test_errors(self):
        with pytest.raises(PadicElimError, match=r"^r = 7 outside \[8, 9\]$"):
            audit_ugly(5, 7, 1)
        with pytest.raises(PadicElimError, match=r"^c = 3 must be 1 or 2$"):
            audit_ugly(5, 8, 3)


class TestLambdaCrossChecks:
    """Rebuild both congruence lines from the solved lambda family.

    The coefficients come from power sums of the interpolation family over
    residue classes; evaluating those sums with the exactly solved integer
    lambdas (no Stirling numbers, no harmonic numbers) must agree with the
    closed forms mod p^2.  This exercises the whole derivation through an
    independent computational path.
    """

    @staticmethod
    def _lambda_entries(p, n):
        from padicelim.lambda_solver import solve_lambda

        return solve_lambda(p, n // p, n)

    def test_star_from_lambda_power_sum_worked_example(self):
        params = make_params(5, 8, 7, -5)
        vec = self._lambda_entries(5, 7)
        s = sum(vec.entries[i] * (i // 5) ** 2 for i in vec.index_set if i % 5 == 0)
        assert s == 1508  # lambda_5 * 1 + lambda_10 * 4 = 1512 - 4
        assert s % 25 == rational_mod(star_full(params, 5), 25) == 8

    @pytest.mark.parametrize("p", [5, 7])
    def test_star_matches_lambda_sums(self, p):
        for r in range(p, 3 * p):
            for n in range(r // 2 + 1, r + 1):
                b = n // p
                if b > p - 2 or 2 * n < r + 2 * b + 2:
                    continue
                params = make_params(p, r, n, Fraction(r, 2) - n - 1)
                vec = self._lambda_entries(p, n)
                nodes = [i for i in vec.index_set if i % p == 0]
                for j in range((r + 1) // 2 - 1, n):
                    lam_sum = sum(vec.entries[i] * (i // p) ** (n - j) for i in nodes)
                    assert rational_mod(star_full(params, j), p * p) == lam_sum % (p * p), (
                        p, r, n, j,
                    )

    @pytest.mark.parametrize("p", [5, 7])
    def test_first_line_matches_lambda_sums(self, p):
        for r in range(p, 3 * p):
            for n in range(r // 2 + 1, r + 1):
                b = n // p
                if b > p - 2 or 2 * n < r + 2 * b + 2:
                    continue
                params = make_params(p, r, n, Fraction(r, 2) - n - 1)
                vec = self._lambda_entries(p, n)
                coeffs = {
                    (t.a, t.j): t.coeff for t in master_terms(params) if t.line == 1
                }
                for (a, j), coeff in coeffs.items():
                    raw = sum(
                        vec.entries[i] * (a - i) ** (n - j)
                        for i in vec.index_set
                        if i % p == a
                    )
                    assert raw % p ** (n - j) == 0
                    exact = math.comb(n, j) * (raw // p ** (n - j))
                    assert rational_mod(coeff, p * p) == exact % (p * p), (p, r, n, a, j)


def _printed_shortcut(p, n):
    """The paper's printed shortcut for the telescoping-pzp family: (2b+1)(p-1) > n."""
    return (2 * (n // p) + 1) * (p - 1) > n


def _two_scan_suite(p, r, n):
    """``inequality_suite`` as it was with both j < n scans: the oracle for the extreme-term reads."""
    b, _eps, v_fall = congruence._check_window(p, r, n)
    power_exceeds, step_ok_at, ilog = congruence._power_exceeds, congruence._geometric_step_ok, congruence._ilog
    families = []

    e_base = 2 * n - r - v_fall + 1
    base_ok = power_exceeds(p, 2 * e_base, n + 1, strict=True)
    chain_ok = e_base >= 2 and p * p > n + 1
    step_ok = step_ok_at(p, 2 * e_base)
    families.append(congruence.FamilyResult(
        "telescoping-zp",
        base_ok and chain_ok and step_ok,
        (("base", f"{p}^{e_base} > {n + 1}"), ("chain", f"exponent {e_base} >= 2 and {p * p} > {n + 1}")),
    ))

    pre_base = (2 * n - r - v_fall) * (p - 1) > n
    window_base = (2 * (b + 1) - v_fall) * (p - 1) > n
    slope_ok = 2 * (p - 1) - 1 > 0
    families.append(congruence.FamilyResult(
        "telescoping-pzp",
        pre_base and window_base and slope_ok,
        (
            ("window base", f"(2(b+1)-vFall)(p-1) = {(2 * (b + 1) - v_fall) * (p - 1)} > n = {n}"),
            ("pre-reduction base", f"(2n-r-vFall)(p-1) = {(2 * n - r - v_fall) * (p - 1)} > n = {n}"),
        ),
    ))

    v_r_fact = vp_factorial(r, p)
    q_base = power_exceeds(p, r - 2 * v_r_fact, r + 1, strict=True)
    q_monotone = all(vp_factorial(j, p) <= v_r_fact for j in range(n))
    q_step = step_ok_at(p, r - 2 * v_r_fact)
    families.append(congruence.FamilyResult(
        "qp-zp",
        q_base and q_monotone and (n + 1 <= r + 1) and q_step,
        (("base", f"{p}^(({r} - 2*{v_r_fact})/2) > {r + 1}"), ("rhs bound", f"n + 1 = {n + 1} <= r + 1 = {r + 1}")),
    ))

    boundary_ok = all(2 * (n - v_fall - ilog(n - j, p)) >= r for j in range(n))
    m_exp2 = 2 * n - r + 2 - 2 * v_fall
    m_base = power_exceeds(p, m_exp2, n + 1, strict=False)
    m_chain = p ** (b + 2 - v_fall) >= r + 1 and 2 * n >= r + 2 * b + 2
    m_step = step_ok_at(p, m_exp2)
    lambda_tail_ok = 2 * (n - v_fall - ilog(n, p)) >= r
    families.append(congruence.FamilyResult(
        "master-tail",
        boundary_ok and m_base and m_chain and m_step and lambda_tail_ok,
        (
            ("boundary", "2(n - vFall - floor(log_p(n - j))) >= r for all j < n"),
            ("base", f"{p}^({m_exp2}/2) >= {n + 1}"),
            ("chain", f"{p}^{b + 2 - v_fall} >= {r + 1}"),
        ),
    ))
    return tuple(families)


class TestInequalities:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_extreme_terms_give_what_the_scans_gave(self, p):
        checked = 0
        for r in range(p, p * p - p):
            for n in window_degrees(p, r):
                assert inequality_suite(p, r, n) == _two_scan_suite(p, r, n), (p, r, n)
                checked += 1
        assert checked > 0

    def test_example_5_8_6(self):
        families = inequality_suite(5, 8, 6)
        assert all(f.passed for f in families)
        by_name = {f.name: f for f in families}
        # base power 5^(2(n - r/2) - vFall + 1) = 5^4 against n + 1 = 7
        assert ("base", "5^4 > 7") == by_name["telescoping-zp"].witness[0]
        # the printed shortcut 2b + 1 > n/(p - 1), i.e. 12 > 6, holds here
        assert _printed_shortcut(5, 6)

    def test_pzp_shortcut_edge_at_b0(self):
        # at b = 0, n = p - 1 (where vFall = 0) the printed shortcut fails
        # while the vFall-retained base cases (and the family itself) hold
        families = inequality_suite(7, 7, 6)
        assert all(f.passed for f in families)
        assert "telescoping-pzp" in {f.name for f in families}
        assert fall_valuation(7, 6) == 0 and not _printed_shortcut(7, 6)

    def test_example_5_8_7(self):
        families = inequality_suite(5, 8, 7)
        assert all(f.passed for f in families)
        by_name = {f.name: f for f in families}
        # qp-zp base: 5^(r/2 - v_p(r!)) = 5^3 = 125 > r + 1 = 9
        assert "(8 - 2*1)/2" in by_name["qp-zp"].witness[0][1]

    @pytest.mark.parametrize("p", [5, 7])
    def test_small_sweep(self, p):
        for r in range(p, 3 * p):
            for n in range(r // 2 + 1, r + 1):
                b = n // p
                if b > p - 2 or 2 * n < r + 2 * b + 2:
                    continue
                assert all(f.passed for f in inequality_suite(p, r, n)), (p, r, n)


# the first slack each status forbids
_FORBIDDEN_SLACK = {DEAD: 0, GENERATOR: 1, RESIDUAL: -1, DEEPER: -1, BELOW: -1}


def _reference_audit(method, p, r, n, failures=(), residual=None, must_die=None):
    """(failures, slack_table) of an audit of the (p, r, n) congruence by a full walk of ``master_terms``.

    The reference for the audits that read the table or its verdict: every
    term of the congruence is visited, those with a zero coefficient or with
    a positive slack (save the line-2 term at the target n - b - 1) are
    skipped, and the rest go through the status ladder.  The terms do not
    depend on vL, so any admissible vL will do.
    """
    terms = master_terms(make_params(p, r, n, Fraction(r, 2) - n - 1))
    target_j = n - n // p - 1
    ceil_half = (r + 1) // 2
    term_failures = []
    generator = False
    for term in terms:
        slack = term.slack
        if slack is None or (slack > 0 and (term.line == 1 or term.j != target_j)):
            continue
        status = congruence._status(term.line, term.j, target_j, ceil_half, residual, must_die)
        if status == DEAD:
            ok = slack > 0
        elif status == GENERATOR:
            ok = generator = slack == 0
        else:
            ok = slack >= 0
        if not ok:
            term_failures.append(
                f"term (line {term.line}, a={term.a}, j={term.j}) has slack {term.slack_text}, "
                f"needs {congruence._NEEDS[status]} ({status})"
            )
    if not generator:
        term_failures.append(f"no generator found at degree {target_j}")
    slack_table = tuple((t.j, t.slack_text) for t in terms if t.line == 2)
    return tuple(term_failures) + tuple(failures), slack_table


def _recorded_audits(monkeypatch):
    """Record every ``_audit`` call, the one entry of every audit, as (args, kwargs, audit)."""
    calls = []
    entry = congruence._audit

    def recording(*args, **kwargs):
        audit = entry(*args, **kwargs)
        calls.append((args, kwargs, audit))
        return audit

    monkeypatch.setattr(congruence, "_audit", recording)
    return calls


def _assert_matches_reference(calls):
    assert calls
    for args, kwargs, audit in calls:
        expected = _reference_audit(*args, **kwargs)
        assert (audit.failures, slack_window(audit)) == expected, args


class TestVlIndependence:
    def test_a_total_valuation_off_by_a_half_fails(self, monkeypatch):
        # total_val is read once per term for both vL choices; one wrong
        # value must still fail the (r, n) it is read at, and only those
        target = master_terms(make_params(5, 8, 7, -4))[0]
        assert target.slack is not None
        total_val = congruence.CongruenceTerm.total_val

        def off(term, r):
            if term != target:
                return total_val(term, r)
            return ValP(Fraction(r + 1 - 2 * (term.j - term.slack), 2))  # r/2 - j + slack + 1/2

        monkeypatch.setattr(congruence.CongruenceTerm, "total_val", off)
        failures = verify_vl_independence((5,)).failures
        assert "p=5, r=8, n=7: total valuations depend on vL" in failures
        assert all(f.startswith("p=5, r=") and f.endswith(", n=7: total valuations depend on vL") for f in failures)


def _star_by_r(primes):
    """``verify_star`` as it checked every (r, n, j) afresh, reading verify's functions."""
    res = VerifyResult("star", primes)
    for p in primes:
        mod2 = p * p
        for r in range(p, p * p - p):
            for n in window_degrees(p, r):
                b = n // p
                params = verify.make_params(p, r, n, Fraction(r, 2) - n - 1)
                fact_b1 = math.factorial(b + 1)
                ph_eps = p * harmonic(params.eps)
                for j in range((r + 1) // 2 - 1, n):
                    full = verify.star_full(params, j)
                    simple = verify.star_mod_p2(params, j)
                    if rational_mod(full, mod2) != simple:
                        res.failures.append(f"p={p}, r={r}, n={n}, j={j}: full != simplified mod p^2")
                    got_p = rational_mod(full, p)
                    got_p2 = rational_mod(full, mod2)
                    if j >= n - b and got_p != 0:
                        res.failures.append(f"p={p}, r={r}, n={n}, j={j}: expected 0 mod p")
                    if j == n - b - 1 and got_p != (-fact_b1) % p:
                        res.failures.append(f"p={p}, r={r}, n={n}, j={j}: expected -(b+1)! mod p")
                    if n - b + 1 <= j <= n - 1 and got_p2 != 0:
                        res.failures.append(f"p={p}, r={r}, n={n}, j={j}: expected 0 mod p^2")
                    if j == n - b and got_p2 != rational_mod(-ph_eps * fact_b1, mod2):
                        res.failures.append(f"p={p}, r={r}, n={n}, j={j}: expected -pH_eps(b+1)! mod p^2")
                    if j == n - b - 1:
                        want = rational_mod(-fact_b1 - ph_eps * fact_b1 * math.comb(b + 1, 2), mod2)
                        if got_p2 != want:
                            res.failures.append(f"p={p}, r={r}, n={n}, j={j}: expected case value {want} mod p^2")
                    res.checked += 1
    return res


def _vl_by_r(primes):
    """``verify_vl_independence`` as it compared every term at every (r, n) and vL."""
    res = VerifyResult("vl-independence", primes)
    for p in primes:
        for r in range(p, p * p - p):
            for n in window_degrees(p, r):
                bound = Fraction(r, 2) - n
                choices = [verify.make_params(p, r, n, vL) for vL in (bound - 1, bound - Fraction(7, 2))]
                terms = [
                    (t.total_val(r), None if t.num == 0 else vp_int(t.num, p) - vp_int(t.den, p) - t.j)
                    for t in master_terms(choices[0])
                ]
                for params in choices:
                    outer = params.x + params.n + params.vL
                    if any(total != (INF if rest is None else outer + rest) for total, rest in terms):
                        res.failures.append(f"p={p}, r={r}, n={n}: total valuations depend on vL")
                        break
                res.checked += 1
    return res


def _wrong_star_mod_p2(monkeypatch, p, n, j):
    simplified = verify.star_mod_p2

    def wrong(params, k):
        value = simplified(params, k)
        return (value + 1) % (p * p) if (params.p, params.n, k) == (p, n, j) else value

    monkeypatch.setattr(verify, "star_mod_p2", wrong)


def _wrong_star_full(monkeypatch, p, n, j):
    full = verify.star_full

    def wrong(params, k):
        value = full(params, k)
        return value + 1 if (params.p, params.n, k) == (p, n, j) else value

    monkeypatch.setattr(verify, "star_full", wrong)


def _wrong_total_val(monkeypatch, p, n, line, j):
    # the term of this line at degree j (a = 1 on line 1): r/2 - j + slack + 1/2 at every r
    total_val = congruence.CongruenceTerm.total_val
    target = next(
        t for t in master_terms(make_params(p, max(p, n), n, Fraction(max(p, n), 2) - n - 1))
        if (t.line, t.a, t.j) == (line, 2 - line, j)
    )
    assert target.slack is not None

    def off(term, r):
        value = total_val(term, r)
        return ValP(Fraction(r + 1 - 2 * (term.j - term.slack), 2)) if term == target else value

    monkeypatch.setattr(congruence.CongruenceTerm, "total_val", off)


def _wrong_x(monkeypatch, p, n, r, first):
    # x off by 1/2 at one (r, n), for the first or the second vL choice only
    original = verify.make_params

    def off(q, s, m, vL):
        params = original(q, s, m, vL)
        if (q, s, m) == (p, r, n) and (vL == Fraction(s, 2) - m - 1) == first:
            return params._replace(x=params.x + Fraction(1, 2))
        return params

    monkeypatch.setattr(verify, "make_params", off)


# six mutations per p, each failing a sweep at one or more (r, n); n = 7 at
# p = 5 and n = 12 at p = 7 are admissible from r = n on, the first r of n,
# where the r-independent parts are checked
_MUTATIONS = {
    5: [
        (_wrong_star_mod_p2, (5, 7, 4)),
        (_wrong_star_full, (5, 7, 5)),
        (_wrong_total_val, (5, 7, 1, 4)),
        (_wrong_total_val, (5, 7, 2, 4)),
        (_wrong_x, (5, 7, 7, True)),
        (_wrong_x, (5, 7, 9, False)),
    ],
    7: [
        (_wrong_star_mod_p2, (7, 12, 8)),
        (_wrong_star_full, (7, 12, 10)),
        (_wrong_total_val, (7, 12, 1, 9)),
        (_wrong_total_val, (7, 12, 2, 7)),
        (_wrong_x, (7, 12, 12, True)),
        (_wrong_x, (7, 12, 15, False)),
    ],
}


class TestSweepsMatchThePerROracle:
    """verify_star and verify_vl_independence check r-independent parts once; the per-r sweeps are the oracle."""

    @pytest.mark.parametrize("p", [5, 7])
    def test_clean(self, p):
        for sweep, oracle in ((verify_star, _star_by_r), (verify_vl_independence, _vl_by_r)):
            got = sweep((p,)).to_dict()
            assert got["passed"] and got["checked"] > 0
            assert got == oracle((p,)).to_dict()

    @pytest.mark.parametrize("p, k", [(p, k) for p in (5, 7) for k in range(6)])
    def test_mutated(self, monkeypatch, p, k):
        mutate, args = _MUTATIONS[p][k]
        mutate(monkeypatch, *args)
        failed = 0
        for sweep, oracle in ((verify_star, _star_by_r), (verify_vl_independence, _vl_by_r)):
            got = sweep((p,)).to_dict()
            assert got == oracle((p,)).to_dict()
            failed += len(got["failures"])
        assert failed

    @pytest.mark.skipif(
        not os.environ.get("PADICELIM_LONG_TESTS"),
        reason="about 1.5 s; set PADICELIM_LONG_TESTS=1 to run",
    )
    @pytest.mark.parametrize(
        "p, star_checks, vl_checks", [(11, 57_510, 2_690), (13, 162_486, 5_532)]
    )
    def test_larger_primes_pass(self, p, star_checks, vl_checks):
        for sweep, checks in ((verify_star, star_checks), (verify_vl_independence, vl_checks)):
            res = sweep((p,))
            assert res.passed and res.checked == checks, res.failures[:3]


class TestAuditIndexOracle:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_every_elimination_audit_matches_the_full_walk(self, monkeypatch, p):
        calls = _recorded_audits(monkeypatch)
        for r in theorem_r_values(p):
            run_elimination(p, r)
        assert {args[0] for args, _kwargs, _audit in calls} == {"good", "bad", "ugly-phase1", "ugly-phase2"}
        _assert_matches_reference(calls)

    @pytest.mark.parametrize("p, count", [(5, 31), (7, 166), (11, 1295)])
    def test_every_admissible_good_audit_matches_the_full_walk(self, p, count):
        # every admissible r, not only the theorem range
        audits = 0
        for r in range(p, p * p - p):
            for n in window_degrees(p, r):
                if fall_valuation(p, n) == 0:
                    audit = audit_good(p, r, n)
                    expected = _reference_audit("good", p, r, n)
                    assert (audit.failures, slack_window(audit)) == expected, (p, r, n)
                    assert audit.passed, (p, r, n)
                    audits += 1
        assert audits == count

    def test_passing_good_and_bad_audits_walk_no_term_and_build_no_fraction(self, monkeypatch):
        p = 11
        expected = {}
        for r in theorem_r_values(p):  # builds the tables
            for n in window_degrees(p, r):
                if fall_valuation(p, n) == 0:
                    expected[audit_good, (p, r, n)] = audit_good(p, r, n)
            if r // p == 2:
                expected[audit_bad, (p, r)] = audit_bad(p, r)
        assert {audit.method for audit in expected.values()} == {"good", "bad"}

        class NoFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                raise AssertionError("a Fraction was built")

        def no_walk(*args, **kwargs):
            raise AssertionError("a term was walked")

        monkeypatch.setattr(congruence, "Fraction", NoFraction)
        monkeypatch.setattr(congruence, "_status", no_walk)
        monkeypatch.setattr(congruence, "_meets", no_walk)
        monkeypatch.setattr(congruence, "master_terms", no_walk)
        for (audit_at, args), audit in expected.items():
            assert audit.passed
            assert audit_at(*args) == audit

    def test_a_failing_generator_keeps_its_place_in_table_order(self, monkeypatch, mutate_table):
        # audit_good(5, 8, 7) targets degree 5: its generator loses slack 0
        # and the dead line-2 term above it gains slack 0, so both fail
        mutate_table(monkeypatch, 7, (2, 0, 5), slack=1)
        mutate_table(monkeypatch, 7, (2, 0, 6), slack=0)
        calls = _recorded_audits(monkeypatch)
        assert audit_good(5, 8, 7).failures == (
            "term (line 2, a=0, j=5) has slack 1, needs 0 with a unit residue (generator)",
            "term (line 2, a=0, j=6) has slack 0, needs > 0 (dead)",
            "no generator found at degree 5",
        )
        _assert_matches_reference(calls)

    def test_failing_line1_columns_fail_every_a_in_a_major_order(self, monkeypatch, mutate_table):
        # audit_good(7, 12, 11) targets degree 9 with eps = 4; columns 7 and
        # 8 lie below it, so with slack -1 each fails its term at a = 1..4
        mutate_table(monkeypatch, 11, (1, 1, 7), slack=-1)
        mutate_table(monkeypatch, 11, (1, 1, 8), slack=-1)
        calls = _recorded_audits(monkeypatch)
        assert audit_good(7, 12, 11).failures == tuple(
            f"term (line 1, a={a}, j={j}) has slack -1, needs >= 0 (deeper-integral)"
            for a in range(1, 5)
            for j in (7, 8)
        )
        _assert_matches_reference(calls)


class TestGoodVerdictWindowEdge:
    """A term that misses its good bound fails exactly the r whose window holds its degree.

    At p = 7 the good n = 11 (b = 1, target degree 9) lies in the window of
    r = 11..18, where ceil(r/2) runs 6, 6, 7, 7, 8, 8, 9, 9: a line-1
    column j is in r's window when j >= ceil(r/2), a line-2 term of degree j
    when j >= ceil(r/2) - 1.
    """

    @pytest.mark.parametrize("line, j", [(2, 6), (2, 7), (1, 7), (1, 8)])
    def test_verdict_flips_where_the_window_starts(self, monkeypatch, mutate_table, line, j):
        mutate_table(monkeypatch, 11, (line, 1 if line == 1 else 0, j), slack=-1)
        verdicts = {}
        for r in range(11, 19):
            audit = audit_good(7, r, 11)
            assert (audit.failures, slack_window(audit)) == _reference_audit("good", 7, r, 11), r
            verdicts[r] = audit.passed
        edge = 2 * j if line == 1 else 2 * j + 2  # the largest r whose window holds degree j
        assert verdicts == {r: r > edge for r in range(11, 19)}
        rows = audit_good(7, edge, 11).failures
        assert rows[0].startswith(f"term (line {line}, a={1 if line == 1 else 0}, j={j}) has slack -1")


class TestAuditFailurePaths:
    """Every non-zero term of a passing audit, given a slack its status forbids, fails it."""

    # each audit, its (p, r) with a vL for make_params, and its congruences as
    # (n, residual degree, must-die degree)
    AUDITS = {
        "good": (lambda: audit_good(7, 12, 11), (7, 12, -7), [(11, None, None)]),
        "bad": (lambda: audit_bad(7, 18), (7, 18, -10), [(15, None, None)]),
        "ugly": (lambda: audit_ugly(7, 12, 1), (7, 12, -7), [(8, 7, None), (9, None, 6)]),
        "ugly-c2": (lambda: audit_ugly(7, 18, 2), (7, 18, -10), [(16, 14, None), (17, None, 13)]),
    }

    @pytest.mark.parametrize("method", sorted(AUDITS))
    def test_forbidden_slack_fails_with_term_row(self, monkeypatch, mutate_table, method):
        run, (p, r, vL), phases = self.AUDITS[method]
        assert run().passed
        mutated = 0
        for n, residual, must_die in phases:
            statuses = _statuses(make_params(p, r, n, vL), residual, must_die)
            for key, status in statuses.items():
                with monkeypatch.context() as m:
                    mutate_table(m, n, key, slack=_FORBIDDEN_SLACK[status])
                    calls = _recorded_audits(m)
                    failed = run()
                    _assert_matches_reference(calls)
                row = f"term (line {key[0]}, a={key[1]}, j={key[2]})"
                assert not failed.passed, (n, key)
                assert any(f.startswith(row) for f in failed.failures), (n, key, failed.failures)
                mutated += 1
        assert mutated >= 10


def test_a_zero_coefficient_at_the_target_fails_only_for_want_of_a_generator(monkeypatch, mutate_table):
    # the line-2 coefficient of audit_good(5, 8, 7) at its target degree 5
    # vanishes: a zero term is no miss, so no term row names it
    mutate_table(monkeypatch, 7, (2, 0, 5), slack=None)
    calls = _recorded_audits(monkeypatch)
    assert audit_good(5, 8, 7).failures == ("no generator found at degree 5",)
    _assert_matches_reference(calls)
