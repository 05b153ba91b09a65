"""Lucas-type congruences and Stirling numbers.

The two Stirling computations (recurrence, definition-sum rows) double-check
each other; binomial congruences are scored against math.comb reduced exactly.
The oracles of ``verify lucas2`` and ``verify stirling-lucas`` are shown to
catch one wrong value.
"""

import math

import pytest

from padicelim import combinat, exactnum, verify
from padicelim.combinat import (
    binom_mod_p2,
    lucas_mod_p,
    stirling2,
    stirling2_column,
    stirling2_def_row,
    stirling_lucas_check,
)
from padicelim.errors import PadicElimError


class TestLucasModP:
    def test_examples(self):
        assert lucas_mod_p(12, 7, 5) == 2  # C(12,7) = 792 = 2 mod 5
        for k in range(1, 5):
            assert lucas_mod_p(5, k, 5) == 0
        assert lucas_mod_p(123, 0, 7) == 1

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_exhaustive_below_p_squared(self, p):
        for n in range(p * p):
            for k in range(n + 1):
                assert lucas_mod_p(n, k, p) == math.comb(n, k) % p

    def test_composite_rejected(self):
        with pytest.raises(PadicElimError, match=r"^p = 9 is not a prime >= 2$"):
            lucas_mod_p(10, 3, 9)


class TestBinomModP2:
    def test_examples(self):
        got = binom_mod_p2(7, 6, 5)
        assert got.value == 7 and got.via_lemma  # 2 (1 + 5/2) = 7
        assert binom_mod_p2(9, 7, 5).value == 36 % 25 == 11
        got = binom_mod_p2(10, 5, 5)
        assert got.value == 252 % 25 == 2 and got.via_lemma  # digits r' = s = 0

    def test_fallback_when_digit_condition_fails(self):
        # N = 12, K = 9 over p = 5: digits r' = 2 < s = 4
        got = binom_mod_p2(12, 9, 5)
        assert not got.via_lemma
        assert got.value == math.comb(12, 9) % 25

    def test_exhaustive_p5(self):
        for n in range(25):
            for k in range(n + 1):
                assert binom_mod_p2(n, k, 5).value == math.comb(n, k) % 25

    @pytest.mark.parametrize("p", [7, 11, 13])
    def test_exhaustive_below_p_squared(self, p):
        # the value, and the path: the digit formula exactly when s <= r'
        for n in range(p * p):
            for k in range(n + 1):
                assert binom_mod_p2(n, k, p) == (math.comb(n, k) % (p * p), k % p <= n % p), (n, k)

    def test_harmonic_residues_of_one_prime(self, no_prime_held):
        # H_k mod p^2 for k < p, as sums of inverses mod p^2, held for the last prime only
        def residues(p):
            return [sum(pow(m, -1, p * p) for m in range(1, k + 1)) % (p * p) for k in range(p)]

        def held():
            return {p: slots["harmonic_mod_p2"] for p, slots in exactnum._KEPT.items()}

        assert binom_mod_p2(7 * 9 + 5, 7 * 4 + 2, 7).value == math.comb(68, 30) % 49
        assert held() == {7: residues(7)}
        assert binom_mod_p2(11 * 3 + 9, 11 * 2 + 4, 11).value == math.comb(42, 26) % 121
        assert held() == {11: residues(11)}
        assert binom_mod_p2(7 * 9 + 5, 7 * 4 + 2, 7).value == math.comb(68, 30) % 49
        assert held() == {7: residues(7)}

    def test_multidigit_quotient(self):
        # a = N // p may itself exceed p; the factor C(a, b) stays exact
        assert binom_mod_p2(5 * 30 + 2, 5 * 4 + 1, 5).value == math.comb(152, 21) % 25


class TestStirling:
    def test_examples(self):
        assert stirling2(4, 2) == 7 == stirling2_def_row(4)[2]
        assert stirling2(9, 9) == 1
        assert stirling2(3, 5) == 0
        assert stirling2(6, -2) == 0
        assert stirling2(0, 0) == 1
        assert stirling2_def_row(0) == [1]
        assert stirling2_def_row(4) == [0, 1, 7, 6, 1]
        with pytest.raises(ValueError):
            stirling2_def_row(-1)

    def test_recurrence_equals_definition_to_60(self):
        for t in range(61):
            assert [stirling2(t, s) for s in range(t + 1)] == stirling2_def_row(t), t

    def test_definition_rows_equal_the_cached_rows_to_60(self):
        combinat._fill_stirling_rows(60)
        for t in range(61):
            assert stirling2_def_row(t) == combinat._STIRLING_ROWS[t], t

    def test_column_from_an_empty_cache(self, monkeypatch):
        # the first read fills rows 0..10; a column past every row is zero
        monkeypatch.setattr(combinat, "_STIRLING_ROWS", [[1]])
        rows = [stirling2_def_row(t) for t in range(11)]
        for s in (0, 1, 3, 10, 12):
            assert stirling2_column(s, 10) == [row[s] if s < len(row) else 0 for row in rows], s
        assert stirling2_column(0, 0) == [1]

    def test_rows_grow_from_the_last_one(self, monkeypatch):
        # a fill to row 40, a read below it, then a column that extends to 60
        monkeypatch.setattr(combinat, "_STIRLING_ROWS", [[1]])
        assert [stirling2(40, s) for s in range(41)] == stirling2_def_row(40)
        assert len(combinat._STIRLING_ROWS) == 41
        assert [stirling2(3, s) for s in range(4)] == [0, 1, 3, 1]
        assert len(combinat._STIRLING_ROWS) == 41
        assert stirling2_column(7, 60) == [0] * 7 + [stirling2_def_row(t)[7] for t in range(7, 61)]
        assert combinat._STIRLING_ROWS == [stirling2_def_row(t) for t in range(61)]

    def test_rows_mod_p_of_one_prime(self, no_prime_held):
        # the rows stirling_lucas_check reads: the exact rows reduced mod p, for the last prime only;
        # rows 3p + 1 < t < p^2 are rolled through and not held
        def rows(p):
            return exactnum._KEPT[p]["stirling_rows_mod_p"]

        exact = [tuple(value % 7 for value in stirling2_def_row(t)) for t in range(61)]
        assert combinat._stirling_row_mod_p(52, 7) == exact[52]
        assert sorted(rows(7)) == [*range(23), 49, 50, 51, 52]
        for t in (40, 3, 60, 22, 50, 23, 0, 48, *range(61)):
            assert combinat._stirling_row_mod_p(t, 7) == exact[t], t
        assert sorted(rows(7)) == [*range(23), *range(49, 61)]
        assert all(row == exact[t] for t, row in rows(7).items())
        assert combinat._stirling_row_mod_p(12, 5) == tuple(value % 5 for value in stirling2_def_row(12))
        assert list(exactnum._KEPT) == [5]
        assert sorted(rows(5)) == [*range(13)]
        assert all(row == tuple(value % 5 for value in stirling2_def_row(t)) for t, row in rows(5).items())

    def test_definition_sum_divisibility_guard(self):
        # {t brace s} times s! is the alternating sum; divisibility is exact
        assert stirling2_def_row(20)[9] == stirling2(20, 9)

    def test_verify_catches_one_wrong_recurrence_entry(self, monkeypatch):
        # the definition rows are the oracle: one wrong cached entry is one failure
        rows = [list(row) for row in combinat._fill_stirling_rows(60)]
        rows[37][12] += 1
        monkeypatch.setattr(combinat, "_STIRLING_ROWS", rows)
        res = verify.verify_stirling_lucas()
        assert res.checked == 3433
        assert res.failures == ["recurrence and definition disagree at (37, 12)"]


class TestLucas2Oracle:
    def test_verify_catches_a_formula_off_by_one_at_one_pair(self, monkeypatch):
        # the Pascal rows are the oracle: binom_mod_p2 wrong at one pair is one failure there
        def off_at_one_pair(n_big, k_big, p):
            got = binom_mod_p2(n_big, k_big, p)
            if (n_big, k_big, p) == (40, 17, 7):
                return got._replace(value=(got.value + 1) % (p * p))
            return got

        monkeypatch.setattr(verify, "binom_mod_p2", off_at_one_pair)
        res = verify.verify_lucas2()
        expected = math.comb(40, 17) % 49
        assert res.checked == 8931
        assert res.failures == [f"p=7: C(40,17) = {expected} mod p^2, formula gave {(expected + 1) % 49}"]

    def test_verify_catches_a_wrong_digit_product(self, monkeypatch):
        def off_at_one_pair(n_big, k_big, p):
            return (lucas_mod_p(n_big, k_big, p) + ((n_big, k_big, p) == (100, 3, 11))) % p

        monkeypatch.setattr(verify, "lucas_mod_p", off_at_one_pair)
        res = verify.verify_lucas2()
        assert res.checked == 8931
        assert res.failures == ["p=11: classical digit product wrong at (100,3)"]


class TestStirlingLucas:
    def test_examples(self):
        lhs, rhs = stirling_lucas_check(2, 3, 1, 5)
        assert lhs == rhs == 1  # {7 brace 3} = 301
        assert stirling2(7, 3) == 301
        lhs, rhs = stirling_lucas_check(0, 0, 1, 5)
        assert lhs == rhs
        lhs, rhs = stirling_lucas_check(1, 5, 2, 5)
        assert lhs == rhs  # {26 brace 5} against the shifted sum

    def test_small_sweep_p5(self):
        for i in (1, 2):
            for y in range(11):
                for x in range(y + 5**i + 1):
                    lhs, rhs = stirling_lucas_check(y, x, i, 5)
                    assert lhs == rhs

    def test_preconditions(self):
        with pytest.raises(ValueError):
            stirling_lucas_check(1, 1, 0, 5)
        with pytest.raises(PadicElimError, match=r"^p = 4 is not a prime >= 2$"):
            stirling_lucas_check(1, 1, 1, 4)
