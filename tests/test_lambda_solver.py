"""Coefficient family: triangular solve vs product formula, four bullets."""

from fractions import Fraction

import pytest

from padicelim.errors import DigitError, WindowError
from padicelim.exactnum import InvalidPrimeError, binom
from padicelim.lambda_solver import lambda_closed, solve_lambda, verify_lambda


class TestSolve:
    def test_p5_b0_n3(self):
        v = solve_lambda(5, 0, 3)
        assert [v.entries[i] for i in (0, 1, 2, 3, 5)] == [-4, 15, -20, 10, -1]

    def test_p5_b1_n6(self):
        v = solve_lambda(5, 1, 6)
        assert v.entries[0] == 84 and v.entries[5] == -1008 and v.entries[10] == -1

    def test_top_entry_is_minus_one(self):
        for p, b, n in [(5, 0, 0), (5, 3, 17), (7, 5, 40), (11, 1, 16)]:
            assert solve_lambda(p, b, n).entries[(b + 1) * p] == -1

    def test_errors(self):
        with pytest.raises(WindowError):
            solve_lambda(5, 1, 4)  # below bp
        with pytest.raises(WindowError):
            solve_lambda(5, 1, 10)  # above (b+1)p - 1
        with pytest.raises(DigitError):
            solve_lambda(5, 4, 20)  # b = p - 1 rejected, not extrapolated
        with pytest.raises(InvalidPrimeError):
            solve_lambda(4, 0, 2)


class TestClosedForm:
    def test_examples(self):
        assert lambda_closed(5, 0, 3, 2) == -20
        assert lambda_closed(5, 1, 6, 0) == 84 == binom(9, 6)
        assert lambda_closed(5, 0, 3, 0) == -4

    @pytest.mark.parametrize("p", [5, 7])
    def test_matches_solver_everywhere(self, p):
        for b in range(p - 1):
            for n in range(b * p, (b + 1) * p):
                v = solve_lambda(p, b, n)
                for i in range(n + 1):
                    assert Fraction(v.entries[i]) == lambda_closed(p, b, n, i), (p, b, n, i)


class TestBullets:
    def test_class_sum_example(self):
        v = solve_lambda(5, 1, 6)
        # residue class a = 1 at j = 0: lambda_1 + lambda_6 = -560 + 210
        assert v.entries[1] == -560 and v.entries[6] == 210
        assert (v.entries[1] + v.entries[6]) % 25 == 0

    def test_mod_p_value_example(self):
        v = solve_lambda(5, 1, 6)
        assert v.entries[5] % 5 == 2  # (-1)^0 C(2, 1)

    def test_b0_deviation_reproduced(self):
        v = solve_lambda(5, 0, 3)
        assert v.entries[1] == 15 and v.entries[1] % 25 != 0
        report = verify_lambda(v)
        assert report.bullet2_mode == "observed"
        assert not report.bullet2
        assert (1, 0) in report.bullet2_deviations
        assert report.passed  # observed, not asserted

    @pytest.mark.parametrize("p", [5, 7])
    def test_all_bullets_sweep(self, p):
        for b in range(p - 1):
            for n in range(b * p, (b + 1) * p):
                report = verify_lambda(solve_lambda(p, b, n))
                assert report.bullet1 and report.bullet3 and report.bullet4, (p, b, n)
                if b >= 1:
                    assert report.bullet2, (p, b, n)
                assert report.passed

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_two_mod_p_expressions_agree(self, p):
        # (-1)^(b - i/p) C(b+1, i/p) vs (-1)^(bp - i) C((b+1)p, i) for p | i
        for b in range(p - 1):
            y = (b + 1) * p
            for i in range(0, y + 1, p):
                k = i // p
                first = (-1) ** ((b - k) % 2) * binom(b + 1, k)
                second = (-1) ** ((b * p - i) % 2) * binom(y, i)
                assert (first - second) % p == 0, (p, b, i)

    def test_integrality_witness(self):
        # the solve returns integers outright; the closed form reduces to them
        v = solve_lambda(7, 2, 17)
        for i in v.index_set:
            assert isinstance(v.entries[i], int)
            closed = lambda_closed(7, 2, 17, i) if i <= 17 else Fraction(-1)
            assert closed.denominator == 1
