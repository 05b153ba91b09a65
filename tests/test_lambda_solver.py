"""Coefficient family: carried solve vs Horner and product formula, four bullets.

The closed form gives integer numerators lambda_i ((b+1)p - i); the tests
rebuild lambda_i from them as a Fraction, and show that ``verify lambda``
compares them with no Fraction and catches one wrong numerator.
"""

import fractions
import os
import random
import tempfile
from fractions import Fraction
from math import comb
from operator import sub
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from padicelim import verify
from padicelim.errors import PadicElimError
from padicelim.lambda_solver import (
    BulletReport,
    LambdaVector,
    lambda_closed,
    lambda_window,
    solve_lambda,
    verify_lambda,
)

# hypothesis caches the constants it finds in local source under its home
# directory, ./.hypothesis unless set: keep the tree clean.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "padicelim-hypothesis")


def _horner_solve(p: int, b: int, n: int) -> dict[int, int]:
    """The family at one n by Horner's rule in (u - 1): the oracle for the carried solve.

    L(u) = sum_{m <= n} C(y, m) (u - 1)^m with y = (b+1)p, expanded from the
    top coefficient down, each step one shifted subtraction of the list.
    """
    y = (b + 1) * p
    c = [1]  # C(y, m), m = 0..n
    for m in range(1, n + 1):
        c.append(c[-1] * (y - m + 1) // m)
    lam = [c[n]]
    for m in range(n - 1, -1, -1):
        lam = list(map(sub, [0, *lam], [*lam, 0]))  # times (u - 1)
        lam[0] += c[m]
    entries = dict(enumerate(lam))
    entries[y] = -1
    return entries


def _closed_fractions(p: int, b: int, n: int) -> tuple[Fraction, ...]:
    """lambda_0..lambda_n of the product formula, each numerator over (b+1)p - i."""
    y = (b + 1) * p
    return tuple(Fraction(num, y - i) for i, num in enumerate(lambda_closed(p, b, n)))


def _reference_verify(v: LambdaVector) -> BulletReport:
    """The four bullets by one step per (i, j) pair: the oracle for verify_lambda."""
    p, b, n = v.p, v.b, v.n
    failures: list[str] = []
    class_sums = [[0] * (n + 1) for _ in range(p)]
    for i in v.index_set:
        row = class_sums[i % p]
        pw = 1
        for j in range(n + 1):
            row[j] += v.entries[i] * pw
            pw *= i
    bullet1 = True
    for j in range(n + 1):
        if sum(class_sums[a][j] for a in range(p)) != 0:
            bullet1 = False
            failures.append(f"bullet 1 fails at j = {j}")
    deviations = [(a, j) for a in range(p) for j in range(n + 1) if class_sums[a][j] % (p * p)]
    if deviations and b >= 1:
        failures.append(f"bullet 2 fails at (a, j) = {deviations[0]}")
    bullet3 = bullet4 = True
    for i in v.index_set:
        if i % p == 0:
            k = i // p
            if (v.entries[i] - (-1) ** ((b - k) % 2) * comb(b + 1, k)) % p:
                bullet3 = False
                failures.append(f"bullet 3 fails at i = {i}")
        elif v.entries[i] % p:
            bullet4 = False
            failures.append(f"bullet 4 fails at i = {i}")
    return BulletReport(
        bullet1, not deviations, "asserted" if b >= 1 else "observed",
        tuple(deviations), bullet3, bullet4, tuple(failures),
    )


class TestSolve:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_window_and_solve_match_horner(self, p):
        for b in range(p - 1):
            window = list(lambda_window(p, b))
            assert [v.n for v in window] == list(range(b * p, (b + 1) * p)), b
            for v in window:
                assert (v.p, v.b) == (p, b)
                horner = _horner_solve(p, b, v.n)
                assert v.entries == horner, (b, v.n)
                assert solve_lambda(p, b, v.n).entries == horner, (b, v.n)

    def test_window_vectors_are_independent(self):
        # each yielded vector owns its entries: a mutation reaches no other n
        first, second = list(lambda_window(5, 1))[:2]
        first.entries[0] += 1
        assert second.entries == _horner_solve(5, 1, 6)
        assert solve_lambda(5, 1, 5).entries == _horner_solve(5, 1, 5)

    def test_window_errors(self):
        with pytest.raises(PadicElimError, match=r"^b = 4 outside \[0, 3\]$"):
            next(lambda_window(5, 4))
        with pytest.raises(PadicElimError, match=r"^p = 9 is not a prime >= 5$"):
            next(lambda_window(9, 0))

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
        with pytest.raises(PadicElimError, match=r"^n = 4 outside \[5, 9\]$"):
            solve_lambda(5, 1, 4)  # below bp
        with pytest.raises(PadicElimError, match=r"^n = 10 outside \[5, 9\]$"):
            solve_lambda(5, 1, 10)  # above (b+1)p - 1
        with pytest.raises(PadicElimError, match=r"^b = 4 outside \[0, 3\]$"):
            solve_lambda(5, 4, 20)  # b = p - 1 rejected, not extrapolated
        with pytest.raises(PadicElimError, match=r"^p = 4 is not a prime >= 5$"):
            solve_lambda(4, 0, 2)


class TestClosedForm:
    def test_examples(self):
        assert _closed_fractions(5, 0, 3)[2] == -20
        assert _closed_fractions(5, 1, 6)[0] == 84 == comb(9, 6)
        assert _closed_fractions(5, 0, 3)[0] == -4
        # the unreduced numerators lambda_i (5 - i) of p = 5, b = 0, n = 3
        assert lambda_closed(5, 0, 3) == (-20, 60, -60, 20)
        assert all(type(num) is int for num in lambda_closed(13, 5, 70))

    @pytest.mark.parametrize("p", [5, 7])
    def test_matches_solver_everywhere(self, p):
        for b in range(p - 1):
            for n in range(b * p, (b + 1) * p):
                v = solve_lambda(p, b, n)
                closed = _closed_fractions(p, b, n)
                assert len(closed) == n + 1, (p, b, n)
                for i in range(n + 1):
                    assert Fraction(v.entries[i]) == closed[i], (p, b, n, i)


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
                first = (-1) ** ((b - k) % 2) * comb(b + 1, k)
                second = (-1) ** ((b * p - i) % 2) * comb(y, i)
                assert (first - second) % p == 0, (p, b, i)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_matches_reference_everywhere(self, p):
        for b in range(p - 1):
            for n in range(b * p, (b + 1) * p):
                v = solve_lambda(p, b, n)
                assert verify_lambda(v) == _reference_verify(v), (p, b, n)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_mutations_match_reference(self, p):
        # one entry moved by 1, p or p^2: each bullet's failure rows, in order
        rng = random.Random(p)
        for b in range(p - 1):
            for n in (b * p, (b + 1) * p - 1):
                for delta in (1, p, p * p):
                    v = solve_lambda(p, b, n)
                    v.entries[rng.choice(v.index_set)] += delta
                    report = verify_lambda(v)
                    assert report == _reference_verify(v), (p, b, n, delta)
                    assert not report.passed and not report.bullet1

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_top_entry_scales_the_quotient(self, p):
        # Q is lambda_y times the quotient of u^y by (u - 1)^(n+1): lambda_y = 0
        # leaves R = lambda_0..lambda_n, and +1 or -1 + p^2 a remainder whose
        # rows differ from those of a quotient built for lambda_y = -1
        for b in range(p - 1):
            for n in (b * p, (b + 1) * p - 1):
                for top in (0, 1, p * p - 1):
                    v = solve_lambda(p, b, n)
                    v.entries[v.top_node] = top
                    report = verify_lambda(v)
                    assert report == _reference_verify(v), (p, b, n, top)
                    assert not report.bullet1, (p, b, n, top)

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_same_class_pair_mutations_match_reference(self, p):
        # +d and -d on two members a + pt of one class a != 0 with different t:
        # S0_a keeps its value; d = 1 moves S1_a mod p, so only the linear
        # term deviates, from j = 1 on; d = p moves neither mod p^2
        rng = random.Random(p)
        for b in range(1, p - 1):
            n = rng.randrange(b * p + 1, (b + 1) * p)
            a = rng.randint(1, min(p - 1, n - p))
            hi, lo = rng.sample(range(a, n + 1, p), 2)
            for d in (1, p):
                v = solve_lambda(p, b, n)
                v.entries[hi] += d
                v.entries[lo] -= d
                report = verify_lambda(v)
                assert report == _reference_verify(v), (p, b, n, a, d)
                assert not report.bullet1
                assert report.bullet2_deviations[:1] == (((a, 1),) if d == 1 else ()), (p, b, n, a, d)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_one_moment_mutations_match_reference(self, p):
        # c (-1)^(n-i) C(n, i) added to each lambda_i, i <= n, moves the
        # binomial moment B_n by c and no other, so P_j first fails at j = n
        for b in range(p - 1):
            for n in (b * p, (b + 1) * p - 1):
                for c in (1, p * p):
                    v = solve_lambda(p, b, n)
                    for i in range(n + 1):
                        v.entries[i] += c * (-1) ** ((n - i) % 2) * comb(n, i)
                    report = verify_lambda(v)
                    assert report == _reference_verify(v), (p, b, n, c)
                    bullet1_rows = [f for f in report.failures if f.startswith("bullet 1")]
                    assert bullet1_rows == [f"bullet 1 fails at j = {n}"], (p, b, n, c)

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_one_vanishing_power_moment_matches_reference(self, p):
        # i2^k on lambda_i1 and -i1^k on lambda_i2 (0 < i1 < i2) move P_j by
        # i2^k i1^j - i1^k i2^j, zero at j = k alone: the rows skip k, so each
        # P_j must weigh B_m by S(j, m) m!, not test the B_m one by one
        rng = random.Random(p)
        for b in range(1, p - 1):
            n = rng.randrange(b * p, (b + 1) * p)
            i1, i2 = sorted(rng.sample(range(1, n + 1), 2))
            k = rng.randint(1, n - 1)
            v = solve_lambda(p, b, n)
            v.entries[i1] += i2**k
            v.entries[i2] -= i1**k
            report = verify_lambda(v)
            assert report == _reference_verify(v), (p, b, n, i1, i2, k)
            bullet1_rows = [f for f in report.failures if f.startswith("bullet 1")]
            assert bullet1_rows == [f"bullet 1 fails at j = {j}" for j in range(n + 1) if j != k]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_one_entry_mutation_matches_reference(self, data):
        p = data.draw(st.sampled_from([5, 7, 11]), label="p")
        b = data.draw(st.integers(0, p - 2), label="b")
        n = data.draw(st.integers(b * p, (b + 1) * p - 1), label="n")
        node = data.draw(st.sampled_from([*range(n + 1), (b + 1) * p]), label="node")
        scale = data.draw(st.sampled_from([1, p, p * p]), label="scale")
        delta = scale * data.draw(st.integers().filter(bool), label="delta / scale")
        v = solve_lambda(p, b, n)
        v.entries[node] += delta
        assert verify_lambda(v) == _reference_verify(v)

    def test_deviations_are_a_major(self):
        v = solve_lambda(5, 1, 6)
        v.entries[2] += 5  # class a = 2
        v.entries[6] += 5  # class a = 1
        report = verify_lambda(v)
        assert report.bullet2_deviations == tuple((a, j) for a in (1, 2) for j in range(7))
        assert report.failures == (
            *(f"bullet 1 fails at j = {j}" for j in range(7)),
            "bullet 2 fails at (a, j) = (1, 0)",
        )
        assert report.bullet3 and report.bullet4

    @pytest.mark.parametrize("b", [0, 1, 15])
    def test_solver_matches_closed_form_at_p17_top_n(self, b):
        n = (b + 1) * 17 - 1
        v = solve_lambda(17, b, n)
        assert _closed_fractions(17, b, n) == tuple(v.entries[i] for i in range(n + 1))

    @pytest.mark.skipif(
        not os.environ.get("PADICELIM_LONG_TESTS"),
        reason="about 2 s; set PADICELIM_LONG_TESTS=1 to run",
    )
    def test_p17_solve_and_verify(self):
        # every family of p = 17 against the closed form; the reference
        # verification at both ends of each b's window
        p = 17
        for b in range(p - 1):
            for n in range(b * p, (b + 1) * p):
                v = solve_lambda(p, b, n)
                assert _closed_fractions(p, b, n) == tuple(v.entries[i] for i in range(n + 1)), (b, n)
                if n in (b * p, (b + 1) * p - 1):
                    assert verify_lambda(v) == _reference_verify(v), (b, n)

    def test_integrality_witness(self):
        # the solve returns integers outright; the closed form reduces to them
        v = solve_lambda(7, 2, 17)
        for i in v.index_set:
            assert isinstance(v.entries[i], int)
            closed = _closed_fractions(7, 2, 17)[i] if i <= 17 else Fraction(-1)
            assert closed.denominator == 1


class TestSweepOracle:
    def test_sweep_forms_no_fraction(self, monkeypatch):
        # the closed form is compared by cross-multiplying, in integers only
        def no_fraction(*args, **kwargs):
            raise AssertionError("a Fraction was formed")

        monkeypatch.setattr(fractions.Fraction, "__new__", no_fraction)
        monkeypatch.setattr(verify, "Fraction", no_fraction)
        res = verify.verify_lambda_sweep((5, 7, 11, 13))
        assert res.checked == 328 and res.passed, res.failures[:3]

    def test_one_wrong_numerator_is_one_failure(self, monkeypatch):
        def off_at_one_entry(p, b, n):
            closed = lambda_closed(p, b, n)
            if (p, b, n) == (11, 3, 40):
                return closed[:7] + (closed[7] + 1,) + closed[8:]
            return closed

        monkeypatch.setattr(verify, "lambda_closed", off_at_one_entry)
        res = verify.verify_lambda_sweep((5, 7, 11, 13))
        assert res.checked == 328
        assert res.failures == ["p=11, b=3, n=40: solve != closed at i=7"]
