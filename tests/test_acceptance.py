"""Acceptance suite: the eight headline checks, each printed PASS or FAIL.

Every criterion is exact (no tolerances).  Expected values come from
independent oracles computed inline: exact binomials via math.comb, the
Stirling recurrence against the definition sum, hand-frozen worked numbers,
and brute-force admissibility enumerations.  Run with ``pytest -s`` to see
the one-line verdicts.
"""

import math
from fractions import Fraction

from padicelim.combinat import binom_mod_p2, stirling_lucas_check
from padicelim.congruence import make_params, master_terms, star_full, star_mod_p2, inequality_suite
from padicelim.eliminator import predict, theorem_r_values
from padicelim.exactnum import harmonic, rational_mod
from padicelim.fp_poly import pure_y_defect, shallow_kill_check
from padicelim.lambda_solver import lambda_closed, solve_lambda, verify_lambda
from valuation_reference import vp

MAIN_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)


def report(criterion: str, failures: list, checked: int) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} ({checked} checks)")
    assert not failures, failures[:10]


def admissible_rn(p):
    for r in range(p, p * p - p):
        for n in range(r // 2 + 1, r + 1):
            b = n // p
            if b <= p - 2 and 2 * n >= r + 2 * b + 2:
                yield r, n, b


def test_criterion_1_main_theorem_reproduction():
    failures = []
    checked = 0
    for p in MAIN_PRIMES:
        for r in theorem_r_values(p):
            result = predict(p, r)
            checked += 1
            if result.label != f"ind omega2^{r + 1}":
                failures.append(f"(p={p}, r={r}): label {result.label}")
            if result.survivor != r // p:
                failures.append(f"(p={p}, r={r}): survivor {result.survivor}")
            trace = result.trace
            methods = {e.i: e.method for e in trace.entries}
            if sorted(methods) != list(range(r + 1)):
                failures.append(f"(p={p}, r={r}): trace does not cover [0, r]")
            survivors = [i for i, method in methods.items() if method is None]
            if survivors != [r // p]:
                failures.append(f"(p={p}, r={r}): survivors {survivors}")
    report("1 (main theorem sweep)", failures, checked)


def test_criterion_2_lucas_mod_p2():
    failures = []
    checked = 0
    for p in (5, 7, 11):
        mod2 = p * p
        for n in range(p * p):
            for k in range(n + 1):
                got = binom_mod_p2(n, k, p).value
                want = math.comb(n, k) % mod2
                checked += 1
                if got != want:
                    failures.append(f"p={p}: C({n},{k}) = {want}, got {got}")
    report("2 (Lucas mod p^2)", failures, checked)


def test_criterion_3_stirling_lucas():
    failures = []
    checked = 0
    for p in (5, 7):
        for i in (1, 2):
            for y in range(2 * p + 1):
                for x in range(y + p**i + 1):
                    lhs, rhs = stirling_lucas_check(y, x, i, p)
                    checked += 1
                    if lhs != rhs:
                        failures.append(f"p={p}, y={y}, x={x}, i={i}: {lhs} != {rhs}")
    report("3 (Stirling Lucas)", failures, checked)


def test_criterion_4_lambda_lemma():
    failures = []
    checked = 0
    deviation_seen = False
    for p in (5, 7, 11, 13):
        for b in range(p - 1):
            for n in range(b * p, (b + 1) * p):
                vec = solve_lambda(p, b, n)
                for i, num in enumerate(lambda_closed(p, b, n)):
                    if Fraction(vec.entries[i]) != Fraction(num, (b + 1) * p - i):
                        failures.append(f"(p={p}, b={b}, n={n}): solve != closed at i={i}")
                rep = verify_lambda(vec)
                if not (rep.bullet1 and rep.bullet3 and rep.bullet4):
                    failures.append(f"(p={p}, b={b}, n={n}): bullets 1/3/4 fail")
                if b >= 1 and not rep.bullet2:
                    failures.append(f"(p={p}, b={b}, n={n}): bullet 2 fails with b >= 1")
                if b == 0 and rep.bullet2_deviations:
                    deviation_seen = True
                checked += 1
    # the stated b = 0 counterexample must reproduce exactly
    v = solve_lambda(5, 0, 3)
    if v.entries[1] != 15 or v.entries[1] % 25 == 0:
        failures.append("b = 0 counterexample (p=5, n=3, lambda_1 = 15) not reproduced")
    if not deviation_seen:
        failures.append("no b = 0 deviation observed anywhere")
    report("4 (lambda vector lemma)", failures, checked)


def test_criterion_5_star_consistency():
    failures = []
    checked = 0
    for p in (5, 7):
        mod2 = p * p
        for r, n, b in admissible_rn(p):
            params = make_params(p, r, n, Fraction(r, 2) - n - 1)
            fact_b1 = math.factorial(b + 1)
            ph = p * harmonic(params.eps)
            for j in range((r + 1) // 2 - 1, n):
                full = star_full(params, j)
                got_p2 = rational_mod(full, mod2)
                got_p = rational_mod(full, p)
                checked += 1
                if got_p2 != star_mod_p2(params, j):
                    failures.append(f"(p={p}, r={r}, n={n}, j={j}): full != simplified")
                if j >= n - b and got_p != 0:
                    failures.append(f"(p={p}, r={r}, n={n}, j={j}): mod p case 0")
                if j == n - b - 1 and got_p != (-fact_b1) % p:
                    failures.append(f"(p={p}, r={r}, n={n}, j={j}): mod p case -(b+1)!")
                if n - b + 1 <= j <= n - 1 and got_p2 != 0:
                    failures.append(f"(p={p}, r={r}, n={n}, j={j}): mod p^2 case 0")
                if j == n - b and got_p2 != rational_mod(-ph * fact_b1, mod2):
                    failures.append(f"(p={p}, r={r}, n={n}, j={j}): mod p^2 case -pH(b+1)!")
                if j == n - b - 1 and got_p2 != rational_mod(
                    -fact_b1 - ph * fact_b1 * math.comb(b + 1, 2), mod2
                ):
                    failures.append(f"(p={p}, r={r}, n={n}, j={j}): mod p^2 target case")
    # the worked triple
    params = make_params(5, 8, 7, -5)
    if star_full(params, 5) != 608 or star_mod_p2(params, 5) != 8:
        failures.append("worked value star_5 = 608 = 8 mod 25 not reproduced")
    if star_full(params, 6) != 610 or star_mod_p2(params, 6) != 10:
        failures.append("worked value star_6 = 610 = 10 mod 25 not reproduced")
    report("5 (star coefficient)", failures, checked)


def test_criterion_6_shallow_kills():
    failures = []
    checked = 0
    for p in (5, 7, 11):
        for r in range(p, p * p - p):
            for i in range(1, r // p + 1):
                if r < i * (p + 1) - 1:
                    continue
                rep = shallow_kill_check(p, r, i)
                checked += 1
                if not rep.passed:
                    failures.append(f"(p={p}, r={r}, i={i}): {rep.failures[:2]}")
        # negative control: the cancellation fails at lam = 0 when r = p - 1
        checked += 1
        if pure_y_defect(p, p - 1, 0) == 0:
            failures.append(f"p={p}: expected surviving defect at r = p - 1, lam = 0")
    report("6 (shallow kills)", failures, checked)


def test_criterion_7_inequality_suites():
    failures = []
    checked = 0
    for p in (5, 7, 11):
        for r, n, _b in admissible_rn(p):
            checked += 1
            bad = [f.name for f in inequality_suite(p, r, n) if not f.passed]
            if bad:
                failures.append(f"(p={p}, r={r}, n={n}): {bad}")
    report("7 (inequality suites)", failures, checked)


def test_criterion_8_vl_independence():
    failures = []
    checked = 0
    for p in (5, 7):
        for r, n, _b in admissible_rn(p):
            bound = Fraction(r, 2) - n
            checked += 1
            # total_val(r) never sees vL; each vL's un-cancelled sum must match it
            for vL in (bound - 1, bound - Fraction(5, 2)):
                params = make_params(p, r, n, vL)
                if any(
                    t.coeff != 0
                    and t.total_val(r) != params.x + (n - t.j) + params.vL + vp(t.coeff, p)
                    for t in master_terms(params)
                ):
                    failures.append(f"(p={p}, r={r}, n={n}): totalVal depends on vL")
    report("8 (vL independence)", failures, checked)
