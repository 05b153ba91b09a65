"""Homogeneous polynomials over F_p: action convention, theta, shallow kills.

The frozen coefficient tuples below were expanded by hand from the product
formulas; they pin the representation (index = X power) and the action
convention at the same time.
"""

import os
import random
from math import comb
from types import SimpleNamespace

import pytest

from padicelim import fp_poly, verify
from padicelim.eliminator import predict, theorem_r_values
from padicelim.errors import PadicElimError
from padicelim.exactnum import is_prime
from padicelim.fp_poly import (
    HPoly,
    act,
    pure_y_defect,
    shallow_kill_check,
    shallow_summand,
    theta,
)


def mat_mul(m1, m2):
    """The 2x2 matrix product m1 m2."""
    (a1, b1), (c1, d1) = m1
    (a2, b2), (c2, d2) = m2
    return (
        (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2),
        (c1 * a2 + d1 * c2, c1 * b2 + d1 * d2),
    )


class TestHPoly:
    def test_degree_and_coeff_indexing(self):
        f = HPoly(5, (1, 0, 3))  # Y^2 + 3 X^2
        assert f.degree == 2 and f.coeff(0) == 1 and f.coeff(2) == 3
        assert f.min_x_degree() == 0

    def test_zero_polynomial_degrees_undefined(self):
        z = HPoly(5, (0, 0))
        with pytest.raises(ValueError):
            z.min_x_degree()

    def test_mul_matches_known_product(self):
        # (X + Y)(X - Y) = X^2 - Y^2 over F_5
        f = HPoly(5, (1, 1))
        g = HPoly(5, (-1, 1))
        assert f * g == HPoly(5, (-1, 0, 1))

    def test_division_shifts(self):
        f = theta(5)
        assert f.div_x() == HPoly(5, (-1, 0, 0, 0, 1, 0))  # X^4 Y - Y^5
        assert f.div_y() == HPoly(5, (0, -1, 0, 0, 0, 1))  # X^5 - X Y^4
        with pytest.raises(PadicElimError, match=r"^not divisible by X: pure Y term present$"):
            HPoly(5, (1, 1)).div_x()
        with pytest.raises(PadicElimError, match=r"^not divisible by Y: pure X term present$"):
            HPoly(5, (1, 1)).div_y()

    def test_value_equality_hash_and_immutability(self):
        f = HPoly(5, (7, -1))
        assert f == HPoly(5, (2, 4)) and hash(f) == hash(HPoly(5, (2, 4)))
        assert f != HPoly(7, (2, 4)) and f != HPoly(5, (2, 4, 0))
        # not a tuple: no tuple equality, concatenation or length
        assert f != (5, (2, 4))
        with pytest.raises(TypeError):
            f + f
        with pytest.raises(TypeError):
            len(f)
        with pytest.raises(AttributeError):
            f.coeffs = (1,)


class TestTheta:
    def test_shape(self):
        th = theta(5)
        assert th.degree == 6
        assert th.coeff(5) == 1 and th.coeff(1) == 5 - 1
        assert th.min_x_degree() == 1
        assert sum(th.coeffs) % 5 == 0  # theta(1, 1) = 0

    def test_determinant_character_full_gl2_f5(self):
        th = theta(5)
        for a in range(5):
            for b in range(5):
                for c in range(5):
                    for d in range(5):
                        det = (a * d - b * c) % 5
                        if det == 0:
                            continue
                        det_theta = HPoly(5, tuple(det * t for t in th.coeffs))
                        assert act(((a, b), (c, d)), th) == det_theta


class TestAction:
    def test_identity(self):
        f = HPoly(7, tuple(range(8)))
        assert act(((1, 0), (0, 1)), f) == f

    def test_displayed_transformation(self):
        # (0 1; 1 -lam) sends X^(p-1) Y^(r-p+1) - Y^r
        #               to   Y^(p-1) (X - lam Y)^(r-p+1) - (X - lam Y)^r
        p, r = 5, 8
        coeffs = [0] * (r + 1)
        coeffs[0] = -1
        coeffs[p - 1] = 1
        f = HPoly(p, tuple(coeffs))
        for lam in range(p):
            got = act(((0, 1), (1, -lam)), f)
            form = HPoly(p, (-lam, 1))  # X - lam Y
            first = HPoly(p, (1, 0)).power(p - 1) * form.power(r - p + 1)
            second = form.power(r)
            want = HPoly(p, tuple(a - b for a, b in zip(first.coeffs, second.coeffs)))
            assert got == want, lam

    def test_pure_y_coefficient_formula(self):
        # coefficient of Y^r in the transform is (-lam)^(r-p+1) - (-lam)^r
        for p, r in [(5, 8), (5, 9), (7, 11)]:
            for lam in range(p):
                want = (pow(-lam, r - p + 1, p) - pow(-lam, r, p)) % p
                assert pure_y_defect(p, r, lam) == want

    @pytest.mark.parametrize("p", [5, 7])
    def test_pure_y_defect_matches_action(self, p):
        # act is the oracle: the Y^r coefficient of the full substitution
        for r in range(p - 1, p * p - p):
            coeffs = [0] * (r + 1)
            coeffs[0] = -1
            coeffs[p - 1] += 1
            f = HPoly(p, tuple(coeffs))
            for lam in range(p):
                assert pure_y_defect(p, r, lam) == act(((0, 1), (1, -lam)), f).coeff(0), (r, lam)

    def test_right_action_composition(self):
        rng = random.Random(7121)
        p = 7
        for _ in range(40):
            m1 = ((rng.randrange(p), rng.randrange(p)), (rng.randrange(p), rng.randrange(p)))
            m2 = ((rng.randrange(p), rng.randrange(p)), (rng.randrange(p), rng.randrange(p)))
            f = HPoly(p, tuple(rng.randrange(p) for _ in range(rng.randint(1, 9))))
            assert act(mat_mul(m1, m2), f) == act(m2, act(m1, f))


class TestShallowSummand:
    def test_p5_r8_i1_lam1_frozen(self):
        # (X - Y)^3 (X^5 - X Y^4) expanded by hand, reduced mod 5
        got = shallow_summand(5, 8, 1, 1)
        assert got == HPoly(5, (0, 1, -3, 3, -1, -1, 3, -3, 1))
        assert got.min_x_degree() == 1

    def test_p5_r14_i2_lam0_frozen(self):
        # X^3 theta^2 / Y = X^13 Y - 2 X^9 Y^5 + X^5 Y^9
        got = shallow_summand(5, 14, 2, 0)
        coeffs = [0] * 15
        coeffs[13], coeffs[9], coeffs[5] = 1, -2, 1
        assert got == HPoly(5, tuple(coeffs))
        assert got.min_x_degree() == 5 >= 2

    def test_below_bound_is_not_polynomial(self):
        with pytest.raises(PadicElimError, match=r"^r = 4 < i\(p\+1\) - 1 = 5: the quotient is not a polynomial$"):
            shallow_summand(5, 4, 1, 2)


class TestShallowKillCheck:
    def test_p5_r8_i1(self):
        assert shallow_kill_check(5, 8, 1).passed
        # f_1 = Y^3 (-theta) / X = -X^4 Y^4 + Y^8: unit coefficient 1 at Y^8
        f_1 = HPoly(5, tuple(-c for c in theta(5).div_x().coeffs) + (0,) * 3)
        assert f_1 == HPoly(5, (1, 0, 0, 0, -1, 0, 0, 0, 0)) and f_1.coeff(0) == 1
        assert tuple(pure_y_defect(5, 8, lam) for lam in range(5)) == (0,) * 5

    def test_p5_r14_i2(self, monkeypatch, no_prime_held):
        report = shallow_kill_check(5, 14, 2)
        assert report.passed
        assert all(md >= 2 for _lam, md in report.summand_min_x)
        # the pure Y^r check runs at i = 1 only
        monkeypatch.setattr(fp_poly, "_y_defect", lambda p, r, lam: 1)
        assert shallow_kill_check(5, 14, 2).passed
        assert shallow_kill_check(5, 14, 1).failures == tuple(
            f"pure Y^r coefficient survives at lam = {lam}" for lam in range(5)
        )

    def test_range_errors(self):
        violates = r" violates 1 <= i, i\(p\+1\)-1 <= r <= p\^2-p-1$"
        with pytest.raises(PadicElimError, match=r"^\(p, r, i\) = \(5, 10, 2\)" + violates):
            shallow_kill_check(5, 10, 2)  # 10 < 2*6 - 1
        with pytest.raises(PadicElimError, match=r"^\(p, r, i\) = \(5, 20, 1\)" + violates):
            shallow_kill_check(5, 20, 1)  # r > p^2 - p - 1
        with pytest.raises(PadicElimError, match=r"^\(p, r, i\) = \(5, 8, 0\)" + violates):
            shallow_kill_check(5, 8, 0)

    def test_pure_y_check_reads_every_lam_under_one_prime_check(self, monkeypatch):
        # with p's defect list held, the certificate checks p once for all p lams;
        # pure_y_defect still checks its own p and r
        assert shallow_kill_check(13, 20, 1).passed
        checked = []
        check = fp_poly.check_prime

        def counted(p, minimum=2):
            checked.append(p)
            return check(p, minimum)

        monkeypatch.setattr(fp_poly, "check_prime", counted)
        assert shallow_kill_check(13, 20, 1).passed
        assert checked == [13]
        with pytest.raises(PadicElimError, match=r"^p = 9 is not a prime >= 2$"):
            pure_y_defect(9, 20, 1)
        with pytest.raises(PadicElimError, match=r"^r must be at least p - 1$"):
            pure_y_defect(13, 11, 1)

    def test_one_defect_list_per_prime(self, monkeypatch, no_prime_held):
        calls = []
        y_defect = fp_poly._y_defect

        def counted(p, r, lam):
            calls.append((p, r, lam))
            return y_defect(p, r, lam)

        monkeypatch.setattr(fp_poly, "_y_defect", counted)
        for r in theorem_r_values(31):
            assert predict(31, r).label
        assert 0 < len(calls) <= 31

    def test_r_equals_p_minus_1_negative(self):
        # the pure-power cancellation genuinely fails at lam = 0 there
        assert pure_y_defect(5, 4, 0) == 1
        for lam in range(1, 5):
            assert pure_y_defect(5, 4, lam) == 0

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_lowest_first_scan_matches_full_product(self, p):
        # every certificate i(p+1) - 1 <= r <= p^2 - p - 1; the full products
        # are carried from r to r + 1 (TestCarriedShallowOracle pins them)
        checked = 0
        for r, i, summands in verify._shallow_products(p):
            for lam, md in shallow_kill_check(p, r, i).summand_min_x:
                assert md == next(d for d, c in enumerate(summands[lam]) if c), (r, i, lam)
                checked += 1
        assert checked == p * len(every_check(p)) > 0

    def test_small_sweep_p5(self):
        for r in range(5, 20):
            for i in range(1, r // 5 + 1):
                if r < i * 6 - 1:
                    continue
                assert shallow_kill_check(5, r, i).passed, (r, i)


class TestCarriedShallowOracle:
    """``verify shallow`` carries each full summand from r to r + 1."""

    @pytest.mark.parametrize("p", [5, 7])
    def test_carried_product_is_the_summand(self, p):
        seen = set()
        for r, i, summands in verify._shallow_products(p):
            assert len(summands) == p
            for lam, coeffs in enumerate(summands):
                assert tuple(coeffs) == shallow_summand(p, r, i, lam).coeffs, (r, i, lam)
            seen.add((r, i))
        assert seen == set(every_check(p))

    def test_one_degree_off_is_caught(self, monkeypatch):
        check = verify.shallow_kill_check

        def off_by_one(p, r, i):
            report = check(p, r, i)
            if (p, r, i) != (7, 20, 2):
                return report
            degrees = tuple((lam, md + (lam == 3)) for lam, md in report.summand_min_x)
            return report._replace(summand_min_x=degrees)

        monkeypatch.setattr(verify, "shallow_kill_check", off_by_one)
        md = dict(check(7, 20, 2).summand_min_x)[3]
        res = verify.verify_shallow((7,))
        assert res.failures == [f"p=7, r=20, i=2: scanned X-degree {md + 1} at lam = 3, product has {md}"]


def _scan_min_x(p, k, entries, lam):
    """The lowest X-degree of (X - lam Y)^k * g, scanned lowest first.

    ``entries`` are the non-zero (t, c_t) of g, lowest t first.  The X^d
    coefficient is the sum of C(k, d - t) (-lam)^(k - d + t) c_t over
    d - k <= t <= d; a term whose power of lam is 0 skips its binomial.
    """
    for d in range(entries[0][0], k + entries[-1][0] + 1):
        total = 0
        for t, c in entries:
            s = d - t
            if s < 0:
                break
            if s <= k:
                power = pow(-lam, k - s, p)
                if power:
                    total += comb(k, s) * power * c
        if total % p:
            return d
    raise ValueError("min_x_degree undefined on the zero polynomial")


def scanned_report(p, r, i):
    """The certificate from the multiplied-out theta^i: the report of ``shallow_kill_check``.

    It builds f_i and scans every lam's summand at each r; it reads theta^i
    and the pure Y^r defect through the module, so a patch reaches both.
    """
    failures = []
    k = r - i * (p + 1) + 1
    sign = -1 if i % 2 else 1
    f_i = HPoly(p, tuple(sign * c for c in fp_poly.theta(p).power(i).div_x().coeffs) + (0,) * k)
    if f_i.coeff(i - 1) % p == 0:
        failures.append(f"f_{i} has no unit at X^{i - 1}Y^{r - i + 1}")
    entries = [(t, c) for t, c in enumerate(fp_poly.theta(p).power(i).div_y().coeffs) if c]
    min_degrees = []
    for lam in range(p):
        md = _scan_min_x(p, k, entries, lam)
        min_degrees.append((lam, md))
        if md < i:
            failures.append(f"summand at lam = {lam} has X-degree {md} < {i}")
    if i == 1 and r >= p:
        for lam in range(p):
            if fp_poly.pure_y_defect(p, r, lam) != 0:
                failures.append(f"pure Y^r coefficient survives at lam = {lam}")
    return tuple(min_degrees), tuple(failures)


def every_check(p):
    """Every (r, i) the certificate accepts at p: i >= 1 and i(p+1) - 1 <= r <= p^2 - p - 1."""
    return [(r, i) for i in range(1, p) for r in range(i * (p + 1) - 1, p * p - p)]


def edge_checks(p):
    """The theorem range and r in [2p, 2p+5] u [3p, 3p+5], at every i <= r // p."""
    rs = {*theorem_r_values(p), *range(2 * p, 2 * p + 6), *range(3 * p, 3 * p + 6)}
    return [
        (r, i) for r in sorted(rs) if r <= p * p - p - 1
        for i in range(1, r // p + 1) if r >= i * (p + 1) - 1
    ]


def _patch_theta_powers(monkeypatch, power_of):
    """Make ``fp_poly.theta(p).power(i)`` return ``power_of(p, i)``."""
    monkeypatch.setattr(fp_poly, "theta", lambda p: SimpleNamespace(power=lambda i: power_of(p, i)))


def _patched(power, i, value):
    """``power`` with its X^i coefficient set to ``value``."""
    coeffs = list(power.coeffs)
    coeffs[i] = value
    return HPoly(power.p, tuple(coeffs))


class TestCertificateMatchesTheScan:
    """The closed form of theta^i gives every report the per-r scan of the product gave."""

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
    def test_every_check(self, p):
        for r, i in every_check(p):
            assert tuple(shallow_kill_check(p, r, i)) == scanned_report(p, r, i), (r, i)

    @pytest.mark.parametrize("p", [19, 23])
    def test_a_tenth_of_every_check(self, p):
        # a fixed sample; the opt-in test below runs all of them
        checks = every_check(p)
        for r, i in random.Random(p).sample(checks, len(checks) // 10):
            assert tuple(shallow_kill_check(p, r, i)) == scanned_report(p, r, i), (r, i)

    @pytest.mark.skipif(
        not os.environ.get("PADICELIM_LONG_TESTS"),
        reason="about 3 s; set PADICELIM_LONG_TESTS=1 to run",
    )
    @pytest.mark.parametrize("p", [19, 23])
    def test_every_check_long(self, p):
        for r, i in every_check(p):
            assert tuple(shallow_kill_check(p, r, i)) == scanned_report(p, r, i), (r, i)

    @pytest.mark.parametrize(
        "p",
        [p for p in range(5, 62) if is_prime(p)]
        + [
            pytest.param(p, marks=pytest.mark.skipif(
                not os.environ.get("PADICELIM_LONG_TESTS"),
                reason="about 3 s for all; set PADICELIM_LONG_TESTS=1 to run",
            ))
            for p in range(67, 140) if is_prime(p)
        ],
    )
    def test_theorem_range_and_its_edges(self, p):
        checks = edge_checks(p)
        assert checks
        for r, i in checks:
            assert tuple(shallow_kill_check(p, r, i)) == scanned_report(p, r, i), (r, i)

    def test_certificate_reads_no_theta(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fp_poly, "theta", lambda p: calls.append(p))
        for r, i in edge_checks(13):
            assert shallow_kill_check(13, r, i).passed
        assert calls == []

    @pytest.mark.parametrize(
        "i,value,want",
        [
            # the unit of f_i and the lowest entry of theta^i / Y are both at X^i
            (1, 0, "f_1 has no unit at X^0Y^16"),
            (2, 0, "f_2 has no unit at X^1Y^29"),
            # an entry below X^i: every lam != 0 keeps it as its lowest degree
            (2, (1, 3), "summand at lam = 1 has X-degree 1 < 2"),
        ],
    )
    def test_mutated_theta_power_fails_as_the_scan_does(self, monkeypatch, i, value, want):
        # the certificate reads the closed form of theta^i, the scan the
        # multiplied-out product: a patched product changes the scan alone,
        # and the certificate fed that product's facts fails as the scan does
        p, r = 13, 16 if i == 1 else 30
        theta = fp_poly.theta
        power = theta(p).power(i)
        if isinstance(value, tuple):
            low, value = value
            mutated = _patched(power, low, value)
        else:
            mutated = _patched(power, i, value)
        _patch_theta_powers(monkeypatch, lambda q, m: mutated if (q, m) == (p, i) else theta(q).power(m))
        scan = scanned_report(p, r, i)
        assert want in scan[1]
        assert shallow_kill_check(p, r, i).passed

        facts = mutated.div_x().coeff(i - 1), mutated.div_y().min_x_degree()
        closed_form = fp_poly._shallow_facts
        monkeypatch.setattr(fp_poly, "_shallow_facts", lambda q, m: facts if (q, m) == (p, i) else closed_form(q, m))
        report = shallow_kill_check(p, r, i)
        assert want in report.failures
        assert tuple(report) == scan
