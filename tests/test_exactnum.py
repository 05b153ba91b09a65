"""Arithmetic substrate tests.

Oracles here are deliberately primitive: valuations are checked by stripping
factors off exactly computed integers.
"""

import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from padicelim import exactnum
from padicelim.errors import PadicElimError
from padicelim.exactnum import (
    INF,
    ValP,
    as_rational,
    check_prime,
    harmonic,
    is_prime,
    per_prime,
    rational_mod,
    vp_factorial,
    vp_int,
)
from valuation_reference import vp

PRIMES_TO_100 = [p for p in range(2, 100) if is_prime(p)]


def vp_strip(n: int, p: int) -> int:
    """Independent valuation oracle: factor p out of the exact integer."""
    assert n != 0
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


class TestVp:
    def test_examples(self):
        assert vp(Fraction(250, 3), 5) == 3
        assert vp(1, 7) == 0
        assert vp(Fraction(7, 5), 5) == -1

    def test_composite_p_rejected(self):
        with pytest.raises(PadicElimError, match=r"^p = 6 is not a prime >= 2$"):
            vp(Fraction(1, 2), 6)

    def test_zero_is_undefined(self):
        with pytest.raises(ValueError):
            vp(0, 5)
        with pytest.raises(ValueError):
            vp_int(0, 5)

    def test_additive_and_ultrametric(self):
        rng = random.Random(20240517)
        for _ in range(300):
            p = rng.choice([5, 7, 11, 13])
            a = Fraction(rng.randint(-(10**6), 10**6) or 1, rng.randint(1, 10**4))
            b = Fraction(rng.randint(-(10**6), 10**6) or 1, rng.randint(1, 10**4))
            assert vp(a * b, p) == vp(a, p) + vp(b, p)
            if a + b != 0:
                assert vp(a + b, p) >= min(vp(a, p), vp(b, p))


class TestVpFactorial:
    def test_examples(self):
        # oracle: factor 25! directly
        assert vp_strip(math.factorial(25), 5) == 6
        assert vp_factorial(25, 5) == 6
        assert vp_factorial(0, 5) == 0
        for p in (5, 7, 13):
            assert vp_factorial(p - 1, p) == 0

    def test_legendre_matches_exact_factorial_to_3000(self):
        # running sum of vp over m = 1..n equals vp of the exact factorial;
        # the accumulator is re-anchored against the literal big integer
        # periodically to keep the oracle honest without 3000 strippings
        for p in (5, 7, 11, 13):
            acc = 0
            fact = 1
            for n in range(1, 3001):
                fact *= n
                acc += vp_int(n, p)
                assert vp_factorial(n, p) == acc
                if n % 500 == 0:
                    assert acc == vp_strip(fact, p)

    def test_composite_p_rejected(self):
        with pytest.raises(PadicElimError, match=r"^p = 8 is not a prime >= 2$"):
            vp_factorial(10, 8)


class TestHarmonic:
    def test_examples(self):
        assert harmonic(2) == Fraction(3, 2)
        assert harmonic(0) == 0
        assert harmonic(4) == Fraction(25, 12)
        assert vp(harmonic(4), 5) == 2

    def test_cold_cache_beyond_recursion_limit(self):
        harmonic.cache_clear()
        assert harmonic(1500) == sum(Fraction(1, k) for k in range(1, 1501))

    def test_wolstenholme_style_bound(self):
        for p in PRIMES_TO_100:
            if p >= 5:
                assert vp(harmonic(p - 1), p) >= 1


class TestValP:
    def test_equality(self):
        assert INF == INF
        assert INF != 0 and INF != ValP(0)
        assert ValP(Fraction(1, 2)) == Fraction(1, 2)
        assert ValP(2) == 2 and ValP(2) != ValP(3)

    def test_immutable_and_hashable(self):
        v = ValP(2)
        with pytest.raises(AttributeError):
            v._value = 3
        assert len({ValP(1), ValP(1), INF}) == 2

    def test_str(self):
        assert str(INF) == "inf"
        assert str(ValP(Fraction(-3, 2))) == "-3/2"


class TestRationalMod:
    def test_inverse_path(self):
        assert rational_mod(Fraction(47, 2), 25) == 11
        assert rational_mod(Fraction(-3, 4), 25) == (-3 * pow(4, -1, 25)) % 25

    def test_non_invertible(self):
        with pytest.raises(ValueError):
            rational_mod(Fraction(1, 5), 25)


class TestAsRational:
    def test_parses_exact_literals(self):
        assert as_rational("-9/2") == Fraction(-9, 2)
        assert as_rational("7") == 7
        assert as_rational(" +3/4\n") == Fraction(3, 4)
        assert as_rational(Fraction(1, 3)) == Fraction(1, 3)

    def test_rejects_decimals(self):
        with pytest.raises(ValueError):
            as_rational("4.5")
        with pytest.raises(ValueError):
            as_rational("1e-3")
        with pytest.raises(PadicElimError, match="decimals are not accepted"):
            as_rational("1_0.5")
        # a value that is neither an int, a Fraction nor text
        for value in (4.5, -4.0, Decimal("4.5")):
            with pytest.raises(PadicElimError, match=r"rational literal expected \(got "):
                as_rational(value)

    @pytest.mark.parametrize("text", ["1_0/2_0", "\u0661/\u0662", "\uff11/2", "1 / 2", "0x10", "1_0/0", "\u0661/\u0660"])
    def test_rejects_what_is_not_ascii_a_over_b(self, text):
        # Fraction reads the first three as 1/2 and the last two as 1/0:
        # neither is an a/b literal, so neither has a zero denominator
        with pytest.raises(PadicElimError, match=rf"^rational literal expected \(got {re.escape(repr(text))}\)$"):
            as_rational(text)


def _by_trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestIsPrime:
    def test_agrees_with_trial_division_below_10_5(self):
        assert [n for n in range(-2, 10**5) if is_prime(n) != _by_trial_division(n)] == []

    @pytest.mark.parametrize(
        "n, factor",
        [
            # the least strong pseudoprime to the prime bases 2, 2..3, ..., 2..37
            (2047, 23), (1373653, 829), (25326001, 2251), (3215031751, 151),
            (2152302898747, 6763), (3474749660383, 1303), (341550071728321, 10670053),
            (3825123056546413051, 149491), (318665857834031151167461, 399165290221),
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n, factor):
        assert 1 < factor < n and n % factor == 0
        assert not is_prime(n)

    def test_large_primes_and_the_strong_test_above_the_bound(self):
        assert all(map(is_prime, (2**31 - 1, 10**18 + 3, 2**61 - 1, 2**64 + 13)))
        # at and above 3.3 * 10^24 a failed base still proves p composite,
        # with or without a small factor
        assert not is_prime(43**16) and not is_prime(3_317_044_064_679_887_385_961_982)
        assert not is_prime((2**61 - 1) ** 2) and not is_prime((2**61 - 1) * (2**89 - 1))

    @pytest.mark.parametrize("p", [2**89 - 1, 2**107 - 1, 2**127 - 1])
    def test_a_number_past_the_bound_that_passes_every_base_is_not_decided(self, p):
        # these Mersenne primes pass every base; nothing there proves them prime
        with pytest.raises(PadicElimError) as info:
            is_prime(p)
        assert str(info.value) == (
            f"p = {p} passes the strong test to the bases 2..41, which decides primality only below {exactnum._MR_BOUND}"
        )
        with pytest.raises(PadicElimError):
            check_prime(p)


class TestIsPrimeCache:
    def test_distinct_calls_keep_the_cache_bounded_and_check_prime_hits_it(self):
        maxsize = is_prime.cache_info().maxsize
        assert maxsize is not None and maxsize <= 1024
        for m in range(10**6, 10**6 + 10_000):
            is_prime(m)
        assert is_prime.cache_info().currsize <= maxsize
        check_prime(31)
        hits = is_prime.cache_info().hits
        check_prime(31)
        assert is_prime.cache_info().hits == hits + 1


class TestPerPrime:
    def test_the_prime_asked_for_last_is_held(self, no_prime_held):
        made = []

        def make(p, slot):
            return lambda: made.append((p, slot)) or [p]

        # a slot made while p holds nothing yet, whose make asks for another slot of p
        assert per_prime(5, "outer", lambda: per_prime(5, "inner", make(5, "inner")) + [0]) == [5, 0]
        assert exactnum._KEPT == {5: {"inner": [5], "outer": [5, 0]}}
        assert per_prime(5, "inner", make(5, "inner")) == [5]
        # another prime drops every slot of 5
        assert per_prime(7, "a", make(7, "a")) == [7]
        assert exactnum._KEPT == {7: {"a": [7]}}
        assert per_prime(5, "inner", make(5, "inner")) == [5]
        assert exactnum._KEPT == {5: {"inner": [5]}}
        assert made == [(5, "inner"), (7, "a"), (5, "inner")]
