"""Exact integer/rational arithmetic with p-adic valuations.

Every scalar in this package is an exact rational (``fractions.Fraction``)
or an exact integer.  No floating point is used anywhere: every downstream
statement is a congruence or a valuation inequality, and both are decided
exactly.

Valuations are values of type :class:`ValP`: either a rational number or the
distinguished +infinity (the valuation of zero).  Half-integer valuations
arise from composite expressions such as r/2 - n - v_p(L).  A ValP is only
compared for equality and printed; thresholds are decided on integer slacks.
"""

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from padicelim.errors import PadicElimError

__all__ = [
    "ValP",
    "is_prime",
    "per_prime",
    "check_prime",
    "vp_int",
    "vp_factorial",
    "harmonic",
    "rational_mod",
    "as_rational",
]


# Miller-Rabin to all these bases is exact below the bound (Sorenson and Webster, 2015)
_MR_BASES, _MR_BOUND = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41), 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=64)
def is_prime(p: int) -> bool:
    """Deterministic primality below 3.3 * 10^24: the strong test to the prime bases 2..41.

    A base that the strong test fails proves p composite, at any size.
    At and above the bound a p that passes every base may still be
    composite, so primality is not decided there: PadicElimError.  The
    cache serves ``check_prime``, which every request calls with the few
    primes it works at; a sweep's scan of its p range adds one entry per
    scanned p, and the cache is bounded at 64 entries.
    """
    if p < 2 or gcd(p, prod(_MR_BASES)) > 1:
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s with d odd
    d = (p - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x != 1:
            for _ in range(s):
                if x == p - 1:
                    break
                x = x * x % p
            else:
                return False
    if p >= _MR_BOUND:
        raise PadicElimError(
            f"p = {p} passes the strong test to the bases 2..41, which decides primality only below {_MR_BOUND}"
        )
    return True


# what a process keeps for a prime: each module's own slots, for the prime
# asked for last; asking for another prime drops them
_KEPT: dict[int, dict[str, object]] = {}


def per_prime(p: int, slot: str, make):
    """The state ``slot`` of p, made by ``make()`` when p does not hold it.

    p is not checked: the trace writer also holds the lines of hand-built traces.
    """
    if p not in _KEPT:
        _KEPT.clear()
    slots = _KEPT.setdefault(p, {})
    if slot not in slots:
        slots[slot] = make()
    return slots[slot]


def check_prime(p: int, minimum: int = 2) -> int:
    if not is_prime(p) or p < minimum:
        raise PadicElimError(f"p = {p} is not a prime >= {minimum}")
    return p


class ValP:
    """A p-adic valuation value: an exact rational or +infinity.

    Instances are immutable.  They compare equal to a ValP, an int or a
    Fraction of the same value; INF equals only itself.
    """

    __slots__ = ("_value",)

    def __init__(self, value: Fraction | int | None):
        # None encodes +infinity
        object.__setattr__(self, "_value", None if value is None else Fraction(value))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ValP is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, ValP):
            return self._value == other._value
        if isinstance(other, (int, Fraction)):
            return self._value is not None and self._value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value)

    def __str__(self) -> str:
        return "inf" if self._value is None else str(self._value)

    def __repr__(self) -> str:
        return f"ValP({self})"


INF = ValP(None)


def vp_int(n: int, p: int) -> int:
    """Exponent of p in a nonzero integer (p assumed prime by the caller)."""
    if n == 0:
        raise ValueError("vp_int(0) is undefined: 0 has valuation +infinity")
    n = abs(n)
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


def vp_factorial(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula: sum over e >= 1 of floor(n / p^e)."""
    check_prime(p)
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


@lru_cache(maxsize=None)
def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n exactly; H_0 = 0.

    Summed in a loop over one integer numerator and denominator, so no
    recursion depth limit applies and only the result is reduced.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    num, den = 0, 1
    for k in range(1, n + 1):
        num, den = num * k + den, den * k
    return Fraction(num, den)


def rational_mod(q: Fraction | int, modulus: int) -> int:
    """Reduce a rational with denominator invertible mod ``modulus``.

    This is how residues of expressions like p*H_eps are taken mod p^2:
    the denominator is coprime to p, so it has an inverse.
    """
    q = Fraction(q)
    den = q.denominator % modulus
    try:
        inv = pow(den, -1, modulus)
    except ValueError as exc:
        raise ValueError(
            f"denominator {q.denominator} is not invertible mod {modulus}"
        ) from exc
    return (q.numerator % modulus) * inv % modulus


def as_rational(text: str | int | Fraction) -> Fraction:
    """Parse an exact rational literal ("a/b" or "a" in ASCII digits); no decimals.

    An int or a Fraction is taken as it is; any other value that is not
    such a literal (a float, a digit group "1_0", a non-ASCII digit among
    them) raises PadicElimError.
    """
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    if not isinstance(text, str):
        raise PadicElimError(f"rational literal expected (got {text!r})")
    text = text.strip()
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        value = None  # a zero denominator, named below once the text is a/b
    except ValueError:
        raise PadicElimError(f"rational literal expected (got {text!r})") from None
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        note = "; decimals are not accepted" if "." in text or "e" in text.lower() else ""
        raise PadicElimError(f"rational literal expected (got {text!r}){note}")
    if value is None:
        raise PadicElimError(f"rational literal {text!r} has a zero denominator")
    return value
