"""The interpolation coefficient family lambda_i.

For a prime p >= 5, a digit 0 <= b <= p - 2 and a degree n in the window
[bp, (b+1)p - 1], there is a unique rational family (lambda_i) indexed by
I = {0, 1, ..., n, (b+1)p} with lambda_{(b+1)p} = -1 and

    sum_{i in I} lambda_i i^j = 0   for all 0 <= j <= n.             (bullet 1)

The family turns out to be integral and to satisfy three further
congruences:

    sum_{i = a mod p} lambda_i i^j = 0 mod p^2   for each a, j <= n  (bullet 2)
    lambda_i = (-1)^(b - i/p) C(b+1, i/p) mod p  when p | i          (bullet 3)
    lambda_i = 0 mod p                           when p does not | i (bullet 4)

Bullet 2 as stated fails at b = 0 (e.g. p = 5, n = 3 has lambda_1 = 15,
not 0 mod 25): the cancellation sum_k (-1)^k C(b, k) = 0 that drives it is
vacuous there.  ``verify_lambda`` therefore asserts bullet 2 only for
b >= 1 and reports the b = 0 outcome as observed, not as a failure.

Two independent computations are provided.  ``solve_lambda`` solves the
moment system exactly and fraction-free: the power equations are reduced by
the unitriangular change of basis from monomials i^j to binomial moments
C(i, m) (an integer row reduction, pivots all 1), after which the system is
triangular and back-substitution stays in the integers.  It runs by whole
rows: the Pascal rows do not depend on (p, b, n), so they are kept for the
process in one list that grows from its last row, and each solved lambda_i
leaves the right-hand side in one row operation, so no binomial is
evaluated on its own.  ``lambda_closed`` evaluates the whole family from
the product formula

    lambda_i = (-1)^(n-i) ((b+1)p / ((b+1)p - i)) C((b+1)p - 1, n) C(n, i)

obtained from the Vandermonde determinant.  The tests require the two to
agree entry-wise, exactly.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby, repeat
from operator import add, mul, sub
from typing import NamedTuple

from padicelim.errors import DigitError, WindowError
from padicelim.exactnum import binom, check_prime

__all__ = ["LambdaVector", "BulletReport", "solve_lambda", "lambda_closed", "verify_lambda"]

_PASCAL_ROWS: list[list[int]] = [[1]]  # complete rows C(i, 0..i), i = 0, 1, ...


def _pascal_rows(y: int) -> list[list[int]]:
    """Extend the cached rows through row y, each new row from the last one."""
    rows = _PASCAL_ROWS
    for _ in range(len(rows), y + 1):
        row = rows[-1]
        rows.append([1, *map(add, row, row[1:]), 1])
    return rows


def _check_window(p: int, b: int, n: int) -> None:
    check_prime(p, minimum=5)
    if b < 0 or b > p - 2:
        raise DigitError(f"b = {b} outside [0, {p - 2}]")
    if not (b * p <= n <= (b + 1) * p - 1):
        raise WindowError(f"n = {n} outside [{b * p}, {(b + 1) * p - 1}]")


class LambdaVector:
    """The solved family: entries[i] is lambda_i for i in {0..n} + {(b+1)p}.

    A slotted class, not a tuple: on a tuple ``vec[i]`` would silently read
    a field, not lambda_i.
    """

    __slots__ = ("p", "b", "n", "entries")

    def __init__(self, p: int, b: int, n: int, entries: dict[int, int]):
        self.p = p
        self.b = b
        self.n = n
        self.entries = entries

    @property
    def top_node(self) -> int:
        return (self.b + 1) * self.p

    @property
    def index_set(self) -> tuple[int, ...]:
        return tuple(range(self.n + 1)) + (self.top_node,)


def solve_lambda(p: int, b: int, n: int) -> LambdaVector:
    """Solve the moment system exactly with lambda_{(b+1)p} pinned to -1.

    Moving the pinned node to the right-hand side leaves
    sum_{i=0}^{n} lambda_i i^j = y^j (y = (b+1)p) for 0 <= j <= n.  Row
    reduction by the unitriangular monomial-to-binomial change of basis
    turns this into the triangular system sum_i lambda_i C(i, m) = C(y, m),
    solved from i = n downward in pure integer arithmetic: lambda_i is the
    m = i entry of the right-hand side, and lambda_i C(i, 0..i-1) is then
    subtracted from the entries below it in one step.
    """
    _check_window(p, b, n)
    y = (b + 1) * p
    rows = _pascal_rows(y)
    rhs = rows[y][: n + 1]
    lam = [0] * (n + 1)
    for i in range(n, -1, -1):
        lam_i = lam[i] = rhs.pop()  # pivot C(i, i) = 1
        rhs = list(map(sub, rhs, map(mul, repeat(lam_i, i), rows[i])))
    entries = dict(enumerate(lam))
    entries[y] = -1
    return LambdaVector(p=p, b=b, n=n, entries=entries)


def lambda_closed(p: int, b: int, n: int) -> tuple[Fraction, ...]:
    """The product-formula values of lambda_0, ..., lambda_n, indexed by i.

    The window is checked and C((b+1)p - 1, n) computed once per family;
    each (-1)^(n-i) C(n, i) is carried from i - 1.
    """
    _check_window(p, b, n)
    y = (b + 1) * p
    numerator = (-1) ** n * y * binom(y - 1, n)  # at i = 0
    values = [Fraction(numerator, y)]
    for i in range(1, n + 1):
        numerator = -numerator * (n - i + 1) // i
        values.append(Fraction(numerator, y - i))
    return tuple(values)


class BulletReport(NamedTuple):
    """Per-bullet outcome of verifying a LambdaVector (which holds p, b and n).

    ``bullet2_mode`` is "asserted" for b >= 1 and "observed" for b = 0,
    where the mod-p^2 class congruence is known to fail; observed failures
    land in ``bullet2_deviations`` without flipping ``passed``.
    """

    bullet1: bool
    bullet2: bool
    bullet2_mode: str
    bullet2_deviations: tuple[tuple[int, int], ...]  # (a, j) pairs
    bullet3: bool
    bullet4: bool
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_lambda(v: LambdaVector) -> BulletReport:
    """Check all four bullet points of the coefficient lemma exactly."""
    p, b, n = v.p, v.b, v.n
    failures: list[str] = []

    # The index set is ordered by residue class once, so each class is one
    # slice.  w holds lambda_i i^j for the current j (0^0 = 1) and steps to
    # j + 1 by multiplying each entry by its node i; the class sums are the
    # slice sums and their total is the bullet-1 power moment.
    nodes = sorted(v.index_set, key=lambda i: i % p)
    classes: list[tuple[int, slice]] = []
    lo = 0
    for a, members in groupby(nodes, lambda i: i % p):
        hi = lo + len(list(members))
        classes.append((a, slice(lo, hi)))
        lo = hi
    w = [v.entries[i] for i in nodes]
    bullet1 = True
    mod2 = p * p
    deviations: list[tuple[int, int]] = []
    for j in range(n + 1):
        total = 0
        for a, cls in classes:
            class_sum = sum(w[cls])
            total += class_sum
            if class_sum % mod2:
                deviations.append((a, j))
        if total:
            bullet1 = False
            failures.append(f"bullet 1 fails at j = {j}")
        w = list(map(mul, w, nodes))
    deviations.sort()  # a-major, as the class congruence is stated
    bullet2_mode = "asserted" if b >= 1 else "observed"
    bullet2 = not deviations
    if deviations and b >= 1:
        failures.append(f"bullet 2 fails at (a, j) = {deviations[0]}")

    bullet3 = True
    bullet4 = True
    for i in v.index_set:
        if i % p == 0:
            k = i // p
            sign = -1 if (b - k) % 2 else 1
            if (v.entries[i] - sign * binom(b + 1, k)) % p != 0:
                bullet3 = False
                failures.append(f"bullet 3 fails at i = {i}")
        elif v.entries[i] % p != 0:
            bullet4 = False
            failures.append(f"bullet 4 fails at i = {i}")

    return BulletReport(
        bullet1=bullet1,
        bullet2=bullet2,
        bullet2_mode=bullet2_mode,
        bullet2_deviations=tuple(deviations),
        bullet3=bullet3,
        bullet4=bullet4,
        failures=tuple(failures),
    )
