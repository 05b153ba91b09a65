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

Two independent computations are provided.  ``lambda_window`` builds
L_n(u) = sum_i lambda_i u^i = sum_{m <= n} C((b+1)p, m) (u - 1)^m in
integers for every n of a window at once, carrying the term
C((b+1)p, m) (u - 1)^m and the partial sum L_m from m - 1 to m;
``solve_lambda`` reads one n from it.  ``lambda_closed`` evaluates the
whole family from the product formula

    lambda_i = (-1)^(n-i) ((b+1)p / ((b+1)p - i)) C((b+1)p - 1, n) C(n, i)

obtained from the Vandermonde determinant, as the integer numerators
lambda_i ((b+1)p - i).  ``verify_lambda_sweep`` and the tests compare the
two by cross-multiplying: each solved lambda_i times (b+1)p - i must equal
its numerator exactly.  ``verify_lambda`` shares no code with either.

``verify_lambda`` checks bullet 1 as a divisibility: the binomial moments
of L(u) = sum_I lambda_i u^i vanish up to n exactly when (u - 1)^(n+1)
divides L.  The quotient of u^y, y = (b+1)p, by (u - 1)^(n+1) is
sum_{k < d} C(n+k, k) u^(d-1-k) with d = y - n <= p, the polynomial part of
u^y (u - 1)^-(n+1) at infinity.  Subtracting (u - 1)^(n+1) times lambda_y
times it from L leaves a remainder R of degree <= n with the same moments,
so bullet 1 holds exactly when R = 0: O(n d) work per family, not O(n y).
"""

from collections.abc import Iterator
from itertools import islice, repeat
from math import comb, factorial
from operator import add, floordiv, mul, sub
from typing import NamedTuple

from padicelim.combinat import stirling2
from padicelim.errors import PadicElimError
from padicelim.exactnum import check_prime

__all__ = ["LambdaVector", "BulletReport", "lambda_window", "solve_lambda", "lambda_closed", "verify_lambda"]

def _check_window(p: int, b: int, n: int) -> None:
    check_prime(p, minimum=5)
    if b < 0 or b > p - 2:
        raise PadicElimError(f"b = {b} outside [0, {p - 2}]")
    if not (b * p <= n <= (b + 1) * p - 1):
        raise PadicElimError(f"n = {n} outside [{b * p}, {(b + 1) * p - 1}]")


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


def lambda_window(p: int, b: int) -> Iterator[LambdaVector]:
    """Yield the solved family of every n in [bp, (b+1)p - 1], in increasing n.

    With y = (b+1)p the system is sum_{i <= n} lambda_i i^j = y^j, j <= n.
    As i^j = sum_m S(j, m) m! C(i, m) is unitriangular, it is equivalently
    sum_i lambda_i C(i, m) = C(y, m), m <= n: L_n(1 + x) = sum_m C(y, m) x^m
    for L_n(u) = sum_i lambda_i u^i.  So L_n(u) = sum_{m <= n} T_m(u) with
    T_m = C(y, m) (u - 1)^m, exact as an identity of polynomials of degree n,
    and L_m = L_{m-1} + T_m.  The coefficient of u^i in T_m is
    (-1)^(m-i) C(y, i) C(y - i, m - i), so each step carries T_{m-1} to T_m
    by the exact factor -(y - m + 1) / (m - i) on each entry i < m, with the
    top entry C(y, m) = C(y, m - 1) (y - m + 1) / m.  Every n of the window
    is one step past the last.
    """
    _check_window(p, b, b * p)
    y = (b + 1) * p
    term = [1]  # T_m
    lam = [1]  # L_m
    for m in range(y):
        if m:
            k = y - m + 1
            top = term[-1] * k // m
            term = [*map(floordiv, map(mul, term, repeat(-k)), range(m, 0, -1)), top]
            lam = list(map(add, [*lam, 0], term))
        if m >= b * p:
            entries = dict(enumerate(lam))
            entries[y] = -1
            yield LambdaVector(p=p, b=b, n=m, entries=entries)


def solve_lambda(p: int, b: int, n: int) -> LambdaVector:
    """Solve the moment system exactly with lambda_{(b+1)p} pinned to -1.

    The window is checked first; the family is the vector that
    ``lambda_window(p, b)`` yields at n, so its steps run up to n only.
    """
    _check_window(p, b, n)
    return next(islice(lambda_window(p, b), n - b * p, None))


def lambda_closed(p: int, b: int, n: int) -> tuple[int, ...]:
    """The product-formula numerators lambda_i ((b+1)p - i), i = 0..n, indexed by i.

    With y = (b+1)p the numerator is (-1)^(n-i) y C(y - 1, n) C(n, i), an
    unreduced integer; lambda_i itself is the numerator over y - i, which
    is never 0 as i <= n < y.  The window is checked and C(y - 1, n)
    computed once per family; each (-1)^(n-i) C(n, i) is carried from i - 1.
    """
    _check_window(p, b, n)
    y = (b + 1) * p
    numerator = (-1) ** n * y * comb(y - 1, n)  # at i = 0
    values = [numerator]
    for i in range(1, n + 1):
        numerator = -numerator * (n - i + 1) // i
        values.append(numerator)
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
    """Check all four bullet points of the coefficient lemma exactly.

    Bullet 1: with B_m = sum_{i in I} lambda_i C(i, m), the power moment is
    P_j = sum_{m <= j} S(j, m) m! B_m (as i^j = sum_m S(j, m) m! C(i, m)),
    unitriangular, so all P_j vanish iff all B_m do.  B_m is the coefficient
    of x^m in L(1 + x), so all B_m, m <= n, vanish iff (u - 1)^(n+1) divides
    L.  With y = (b+1)p and d = y - n, Q = lambda_y sum_{k < d} C(n+k, k)
    u^(d-1-k) is the quotient of lambda_y u^y by (u - 1)^(n+1), so
    R = L - (u - 1)^(n+1) Q is lambda_0..lambda_n plus lambda_y times the
    remainder of u^y: degree <= n.  Only its n + 1 low coefficients are
    formed, in d shifted row updates.  (u - 1)^(n+1) Q at u = 1 + x is
    x^(n+1) Q(1 + x), so R has L's B_m for m <= n: R = 0 is bullet 1, and a
    nonzero R gives L's B_m, by Horner in (1 + x) over its coefficients, and
    so the same failure rows.
    Bullet 2: for i = a + pt, i^j = a^j + j a^(j-1) pt mod p^2 (later binomial
    terms carry p^2; 0^0 = 1), so each class sum is a^j S0_a + j a^(j-1) p S1_a
    mod p^2, with S0_a = sum lambda_i and S1_a = sum lambda_i t over the class.
    """
    p, b, n = v.p, v.b, v.n
    y = v.top_node
    failures: list[str] = []

    row = [(-1) ** (n + 1)]  # (u - 1)^(n+1), from u^0 up
    for m in range(1, n + 2):
        row.append(-row[-1] * (n + 2 - m) // m)
    residue = [v.entries[i] for i in range(n + 1)]  # R, degree <= n
    d = y - n
    q = v.entries[y]  # lambda_y C(n + k, k), Q's coefficient of u^(d-1-k)
    for k in range(d):
        s = d - 1 - k
        # minus q u^s (u - 1)^(n+1), cut at u^n: the terms above cancel lambda_y u^y
        residue[s:] = map(sub, residue[s:], map(mul, row, repeat(q)))
        q = q * (n + k + 1) // (k + 1)
    bullet1 = not any(residue)
    if not bullet1:
        moments = [0] * (n + 1)
        for c in reversed(residue):  # Horner in (1 + x)
            moments = [moments[0] + c, *map(add, moments[1:], moments)]
        nonzero = [(m, factorial(m) * moment) for m, moment in enumerate(moments) if moment]
        for j in range(nonzero[0][0], n + 1):
            if sum(stirling2(j, m) * weighted for m, weighted in nonzero if m <= j):
                failures.append(f"bullet 1 fails at j = {j}")

    mod2 = p * p
    s0 = [0] * p
    s1 = [0] * p
    for i in v.index_set:
        t, a = divmod(i, p)
        s0[a] += v.entries[i]
        s1[a] += v.entries[i] * t
    deviations: list[tuple[int, int]] = []  # a-major, as the class congruence is stated
    for a in range(p):
        c0 = s0[a] % mod2
        c1 = s1[a] % p * p
        if not (c0 or c1):  # zero at every j
            continue
        power, slope = 1, 0  # a^j and j a^(j-1), mod p^2
        for j in range(n + 1):
            if (power * c0 + slope * c1) % mod2:
                deviations.append((a, j))
            power, slope = power * a % mod2, (slope * a + power) % mod2
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
            if (v.entries[i] - sign * comb(b + 1, k)) % p != 0:
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
