"""Homogeneous bivariate polynomials over F_p and the shallow-kill checks.

A homogeneous polynomial of degree d is a coefficient tuple (c_0, ..., c_d)
with c_j the coefficient of X^j Y^(d-j), every entry reduced mod p.  The
degree is part of the data, so the zero polynomial of degree d is the
all-zero tuple of length d + 1.

A 2x2 matrix m = ((a, b), (c, d)) acts by substitution:

    act(m, f)(X, Y) = f(aX + bY, cX + dY).

This convention is pinned by reproducing the displayed transformation
(0 1; 1 -lam): X^(p-1) Y^(r-p+1) - Y^r  |->  Y^(p-1) (X - lam Y)^(r-p+1)
- (X - lam Y)^r, and it makes act(m1 @ m2, f) = act(m2, act(m1, f)) (a right
action).  The Dickson polynomial theta = X^p Y - X Y^p transforms under any
invertible m by the determinant character.

The vanishing certificate for the sub-quotient indexed by i - 1 (i >= 1,
r >= i(p+1) - 1) has two halves:

  (a) f_i = Y^(r - i(p+1) + 1) (-theta)^i / X is a polynomial whose
      coefficient at X^(i-1) Y^(r-i+1) is a unit, so it projects to a
      generator;
  (b) every summand (X - lam Y)^(r - i(p+1) + 1) theta^i / Y has minimal
      X-degree >= i, so it projects to zero.

The power-of-X claim in (b) is sometimes phrased as a *largest* power where
the divisibility argument (theta^i is divisible by X^i) supports *smallest*;
the check verifies the min-degree statement.  It multiplies nothing out:
theta^i = (-1)^i X^i Y^i (Y^(p-1) - X^(p-1))^i, so the lowest entry of
theta^i is (-1)^i X^i Y^(pi).  Hence f_i's coefficient at X^(i-1) is the
unit (-1)^i up to the sign of f_i, and the lowest entry of theta^i / Y is
c X^t with c = (-1)^i and t = i, at every r.  With k = r - i(p+1) + 1,
(X - lam Y)^k carries that entry to (-lam)^k c X^t, below every other
product and a unit for 1 <= lam < p, so those summands have lowest
X-degree t; the lam = 0 summand is X^k theta^i / Y, of lowest X-degree
k + t.  Per r the check compares these degrees with i, words its failures,
and at i = 1 reads the lams that leave a pure Y^r coefficient, found once
per prime.  ``shallow_summand`` forms the full product; ``verify shallow``
keeps it as the oracle for every reported degree.
"""

from itertools import repeat
from typing import NamedTuple

from padicelim.errors import PadicElimError
from padicelim.exactnum import check_prime, per_prime

__all__ = [
    "HPoly",
    "theta",
    "lin_mul",
    "act",
    "shallow_summand",
    "pure_y_defect",
    "ShallowReport",
    "shallow_kill_check",
]


class HPoly:
    """Homogeneous polynomial; coeffs[j] multiplies X^j Y^(degree - j).

    Immutable, with equality and hashing by value.  A slotted class, not a
    tuple: a tuple base would give it tuple ``+``, ``len`` and iteration.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: tuple[int, ...]):
        check_prime(p)
        if not coeffs:
            raise ValueError("coefficient sequence must have length degree + 1 >= 1")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", tuple(c % p for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("HPoly is immutable")

    def __eq__(self, other) -> bool:
        if type(other) is not HPoly:
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"HPoly(p={self.p}, coeffs={self.coeffs})"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def min_x_degree(self) -> int:
        for j, c in enumerate(self.coeffs):
            if c:
                return j
        raise ValueError("min_x_degree undefined on the zero polynomial")

    def coeff(self, x_power: int) -> int:
        """Coefficient of X^x_power Y^(degree - x_power)."""
        if not (0 <= x_power <= self.degree):
            return 0
        return self.coeffs[x_power]

    def __mul__(self, other: "HPoly") -> "HPoly":
        self._compat(other)
        out = [0] * (self.degree + other.degree + 1)
        # iterate nonzeros of the sparser factor (theta powers are sparse)
        left, right = self, other
        if sum(1 for c in left.coeffs if c) > sum(1 for c in right.coeffs if c):
            left, right = right, left
        for j, cj in enumerate(left.coeffs):
            if cj:
                for k, ck in enumerate(right.coeffs):
                    if ck:
                        out[j + k] = (out[j + k] + cj * ck) % left.p
        return HPoly(self.p, tuple(out))

    def power(self, e: int) -> "HPoly":
        if e < 0:
            raise ValueError("negative power")
        out = HPoly(self.p, (1,))
        for _ in range(e):
            out = out * self
        return out

    def div_x(self) -> "HPoly":
        if self.coeffs[0] != 0:
            raise PadicElimError("not divisible by X: pure Y term present")
        if self.degree == 0:
            raise PadicElimError("cannot divide a constant by X")
        return HPoly(self.p, self.coeffs[1:])

    def div_y(self) -> "HPoly":
        if self.coeffs[-1] != 0:
            raise PadicElimError("not divisible by Y: pure X term present")
        if self.degree == 0:
            raise PadicElimError("cannot divide a constant by Y")
        return HPoly(self.p, self.coeffs[:-1])

    def _compat(self, other: "HPoly") -> None:
        if self.p != other.p:
            raise ValueError("mixed characteristics")


def theta(p: int) -> HPoly:
    """The Dickson polynomial X^p Y - X Y^p (degree p + 1)."""
    check_prime(p)
    coeffs = [0] * (p + 2)
    coeffs[p] = 1
    coeffs[1] = -1
    return HPoly(p, tuple(coeffs))


def lin_mul(coeffs: list[int], x_coef: int, y_coef: int, p: int) -> list[int]:
    """Multiply a coefficient list by the linear form x_coef*X + y_coef*Y."""
    out = [0] * (len(coeffs) + 1)
    for k, ck in enumerate(coeffs):
        if ck:
            out[k] = (out[k] + ck * y_coef) % p
            out[k + 1] = (out[k + 1] + ck * x_coef) % p
    return out


def act(m: tuple[tuple[int, int], tuple[int, int]], f: HPoly) -> HPoly:
    """Substitute X -> aX + bY, Y -> cX + dY (Horner in the second form)."""
    (a, b), (c, d) = m
    p = f.p
    deg = f.degree
    acc = [f.coeffs[deg]]
    vpow = [1]
    for j in range(deg - 1, -1, -1):
        vpow = lin_mul(vpow, c, d, p)
        acc = lin_mul(acc, a, b, p)
        cj = f.coeffs[j]
        if cj:
            for k, vk in enumerate(vpow):
                acc[k] = (acc[k] + cj * vk) % p
    return HPoly(p, tuple(acc))


def shallow_summand(p: int, r: int, i: int, lam: int) -> HPoly:
    """(X - lam Y)^(r - i(p+1) + 1) * theta^i / Y, exact over F_p."""
    check_prime(p)
    if i < 1:
        raise PadicElimError("i must be >= 1")
    k = r - i * (p + 1) + 1
    if k < 0:
        raise PadicElimError(
            f"r = {r} < i(p+1) - 1 = {i * (p + 1) - 1}: the quotient is not a polynomial"
        )
    return HPoly(p, (-lam, 1)).power(k) * theta(p).power(i).div_y()


def _shallow_facts(p: int, i: int) -> tuple[int, int]:
    """f_i's unit at X^(i-1) and the X-degree of the lowest entry of theta^i / Y.

    Read from the lowest entry (-1)^i X^i Y^(pi) of theta^i; none of it
    depends on r, and nothing is multiplied out.
    """
    return (-1) ** i % p, i


def pure_y_defect(p: int, r: int, lam: int) -> int:
    """Coefficient of Y^r after acting with (0 1; 1 -lam) on f = X^(p-1)Y^(r-p+1) - Y^r.

    The Y^r coefficient of act(m, f) is act(m, f)(0, 1) = f(b, d), here
    f(1, -lam) = (-lam)^(r-p+1) - (-lam)^r, so no substitution is expanded.
    Zero for every lam once r >= p; at r = p - 1 the lam = 0 defect survives.
    """
    check_prime(p)
    if r < p - 1:
        raise PadicElimError("r must be at least p - 1")
    return _y_defect(p, r, lam)


def _y_defect(p: int, r: int, lam: int) -> int:
    """:func:`pure_y_defect` for a p and an r already checked."""
    return (pow(-lam, r - p + 1, p) - pow(-lam, r, p)) % p


def _defective_lams(p: int) -> list[int]:
    """The lams whose pure Y^r defect is non-zero at an r >= p, held with p's other state.

    The defect (-lam)^(r-p+1) (1 - (-lam)^(p-1)) has a positive first
    exponent once r >= p, so it vanishes where lam = 0 or (-lam)^(p-1) = 1:
    the same lams at every r >= p, one list per prime, read at r = p.
    """
    return per_prime(p, "y_defect_lams", lambda: [lam for lam in range(p) if _y_defect(p, p, lam)])


class ShallowReport(NamedTuple):
    """Evidence that the sub-quotient indexed by i - 1 vanishes.

    ``summand_min_x`` pairs each lam with the minimal X-degree of its
    summand.  ``failures`` names each missing unit, low summand degree and
    surviving pure Y^r coefficient (checked at i = 1).  The unit of f_i and
    the lowest entry of theta^i / Y are read from the closed form of
    theta^i; each r checks them against its own degrees and words its own
    failures.
    """

    summand_min_x: tuple[tuple[int, int], ...]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def shallow_kill_check(p: int, r: int, i: int) -> ShallowReport:
    """Certify the vanishing of the sub-quotient indexed by i - 1.

    f_i's unit (-1)^i and the X-degree t = i of the lowest entry of
    theta^i / Y come from the closed form of theta^i; nothing is multiplied out.
    """
    check_prime(p, minimum=5)
    if i < 1 or r < i * (p + 1) - 1 or r > p * p - p - 1:
        raise PadicElimError(
            f"(p, r, i) = ({p}, {r}, {i}) violates 1 <= i, i(p+1)-1 <= r <= p^2-p-1"
        )
    failures: list[str] = []

    k = r - i * (p + 1) + 1
    unit, t = _shallow_facts(p, i)
    if unit == 0:
        failures.append(f"f_{i} has no unit at X^{i - 1}Y^{r - i + 1}")

    # at lam = 0 the summand is X^k theta^i / Y; at every other lam its
    # lowest entry is (-lam)^k c X^t, a unit times X^t
    min_degrees = ((0, k + t), *zip(range(1, p), repeat(t)))
    failures += [f"summand at lam = {lam} has X-degree {md} < {i}" for lam, md in min_degrees if md < i]

    if i == 1 and r >= p:
        failures += [f"pure Y^r coefficient survives at lam = {lam}" for lam in _defective_lams(p)]

    return ShallowReport(summand_min_x=min_degrees, failures=tuple(failures))
