"""Congruence lemmas: Lucas classical and mod p^2, Stirling numbers.

Stirling numbers of the second kind {t brace s} follow the conventions
{t brace s} = 0 for s > t or s < 0, {0 brace 0} = 1.  They are computed two
ways on purpose: by the recurrence {t brace s} = s {t-1 brace s} +
{t-1 brace s-1} (cached, used everywhere) and by the alternating definition
sum divided by s!, a whole row {t brace 0..t} at a time (the independent
oracle of ``verify stirling-lucas`` and the tests).

The mod p^2 refinement of Lucas' theorem used here reads, for digits
0 <= s <= r' <= p - 1 and any a, b >= 0:

    C(pa + r', pb + s) = C(a, b) C(r', s)
        (1 + pa (H_{r'} - H_{r'-s}) + pb (H_{r'-s} - H_s))   mod p^2.

Every denominator of H_k, k < p, is a p-unit, so ``binom_mod_p2`` evaluates
the formula in integers from the residues of H_0..H_{p-1} mod p^2, taken
once per prime.  When the digit condition s <= r' fails the lemma does not
apply and ``binom_mod_p2`` falls back to reducing the exact binomial,
tagging the result so property tests can score the lemma path separately.
"""

from itertools import repeat
from math import comb
from operator import add, mod, mul, sub
from typing import NamedTuple

from padicelim.exactnum import check_prime, harmonic, per_prime, rational_mod

__all__ = [
    "lucas_mod_p",
    "Mod2Residue",
    "binom_mod_p2",
    "stirling2",
    "stirling2_column",
    "stirling2_def_row",
    "stirling_lucas_check",
]

# complete rows {t brace 0..t}, t = 0, 1, ..., p-free and so kept for every prime
_STIRLING_ROWS: list[list[int]] = [[1]]


def _fill_stirling_rows(t: int) -> list[list[int]]:
    """Extend the cached rows through row t, each new row from the last one."""
    rows = _STIRLING_ROWS
    for tt in range(len(rows), t + 1):
        prev = rows[-1]
        # {tt brace s} = s {tt-1 brace s} + {tt-1 brace s-1} for 0 < s < tt
        rows.append([0, *map(add, map(mul, range(1, tt), prev[1:]), prev), 1])
    return rows


def _stirling_row_mod_p(t: int, p: int) -> tuple[int, ...]:
    """The row {t brace 0..t} mod p, rolled forward from the nearest held row below t.

    p's rows are held with its other state, keyed by t: the rows t <= 3p + 1
    and t >= p^2, all that stirling_lucas_check reads at y <= 2p, i <= 2.
    Rows 3p + 1 < t < p^2 are rolled through and dropped, so the held rows
    of p = 101 are about 2p^3 values, not the p^4 / 2 of every row to p^2 + 2p.
    """
    rows = per_prime(p, "stirling_rows_mod_p", lambda: {0: (1,)})
    row = rows.get(t)
    if row is None:
        start = max(held for held in rows if held < t)
        row = rows[start]
        for tt in range(start + 1, t + 1):
            # the recurrence of _fill_stirling_rows, reduced mod p; a tuple holds no spare room
            row = (0, *map(mod, map(add, map(mul, range(1, tt), row[1:]), row), repeat(p)), 1)
            if tt <= 3 * p + 1 or tt >= p * p:
                rows[tt] = row
    return row


def stirling2(t: int, s: int) -> int:
    """{t brace s} by the recurrence, cached globally (values are p-free)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if s < 0 or s > t:
        return 0
    return _fill_stirling_rows(t)[t][s]


def stirling2_column(s: int, t_max: int) -> list[int]:
    """[{t brace s} for t = 0..t_max], read from the cache after one fill."""
    rows = _fill_stirling_rows(t_max)
    return [rows[t][s] if 0 <= s <= t else 0 for t in range(t_max + 1)]


def stirling2_def_row(t: int) -> list[int]:
    """[{t brace s} for s = 0..t] straight from the definition sum (independent oracle).

    {t brace s} = (1/s!) sum_{j=0}^{s} (-1)^j C(s, j) (s - j)^t, with 0^0 = 1.
    The powers m^t, m <= t, are formed once, and the signed binomials
    (-1)^j C(s, j) are carried from s - 1 by Pascal's rule, so each s is
    one dot product of that row with the powers (s - j)^t.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    powers = [m**t for m in range(t + 1)]
    signed = [1]  # (-1)^j C(s, j), j = 0..s
    fact = 1
    row = []
    for s in range(t + 1):
        if s:
            # (-1)^j C(s, j) = (-1)^j C(s-1, j) - (-1)^(j-1) C(s-1, j-1)
            signed = [*map(sub, [*signed, 0], [0, *signed])]
            fact *= s
        value, rest = divmod(sum(map(mul, signed, powers[s::-1])), fact)
        if rest:
            raise ArithmeticError(f"definition sum for {{{t} brace {s}}} not divisible by {s}!")
        row.append(value)
    return row


def lucas_mod_p(n_big: int, k_big: int, p: int) -> int:
    """C(N, K) mod p as the digit product of base-p binomials."""
    check_prime(p)
    if n_big < 0 or k_big < 0:
        raise ValueError("N, K must be nonnegative")
    out = 1
    while n_big or k_big:
        out = out * comb(n_big % p, k_big % p) % p
        n_big //= p
        k_big //= p
    return out


class Mod2Residue(NamedTuple):
    value: int
    via_lemma: bool


def binom_mod_p2(n_big: int, k_big: int, p: int) -> Mod2Residue:
    """C(N, K) mod p^2 via the digit formula, or exact reduction as fallback.

    ``via_lemma`` is True when the digit hypothesis s <= r' held and the
    formula path was used.  The formula is evaluated in integers, from the
    residues of H_0..H_{p-1} mod p^2, held with p's other state.
    """
    check_prime(p)
    if n_big < 0 or k_big < 0:
        raise ValueError("N, K must be nonnegative")
    modulus = p * p
    a, r_digit = divmod(n_big, p)
    b, s_digit = divmod(k_big, p)
    if s_digit > r_digit:
        return Mod2Residue(comb(n_big, k_big) % modulus, False)
    h = per_prime(p, "harmonic_mod_p2", lambda: [rational_mod(harmonic(k), modulus) for k in range(p)])
    ha, hm, hs = h[r_digit], h[r_digit - s_digit], h[s_digit]
    correction = 1 + p * (a * (ha - hm) + b * (hm - hs))
    return Mod2Residue(comb(a, b) * comb(r_digit, s_digit) * correction % modulus, True)


def stirling_lucas_check(y: int, x: int, i: int, p: int) -> tuple[int, int]:
    """Both sides of the Stirling congruence, reduced mod p.

    lhs = {y + p^i brace x},  rhs = {y + 1 brace x} + sum_{j=1}^{i} {y brace x - p^j}.
    The pair is returned so callers assert lhs == rhs.  The values are read
    from rows mod p, so no exact row of degree y + p^i is ever held.
    """
    check_prime(p)
    if y < 0 or x < 0 or i < 1:
        raise ValueError("y, x >= 0 and i >= 1 required")
    top = y + p**i
    lhs = _stirling_row_mod_p(top, p)[x] if x <= top else 0
    rhs = _stirling_row_mod_p(y + 1, p)[x] if x <= y + 1 else 0
    row_y = _stirling_row_mod_p(y, p)
    for j in range(1, i + 1):
        if 0 <= x - p**j <= y:
            rhs += row_y[x - p**j]
    return lhs, rhs % p
