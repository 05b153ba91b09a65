"""The master congruence: parameters, terms, valuations, kill audits.

Fix a prime p >= 5, an exponent r with p <= r <= p^2 - p - 1, a degree n
with r/2 + b + 1 <= n <= r (b = floor(n/p), eps = n - bp) and a valuation
vL = v_p(L) with vL < r/2 - n.  Writing vFall = v_p([n]_{b+1}) and
x = r/2 - n - vFall - vL, the congruence expresses zero as a sum of locally
polynomial terms

    p^(x + n - j) * C * L * (z - a)^j  on  a + pZ_p,

in two families ("lines"):

  line 1, 1 <= a <= eps, ceil(r/2) <= j <= n - 1:
    C = C(n,j) C(eps,a) ((-1)^(a+j+b+1)/a) C((b+1)p, n+1) (n+1) b! {n-j brace b}
  line 2, a = 0, ceil(r/2) - 1 <= j <= n - 1:
    C = C(n,j) (-1)^(n-j) * star_j

where star_j is the exact rational computed by :func:`star_full` and
simplified mod p^2 by :func:`star_mod_p2`.

The total valuation of a term is x + (n - j) + vL + v_p(C), which collapses
to (r/2 - j - vFall) + v_p(C): it does not depend on vL.  The *slack* of a
term is its total valuation minus the filtration threshold r/2 - j, i.e.
v_p(C) - vFall, an integer (None when C vanishes).  Neither C nor the slack
depends on r, so the coefficients of one (p, n) are valued once, over every
degree j an admissible r can ask for, and r only moves where its window
starts.  On line 1 the factor (-1)^a C(eps, a)/a is a p-unit (a <= eps < p),
so every a shares the slack of its column j.

The audits read only slacks, so the engine's table of one (p, n) keeps the
slacks and what the audits derive from them, and no coefficient:
:func:`_build_table` values every term from residues mod p^6 (a residue
that is 0 mod p^6 decides nothing, and such a table is built from the exact
terms instead).  The tables of the last prime asked for are kept, in
``exactnum.per_prime``, with the residues they share.  A missing table is
built with every missing degree below it and the rest of its block of four
degrees, so few requests of a process pay for building, whatever their
order; the low degrees are small (at p = 31 the degrees below 47 hold 16%
of the terms).  :func:`master_terms` lists the exact terms of one (p, n)
from ceil(r/2), built by :func:`_exact_terms` on each call and not kept,
and a term derives its total valuation from r on demand; those exact terms
are the oracle of the residue tables.  Terms, tables and audit results are
named tuples, and :class:`CongruenceTerm` says how a term keeps its exact
coefficient without a Fraction.

An audit instantiates the congruence at one n, aims at its target degree
j* = n - b - 1, gives each non-zero term a status and checks the one slack
bound that the status needs:

    dead             slack > 0   forced dead, above j*, or line 1 at j*
    generator        slack 0     line 2 at j*
    residual         slack >= 0  above j*, carried to a second pass
    deeper-integral  slack >= 0  below j*, j >= ceil(r/2)
    below-range      slack >= 0  j < ceil(r/2)

Slack 0 says that the coefficient is a p-unit times p^vFall, the threshold
power: C / p^(v_p(C)) is a unit by the definition of v_p, so the slack
alone decides a generator.

These thresholds are the package's single integrality axiom pair (the
external lattice criteria are not re-proved here); the audits re-derive
every divisibility fact they rely on by exact arithmetic instead of
assuming it.  ``_meets`` is the one place that says which slack each
status needs.  A positive slack meets every bound but the generator's, so
an audit's misses, the non-zero terms that fail their bound, lie among the
*candidates*: the terms with slack <= 0 and the line-2 term at j*.  That set
depends on (p, n) alone, so each table keeps it, line 1 then line 2, by
degree, a line-1 column standing for its terms at every a.  Each miss fails
the audit with one line naming its row (line, a, j).  The statuses are not
stored: an audit returns the trace row of the index it kills, with the
failures it found, and ``_status`` gives a term its status on demand.

Three audits package the three elimination arguments: ``audit_good`` (one
congruence at an n with vFall = 0), ``audit_bad`` (n = 2p + 1, vFall = 1,
target 2p - 2) and ``audit_ugly`` (two congruences, n = cp + c with
vFall = 1 and target cp - 1, leaving a residual family at degree cp, then
n = cp + c + 1 with vFall = 0 and target cp, certifying the residual sits
on deeper sub-quotients; the audit fails if either phase does).  An audit
without a residual or must-die degree gives each term a bound that depends
only on its line and degree, never on r (below-range and deeper-integral
both need >= 0): r only moves the start of the window.  Each (p, n) table
therefore keeps the misses of such an audit over all its degrees, and a
good or bad audit at r fails on exactly those inside r's window, and one
with no miss and its generator reads no term.  The ugly phases move bounds
(phase one carries a residual family at cp, phase two forces cp - 1 dead),
so each tests its bounds on the table's candidates inside r's window.  The
audits check the hypotheses of :func:`make_params` on p, r and n with
integer comparisons and the same messages, and build no CongruenceParams;
:func:`good_kills` checks p and r once for all the good audits of r.
They take no vL: a term's total valuation r/2 - j + slack does not depend on
it, so a verdict holds for every vL < r/2 - n, and the caller checks vL.
``inequality_suite`` verifies, exactly, the arithmetic inequality families
that the supporting lemmas reduce to.
"""

import math
from collections.abc import Sequence
from fractions import Fraction
from math import comb
from typing import NamedTuple

from padicelim.combinat import stirling2, stirling2_column
from padicelim.errors import PadicElimError
from padicelim.exactnum import (
    INF,
    ValP,
    as_rational,
    check_prime,
    harmonic,
    per_prime,
    rational_mod,
    vp_factorial,
    vp_int,
)

__all__ = [
    "CongruenceParams",
    "CongruenceTerm",
    "SubquotientEntry",
    "fall_valuation",
    "window_degrees",
    "make_params",
    "star_full",
    "star_mod_p2",
    "master_terms",
    "audit_good",
    "good_kills",
    "audit_bad",
    "audit_ugly",
    "FamilyResult",
    "inequality_suite",
]


# --------------------------------------------------------------------------
# parameters

class CongruenceParams(NamedTuple):
    """Validated congruence parameters with all derived quantities."""

    p: int
    r: int
    n: int
    vL: Fraction
    b: int
    eps: int
    v_fall: int
    x: Fraction

    @property
    def ceil_half_r(self) -> int:
        return (self.r + 1) // 2


def fall_valuation(p: int, n: int) -> int:
    """vFall = v_p([n]_{b+1}), the valuation of n(n-1)...(n-b) for b = floor(n/p), 1 <= n < p^2.

    No factor reaches p^2, so each multiple of p among n - b, ..., n adds
    exactly one p: vFall counts them.
    """
    if not 1 <= n < p * p:
        raise PadicElimError(f"n = {n} outside [1, {p * p - 1}], where vFall has its closed form")
    return n // p - (n - n // p - 1) // p


def _window_start(p: int, r: int) -> int:
    """The least n with n >= r/2 + b + 1, b = floor(n/p).

    2n - 2b never falls as n grows, so the window is [this n, r]; the walk
    up from r // 2 + 1 takes about r/(2p) steps.
    """
    n = r // 2 + 1
    while 2 * n < r + 2 * (n // p) + 2:
        n += 1
    return n


def window_degrees(p: int, r: int) -> tuple[int, ...]:
    """The n <= r in the window n >= r/2 + b + 1, b = floor(n/p), in increasing order."""
    return tuple(range(_window_start(p, r), r + 1))


def _check_window(p: int, r: int, n: int) -> tuple[int, int, int]:
    """Validate p, r and the window of n (the hypotheses without vL); return b, eps and vFall."""
    check_prime(p, minimum=5)
    if not (p <= r <= p * p - p - 1):
        raise PadicElimError(f"r = {r} outside [{p}, {p * p - p - 1}]")
    # n >= r/2 + b + 1 with b = floor(n/p): the window is [_window_start(p, r), r]
    if not (0 <= n <= r and 2 * n >= r + 2 * (n // p) + 2):
        raise PadicElimError(f"n = {n} outside the window [{_window_start(p, r)}, {r}]")
    # n <= r <= p^2 - p - 1 keeps b <= p - 2
    b, eps = divmod(n, p)
    # the hypotheses give vFall <= 1 and n - vFall > r/2, so make_params'
    # vL < r/2 - n gives x > -vFall >= -1 (tests/test_congruence.py checks both)
    return b, eps, fall_valuation(p, n)


def make_params(p: int, r: int, n: int, vL: Fraction | int | str) -> CongruenceParams:
    """Validate the hypotheses, vL < r/2 - n among them, and compute b, eps, vFall and x.

    A violated hypothesis raises PadicElimError with a message that names it.
    """
    b, eps, v_fall = _check_window(p, r, n)
    vL = as_rational(vL)
    bound = Fraction(r, 2) - n
    if not vL < bound:
        raise PadicElimError(f"vL must be < r/2 - n = {bound}, got {vL}")
    x = bound - v_fall - vL
    return CongruenceParams(p=p, r=r, n=n, vL=vL, b=b, eps=eps, v_fall=v_fall, x=x)


# --------------------------------------------------------------------------
# the star coefficient

def _check_star_degree(params: CongruenceParams, j: int) -> None:
    lo = params.ceil_half_r - 1
    hi = params.n - 1
    if not (lo <= j <= hi):
        raise PadicElimError(f"j = {j} outside [{lo}, {hi}]")


def _star_constants(p: int, n: int, b: int, eps: int) -> tuple[int, int, int, int]:
    """(b+1)!, the numerator and denominator of pH_eps, and (-1)^n C((b+1)p - 1, n)."""
    b1 = b + 1
    fact_b1 = math.factorial(b1)
    ph = p * harmonic(eps)
    sign_n = -1 if n % 2 else 1
    lead = comb(b1 * p - 1, n) * sign_n
    return fact_b1, ph.numerator, ph.denominator, lead


def star_full(params: CongruenceParams, j: int) -> Fraction:
    """The exact a = 0 coefficient (full closed form, no reduction)."""
    _check_star_degree(params, j)
    fact_b1, ph_num, ph_den, lead = _star_constants(params.p, params.n, params.b, params.eps)
    b1 = params.b + 1
    m = params.n - j
    sign_b1 = -1 if b1 % 2 else 1
    bracket = sign_b1 * (
        (stirling2(m, b1) * fact_b1 - b1**m) * ph_den
        + ph_num * (stirling2(m + 1, b1) * fact_b1 - b1 ** (m + 1))
    )
    return Fraction(lead * bracket - b1**m * ph_den, ph_den)


def star_mod_p2(params: CongruenceParams, j: int) -> int:
    """The simplified residue: -{n-j brace b+1}(b+1)! - pH_eps {n-j brace b}(b+1)! mod p^2."""
    _check_star_degree(params, j)
    p, n, b, eps = params.p, params.n, params.b, params.eps
    fact_b1 = math.factorial(b + 1)
    m = n - j
    value = -stirling2(m, b + 1) * fact_b1 - p * harmonic(eps) * stirling2(m, b) * fact_b1
    return rational_mod(value, p * p)


# --------------------------------------------------------------------------
# terms

class CongruenceTerm(NamedTuple):
    """One summand p^(x+n-j) * coeff * L * (z - a)^j on a + pZ_p.

    ``a`` = 0 means support pZ_p (line 2).  A term depends on (p, n) but not
    on r or vL.  The exact coefficient is kept as the integers ``num`` and
    ``den`` (den > 0, the fraction not necessarily in lowest terms);
    ``coeff`` forms the Fraction when read.  ``slack`` is the integer
    v_p(coeff) - vFall, or None when the coefficient vanishes identically;
    the total valuation is derived from r by :meth:`total_val`.
    :func:`_exact_terms` builds the line-2 terms and the line-1 columns
    (terms with a = 0 and line 1, before the a-factor) of one (p, n), and
    :func:`master_terms` forms the line-1 terms from them, which is why a
    term is a bare named tuple.
    """

    a: int
    line: int
    j: int
    num: int
    den: int
    slack: int | None

    @property
    def coeff(self) -> Fraction:
        """The exact coefficient num/den."""
        return Fraction(self.num, self.den)

    def total_val(self, r: int) -> ValP:
        """x + (n - j) + vL + v_p(coeff) = r/2 - j + slack; +infinity if coeff = 0."""
        if self.slack is None:
            return INF
        return ValP(Fraction(r - 2 * (self.j - self.slack), 2))

    @property
    def slack_text(self) -> str:
        """The slack as trace text: the integer, or "inf" for a zero coefficient."""
        return "inf" if self.slack is None else str(self.slack)


class _Table(NamedTuple):
    """What the audits read of one (p, n) congruence; it keeps no term and no numerator.

    ``j0`` is the lowest line-1 degree (line 2 starts one lower), ``eps``
    the number of line-1 a-factors (a = 1..eps), and ``target`` the degree
    t = n - b - 1 that every audit of n aims at.  ``slacks`` pairs each
    line-2 degree with its slack text, and ``candidates`` holds the terms
    that any audit of n can miss, as (line, j, slack): the non-zero terms
    with slack <= 0 and the line-2 term at t, line 1 then line 2, by
    degree, a line-1 column standing for its terms at every a.  ``misses``
    holds those that an audit with no residual or must-die degree misses,
    and ``generator`` says whether the line-2 term at t is a generator.
    Build a table with :meth:`of`, which derives every field from the slacks.
    """

    j0: int
    eps: int
    target: int
    slacks: tuple[tuple[int, str], ...]
    candidates: tuple[tuple[int, int, int], ...]
    misses: tuple[tuple[int, int, int], ...]
    generator: bool

    @classmethod
    def of(
        cls,
        p: int,
        n: int,
        j0: int,
        slacks1: Sequence[int | None],
        slacks2: Sequence[int | None],
    ) -> "_Table":
        """The (p, n) table whose line-1 columns j0..n-1 and line-2 terms j0-1..n-1 have these slacks (None: zero)."""
        target = n - n // p - 1
        candidates = tuple(
            (line, j, slack)
            for line, first, slacks in ((1, j0, slacks1), (2, j0 - 1, slacks2))
            for j, slack in enumerate(slacks, first)
            if slack is not None and (slack <= 0 or (j == target and line == 2))
        )
        # below the target every status needs slack >= 0, so ceil(r/2) does
        # not matter, and a candidate there with slack 0 meets its bound
        misses = tuple(
            (line, j, slack)
            for line, j, slack in candidates
            if (slack < 0 or j >= target) and not _meets(slack, _status(line, j, target, 0, None, None))
        )
        generator = _meets(slacks2[target - j0 + 1], GENERATOR)
        # one text per slack value, shared by the pairs
        texts = {slack: "inf" if slack is None else str(slack) for slack in set(slacks2)}
        slacks = tuple(zip(range(j0 - 1, n), map(texts.__getitem__, slacks2)))
        return cls(j0, n % p, target, slacks, candidates, misses, generator)


# a miss builds tables up to the end of its block of this many degrees
_TABLE_BLOCK = 4
# the engine's tables value their terms from residues mod p^_RESIDUE_EXPONENT
_RESIDUE_EXPONENT = 6


def _exact_terms(
    p: int, n: int
) -> tuple[int, tuple[CongruenceTerm, ...], tuple[int, ...], tuple[CongruenceTerm, ...]]:
    """Every term of the (p, n) congruence that an admissible r can ask for, exactly, in one pass.

    Returns j0, the line-1 columns (degrees j0..n-1), the a-factors
    (-1)^a C(eps, a) of a = 1..eps and the line-2 terms (degrees j0-1..n-1).
    Admissible r has r >= p and r >= n, so ceil(r/2) >= j0 = ceil(max(p, n)/2).
    One loop walks the degrees j = n - m down from n - 1 and forms both
    lines' exact integer numerators, carrying (-1)^m C(n, m) and (b+1)^m from
    the degree before and reading {m brace b} and {m brace b+1} from one fill of
    the Stirling cache; the line-2 numerator is the closed form of
    :func:`star_full` times C(n, j) (-1)^m.  A second loop per line values
    each numerator by exact division by p; the denominator of pH_eps is
    valued once.  Nothing is kept: :func:`master_terms` runs this for its one
    (p, n), and :func:`_build_table` where a residue decides no slack.
    """
    b, eps = divmod(n, p)
    b1 = b + 1
    v_fall = fall_valuation(p, n)
    j0 = (max(p, n) + 1) // 2
    # the line-1 a-factors (-1)^a C(eps, a)
    factors = tuple((-1) ** a * comb(eps, a) for a in range(1, eps + 1))
    # line 1 runs over m = 1..top - 1 and line 2 over m = 1..top
    top = n - j0 + 1
    # a column is C(n, j) (-1)^(j+b+1) C(b1 p, n+1) (n+1) b! {m brace b}, its
    # sign (-1)^(n+b+1) here and (-1)^m on the carried binomial
    prefactor = comb(b1 * p, n + 1) * (n + 1) * math.factorial(b) * (-1 if (n + b + 1) % 2 else 1)
    stirling_b = stirling2_column(b, top)
    # star_j times ph_den, as in star_full: lead_den ({m brace b1} b1! - b1^m)
    #   + lead_num ({m+1 brace b1} b1! - b1^(m+1)) - b1^m ph_den
    fact_b1, ph_num, ph_den, lead = _star_constants(p, n, b, eps)
    stirling_b1 = [s * fact_b1 for s in stirling2_column(b1, top + 1)]
    if b1 % 2:
        lead = -lead
    lead_den, lead_num = lead * ph_den, lead * ph_num
    nums1, nums2 = [], []
    signed_binom, power = 1, 1  # (-1)^m C(n, m) and b1^m
    for m in range(1, top + 1):
        signed_binom = -signed_binom * (n - m + 1) // m
        power *= b1
        star = (
            lead_den * (stirling_b1[m] - power)
            + lead_num * (stirling_b1[m + 1] - power * b1)
            - power * ph_den
        )
        nums2.append(signed_binom * star)
        if m < top:
            nums1.append(signed_binom * prefactor * stirling_b[m])
    v_den = vp_int(ph_den, p)
    lines = []
    for line, nums, den, shift in (
        (1, nums1, 1, v_fall),
        (2, nums2, ph_den, v_fall + v_den),
    ):
        terms = []
        for j, num in enumerate(reversed(nums), n - len(nums)):
            if not num:
                terms.append(CongruenceTerm(0, line, j, 0, den, None))
                continue
            v, unit = 0, num
            while not unit % p:
                v, unit = v + 1, unit // p
            terms.append(CongruenceTerm(0, line, j, num, den, v - shift))
        lines.append(tuple(terms))
    return j0, lines[0], factors, lines[1]


class _Residues(NamedTuple):
    """What the residue tables of p share, held with p's other state.

    ``vps[k]`` is v_p(k) for 1 <= k < len(vps), and ``columns[s]`` pairs
    {t brace s} mod ``modulus`` = p^K, t = 0, 1, ..., with the valuation
    of each residue (None for a residue 0).
    """

    modulus: int
    vps: list[int]
    columns: dict[int, tuple[list[int], list[int | None]]]


def _residues(p: int, n: int, s_max: int, t_max: int) -> _Residues:
    """p's residue state, with v_p(k) for k <= n and the columns s <= s_max through row t_max."""
    held = per_prime(p, "residues", lambda: _Residues(p**_RESIDUE_EXPONENT, [0], {}))
    modulus, vps, columns = held
    vps.extend(vp_int(k, p) for k in range(len(vps), n + 1))
    # {t brace s} = s {t-1 brace s} + {t-1 brace s-1}, column s - 1 first
    for s in range(s_max + 1):
        column, vals = columns.setdefault(s, ([1], [0]) if s == 0 else ([0], [None]))
        prev = columns[s - 1][0] if s else None
        for t in range(len(column), t_max + 1):
            value = (s * column[t - 1] + prev[t - 1]) % modulus if s else 0
            column.append(value)
            vals.append(vp_int(value, p) if value else None)
    return held


def _residue_slacks(p: int, n: int, j0: int) -> tuple[list, list] | None:
    """The line-1 and line-2 slacks of the (p, n) table by degree, from residues mod p^K; None if one is undecided.

    With m = n - j, b = floor(n/p) and v_p(C(n, m)) carried from m - 1 by
    v_p(n - m + 1) - v_p(m): a line-1 slack is v_p(C(n, m)) +
    v_p(C((b+1)p, n+1)(n+1)) + v_p({m brace b}) - vFall (b! and the
    a-factors are units, and {m brace b} = 0 exactly when m < b or b = 0);
    a line-2 slack is v_p(C(n, m)) plus the valuation of the star numerator
    of :func:`_exact_terms` mod p^K, less vFall and v_p(ph_den).  Its
    constants are reduced once, and (b+1)^m is carried mod p^K.  A residue
    that is 0 mod p^K is not a valuation: then the result is None.
    """
    b, eps = divmod(n, p)
    b1 = b + 1
    top = n - j0 + 1
    modulus, vps, columns = _residues(p, n, b1, top + 1)
    col_b1, vals_b = columns[b1][0], columns[b][1]
    v_fall = fall_valuation(p, n)
    shift1 = vp_int(comb(b1 * p, n + 1) * (n + 1), p) - v_fall
    fact_b1, ph_num, ph_den, lead = _star_constants(p, n, b, eps)
    if b1 % 2:
        lead = -lead
    shift2 = v_fall + vp_int(ph_den, p)
    # star = c_m {m brace b1} + c_m1 {m+1 brace b1} - c_pow b1^m, the closed form of _exact_terms
    c_m = lead * ph_den * fact_b1 % modulus
    c_m1 = lead * ph_num * fact_b1 % modulus
    c_pow = (lead * (ph_den + ph_num * b1) + ph_den) % modulus
    slacks1, slacks2 = [], []
    v_binom, power = 0, 1  # v_p(C(n, m)) and b1^m mod p^K
    for m in range(1, top + 1):
        v_binom += vps[n - m + 1] - vps[m]
        power = power * b1 % modulus
        star = (c_m * col_b1[m] + c_m1 * col_b1[m + 1] - c_pow * power) % modulus
        if not star:
            return None
        slacks2.append(v_binom + vp_int(star, p) - shift2)
        if m < top:
            if m < b or not b:
                slacks1.append(None)
            elif vals_b[m] is None:
                return None
            else:
                slacks1.append(v_binom + vals_b[m] + shift1)
    slacks1.reverse()
    slacks2.reverse()
    return slacks1, slacks2


def _build_table(p: int, n: int) -> _Table:
    """The (p, n) table the engine keeps, its slacks from residues mod p^K (K = ``_RESIDUE_EXPONENT``).

    Where a residue decides no slack, the table is built from the exact
    terms of :func:`_exact_terms` instead, so no slack rests on K.
    """
    j0 = (max(p, n) + 1) // 2
    slacks = _residue_slacks(p, n, j0)
    if slacks is None:
        _j0, columns, _factors, line2 = _exact_terms(p, n)
        slacks = [t.slack for t in columns], [t.slack for t in line2]
    return _Table.of(p, n, j0, *slacks)


def _window_offset(p: int, r: int, n: int, j0: int) -> int:
    """Where the window of r starts in the degrees of a (p, n) table that starts at j0."""
    start = (r + 1) // 2 - j0
    if start < 0:
        raise PadicElimError(f"r = {r} is below max(p, n) = {max(p, n)}")
    return start


def _table(p: int, r: int, n: int) -> tuple[_Table, int]:
    """The (p, n) table and where the window of r starts in its degrees."""
    tables = per_prime(p, "tables", dict)  # the (p, n) tables of p, keyed by n
    table = tables.get(n)
    if table is None:
        # build every missing degree from the lowest an admissible r has to
        # the end of n's block (no admissible r exceeds p^2 - p - 1): later
        # requests then seldom miss, so few pay for building, in any order
        top = min(-(-n // _TABLE_BLOCK) * _TABLE_BLOCK, p * p - p - 1)
        for m in range((p + 3) // 2, top + 1):
            if m not in tables:
                tables[m] = _build_table(p, m)
        table = tables[n]
    return table, _window_offset(p, r, n, table.j0)


def master_terms(params: CongruenceParams) -> tuple[CongruenceTerm, ...]:
    """All terms of the congruence, line 1 then line 2, ordered by (a, j).

    Its (p, n) terms are built exactly by :func:`_exact_terms` on each call
    and not kept; each line-1 term is a column in the window scaled by an
    a-factor.  Audits read the engine's residue tables; this serves the
    term listings and checks.
    """
    j0, columns, factors, line2 = _exact_terms(params.p, params.n)
    start = _window_offset(params.p, params.r, params.n, j0)
    line1 = [
        CongruenceTerm(a, 1, col.j, col.num * unit, a, col.slack)
        for a, unit in enumerate(factors, 1)
        for col in columns[start:]
    ]
    return (*line1, *line2[start:])


# --------------------------------------------------------------------------
# audits

DEAD = "dead"
DEEPER = "deeper-integral"
BELOW = "below-range"
GENERATOR = "generator"
RESIDUAL = "residual"
# the slack each status needs, as failure text (slack 0 is a unit times the
# threshold power, which is what "a unit residue" names)
_NEEDS = {DEAD: "> 0", GENERATOR: "0 with a unit residue", RESIDUAL: ">= 0", DEEPER: ">= 0", BELOW: ">= 0"}


class SubquotientEntry(NamedTuple):
    """One row of the kill trace: how the sub-quotient at index i goes.

    ``method`` is None for the survivor.  An audit returns the row of the
    index it kills, r - j* for its target degree j*, with the degree(s) n
    its congruence(s) were instantiated at, the line-2 slack pairs (the
    z^j 1_{pZp} family) and the failures of every congruence; a passing
    audit has none.  Its pairs are ``slack_table[slack_start:]``: the tuple
    of its first n's table, shared by every row of that (p, n), from r's
    window on; a hand-built or parsed row's own pairs, from 0.
    """

    i: int
    method: str | None  # trivial | shallow | good | bad | ugly | None
    witness_n: tuple[int, ...] | None = None
    slack_table: tuple[tuple[int, str], ...] | None = None
    slack_start: int = 0
    failures: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def _status(
    line: int,
    j: int,
    target_j: int,
    ceil_half: int,
    residual: int | None,
    must_die: int | None,
) -> str:
    """The status of the non-zero term of this line and degree j in an audit aimed at degree ``target_j``."""
    if j == must_die:
        return DEAD
    if j > target_j:
        return RESIDUAL if j == residual else DEAD
    if j == target_j:
        return GENERATOR if line == 2 else DEAD
    return DEEPER if j >= ceil_half else BELOW


def _meets(slack: int | None, status: str) -> bool:
    """Whether a non-zero term's slack meets what ``status`` needs; a zero term (None) is no generator.

    A generator needs slack 0 and nothing more: its coefficient divided by
    p^(v_p(coeff)) is a p-unit by the definition of v_p.
    """
    if status == DEAD:
        return slack > 0
    if status == GENERATOR:
        return slack == 0
    return slack >= 0


def _failure_row(line: int, a: int, j: int, slack: int, status: str) -> str:
    """The failure text of the (line, a, j) term, whose slack misses what ``status`` needs."""
    return f"term (line {line}, a={a}, j={j}) has slack {slack}, needs {_NEEDS[status]} ({status})"


def _audit(
    method: str,
    p: int,
    r: int,
    n: int,
    failures: Sequence[str] = (),
    residual: int | None = None,
    must_die: int | None = None,
) -> SubquotientEntry:
    """Audit the (p, r, n) congruence against n - b - 1; the method's own ``failures`` follow the terms'.

    Without a residual or must-die degree the misses at r are the table's
    inside r's window; an ugly phase tests its bounds on the table's
    candidates inside the window.  A must-die degree lies below the target,
    so the generator is the table's.  With no term to test and the generator
    present no term is read; otherwise each line-1 miss fails its term at
    every a (a-major), then each line-2 miss, then a missing generator.
    The row holds the table's line-2 slack pairs, not a copy, and where r's
    window starts in them.  The caller has checked the hypotheses.
    """
    table, start = _table(p, r, n)
    target, ceil_half = table.target, (r + 1) // 2
    terms = table.misses if residual is None and must_die is None else table.candidates
    # inside the window: j >= ceil(r/2) on line 1, j >= ceil(r/2) - 1 on line 2;
    # most tables have no miss, and an empty tuple skips the comprehension
    terms = terms and [(line, j, slack) for line, j, slack in terms if j + line > ceil_half]
    if terms or not table.generator:
        rows = [
            (line, j, slack, status)
            for line, j, slack in terms
            if not _meets(slack, status := _status(line, j, target, ceil_half, residual, must_die))
        ]
        term_failures = [
            _failure_row(1, a, j, slack, status)
            for a in range(1, table.eps + 1)
            for line, j, slack, status in rows
            if line == 1
        ]
        term_failures += [_failure_row(2, 0, j, slack, status) for line, j, slack, status in rows if line == 2]
        if not table.generator:
            term_failures.append(f"no generator found at degree {target}")
        failures = (*term_failures, *failures)
    return SubquotientEntry(r - target, method, (n,), table.slacks, start, tuple(failures))


def audit_good(p: int, r: int, n: int) -> SubquotientEntry:
    """Single-congruence kill at an n with vFall = 0: target j* = n - b - 1.

    The verdict holds for every vL < r/2 - n; the caller checks vL.
    """
    b, _eps, v_fall = _check_window(p, r, n)
    if v_fall != 0:
        raise PadicElimError(f"v_p([{n}]_{b + 1}) = {v_fall} != 0: n is not a good candidate")
    return _audit("good", p, r, n)


def good_kills(p: int, r: int) -> tuple[SubquotientEntry, ...]:
    """The good audit at each n of r's window with vFall = 0, as :func:`audit_good` gives it; p and r are checked once."""
    _check_window(p, r, r)  # n = r lies in the window of every admissible r
    return tuple(_audit("good", p, r, n) for n in window_degrees(p, r) if fall_valuation(p, n) == 0)


def audit_bad(p: int, r: int) -> SubquotientEntry:
    """The n = 2p + 1 kill (b = 2, vFall = 1): target j* = 2p - 2, i* = r - 2p + 2.

    The verdict holds for every vL < r/2 - (2p + 1); the caller checks vL.
    """
    check_prime(p, minimum=5)
    if not (2 * p + 4 <= r <= 3 * p - 1):
        raise PadicElimError(f"r = {r} outside [{2 * p + 4}, {3 * p - 1}]")
    # r <= 3p - 1 <= 4p - 4 keeps n = 2p + 1 in the window: n >= r/2 + b + 1
    n = 2 * p + 1
    failures = []
    # only at r = 2p + 4 does degree p + 1 enter the window, as its
    # below-range edge; {p brace 2} and {p brace 3} vanish mod p and rescue
    # it, read from p's residue columns (exact mod p^6, so exact mod p)
    if r == 2 * p + 4:
        columns = _residues(p, n, 3, p).columns
        if columns[2][0][p] % p or columns[3][0][p] % p:
            failures.append(f"stirling rescue fails at j = {p + 1}")
    return _audit("bad", p, r, n, failures)


def audit_ugly(p: int, r: int, c: int) -> SubquotientEntry:
    """Two-phase kill of j* = cp - 1 (i* = r - cp + 1) for c in {1, 2}.

    Phase one instantiates the congruence at n = cp + c (b = c, vFall = 1,
    target cp - 1); the degree-cp terms of both lines survive as an integral
    residual family.  Phase two reapplies it at n = cp + c + 1 (b = c,
    vFall = 0, target cp), where the degree-cp term is a generator and the
    degree-(cp - 1) term is forced dead (the binomial C(cp+c+1, cp-1) is
    divisible by p); this certifies that the residual is supported on
    sub-quotients deeper than the target.  The verdict holds for every
    vL < r/2 - (cp + c + 1), which implies phase one's bound; the caller
    checks vL.
    """
    check_prime(p, minimum=5)
    if c not in (1, 2):
        raise PadicElimError(f"c = {c} must be 1 or 2")
    if not (c * p + c + 2 <= r <= (c + 1) * p - 1):
        raise PadicElimError(f"r = {r} outside [{c * p + c + 2}, {(c + 1) * p - 1}]")

    n1 = c * p + c
    # the window is an interval ending at r > n1 + 1, so it holds n1 + 1 with n1
    _check_window(p, r, n1)
    phase1 = _audit("ugly-phase1", p, r, n1, residual=c * p)

    n2 = n1 + 1
    failures2 = []
    if comb(n2, c * p - 1) % p != 0:
        failures2.append(f"C({n2}, {c * p - 1}) is a p-unit; residual certificate fails")
    phase2 = _audit("ugly-phase2", p, r, n2, failures2, must_die=c * p - 1)

    return phase1._replace(
        method="ugly", witness_n=(n1, n2), failures=phase1.failures + phase2.failures
    )


# --------------------------------------------------------------------------
# inequality families

class FamilyResult(NamedTuple):
    name: str
    passed: bool
    witness: tuple[tuple[str, str], ...]


def _ilog(m: int, p: int) -> int:
    """floor(log_p m) for m >= 1, exactly."""
    if m < 1:
        raise ValueError("m must be >= 1")
    e = 0
    q = p
    while q <= m:
        e += 1
        q *= p
    return e


def _power_exceeds(p: int, exponent2: int, rhs: int, strict: bool) -> bool:
    """Compare p^(exponent2 / 2) against rhs > 0 exactly (no rounding).

    Exponents are doubled by the callers so they are integers even when
    r is odd; the comparison squares the right side instead of taking
    roots.  Negative exponents compare 1 against rhs^2 p^(-exponent2).
    """
    lhs2, rhs2 = (p**exponent2, rhs * rhs) if exponent2 >= 0 else (1, rhs * rhs * p**-exponent2)
    return lhs2 > rhs2 if strict else lhs2 >= rhs2


def _geometric_step_ok(p: int, exponent2: int) -> bool:
    """Induction step for families p^(e + l) vs an RHS growing by <= itself.

    If p^(e+l) beats the RHS at l then p^(e+l+1) = p * p^(e+l) beats
    RHS + increment as long as the ratio is >= 2 and the left side is >= 1
    (squared form: ratio p^2 >= 4 >= ((R+1)/R)^2 for R >= 1).  The checks
    here are exactly those two facts.
    """
    return p >= 2 and exponent2 >= 0


def inequality_suite(p: int, r: int, n: int) -> tuple[FamilyResult, ...]:
    """Exact verification of the four inequality families for one (p, r, n), one result each.

    Every family is an infinite family in a shift l >= 1; each is certified
    by an exact base case plus the discrete form of the growth argument
    (geometric left side versus affine right side).  Comparisons involving
    r/2 clear the half by doubling exponents and squaring the right side.
    """
    b, _eps, v_fall = _check_window(p, r, n)
    families: list[FamilyResult] = []

    # tail bound for the Taylor expansion near the singular point:
    #   p^(2(n - r/2) + l - vFall) > n + l for l >= 1
    e_base = 2 * n - r - v_fall + 1
    base_ok = _power_exceeds(p, 2 * e_base, n + 1, strict=True)
    chain_ok = e_base >= 2 and p * p > n + 1
    step_ok = _geometric_step_ok(p, 2 * e_base)
    families.append(
        FamilyResult(
            name="telescoping-zp",
            passed=base_ok and chain_ok and step_ok,
            witness=(
                ("base", f"{p}^{e_base} > {n + 1}"),
                ("chain", f"exponent {e_base} >= 2 and {p * p} > {n + 1}"),
            ),
        )
    )

    # second telescoping function, affine family
    #   2(n - 1 - r/2 + l) - vFall > (n - 1 + l)/(p - 1) for l >= 1,
    # weakened through n - r/2 >= b + 1 to 2(b + l) - vFall > (n-1+l)/(p-1).
    # The further shortcut that bounds vFall by 1 and lands on
    # 2b + 1 > n/(p - 1) loses too much exactly at b = 0, n = p - 1, where
    # vFall = 0 (tests/test_congruence.py::TestInequalities checks that edge);
    # the forms with vFall retained hold everywhere, so those are asserted.
    pre_base = (2 * n - r - v_fall) * (p - 1) > n
    window_base = (2 * (b + 1) - v_fall) * (p - 1) > n
    slope_ok = 2 * (p - 1) - 1 > 0
    families.append(
        FamilyResult(
            name="telescoping-pzp",
            passed=pre_base and window_base and slope_ok,
            witness=(
                ("window base", f"(2(b+1)-vFall)(p-1) = {(2 * (b + 1) - v_fall) * (p - 1)} > n = {n}"),
                ("pre-reduction base", f"(2n-r-vFall)(p-1) = {(2 * n - r - v_fall) * (p - 1)} > n = {n}"),
            ),
        )
    )

    # derivative tail on pZ_p: p^(-1 + r/2 - n + m + l - v_p(j!)) > l for
    # l >= n - m + 1; at the base l the exponent is r/2 - v_p(j!), bounded
    # below by r/2 - v_p(r!), and the base RHS is at most n + 1 <= r + 1.
    # v_p(j!) never falls as j grows (j! divides (j+1)!), so the bound holds
    # for every j < n once it holds at j = n - 1 (n >= 1 in the window).
    v_r_fact = vp_factorial(r, p)
    q_base = _power_exceeds(p, r - 2 * v_r_fact, r + 1, strict=True)
    q_monotone = vp_factorial(n - 1, p) <= v_r_fact
    q_step = _geometric_step_ok(p, r - 2 * v_r_fact)
    families.append(
        FamilyResult(
            name="qp-zp",
            passed=q_base and q_monotone and (n + 1 <= r + 1) and q_step,
            witness=(
                ("base", f"{p}^(({r} - 2*{v_r_fact})/2) > {r + 1}"),
                ("rhs bound", f"n + 1 = {n + 1} <= r + 1 = {r + 1}"),
            ),
        )
    )

    # master congruence log-truncation bounds:
    #   l = n - j boundary:  n - vFall - floor(log_p(n - j)) >= r/2
    #   l >= n - j + 1:      p^(-r/2 + j - vFall + l) >= l
    # floor(log_p(n - j)) never falls as n - j grows, so the boundary's left
    # side is least at j = 0 and one comparison there decides every j < n.
    # At j = 0 it is also the lambda-tail bound n - vFall - floor(log_p n) >= r/2.
    boundary_ok = 2 * (n - v_fall - _ilog(n, p)) >= r
    m_exp2 = 2 * n - r + 2 - 2 * v_fall  # doubled exponent at l = n - j + 1
    m_base = _power_exceeds(p, m_exp2, n + 1, strict=False)
    m_chain = p ** (b + 2 - v_fall) >= r + 1 and 2 * n >= r + 2 * b + 2
    m_step = _geometric_step_ok(p, m_exp2)
    families.append(
        FamilyResult(
            name="master-tail",
            passed=boundary_ok and m_base and m_chain and m_step,
            witness=(
                ("boundary", f"2(n - vFall - floor(log_p(n - j))) >= r for all j < n"),
                ("base", f"{p}^({m_exp2}/2) >= {n + 1}"),
                ("chain", f"{p}^{b + 2 - v_fall} >= {r + 1}"),
            ),
        )
    )

    return tuple(families)
