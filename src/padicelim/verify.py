"""Desk-scale exhaustive verification sweeps behind ``padicelim verify``.

Each sweep re-checks one lemma family over its full small-prime range and
returns a :class:`VerifyResult`.  Failures are hard (exit code 1 at the
CLI); observations record expected deviations, like the mod-p^2 class
congruence at b = 0, without failing the sweep.
"""

import math
from fractions import Fraction
from operator import add

from padicelim.combinat import binom_mod_p2, lucas_mod_p, stirling2, stirling2_def_row, stirling_lucas_check
from padicelim.congruence import inequality_suite, make_params, master_terms, star_full, star_mod_p2, window_degrees
from padicelim.exactnum import INF, harmonic, rational_mod, vp_int
from padicelim.fp_poly import lin_mul, pure_y_defect, shallow_kill_check, shallow_summand
from padicelim.lambda_solver import lambda_closed, lambda_window, verify_lambda

__all__ = [
    "VerifyResult",
    "verify_lucas2",
    "verify_stirling_lucas",
    "verify_lambda_sweep",
    "verify_shallow",
    "verify_star",
    "verify_inequalities",
    "verify_vl_independence",
    "VERIFIERS",
]


class VerifyResult:
    """One lemma sweep's outcome; the sweep counts ``checked`` and appends as it goes."""

    __slots__ = ("name", "primes", "checked", "failures", "observations")

    def __init__(self, name: str, primes: tuple[int, ...]):
        self.name = name
        self.primes = primes
        self.checked = 0
        self.failures = []
        self.observations = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "primes": list(self.primes),
            "checked": self.checked,
            "passed": self.passed,
            "failures": self.failures,
            "observations": self.observations,
        }


def verify_lucas2(primes: tuple[int, ...] = (5, 7, 11)) -> VerifyResult:
    """Digit formula vs exact binomials mod p^2, exhaustively for N < p^2.

    The exact C(N, 0..N) are one Pascal row, carried from N - 1.
    """
    res = VerifyResult("lucas2", primes)
    for p in primes:
        mod2 = p * p
        lemma_hits = 0
        row = [1]  # C(N, K), K = 0..N
        for n_big in range(p * p):
            if n_big:
                row = [*map(add, [*row, 0], [0, *row])]
            for k_big, exact in enumerate(row):
                got = binom_mod_p2(n_big, k_big, p)
                expected = exact % mod2
                if got.value != expected:
                    res.failures.append(
                        f"p={p}: C({n_big},{k_big}) = {expected} mod p^2, formula gave {got.value}"
                    )
                if got.via_lemma:
                    lemma_hits += 1
                if lucas_mod_p(n_big, k_big, p) != expected % p:
                    res.failures.append(f"p={p}: classical digit product wrong at ({n_big},{k_big})")
                res.checked += 1
        res.observations.append(f"p={p}: {lemma_hits} pairs took the digit-formula path")
    return res


def verify_stirling_lucas(primes: tuple[int, ...] = (5, 7)) -> VerifyResult:
    """lhs = rhs for y <= 2p, x <= y + p^i, i in {1, 2}; recurrence vs definition rows."""
    res = VerifyResult("stirling-lucas", primes)
    for p in primes:
        for i in (1, 2):
            for y in range(2 * p + 1):
                for x in range(y + p**i + 1):
                    lhs, rhs = stirling_lucas_check(y, x, i, p)
                    if lhs != rhs:
                        res.failures.append(f"p={p}: lhs {lhs} != rhs {rhs} at (y={y}, x={x}, i={i})")
                    res.checked += 1
    for t in range(61):
        for s, value in enumerate(stirling2_def_row(t)):
            if stirling2(t, s) != value:
                res.failures.append(f"recurrence and definition disagree at ({t}, {s})")
            res.checked += 1
    return res


def verify_lambda_sweep(primes: tuple[int, ...] = (5, 7, 11, 13)) -> VerifyResult:
    """Solve vs closed form entry-wise plus all four bullets, all (b, n).

    Each (p, b) window is solved once, by ``lambda_window``, in increasing n.
    The closed form gives the numerators lambda_i ((b+1)p - i), so each
    solved lambda_i is compared with its numerator by cross-multiplying:
    no division and no reduced fraction.
    """
    res = VerifyResult("lambda", primes)
    for p in primes:
        for b in range(p - 1):
            y = (b + 1) * p
            for vec in lambda_window(p, b):
                n = vec.n
                for i, closed in enumerate(lambda_closed(p, b, n)):
                    if closed != vec.entries[i] * (y - i):
                        res.failures.append(f"p={p}, b={b}, n={n}: solve != closed at i={i}")
                report = verify_lambda(vec)
                if vec.entries[y] != -1:
                    res.failures.append(f"p={p}, b={b}, n={n}: top entry is not -1")
                res.failures.extend(
                    f"p={p}, b={b}, n={n}: {msg}" for msg in report.failures
                )
                if report.bullet2_deviations and b == 0:
                    a0, j0 = report.bullet2_deviations[0]
                    res.observations.append(
                        f"p={p}, n={n}: class congruence observed failing at b=0 "
                        f"(first at a={a0}, j={j0})"
                    )
                res.checked += 1
    return res


def _shallow_products(p: int):
    """Yield (r, i, summands) for every certificate at p, r-major.

    summands[lam] lists the coefficients of the fully multiplied-out
    (X - lam Y)^k theta^i / Y, k = r - i(p+1) + 1.  At an i's first r, where
    k = 0, it is theta^i / Y for every lam, one list shared by all; at every
    later r it is a new list, that of r - 1 times (X - lam Y).
    """
    carried: dict[int, list[list[int]]] = {}
    for r in range(p, p * p - p):
        for i in range(1, r // p + 1):
            k = r - i * (p + 1) + 1
            if k < 0:
                continue
            if k == 0:
                summands = [list(shallow_summand(p, r, i, 0).coeffs)] * p
            else:
                summands = [lin_mul(coeffs, 1, -lam, p) for lam, coeffs in enumerate(carried[i])]
            carried[i] = summands
            yield r, i, summands


def verify_shallow(primes: tuple[int, ...] = (5, 7, 11)) -> VerifyResult:
    """All certificates for i <= r/p, i(p+1)-1 <= r <= p^2-p-1, plus the r = p-1 defect.

    Each summand's lowest X-degree, which the certificate reads off the
    lowest entry of theta^i / Y, is checked again against the fully
    multiplied-out product.  That product is carried from r to r + 1 by one
    factor (X - lam Y) per (i, lam), so only each i's first r multiplies
    theta^i / Y out.
    """
    res = VerifyResult("shallow", primes)
    for p in primes:
        for r, i, summands in _shallow_products(p):
            report = shallow_kill_check(p, r, i)
            res.failures.extend(
                f"p={p}, r={r}, i={i}: {msg}" for msg in report.failures
            )
            # the full product is the oracle for every reported degree
            for lam, md in report.summand_min_x:
                full = next(d for d, c in enumerate(summands[lam]) if c)
                if full != md:
                    res.failures.append(
                        f"p={p}, r={r}, i={i}: scanned X-degree {md} at lam = {lam}, product has {full}"
                    )
            res.checked += 1
        defect = pure_y_defect(p, p - 1, 0)
        if defect == 0:
            res.failures.append(f"p={p}: expected nonzero pure-Y defect at r = p - 1, lam = 0")
        else:
            res.observations.append(
                f"p={p}: r = p - 1 cancellation fails at lam = 0 as expected (defect {defect})"
            )
        res.checked += 1
    return res


def _admissible_rn(p: int):
    for r in range(p, p * p - p):
        for n in window_degrees(p, r):
            yield r, n


def _star_case_failures(params) -> list[tuple[int, str]]:
    """The failing (j, text) pairs of the star checks over params' window of degrees."""
    p, n, b = params.p, params.n, params.b
    mod2 = p * p
    fact_b1 = math.factorial(b + 1)
    ph_eps = p * harmonic(params.eps)
    failures = []
    for j in range(params.ceil_half_r - 1, n):
        full = star_full(params, j)
        simple = star_mod_p2(params, j)
        if rational_mod(full, mod2) != simple:
            failures.append((j, "full != simplified mod p^2"))
        got_p = rational_mod(full, p)
        got_p2 = rational_mod(full, mod2)
        if j >= n - b and got_p != 0:
            failures.append((j, "expected 0 mod p"))
        if j == n - b - 1 and got_p != (-fact_b1) % p:
            failures.append((j, "expected -(b+1)! mod p"))
        if n - b + 1 <= j <= n - 1 and got_p2 != 0:
            failures.append((j, "expected 0 mod p^2"))
        if j == n - b and got_p2 != rational_mod(-ph_eps * fact_b1, mod2):
            failures.append((j, "expected -pH_eps(b+1)! mod p^2"))
        if j == n - b - 1:
            want = rational_mod(-fact_b1 - ph_eps * fact_b1 * math.comb(b + 1, 2), mod2)
            if got_p2 != want:
                failures.append((j, f"expected case value {want} mod p^2"))
    return failures


def verify_star(primes: tuple[int, ...] = (5, 7)) -> VerifyResult:
    """Full vs simplified star coefficient and the mod-p / mod-p^2 case table.

    Each check covers one (r, n, j) with ceil(r/2) - 1 <= j <= n - 1.  But
    star_full, star_mod_p2 and every case of the table depend on (p, n, j)
    only, and r enters only through r/2, the start of the window: the window
    is a suffix of the (p, n) degrees, and the first admissible r of n (the
    sweep is r-major) has the longest.  So each (n, j) is checked once, at
    that r, and its failure texts are kept; every (r, n) adds its window's
    length to the count and repeats the kept texts of its degrees, in the
    order a per-(r, n, j) sweep finds them.
    """
    res = VerifyResult("star", primes)
    for p in primes:
        kept: dict[int, list[tuple[int, str]]] = {}
        for r, n in _admissible_rn(p):
            lo = (r + 1) // 2 - 1
            if n not in kept:
                kept[n] = _star_case_failures(make_params(p, r, n, Fraction(r, 2) - n - 1))
            res.checked += n - lo
            res.failures.extend(f"p={p}, r={r}, n={n}, j={j}: {text}" for j, text in kept[n] if j >= lo)
    return res


def verify_inequalities(primes: tuple[int, ...] = (5, 7, 11)) -> VerifyResult:
    """Every inequality family over all admissible (p, r, n)."""
    res = VerifyResult("inequalities", primes)
    for p in primes:
        for r, n in _admissible_rn(p):
            for fam in inequality_suite(p, r, n):
                if not fam.passed:
                    res.failures.append(
                        f"p={p}, r={r}, n={n}: family {fam.name} fails ({dict(fam.witness)})"
                    )
            res.checked += 1
    return res


def _failing_reach(params) -> int:
    """The highest ceil(r/2) whose window holds a failing term of params' window; -1 if none.

    Each term's total_val is read at params.r and compared with
    r/2 - vFall + (v_p(C) - j), or with +infinity if C = 0.  A line-1 term
    of degree j lies in the window of r when ceil(r/2) <= j, a line-2 term
    when ceil(r/2) <= j + 1.
    """
    p, r = params.p, params.r
    base = Fraction(r, 2) - params.v_fall
    reach = -1
    for t in master_terms(params):
        want = INF if t.num == 0 else base + (vp_int(t.num, p) - vp_int(t.den, p) - t.j)
        if t.total_val(r) != want:
            reach = max(reach, t.j + (t.line == 2))
    return reach


def verify_vl_independence(primes: tuple[int, ...] = (5, 7)) -> VerifyResult:
    """Total valuations equal the un-cancelled sum under two admissible vL choices.

    At each (r, n) and each vL the sum (x + n + vL) + (v_p(C) - j), formed
    from that vL's own parameters with no cancellation of vL (+infinity if
    C = 0), must equal every term's total_val(r), which never sees vL:
    agreement under both choices is the vL independence.  The check runs in
    two parts, each where its inputs vary.  The r part, per (r, n) and per
    vL, checks x + n + vL = r/2 - vFall from that vL's make_params.  The
    term part checks total_val(r) = r/2 - vFall + (v_p(C) - j); together
    they are the identity above.  The terms of (r, n) are a suffix of the
    (p, n) table, and r enters the term part only through r/2, so it runs
    once per (p, n): at the first admissible r of n (the sweep is r-major),
    whose window is the whole table, each term's total_val and
    v_p(C) - j are taken once, and a term that fails marks every (r, n)
    whose window holds it.  An (r, n) fails, once, if either part fails.
    """
    res = VerifyResult("vl-independence", primes)
    for p in primes:
        reach: dict[int, int] = {}
        for r, n in _admissible_rn(p):
            half = Fraction(r, 2)
            choices = [make_params(p, r, n, vL) for vL in (half - n - 1, half - n - Fraction(7, 2))]
            if n not in reach:
                reach[n] = _failing_reach(choices[0])
            if (r + 1) // 2 <= reach[n] or any(c.x + c.n + c.vL != half - c.v_fall for c in choices):
                res.failures.append(f"p={p}, r={r}, n={n}: total valuations depend on vL")
            res.checked += 1
    return res


VERIFIERS = {
    "lucas2": verify_lucas2,
    "stirling-lucas": verify_stirling_lucas,
    "lambda": verify_lambda_sweep,
    "shallow": verify_shallow,
    "star": verify_star,
    "inequalities": verify_inequalities,
    "vl-independence": verify_vl_independence,
}
