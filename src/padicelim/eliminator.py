"""The elimination engine: kill every sub-quotient but one, then label it.

For prime p >= 5 and r in [p+3, 2p-1] or [2p+4, 3p-1] the filtration has
sub-quotients indexed by i in [0, r], with the index-i piece generated (on
pZ_p) by z^j for j = r - i; smaller i is shallower.  The engine eliminates:

  * i > floor(r/2)          outright (quoted lemma; no computation needed)
  * i <= c - 1, c = r//p    via the polynomial certificate (shallow kill)
  * each i with a good n    single congruence at n, vFall = 0
  * i = r - 2p + 2 (c = 2)  the n = 2p + 1 congruence (bad kill)
  * i = r - cp + 1          the two-phase kill at n = cp + c, cp + c + 1

and certifies that exactly the index i = c survives.  The two-phase kill is
only run when its target degree cp - 1 lies inside the filtration window
(equivalently r <= 2cp - 2); at r = 2p - 1 the window excludes it and the
good kills already cover every deeper index.

The surviving index is mapped to the label ind omega2^(r+1) through a pure
lookup guarded by the non-congruence conditions r - 2c != 1, p - 2 mod
p - 1; no representation theory is computed.  Over [p+3, 2p-1] u
[2p+4, 3p-1] only r = 2p - 1 fails the guard, so ``predict`` checks it as
that one value and emits no prediction there.
"""

from fractions import Fraction
from typing import NamedTuple

from padicelim.congruence import audit_bad, audit_good, audit_ugly, fall_valuation, window_degrees
from padicelim.errors import EliminationIncompleteError, PadicElimError
from padicelim.exactnum import as_rational, check_prime
from padicelim.fp_poly import shallow_kill_check

__all__ = [
    "SubquotientEntry",
    "KillTrace",
    "ReductionResult",
    "good_candidates",
    "run_elimination",
    "predict",
    "theorem_r_values",
    "trace_from_dict",
]


class SubquotientEntry(NamedTuple):
    """One row of the kill trace: what happened to F at index i."""

    i: int
    j: int
    status: str  # "killed" | "survivor"
    method: str | None  # trivial | shallow | good | bad | ugly | None
    witness_n: tuple[int, ...] | None
    slack_table: tuple[tuple[int, str], ...] | None


class KillTrace(NamedTuple):
    """The full elimination record for one (p, r, vL)."""

    p: int
    r: int
    c: int
    vL: Fraction
    entries: tuple[SubquotientEntry, ...]

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "r": self.r,
            "c": self.c,
            "vL": str(self.vL),
            "subquotients": [
                {
                    "i": e.i,
                    "j": e.j,
                    "status": e.status,
                    "method": e.method,
                    "witness_n": list(e.witness_n) if e.witness_n is not None else None,
                    "slack_table": (
                        {str(j): s for j, s in e.slack_table}
                        if e.slack_table is not None
                        else None
                    ),
                }
                for e in self.entries
            ],
        }


def trace_from_dict(data: dict) -> KillTrace:
    """Rebuild a KillTrace from its JSON form (audit objects are not carried)."""
    entries = tuple(
        SubquotientEntry(
            i=row["i"],
            j=row["j"],
            status=row["status"],
            method=row["method"],
            witness_n=tuple(row["witness_n"]) if row["witness_n"] is not None else None,
            slack_table=(
                tuple(sorted((int(j), s) for j, s in row["slack_table"].items()))
                if row["slack_table"] is not None
                else None
            ),
        )
        for row in data["subquotients"]
    )
    return KillTrace(
        p=data["p"], r=data["r"], c=data["c"], vL=as_rational(data["vL"]), entries=entries
    )


class ReductionResult(NamedTuple):
    """The predicted reduction: label ind omega2^(r+1) plus the guard data."""

    survivor: int
    exponent: int
    label: str
    irreducibility_residue: int
    excluded_residues: tuple[int, int]
    trace: KillTrace

    def to_dict(self) -> dict:
        data = self.trace.to_dict()
        data["prediction"] = {
            "label": self.label,
            "exponent": self.exponent,
            "irreducibility": {
                "residue": self.irreducibility_residue,
                "excluded": list(self.excluded_residues),
            },
        }
        return data


def good_candidates(p: int, r: int) -> tuple[int, ...]:
    """All n <= r in the window n >= r/2 + b + 1 with v_p([n]_{b+1}) = 0."""
    return tuple(n for n in window_degrees(p, r) if fall_valuation(p, n) == 0)


def _accepted_r(p: int, r: int) -> bool:
    return (p + 3 <= r <= 2 * p - 1) or (2 * p + 4 <= r <= 3 * p - 1)


def run_elimination(p: int, r: int, vL: Fraction | int | str | None = None) -> KillTrace:
    """Produce the complete kill trace, or raise on any gap or failed audit."""
    check_prime(p, minimum=5)
    if not _accepted_r(p, r):
        raise PadicElimError(f"r = {r} outside [{p + 3}, {2 * p - 1}] u [{2 * p + 4}, {3 * p - 1}]")
    vL = Fraction(-(r + 1), 2) if vL is None else as_rational(vL)
    # the one vL check of a kill: every audited n is at most r, so
    # vL < -r/2 gives each audit's hypothesis vL < r/2 - n
    if not vL < Fraction(-r, 2):
        raise PadicElimError(f"vL = {vL} must be < -r/2 = {Fraction(-r, 2)}")

    c = r // p
    half = r // 2
    kills: dict[int, SubquotientEntry] = {}

    def record(i: int, method: str, witness: tuple[int, ...] | None = None,
               slack_table: tuple[tuple[int, str], ...] | None = None) -> None:
        # the methods' targets are disjoint, so a second kill is a gap in
        # the argument, like a kill of the survivor
        if i == c:
            raise EliminationIncompleteError(
                f"method {method} targets the surviving index i = {c}"
            )
        if i in kills:
            raise EliminationIncompleteError(
                f"method {method} kills i = {i}, already killed by {kills[i].method}"
            )
        kills[i] = SubquotientEntry(i=i, j=r - i, status="killed", method=method,
                                    witness_n=witness, slack_table=slack_table)

    for i in range(c):
        report = shallow_kill_check(p, r, i + 1)
        if not report.passed:
            raise EliminationIncompleteError(
                f"shallow certificate failed at i = {i}: {report.failures}"
            )
        record(i, "shallow")

    audits = [audit_good(p, r, n) for n in good_candidates(p, r)]
    if c == 2:
        audits.append(audit_bad(p, r))
    # the two-phase kill is needed (and its window holds) iff its target
    # degree cp - 1 is inside the filtration window
    if 2 * (c * p - 1) >= r:
        audits.append(audit_ugly(p, r, c))
    for audit in audits:
        if not audit.passed:
            witness = ",".join(map(str, audit.witness_n))
            raise EliminationIncompleteError(
                f"{audit.method} audit failed at n = {witness}: " + "; ".join(audit.failures)
            )
        record(audit.target_i, audit.method, audit.witness_n, audit.slack_table)

    for i in range(half + 1, r + 1):
        record(i, "trivial")

    missing = [i for i in range(half + 1) if i != c and i not in kills]
    if missing:
        raise EliminationIncompleteError(f"no kill found for indices {missing}")

    survivor = SubquotientEntry(i=c, j=r - c, status="survivor", method=None,
                                witness_n=None, slack_table=None)
    entries = tuple(kills.get(i, survivor) for i in range(r + 1))
    return KillTrace(p=p, r=r, c=c, vL=vL, entries=entries)


def theorem_r_values(p: int, r_lo: int = 0, r_hi: int | None = None) -> tuple[int, ...]:
    """The r values covered by the prediction: [p+3, 2p-2] and [2p+4, 3p-1], within [r_lo, r_hi]."""
    top = 3 * p - 1 if r_hi is None else min(r_hi, 3 * p - 1)
    low = range(max(r_lo, p + 3), min(top, 2 * p - 2) + 1)
    return tuple(low) + tuple(range(max(r_lo, 2 * p + 4), top + 1))


def predict(p: int, r: int) -> ReductionResult:
    """Run the elimination with the default vL and emit the reduction label.

    The default vL = -(r+1)/2 is the weakest rational strictly below -r/2
    with denominator at most 2.
    """
    check_prime(p, minimum=5)
    if r == 2 * p - 1:
        raise PadicElimError(
            f"prediction unavailable: r = 2p-1 = {r} (the reducibility guard fails)"
        )
    if not _accepted_r(p, r):
        raise PadicElimError(f"r = {r} outside [{p + 3}, {2 * p - 2}] u [{2 * p + 4}, {3 * p - 1}]")
    trace = run_elimination(p, r)
    c = r // p
    return ReductionResult(
        survivor=c,
        exponent=r + 1,
        label=f"ind omega2^{r + 1}",
        irreducibility_residue=(r - 2 * c) % (p - 1),
        excluded_residues=(1, p - 2),
        trace=trace,
    )
