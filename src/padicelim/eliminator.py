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

A trace's rows are ``congruence.SubquotientEntry``, an audit's stored as it
returns it (the good audits of r from one call of ``congruence.good_kills``,
which checks p and r once), and the trivial block (r/2, r] built whole,
its clash with a kill found by one comparison.  A row's degree j = r - i
and status (survivor iff no method) are derived by the JSON form's one
writer, :func:`trace_json`, and not read by its one reader,
:func:`trace_from_dict`.
"""

import json
from fractions import Fraction
from typing import NamedTuple

from padicelim.congruence import SubquotientEntry, audit_bad, audit_ugly, good_kills
from padicelim.errors import EliminationIncompleteError, PadicElimError
from padicelim.exactnum import as_rational, check_prime, per_prime
from padicelim.fp_poly import shallow_kill_check

__all__ = [
    "KillTrace",
    "ReductionResult",
    "run_elimination",
    "predict",
    "theorem_r_values",
    "trace_json",
    "trace_from_dict",
]


class KillTrace(NamedTuple):
    """The full elimination record for one (p, r, vL)."""

    p: int
    r: int
    c: int
    vL: Fraction
    entries: tuple[SubquotientEntry, ...]

    def to_dict(self) -> dict:
        return json.loads(trace_json(self))


class ReductionResult(NamedTuple):
    """The predicted reduction: label ind omega2^(r+1) plus the guard data."""

    survivor: int
    exponent: int
    label: str
    irreducibility_residue: int
    excluded_residues: tuple[int, int]
    trace: KillTrace

    def to_dict(self) -> dict:
        return json.loads(trace_json(self))


# ----------------------------- the JSON form -----------------------------

# json.dumps's own string encoder (ensure_ascii)
_json_str = json.encoder.encode_basestring_ascii


def _json_list(items: list[str], pad: str) -> str:
    """A JSON list from its rendered items, closed at indent ``pad``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + f"\n{pad}]"


def _write_slack(out: list[str], slack_lines: dict, n: int | None, pairs: tuple, start: int, pad: str) -> None:
    """Write the JSON object of the slack pairs ``pairs[start:]``, closed at indent ``pad``.

    An audit's row holds its (p, n) table's own pairs and the start of r's
    window.  ``slack_lines`` holds, by n, the pairs written last and their
    lines, each formatted once: the same pairs (``is``) take their lines
    from ``start`` and sort them; other pairs, such as a parsed row's, are
    formatted and held in their place.
    """
    if start >= len(pairs):
        out.append("{}")
        return
    held = slack_lines.get(n)
    if held is None or held[0] is not pairs:
        held = slack_lines[n] = (pairs, [f'"{j}": {_json_str(s)}' for j, s in pairs])
    # sort_keys order, the degrees as strings: "10" comes before "9".  The
    # lines sort in that order since '"' sorts before '-' and every digit
    q = pad + "  "
    out += (f"{{\n{q}", f",\n{q}".join(sorted(held[1][start:])), f"\n{pad}}}")


def _write_report(out: list[str], obj: KillTrace | ReductionResult, pad: str) -> None:
    """Write the JSON of a trace or a prediction, from indent ``pad`` on; a row's slack pairs from ``slack_start`` on."""
    trace = obj.trace if isinstance(obj, ReductionResult) else obj
    q = pad + "  "
    out.append(f'{pad}{{\n{q}"c": {trace.c},\n{q}"p": {trace.p},\n')
    if isinstance(obj, ReductionResult):
        qq, qqq = q + "  ", q + "    "
        excluded = _json_list([f"{qqq}  {k}" for k in obj.excluded_residues], qqq)
        out.append(
            f'{q}"prediction": {{\n{qq}"exponent": {obj.exponent},\n'
            f'{qq}"irreducibility": {{\n{qqq}"excluded": {excluded},\n'
            f'{qqq}"residue": {obj.irreducibility_residue}\n{qq}}},\n'
            f'{qq}"label": {_json_str(obj.label)}\n{q}}},\n'
        )
    out.append(f'{q}"r": {trace.r},\n{q}"subquotients": ')
    # an entry's first piece starts with the text before it: "[" or a comma
    lead, ep, eq = "[\n", q + "  ", q + "    "
    slack_lines = per_prime(trace.p, "slack_lines", dict)  # see _write_slack
    for e in trace.entries:
        method = "null" if e.method is None else _json_str(e.method)
        out.append(f'{lead}{ep}{{\n{eq}"i": {e.i},\n{eq}"j": {trace.r - e.i},\n'
                   f'{eq}"method": {method},\n{eq}"slack_table": ')
        if e.slack_table is None:
            out.append("null")
        else:
            # the table of every method's kill is (p, n) for its first n
            _write_slack(out, slack_lines, e.witness_n[0] if e.witness_n else None, e.slack_table, e.slack_start, eq)
        witness = "null" if e.witness_n is None else _json_list([f"{eq}  {n}" for n in e.witness_n], eq)
        status = "survivor" if e.method is None else "killed"
        out.append(f',\n{eq}"status": "{status}",\n{eq}"witness_n": {witness}\n{ep}}}')
        lead = ",\n"
    out.append(f"\n{q}]" if trace.entries else "[]")
    out.append(f',\n{q}"vL": {_json_str(str(trace.vL))}\n{pad}}}')


def trace_json(obj: KillTrace | ReductionResult | list[ReductionResult]) -> str:
    """The JSON of a trace, a prediction or a sweep of predictions.

    This is the one writer of the JSON form; ``to_dict`` reads it back and
    :func:`trace_from_dict` parses it.  The text is what ``json.dumps(...,
    indent=2, sort_keys=True)`` writes for that form, but built without
    dicts or the pure-Python indented encoder.  Every piece goes into one
    list, joined once; the slack lines of a (p, n) table are formatted once
    by :func:`_write_slack`.
    """
    out: list[str] = []
    if not isinstance(obj, list):
        _write_report(out, obj, "")
    elif not obj:
        out.append("[]")
    else:
        lead = "[\n"
        for res in obj:
            out.append(lead)
            _write_report(out, res, "  ")
            lead = ",\n"
        out.append("\n]")
    return "".join(out)


def trace_from_dict(data: dict) -> KillTrace:
    """Rebuild a KillTrace from its JSON form: a row's pairs start at 0, its ``j`` and ``status`` are derived."""
    entries = tuple(
        SubquotientEntry(
            i=row["i"],
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

    c, half = r // p, r // 2
    kills: dict[int, SubquotientEntry] = {}
    for i in range(c):
        report = shallow_kill_check(p, r, i + 1)
        if not report.passed:
            raise EliminationIncompleteError(
                f"shallow certificate failed at i = {i}: " + "; ".join(report.failures)
            )
        kills[i] = SubquotientEntry(i, "shallow")

    audits = list(good_kills(p, r))
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
        # the methods' targets are disjoint, so a second kill is a gap in
        # the argument, like a kill of the survivor
        if audit.i == c:
            raise EliminationIncompleteError(f"method {audit.method} targets the surviving index i = {c}")
        if audit.i in kills:
            raise EliminationIncompleteError(
                f"method {audit.method} kills i = {audit.i}, already killed by {kills[audit.i].method}"
            )
        kills[audit.i] = audit

    # the trivial block (half, r] clashes with a kill iff the deepest kill lies in it
    if max(kills) > half:
        i = min(i for i in kills if i > half)
        raise EliminationIncompleteError(f"method trivial kills i = {i}, already killed by {kills[i].method}")
    missing = [i for i in range(half + 1) if i != c and i not in kills]
    if missing:
        raise EliminationIncompleteError(f"no kill found for indices {missing}")

    kills[c] = SubquotientEntry(c, None)
    entries = (
        *map(kills.__getitem__, range(half + 1)),
        *[SubquotientEntry(i, "trivial") for i in range(half + 1, r + 1)],
    )
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
