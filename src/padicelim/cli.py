"""Command-line front end.

Subcommands:

    verify <lemma>   exhaustive desk-scale re-verification of one lemma
                     (lucas2 | stirling-lucas | lambda | shallow | star |
                      inequalities | vl-independence)
    lambda           solve and verify one coefficient family
    congruence       print the master-congruence term table for one (p, r, n)
    eliminate        run the elimination engine for one (p, r)
    predict          elimination plus the reduction label
    sweep            predictions for every theorem-range (p, r) in a prime range

Exit codes: 0 all checks pass, 1 a verification or audit failed (or the
reader of stdout has gone), 2 invalid input.  Rationals cross the boundary
as exact "a/b" text.  Machine formats (json, tsv) never use the unicode
omega; the human table may.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import NoReturn

from padicelim.congruence import make_params, master_terms
from padicelim.eliminator import (
    KillTrace,
    ReductionResult,
    predict,
    run_elimination,
    theorem_r_values,
    trace_json,
)
from padicelim.errors import EliminationIncompleteError, PadicElimError
from padicelim.exactnum import check_prime, is_prime
from padicelim.lambda_solver import solve_lambda, verify_lambda
from padicelim.verify import VERIFIERS, VerifyResult

__all__ = ["main", "emit_report"]

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


# ----------------------------- rendering -----------------------------

# the TSV header; _tsv_row gives one prediction's values in this order
_TSV_COLUMNS = ("p", "r", "c", "vL", "exponent", "label")


def _tsv_row(res: ReductionResult) -> str:
    t = res.trace
    return "\t".join(map(str, (t.p, t.r, t.c, t.vL, res.exponent, res.label)))


def _trace_rows(trace: KillTrace) -> list[str]:
    rows = [f"p = {trace.p}  r = {trace.r}  c = {trace.c}  vL = {trace.vL}"]
    rows.append(f"{'i':>3} {'j':>4} {'status':>9} {'method':>8}  witness")
    for e in trace.entries:
        witness = "n = " + ",".join(map(str, e.witness_n)) if e.witness_n else "-"
        status = "survivor" if e.method is None else "killed"
        rows.append(f"{e.i:>3} {trace.r - e.i:>4} {status:>9} {e.method or '-':>8}  {witness}")
    return rows


def _prediction_rows(res: ReductionResult) -> list[str]:
    return _trace_rows(res.trace) + [
        f"prediction: ind ω₂^{res.exponent}  "
        f"(residue {res.irreducibility_residue} mod p-1 avoids {res.excluded_residues})"
    ]


def _sweep_rows(results: list[ReductionResult]) -> list[str]:
    rows = [
        f"p = {res.trace.p:>3}  r = {res.trace.r:>3}  c = {res.trace.c}  {res.label}"
        for res in results
    ]
    rows.append(f"{len(results)} predictions, all with exponent r + 1")
    return rows


def _verify_rows(res: VerifyResult) -> list[str]:
    # main sends the FAIL lines to stderr
    rows = [f"verify {res.name}: primes {res.primes}, {res.checked} checks"]
    rows += [f"  observed: {note}" for note in res.observations]
    rows.append(f"  {'PASS' if res.passed else 'FAIL'}")
    return rows


class _LambdaFamily(dict):
    """The JSON form of ``padicelim lambda``; its type selects its table."""


def _lambda_rows(data: _LambdaFamily) -> list[str]:
    rows = [f"lambda family for p = {data['p']}, b = {data['b']}, n = {data['n']}"]
    rows += [f"  lambda_{i} = {value}" for i, value in data["entries"].items()]
    bullets = data["bullets"]
    rows.append(
        f"bullets: 1 {bullets['1']}, 2 {bullets['2']} ({bullets['2_mode']}), "
        f"3 {bullets['3']}, 4 {bullets['4']}"
    )
    rows += [f"  observed deviation at (a = {a}, j = {j})" for a, j in bullets["2_deviations"]]
    return rows


class _TermTable(dict):
    """The JSON form of ``padicelim congruence``; its type selects its table."""


def _term_rows(data: _TermTable) -> list[str]:
    rows = [
        f"p = {data['p']}  r = {data['r']}  n = {data['n']}  b = {data['b']}  "
        f"eps = {data['eps']}  vFall = {data['vFall']}  vL = {data['vL']}  x = {data['x']}",
        f"{'line':>4} {'a':>3} {'j':>4} {'slack':>6} {'total':>7}  coeff",
    ]
    rows += [
        f"{t['line']:>4} {t['a']:>3} {t['j']:>4} {t['slack']:>6} {t['total_val']:>7}  {t['coeff']}"
        for t in data["terms"]
    ]
    return rows


# the human table of each output type; a sweep is a list
_TABLE_ROWS = {
    KillTrace: _trace_rows, ReductionResult: _prediction_rows, list: _sweep_rows,
    VerifyResult: _verify_rows, _LambdaFamily: _lambda_rows, _TermTable: _term_rows,
}


def emit_report(obj, fmt: str = "table") -> str:
    """Render one CLI output in one format.

    ``obj`` is what a subcommand returns: a KillTrace, a ReductionResult, a
    sweep (a list of ReductionResults), a VerifyResult, or the JSON form of
    a lambda family or a term table.  json renders traces, predictions and
    sweeps with ``eliminator.trace_json`` and the rest with ``json.dumps``;
    tsv is defined for a prediction and a sweep.
    """
    if fmt == "json":
        if isinstance(obj, (KillTrace, ReductionResult, list)):
            return trace_json(obj)
        data = obj.to_dict() if isinstance(obj, VerifyResult) else obj
        return json.dumps(data, indent=2, sort_keys=True)
    if fmt == "tsv":
        results = [obj] if isinstance(obj, ReductionResult) else obj
        return "\n".join(["\t".join(_TSV_COLUMNS)] + [_tsv_row(res) for res in results])
    return "\n".join(_TABLE_ROWS[type(obj)](obj))


# ----------------------------- helpers -----------------------------

def _int_range(text: str) -> tuple[int, int]:
    """Parse an inclusive range "A:B" (an argparse type)."""
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must look like A:B, got {text!r}") from None


# ------------- subcommands: each returns its output and whether it passed -------------

def _cmd_verify(ns: argparse.Namespace) -> tuple[VerifyResult, bool]:
    # the lemmas are stated for primes p >= 5; a smaller p would pass vacuously
    primes = tuple(check_prime(p, minimum=5) for p in ns.p or ())
    for k, p in enumerate(primes):
        if p in primes[:k]:
            raise PadicElimError(f"p = {p} is repeated")
    verifier = VERIFIERS[ns.lemma]
    result = verifier(primes=primes) if primes else verifier()
    return result, result.passed


def _cmd_lambda(ns: argparse.Namespace) -> tuple[_LambdaFamily, bool]:
    vec = solve_lambda(ns.p, ns.b, ns.n)
    report = verify_lambda(vec)
    entries = {str(i): vec.entries[i] for i in vec.index_set}
    bullets = {
        "1": report.bullet1, "2": report.bullet2, "2_mode": report.bullet2_mode,
        "2_deviations": [list(d) for d in report.bullet2_deviations],
        "3": report.bullet3, "4": report.bullet4,
    }
    family = _LambdaFamily(p=vec.p, b=vec.b, n=vec.n, entries=entries, bullets=bullets, passed=report.passed)
    return family, report.passed


def _cmd_congruence(ns: argparse.Namespace) -> tuple[_TermTable, bool]:
    params = make_params(ns.p, ns.r, ns.n, Fraction(-(ns.r + 1), 2) if ns.vL is None else ns.vL)
    terms = [
        {"line": t.line, "a": t.a, "j": t.j, "coeff": str(t.coeff),
         "total_val": str(t.total_val(params.r)), "slack": t.slack_text}
        for t in master_terms(params)
    ]
    table = _TermTable(
        p=params.p, r=params.r, n=params.n, b=params.b, eps=params.eps,
        vFall=params.v_fall, vL=str(params.vL), x=str(params.x), terms=terms,
    )
    return table, True


def _cmd_eliminate(ns: argparse.Namespace) -> tuple[KillTrace, bool]:
    return run_elimination(ns.p, ns.r, ns.vL), True


def _cmd_predict(ns: argparse.Namespace) -> tuple[ReductionResult, bool]:
    return predict(ns.p, ns.r), True


def _cmd_sweep(ns: argparse.Namespace) -> tuple[list[ReductionResult], bool]:
    p_lo, p_hi = ns.p_range
    r_lo, r_hi = ns.r_range or (0, None)
    # the theorem range of p lies in [p + 3, 3p - 1], so only the primes in
    # [(r_lo + 1)/3, r_hi - 3] can meet [r_lo, r_hi]
    if r_hi is not None:
        p_hi = min(p_hi, r_hi - 3)
    results = [
        predict(p, r)
        for p in range(max(p_lo, 5, -(-(r_lo + 1) // 3)), p_hi + 1) if is_prime(p)
        for r in theorem_r_values(p, r_lo, r_hi)
    ]
    if not results:
        raise PadicElimError("sweep range is empty")
    return results, True


# ----------------------------- parser wiring -----------------------------

def _add_emit(parser: argparse.ArgumentParser, formats=("table", "json", "tsv")) -> None:
    parser.add_argument("--emit", choices=formats, default="table", help="output format")


class _Parser(argparse.ArgumentParser):
    """A parser whose errors reach main's one ``error:`` line, with no usage.

    Its subparsers are of the same class: argparse's default parser_class.
    """

    def error(self, message: str) -> NoReturn:
        raise PadicElimError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="padicelim",
        description="Exact p-adic congruence audits and sub-quotient elimination traces.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    vp = sub.add_parser("verify", help="re-verify one lemma family exhaustively")
    vp.add_argument("lemma", choices=sorted(VERIFIERS))
    vp.add_argument("--p", type=int, action="append", help="prime (repeatable); default is the lemma's desk-scale set")
    _add_emit(vp, formats=("table", "json"))
    vp.set_defaults(func=_cmd_verify)

    lp = sub.add_parser("lambda", help="solve and verify one coefficient family")
    lp.add_argument("--p", type=int, required=True)
    lp.add_argument("--b", type=int, required=True)
    lp.add_argument("--n", type=int, required=True)
    _add_emit(lp, formats=("table", "json"))
    lp.set_defaults(func=_cmd_lambda)

    cp = sub.add_parser("congruence", help="print the master-congruence term table")
    cp.add_argument("--p", type=int, required=True)
    cp.add_argument("--r", type=int, required=True)
    cp.add_argument("--n", type=int, required=True)
    cp.add_argument("--vL", type=str, default=None, help='exact rational "a/b"; default -(r+1)/2')
    _add_emit(cp, formats=("table", "json"))
    cp.set_defaults(func=_cmd_congruence)

    ep = sub.add_parser("eliminate", help="run the elimination engine")
    ep.add_argument("--p", type=int, required=True)
    ep.add_argument("--r", type=int, required=True)
    ep.add_argument("--vL", type=str, default=None, help='exact rational "a/b"; default -(r+1)/2')
    _add_emit(ep, formats=("table", "json"))
    ep.set_defaults(func=_cmd_eliminate)

    pp = sub.add_parser("predict", help="eliminate and emit the reduction label")
    pp.add_argument("--p", type=int, required=True)
    pp.add_argument("--r", type=int, required=True)
    _add_emit(pp)
    pp.set_defaults(func=_cmd_predict)

    sp = sub.add_parser("sweep", help="predictions over all theorem-range (p, r)")
    sp.add_argument("--p-range", type=_int_range, required=True, help="inclusive prime range A:B")
    sp.add_argument("--r-range", type=_int_range, default=None, help="optional restriction A:B on r")
    _add_emit(sp)
    sp.set_defaults(func=_cmd_sweep)

    return parser


# flags whose value may start with "-": argparse only takes a bare negative
# number as a value, not a rational such as -9/2 or a range such as -5:7
_SIGNED_FLAGS = ("--vL", "--p-range", "--r-range")


def _merge_signed_flags(argv: list[str]) -> list[str]:
    """Rewrite ["--vL", "-9/2"] as ["--vL=-9/2"] so argparse accepts it.

    Negative rationals are the normal case for vL; a range may start below
    zero too.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _SIGNED_FLAGS and tok.startswith("-"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        ns = _build_parser().parse_args(_merge_signed_flags(list(argv)))
        result, passed = ns.func(ns)
        text = emit_report(result, ns.emit)
    except SystemExit:
        # --help printed the help; every argparse error raises PadicElimError
        return EXIT_OK
    except PadicElimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED if isinstance(exc, EliminationIncompleteError) else EXIT_USAGE
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader left: point stdout at devnull so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILED
    if ns.emit == "table" and isinstance(result, VerifyResult):
        sys.stderr.write("".join(f"  FAIL: {failure}\n" for failure in result.failures))
    return EXIT_OK if passed else EXIT_FAILED
