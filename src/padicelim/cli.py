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

Exit codes: 0 all checks pass, 1 a verification or audit failed, 2 invalid
input.  Rationals cross the boundary as exact "a/b" text.  Machine formats
(json, tsv) never use the unicode omega; the human table may.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from padicelim.congruence import make_params, master_terms
from padicelim.eliminator import (
    KillTrace,
    ReductionResult,
    predict,
    run_elimination,
    theorem_r_values,
)
from padicelim.errors import EliminationIncompleteError, PadicElimError
from padicelim.exactnum import as_rational, is_prime
from padicelim.lambda_solver import solve_lambda, verify_lambda
from padicelim.verify import VERIFIERS

__all__ = ["main", "emit_report"]

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


# ----------------------------- rendering -----------------------------

def _trace_rows(trace: KillTrace) -> list[str]:
    rows = [f"p = {trace.p}  r = {trace.r}  c = {trace.c}  vL = {trace.vL}"]
    rows.append(f"{'i':>3} {'j':>4} {'status':>9} {'method':>8}  witness")
    for e in trace.entries:
        witness = ",".join(map(str, e.witness_n)) if e.witness_n else "-"
        rows.append(
            f"{e.i:>3} {e.j:>4} {e.status:>9} {e.method or '-':>8}  n = {witness}"
            if e.witness_n
            else f"{e.i:>3} {e.j:>4} {e.status:>9} {e.method or '-':>8}  -"
        )
    if trace.duplicates:
        rows.append(f"duplicate kills recorded: {trace.duplicates}")
    return rows


def emit_report(obj, fmt: str = "table") -> str:
    """Render a trace, prediction or verification report in one format."""
    if fmt == "json":
        if hasattr(obj, "to_dict"):
            return json.dumps(obj.to_dict(), indent=2, sort_keys=True)
        return json.dumps(obj, indent=2, sort_keys=True)
    if fmt == "tsv":
        if isinstance(obj, ReductionResult):
            obj = [obj]
        if isinstance(obj, list) and all(isinstance(x, ReductionResult) for x in obj):
            lines = ["p\tr\tc\tvL\texponent\tlabel"]
            for res in obj:
                lines.append(
                    f"{res.p}\t{res.r}\t{res.survivor}\t{res.trace.vL}\t{res.exponent}\t{res.label}"
                )
            return "\n".join(lines)
        raise ValueError(f"tsv rendering is only defined for prediction rows, not {type(obj)}")
    # human table
    if isinstance(obj, ReductionResult):
        rows = _trace_rows(obj.trace)
        rows.append(
            f"prediction: ind ω₂^{obj.exponent}  "
            f"(residue {obj.irreducibility_residue} mod p-1 avoids {obj.excluded_residues})"
        )
        return "\n".join(rows)
    if isinstance(obj, KillTrace):
        return "\n".join(_trace_rows(obj))
    if isinstance(obj, list):
        return "\n".join(emit_report(item, "table") for item in obj)
    if hasattr(obj, "to_dict"):
        data = obj.to_dict()
        return "\n".join(f"{k}: {v}" for k, v in data.items())
    return str(obj)


# ----------------------------- helpers -----------------------------

def _parse_prime_range(text: str) -> list[int]:
    lo_text, _, hi_text = text.partition(":")
    if not _:
        raise argparse.ArgumentTypeError(f"range must look like A:B, got {text!r}")
    lo, hi = int(lo_text), int(hi_text)
    return [p for p in range(max(lo, 5), hi + 1) if is_prime(p)]


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("PADICELIM_JOBS", "1")))
    except ValueError:
        return 1


def _predict_item(args: tuple[int, int]) -> dict:
    p, r = args
    return predict(p, r).to_dict()


# ----------------------------- subcommands -----------------------------

def _cmd_verify(ns: argparse.Namespace) -> int:
    verifier = VERIFIERS[ns.lemma]
    if ns.p:
        result = verifier(primes=tuple(ns.p))
    else:
        result = verifier()
    if ns.emit == "json":
        print(emit_report(result, "json"))
    else:
        print(f"verify {result.name}: primes {result.primes}, {result.checked} checks")
        for note in result.observations:
            print(f"  observed: {note}")
        for failure in result.failures:
            print(f"  FAIL: {failure}", file=sys.stderr)
        print(f"  {'PASS' if result.passed else 'FAIL'}")
    return EXIT_OK if result.passed else EXIT_FAILED


def _cmd_lambda(ns: argparse.Namespace) -> int:
    vec = solve_lambda(ns.p, ns.b, ns.n)
    report = verify_lambda(vec)
    if ns.emit == "json":
        payload = {
            "p": vec.p,
            "b": vec.b,
            "n": vec.n,
            "entries": {str(i): vec[i] for i in vec.index_set},
            "bullets": {
                "1": report.bullet1,
                "2": report.bullet2,
                "2_mode": report.bullet2_mode,
                "2_deviations": [list(d) for d in report.bullet2_deviations],
                "3": report.bullet3,
                "4": report.bullet4,
            },
            "passed": report.passed,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"lambda family for p = {vec.p}, b = {vec.b}, n = {vec.n}")
        for i in vec.index_set:
            print(f"  lambda_{i} = {vec[i]}")
        print(
            f"bullets: 1 {report.bullet1}, 2 {report.bullet2} ({report.bullet2_mode}), "
            f"3 {report.bullet3}, 4 {report.bullet4}"
        )
        for a, j in report.bullet2_deviations:
            print(f"  observed deviation at (a = {a}, j = {j})")
    return EXIT_OK if report.passed else EXIT_FAILED


def _cmd_congruence(ns: argparse.Namespace) -> int:
    vL = as_rational(ns.vL) if ns.vL is not None else Fraction(-(ns.r + 1), 2)
    params = make_params(ns.p, ns.r, ns.n, vL, mode="strict")
    terms = master_terms(params)
    if ns.emit == "json":
        payload = {
            "p": params.p,
            "r": params.r,
            "n": params.n,
            "b": params.b,
            "eps": params.eps,
            "vFall": params.v_fall,
            "vL": str(params.vL),
            "x": str(params.x),
            "terms": [
                {
                    "line": t.line,
                    "a": t.a,
                    "j": t.j,
                    "coeff": str(t.coeff),
                    "total_val": str(t.total_val(params.r)),
                    "slack": t.slack_text,
                }
                for t in terms
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"p = {params.p}  r = {params.r}  n = {params.n}  b = {params.b}  "
            f"eps = {params.eps}  vFall = {params.v_fall}  vL = {params.vL}  x = {params.x}"
        )
        print(f"{'line':>4} {'a':>3} {'j':>4} {'slack':>6} {'total':>7}  coeff")
        for t in terms:
            print(f"{t.line:>4} {t.a:>3} {t.j:>4} {t.slack_text:>6} {str(t.total_val(params.r)):>7}  {t.coeff}")
    return EXIT_OK


def _cmd_eliminate(ns: argparse.Namespace) -> int:
    vL = as_rational(ns.vL) if ns.vL is not None else None
    trace = run_elimination(ns.p, ns.r, vL)
    print(emit_report(trace, ns.emit))
    return EXIT_OK


def _cmd_predict(ns: argparse.Namespace) -> int:
    result = predict(ns.p, ns.r)
    if ns.emit == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(emit_report(result, ns.emit))
    return EXIT_OK


def _cmd_sweep(ns: argparse.Namespace) -> int:
    primes = _parse_prime_range(ns.p_range)
    work: list[tuple[int, int]] = []
    for p in primes:
        r_values = theorem_r_values(p)
        if ns.r_range:
            lo, _, hi = ns.r_range.partition(":")
            r_values = tuple(r for r in r_values if int(lo) <= r <= int(hi))
        work.extend((p, r) for r in r_values)
    if not work:
        print("sweep range is empty", file=sys.stderr)
        return EXIT_USAGE
    work.sort()
    jobs = ns.jobs or _default_jobs()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            dicts = list(pool.map(_predict_item, work))
    else:
        dicts = [_predict_item(item) for item in work]
    # deterministic ordering regardless of parallelism
    dicts.sort(key=lambda d: (d["p"], d["r"]))
    if ns.emit == "json":
        print(json.dumps(dicts, indent=2, sort_keys=True))
    elif ns.emit == "tsv":
        lines = ["p\tr\tc\tvL\texponent\tlabel"]
        for d in dicts:
            pred = d["prediction"]
            lines.append(
                f"{d['p']}\t{d['r']}\t{d['c']}\t{d['vL']}\t{pred['exponent']}\t{pred['label']}"
            )
        print("\n".join(lines))
    else:
        for d in dicts:
            pred = d["prediction"]
            print(f"p = {d['p']:>3}  r = {d['r']:>3}  c = {d['c']}  {pred['label']}")
        print(f"{len(dicts)} predictions, all with exponent r + 1")
    return EXIT_OK


# ----------------------------- parser wiring -----------------------------

def _add_emit(parser: argparse.ArgumentParser, formats=("table", "json", "tsv")) -> None:
    parser.add_argument("--emit", choices=formats, default="table", help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    sp.add_argument("--p-range", required=True, help="inclusive prime range A:B")
    sp.add_argument("--r-range", default=None, help="optional restriction A:B on r")
    sp.add_argument("--jobs", type=int, default=None, help="parallel workers (default $PADICELIM_JOBS or 1)")
    _add_emit(sp)
    sp.set_defaults(func=_cmd_sweep)

    return parser


def _merge_rational_flags(argv: list[str]) -> list[str]:
    """Rewrite ["--vL", "-9/2"] as ["--vL=-9/2"] so argparse accepts it.

    Negative rationals are the normal case for vL, and argparse only
    recognizes bare negative integers as values.
    """
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--vL" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--vL={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_rational_flags(list(argv))
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return ns.func(ns)
    except EliminationIncompleteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except PadicElimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
