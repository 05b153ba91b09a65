"""Correctness gate for the padicelim benchmark.

Every item the benchmark times is checked here against invariants that do
not trust the code, and against sha256 digests of canonical JSON recorded
from the seed commit in ``reference.json``:

* a prediction is labelled ``ind omega2^(r+1)`` and its survivor is r // p;
* the entries cover [0, r] in order, with exactly one survivor;
* ``trace_from_dict(to_dict())`` round-trips;
* the entries equal the default-vL trace's entries (digest), so an
  elimination at a custom vL differs from the default only in ``vL``;
* every verifier passes with its seed ``checked`` count and digest.

Run ``python3 perfbench/gate.py --self-check`` to see the gate fire on a
mutated trace, and ``python3 perfbench/gate.py --write-reference`` (from
the repository root, about two minutes) to regenerate the digests.  Only
regenerate them for a deliberate change of output.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

# the theorem-range primes the cli-oneshot workload draws from
CLI_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def check_trace(data: dict, p: int, r: int, ref: dict, vL: str | None = None) -> list[str]:
    """Problems with one trace dict (the ``eliminate``/``predict`` JSON)."""
    from padicelim.eliminator import trace_from_dict

    where = f"(p={p}, r={r})"
    problems = []
    if (data.get("p"), data.get("r"), data.get("c")) != (p, r, r // p):
        problems.append(f"{where}: header {data.get('p')}, {data.get('r')}, {data.get('c')}")
    rows = data.get("subquotients", [])
    if [row.get("i") for row in rows] != list(range(r + 1)):
        problems.append(f"{where}: entries do not cover [0, {r}] exactly once")
    if any(row.get("j") != r - row.get("i", -1) for row in rows):
        problems.append(f"{where}: an entry has j != r - i")
    survivors = [row.get("i") for row in rows if row.get("status") == "survivor"]
    if survivors != [r // p]:
        problems.append(f"{where}: survivors {survivors}, expected [{r // p}]")
    if any(row.get("status") not in ("killed", "survivor") for row in rows):
        problems.append(f"{where}: unknown status")
    if vL is not None and data.get("vL") != vL:
        problems.append(f"{where}: vL {data.get('vL')} != requested {vL}")
    trace_keys = ("p", "r", "c", "vL", "subquotients")
    plain = {k: data.get(k) for k in trace_keys}
    try:
        if trace_from_dict(plain).to_dict() != plain:
            problems.append(f"{where}: trace_from_dict does not round-trip")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"{where}: trace_from_dict raised {exc!r}")
    if digest(rows) != ref["entries"].get(f"{p},{r}"):
        problems.append(f"{where}: entries differ from the reference trace")
    return problems


def check_prediction(data: dict, p: int, r: int, ref: dict) -> list[str]:
    """Problems with one ``predict`` JSON dict."""
    problems = check_trace(data, p, r, ref)
    pred = data.get("prediction") or {}
    if pred.get("label") != f"ind omega2^{r + 1}" or pred.get("exponent") != r + 1:
        problems.append(f"(p={p}, r={r}): label {pred.get('label')!r}")
    if digest(data) != ref["predict"].get(f"{p},{r}"):
        problems.append(f"(p={p}, r={r}): prediction differs from the reference")
    return problems


def check_verify(result, ref: dict) -> list[str]:
    """Problems with one ``VerifyResult``."""
    want = ref["verify"].get(result.name, {})
    problems = []
    if not result.passed:
        problems.append(f"verify {result.name}: {len(result.failures)} failures")
    if result.checked != want.get("checked"):
        problems.append(f"verify {result.name}: checked {result.checked} != {want.get('checked')}")
    if digest(result.to_dict()) != want.get("digest"):
        problems.append(f"verify {result.name}: report differs from the reference")
    return problems


def mutations(data: dict) -> dict[str, dict]:
    """Three corruptions of a prediction the gate must reject."""
    flipped = copy.deepcopy(data)
    row = next(row for row in flipped["subquotients"] if row["status"] == "killed")
    row["status"] = "survivor"
    dropped = copy.deepcopy(data)
    del dropped["subquotients"][0]
    slack = copy.deepcopy(data)
    row = next(row for row in slack["subquotients"] if row["slack_table"])
    degree = next(iter(row["slack_table"]))
    row["slack_table"][degree] = str(int(row["slack_table"][degree]) + 1)
    return {"flipped status": flipped, "dropped index": dropped, "edited slack": slack}


def self_check(ref: dict, p: int = 11, r: int = 14) -> list[str]:
    """Problems with the gate itself: it must pass a good trace and reject each mutation."""
    from padicelim.eliminator import predict

    good = predict(p, r).to_dict()
    problems = [f"good trace rejected: {msg}" for msg in check_prediction(good, p, r, ref)]
    for label, bad in mutations(good).items():
        if not check_prediction(bad, p, r, ref):
            problems.append(f"gate missed a {label}")
    return problems


def write_reference() -> None:
    from padicelim.eliminator import predict, run_elimination, theorem_r_values
    from padicelim.verify import VERIFIERS

    ref = {"predict": {}, "entries": {}, "verify": {}}
    for p in CLI_PRIMES:
        for r in theorem_r_values(p):
            data = predict(p, r).to_dict()
            ref["predict"][f"{p},{r}"] = digest(data)
        for r in sorted(set(theorem_r_values(p)) | {2 * p - 1}):
            ref["entries"][f"{p},{r}"] = digest(run_elimination(p, r).to_dict()["subquotients"])
    for name, verifier in VERIFIERS.items():
        result = verifier()
        ref["verify"][name] = {"checked": result.checked, "digest": digest(result.to_dict())}
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str]) -> int:
    sys.pycache_prefix = os.path.join(HERE, ".pycache")
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    if argv == ["--write-reference"]:
        write_reference()
        return 0
    if argv == ["--self-check"]:
        problems = self_check(load_reference())
        for msg in problems:
            print(f"FAIL: {msg}")
        print("gate self-check:", "FAIL" if problems else "PASS (3 mutations rejected)")
        return 1 if problems else 0
    print("usage: python3 perfbench/gate.py --self-check | --write-reference", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
