"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root:

    python3 perfbench/spread.py --workloads sweep cli-oneshot --seeds 10

Runs ``perfbench/run.py --trace 0`` once per seed and workload, one run at a
time, and prints for every end-to-end metric its median and the distance
between its first and third quartiles as a share of the median, next to a
third of the metric's bound from BENCHMARK.json.  The raw results go to
``perfbench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ns = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    steady = True
    for workload in ns.workloads:
        results = []
        for seed in range(ns.first_seed, ns.first_seed + ns.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(ns.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines() or ["{}"]
            result = json.loads(lines[-1]) if proc.returncode == 0 else {}
            run_line = next((ln for ln in lines if ln.startswith("run: ")), "run: {}")
            result["run"] = json.loads(run_line[len("run: "):])
            results.append(result)
            print(f"{workload} seed {seed}: exit {proc.returncode}, "
                  f"correct {result.get('correct')}", flush=True)
        with open(os.path.join(HERE, "out", f"spread-{workload}.json"), "w") as fh:
            json.dump(results, fh, indent=1)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results if r.get("metrics")]
            if len(values) < 2:
                print(f"  {name}: too few results")
                steady = False
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = spread < bound / 3 or name == "setup_s"
            steady &= ok
            print(f"  {name:<16} median {med:>12.6g}  spread {spread:7.4f}  "
                  f"bound/3 {bound / 3:.4f}  {'ok' if ok else 'WIDE'}")
        steady &= all(r.get("correct") for r in results)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
