"""padicelim benchmark: end-to-end and per-layer metrics on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads: ``sweep`` (in-process predict over every theorem-range r at
p = 31), ``cli-oneshot`` (one fresh ``python -m padicelim`` process per
request) and ``lemma-verify`` (the seven lemma sweeps of
``padicelim.verify``).  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it runs each pass untraced and then traced and
reports the per-layer metrics of ``tracer.LAYER_METRICS``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md in this directory.

The run is split into passes.  Each pass runs in a fresh worker process
(this script with ``--worker``), so caches never carry over from one pass
to the next, and the time from spawning the worker to its "ready" line is
one sample of the set-up time.  The number of passes is fixed by
``--seconds`` alone, so a run does the same work whatever the speed of the
code, and its sample counts (hence its tail percentile) never change.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# keep bytecode caches inside the benchmark's own directory
sys.pycache_prefix = os.path.join(HERE, ".pycache")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

import gate  # noqa: E402
from probe import SpeedProbe  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD_ENV = dict(os.environ, PYTHONPATH="src", PYTHONPYCACHEPREFIX=sys.pycache_prefix)
# children always use bytecode caches, so set-up time does not depend on
# whether the caller's environment disables them
CHILD_ENV.pop("PYTHONDONTWRITEBYTECODE", None)

WORKLOADS = ("sweep", "cli-oneshot", "lemma-verify")
# About the wall seconds of one pass on the seed commit (shared 2-core
# Xeon, Python 3.11).
# A run makes round(--seconds / PASS_SECONDS) passes; a traced run makes
# round(--seconds / (2.5 * PASS_SECONDS)) untraced + traced pairs.
PASS_SECONDS = {"sweep": 10.8, "cli-oneshot": 15, "lemma-verify": 4.9}
SWEEP_PRIME = 31
CLI_STRATA = 3
SETUP_SAMPLES = 9
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9, 99.99)
RUN_DEADLINE_S = 170
REQUEST_TIMEOUT_S = 60


# ------------------------------------------------------------------ inputs

def plan(workload: str, seed: int, passes: int) -> list[list]:
    """The items of every pass, drawn from the seed alone."""
    from padicelim.eliminator import theorem_r_values
    from padicelim.verify import VERIFIERS

    rng = random.Random(seed)
    if workload == "sweep":
        r_values = list(theorem_r_values(SWEEP_PRIME))
        return [rng.sample(r_values, len(r_values)) for _ in range(passes)]
    if workload == "lemma-verify":
        lemmas = sorted(VERIFIERS)
        return [rng.sample(lemmas, len(lemmas)) for _ in range(passes)]
    # cli-oneshot: a pass (deck) holds, for every prime, CLI_STRATA predict
    # and CLI_STRATA eliminate requests at theorem-range r, one eliminate at
    # r = 2p - 1 and one guard request.  The theorem range is cut into
    # CLI_STRATA * passes strata and each is asked for once, at its
    # midpoint; the seed deals the strata to the decks (one from each
    # CLI_STRATA-th of the range per deck), draws every vL and orders each
    # deck.  Every run thus asks for the same spread of work.
    decks: list[list] = [[] for _ in range(passes)]
    strata = CLI_STRATA * passes

    def vl_below(r: int) -> str:
        return str(Fraction(-r, 2) - Fraction(rng.randint(1, 9), rng.randint(1, 4)))

    for p in gate.CLI_PRIMES:
        rs = theorem_r_values(p)
        for kind in ("predict", "eliminate"):
            for part in range(CLI_STRATA):
                order = rng.sample(range(passes), passes)
                for deck_index, k in zip(order, range(part * passes, (part + 1) * passes)):
                    r = rs[int((k + 0.5) * len(rs) / strata)]
                    decks[deck_index].append((kind, p, r, vl_below(r) if kind == "eliminate" else None))
        for deck in decks:
            deck.append(("eliminate", p, 2 * p - 1, vl_below(2 * p - 1)))
            deck.append(("guard", p, 2 * p - 1, None))
    for deck in decks:
        rng.shuffle(deck)
    return decks


def cli_args(item) -> list[str]:
    kind, p, r, vL = item
    if kind == "predict":
        return ["predict", "--p", str(p), "--r", str(r), "--emit", "json"]
    if kind == "eliminate":
        return ["eliminate", "--p", str(p), "--r", str(r), "--vL", vL, "--emit", "json"]
    return ["predict", "--p", str(p), "--r", str(r)]


# ------------------------------------------------------------------ worker side

def run_sweep(items, ref, tracer) -> dict:
    import padicelim.cli as cli
    import padicelim.eliminator as eliminator

    outputs, samples = [], []
    with SpeedProbe() as probe:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for k, r in enumerate(items):
            if tracer:
                tracer.item = k
            start, probed, mark = time.perf_counter(), probe.total, len(probe.samples)
            try:
                result = eliminator.predict(SWEEP_PRIME, r)
                outputs.append((r, result.survivor, cli.emit_report(result, "json")))
            except Exception as exc:  # an item that raises is a failed item
                outputs.append((r, exc, None))
            elapsed = time.perf_counter() - start - probe.total + probed
            samples.append(elapsed * 1e3 / probe.factor_since(mark))
        wall = time.perf_counter() - wall0 - probe.total
        cpu = time.process_time() - cpu0 - probe.total
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems, failed = [], 0
    for r, survivor, text in outputs:
        if text is None:
            msgs = [f"predict({SWEEP_PRIME}, {r}) raised {survivor!r}"]
        else:
            msgs = gate.check_prediction(json.loads(text), SWEEP_PRIME, r, ref)
            if survivor != r // SWEEP_PRIME:
                msgs.append(f"(p={SWEEP_PRIME}, r={r}): survivor {survivor}")
        failed += bool(msgs)
        problems += msgs
    return {"wall": wall, "cpu": cpu, "speed": probe.factor, "rss_mb": rss,
            "samples": samples, "items": len(items), "attempted": len(items),
            "failed": failed, "problems": problems}


def run_lemma_verify(items, ref, tracer) -> dict:
    from padicelim import verify

    outputs, samples = [], []
    with SpeedProbe() as probe:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for k, name in enumerate(items):
            if tracer:
                tracer.item = k
            start, probed, mark = time.perf_counter(), probe.total, len(probe.samples)
            try:
                result = verify.VERIFIERS[name]()
            except Exception as exc:  # a sweep that raises fails all its checks
                result = exc
            elapsed = time.perf_counter() - start - probe.total + probed
            outputs.append((name, result))
            # the latency a user sees is that of one whole lemma sweep
            samples.append(elapsed * 1e3 / probe.factor_since(mark))
        wall = time.perf_counter() - wall0 - probe.total
        cpu = time.process_time() - cpu0 - probe.total
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems, failed, attempted, done = [], 0, 0, 0
    for name, result in outputs:
        expected = ref["verify"][name]["checked"]
        attempted += expected
        if isinstance(result, Exception):
            msgs = [f"verify {name} raised {result!r}"]
        else:
            msgs = gate.check_verify(result, ref)
            done += result.checked
        if msgs:
            failed += expected
        problems += msgs
    return {"wall": wall, "cpu": cpu, "speed": probe.factor, "rss_mb": rss,
            "samples": samples, "items": done, "attempted": attempted,
            "failed": failed, "problems": problems}


def run_child(argv: list[str]):
    """Run one request process; return (exit code, stdout, stderr, rusage)."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, err, usage


def check_request(item, code, out, err, ref) -> list[str]:
    kind, p, r, vL = item
    where = " ".join(cli_args(item))
    if kind == "guard":
        lines = err.splitlines()
        if code != 2 or out or len(lines) != 1 or not lines[0].startswith(
                "error: prediction unavailable"):
            return [f"{where}: exit {code}, stderr {err!r}, expected exit 2 and one line"]
        return []
    if code != 0:
        return [f"{where}: exit {code}: {err.strip()[-200:]}"]
    try:
        data = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"{where}: output is not JSON ({exc})"]
    if kind == "predict":
        return gate.check_prediction(data, p, r, ref)
    return gate.check_trace(data, p, r, ref, vL=vL)


def run_cli(items, ref, tracer_path) -> dict:
    outputs, samples, summaries, spans = [], [], [], []
    child_cpu, child_rss = 0.0, 0.0
    # the probe runs in this process while it waits for the request
    # process; both are pinned to one CPU, so the probe samples the CPU the
    # request runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with SpeedProbe() as probe:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for k, item in enumerate(items):
            if tracer_path:
                span_file = f"{tracer_path}-req{k}.json"
                argv = [sys.executable, os.path.join(HERE, "launch.py"), span_file, str(k)]
            else:
                argv = [sys.executable, "-m", "padicelim"]
            start, mark = time.perf_counter(), len(probe.samples)
            code, out, err, usage = run_child(argv + cli_args(item))
            samples.append((time.perf_counter() - start) * 1e3 / probe.factor_since(mark))
            child_cpu += usage.ru_utime + usage.ru_stime
            child_rss = max(child_rss, usage.ru_maxrss / 1024)
            outputs.append((item, code, out, err))
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0 - probe.total + child_cpu
    if tracer_path:
        for k in range(len(items)):
            span_file = f"{tracer_path}-req{k}.json"
            if os.path.exists(span_file):
                with open(span_file) as fh:
                    data = json.load(fh)
                os.remove(span_file)
                summaries.append(data["summary"])
                spans.extend(data["spans"])
    problems, failed = [], 0
    for item, code, out, err in outputs:
        msgs = check_request(item, code, out, err, ref)
        failed += bool(msgs)
        problems += msgs
    return {"wall": wall, "cpu": cpu, "speed": probe.factor, "rss_mb": child_rss,
            "samples": samples,
            "items": len(items), "attempted": len(items), "failed": failed,
            "problems": problems, "summaries": summaries, "spans": spans}


def worker(ns) -> int:
    sys.path.insert(0, SRC)
    import padicelim.cli  # noqa: F401  (the library, every module)

    items = plan(ns.workload, ns.seed, ns.passes)[ns.worker]
    print("ready", flush=True)
    if ns.setup_only:
        return 0
    ref = gate.load_reference()
    name = f"{ns.workload}-seed{ns.seed}-pass{ns.worker}"
    span_path = os.path.join(OUT, name) if ns.traced else None
    if ns.workload == "cli-oneshot":
        report = run_cli(items, ref, span_path)
    else:
        tracer = None
        if ns.traced:
            from tracer import Tracer

            tracer = Tracer().install()
        try:
            runner = run_sweep if ns.workload == "sweep" else run_lemma_verify
            report = runner(items, ref, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            report["summaries"] = [tracer.summary()]
            report["spans"] = tracer.spans
    if span_path:
        with open(f"{span_path}-spans.json", "w") as fh:
            json.dump(report.pop("spans"), fh, separators=(",", ":"))
    report["gate_self_check"] = gate.self_check(ref)
    print(json.dumps(report, separators=(",", ":")), flush=True)
    return 0


# ------------------------------------------------------------------ parent side

def spawn_worker(ns, index: int, passes: int, traced: bool, setup_only: bool, deadline: float):
    """Run one worker; return ((set-up seconds, speed factor), report or None)."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", ns.workload,
            "--seed", str(ns.seed), "--seconds", str(ns.seconds), "--trace", str(ns.trace),
            "--worker", str(index), "--passes", str(passes), "--traced", str(int(traced))]
    if setup_only:
        argv.append("--setup-only")
    timer = None
    try:
        # sample the machine's speed in this process while the worker sets up
        with SpeedProbe() as probe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE,
                                    text=True)
            timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
            timer.start()
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
        speed = probe.factor
        rest = proc.stdout.read()
        proc.wait()
    finally:
        if timer:
            timer.cancel()
            proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        return (setup, speed), None
    if setup_only:
        return (setup, speed), {}
    return (setup, speed), json.loads(rest.strip().splitlines()[-1])


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    fits = [q for q in TAIL_LADDER if n - math.ceil(q / 100 * n) >= 10]
    return fits[-1] if fits else TAIL_LADDER[0]


def run_metadata(ns) -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model, "git_sha": sha, "git_dirty": dirty,
            "workload": ns.workload, "seed": ns.seed, "seconds": ns.seconds, "trace": ns.trace}


def end_to_end(reports, setups) -> tuple[dict, dict]:
    """The end-to-end metrics, every time in reference seconds (see probe.py)."""
    walls = [rep["wall"] / rep["speed"] for rep in reports]
    samples = [s for rep in reports for s in rep["samples"]]
    n = len(samples)
    q = tail_percentile(n)
    metrics = {
        "setup_s": (statistics.median(t / speed for t, speed in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(rep["cpu"] / rep["speed"] for rep in reports), "s"),
        "items_per_s": (sum(rep["items"] for rep in reports) / sum(walls), "1/s"),
        "latency_p50_ms": (percentile(samples, 50), "ms"),
        "latency_tail_ms": (percentile(samples, q), "ms"),
        "peak_rss_mb": (max(rep["rss_mb"] for rep in reports), "MB"),
    }
    info = {"passes": len(reports), "latency_samples": n, "tail_percentile": q,
            "setup_samples": len(setups),
            "speed_factors": [round(rep["speed"], 4) for rep in reports],
            "measured_wall_s": [round(rep["wall"], 4) for rep in reports],
            "measured_setup_s": round(statistics.median(t for t, _ in setups), 4)}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, info


def parent(ns) -> int:
    from tracer import layer_metrics

    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + RUN_DEADLINE_S
    if ns.trace:
        passes = max(1, round(ns.seconds / (2.5 * PASS_SECONDS[ns.workload])))
        schedule = [(i, traced) for i in range(passes) for traced in (False, True)]
    else:
        passes = max(1, round(ns.seconds / PASS_SECONDS[ns.workload]))
        schedule = [(i, False) for i in range(passes)]
    setups, reports, lost = [], [], 0
    extra_setups = 0 if ns.trace else max(0, SETUP_SAMPLES - len(schedule))
    for _ in range(extra_setups):
        setup, report = spawn_worker(ns, 0, passes, False, True, deadline)
        if report is not None:
            setups.append(setup)
    for index, traced in schedule:
        setup, report = spawn_worker(ns, index, passes, traced, False, deadline)
        if report is None:
            lost += 1
            continue
        setups.append(setup)
        report["traced"] = traced
        reports.append(report)
    attempted = sum(rep["attempted"] for rep in reports)
    failed = sum(rep["failed"] for rep in reports)
    problems = [msg for rep in reports for msg in rep["problems"]]
    gate_problems = sorted({msg for rep in reports for msg in rep["gate_self_check"]})
    for msg in (problems + gate_problems)[:20]:
        print(f"problem: {msg}", file=sys.stderr)
    if lost:
        print(f"problem: {lost} worker(s) died or timed out", file=sys.stderr)
    if not reports:
        print("error: no pass completed", file=sys.stderr)
        return 1
    meta = run_metadata(ns)
    correct = not lost and failed == 0 and not gate_problems
    attempted, failed = attempted + lost, failed + lost
    if ns.trace:
        plain = [rep for rep in reports if not rep["traced"]]
        traced = [rep for rep in reports if rep["traced"]]
        overhead = (statistics.median(r["wall"] / r["speed"] for r in traced)
                    / statistics.median(r["wall"] / r["speed"] for r in plain) - 1
                    ) if plain and traced else 0.0
        metrics = layer_metrics([s for rep in traced for s in rep["summaries"]],
                                len(traced), overhead)
        meta.update(passes=len(plain), traced_passes=len(traced),
                    spans_dir=os.path.relpath(OUT, ROOT))
    else:
        metrics, info = end_to_end(reports, setups)
        meta.update(info)
    meta["attempted"], meta["failed"] = attempted, failed
    meta["failed_frac"] = failed / attempted
    meta["gate_self_check"] = "fail" if gate_problems else "pass"
    print("run: " + json.dumps(meta, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<42} {meta['failed_frac']:>14.6g} 1")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--passes", type=int, default=1, help=argparse.SUPPRESS)
    ap.add_argument("--traced", type=int, default=0, help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ns = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "padicelim", "__init__.py")):
        print(f"error: no padicelim sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if not 1 <= ns.seconds <= 600:
        print("error: --seconds must be in [1, 600]", file=sys.stderr)
        return 2
    return worker(ns) if ns.worker is not None else parent(ns)


if __name__ == "__main__":
    sys.exit(main())
