"""Outside-in tracer for padicelim.

The tracer changes no library code.  ``Tracer.install()`` replaces every
module attribute that binds one of the traced public functions with a
wrapper, in every loaded ``padicelim`` module, so a function imported by
name elsewhere (``audit_good`` in ``eliminator``, ``predict`` in ``cli``) or
looked up lazily (``shallow_kill_check`` inside ``run_elimination``) is seen
too.  ``uninstall()`` puts the originals back.

Two kinds of wrapper:

* a *span* records (name, start, end, parent span, item id); spans are kept
  in memory and written out by the caller when the run ends;
* a *count* only increments a counter.  The hot leaves (``vp_int``,
  ``stirling2``, ``ValP.__init__`` and the F_p polynomial primitives) are
  count-only: timing them roughly doubles their cost and distorts the
  layers above them.

``layer_metrics`` turns the summaries of one or more processes into the
per-layer metrics listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import json
import sys
import time

SPANS = {
    "congruence": ("master_terms", "audit_good", "audit_bad", "audit_ugly",
                   "make_params", "star_full", "inequality_suite"),
    "fp_poly": ("shallow_kill_check", "shallow_summand", "pure_y_defect"),
    "combinat": ("binom_mod_p2", "stirling_lucas_check"),
    "lambda_solver": ("solve_lambda", "lambda_closed", "verify_lambda"),
    "eliminator": ("run_elimination",),
    "cli": ("main", "emit_report"),
}
COUNTS = {
    "congruence": ("star_mod_p2",),
    "exactnum": ("vp_int", "harmonic"),
    "fp_poly": ("act", "theta"),
    "combinat": ("stirling2",),
    "eliminator": ("predict",),
}
# (home module, class, method, counter name)
METHOD_COUNTS = (
    ("exactnum", "ValP", "__init__", "exactnum.ValP.created"),
    ("fp_poly", "HPoly", "__mul__", "fp_poly.HPoly.mul.calls"),
)
LEMMAS = ("lucas2", "stirling-lucas", "lambda", "shallow", "star",
          "inequalities", "vl-independence")


def _layer_metrics() -> tuple[tuple[str, str, str], ...]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []

    def add(name, unit, better="lower"):
        out.append((name, unit, better))

    add("congruence.master_terms.calls", "count")
    add("congruence.master_terms.s", "s")
    add("congruence.master_terms.terms", "count")
    add("congruence.master_terms.distinct_pn", "count")
    add("congruence.master_terms.reuse_ratio", "ratio", "higher")
    for audit in ("audit_good", "audit_bad", "audit_ugly"):
        add(f"congruence.{audit}.calls", "count")
        add(f"congruence.{audit}.self_s", "s")
    add("congruence.audit.failed", "count")
    add("congruence.make_params.calls", "count")
    add("congruence.make_params.s", "s")
    add("congruence.star_full.calls", "count")
    add("congruence.star_full.s", "s")
    add("congruence.star_mod_p2.calls", "count")
    add("congruence.inequality_suite.calls", "count")
    add("congruence.inequality_suite.s", "s")
    add("exactnum.ValP.created", "count")
    add("exactnum.vp_int.calls", "count")
    add("exactnum.harmonic.calls", "count")
    add("fp_poly.shallow_kill_check.calls", "count")
    add("fp_poly.shallow_kill_check.self_s", "s")
    add("fp_poly.shallow_summand.calls", "count")
    add("fp_poly.shallow_summand.s", "s")
    add("fp_poly.pure_y_defect.calls", "count")
    add("fp_poly.pure_y_defect.s", "s")
    add("fp_poly.act.calls", "count")
    add("fp_poly.theta.calls", "count")
    add("fp_poly.HPoly.mul.calls", "count")
    add("combinat.stirling2.calls", "count")
    for fn in ("binom_mod_p2", "stirling_lucas_check"):
        add(f"combinat.{fn}.calls", "count")
        add(f"combinat.{fn}.s", "s")
    for fn in ("solve_lambda", "lambda_closed", "verify_lambda"):
        add(f"lambda_solver.{fn}.calls", "count")
        add(f"lambda_solver.{fn}.s", "s")
    for lemma in LEMMAS:
        add(f"verify.{lemma}.s", "s")
        add(f"verify.{lemma}.checked", "count", "higher")
    add("eliminator.run_elimination.calls", "count")
    add("eliminator.run_elimination.self_s", "s")
    add("eliminator.predict.calls", "count")
    add("cli.main.calls", "count")
    add("cli.main.s", "s")
    add("cli.emit_report.calls", "count")
    add("cli.emit_report.s", "s")
    add("cli.emit_report.bytes", "B")
    add("trace.overhead_frac", "ratio")
    return tuple(out)


LAYER_METRICS = _layer_metrics()


class Tracer:
    """Spans and counters for one process; install, run, uninstall, summarise."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = {}
        self.item = -1
        self.terms = 0
        self.audit_failed = 0
        self.emit_bytes = 0
        self.checked: dict[str, int] = {}
        self.pn: set[tuple[int, int]] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- wrappers

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_master_terms(self, args, result):
        params = args[0]
        self.terms += len(result)
        self.pn.add((params.p, params.n))

    def _after_audit(self, args, result):
        if not result.passed:
            self.audit_failed += 1

    def _after_emit(self, args, result):
        self.emit_bytes += len(result.encode())

    # ---------------------------------------------------------- patching

    def _patch_everywhere(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != "padicelim" and not modname.startswith("padicelim."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> "Tracer":
        import padicelim.cli  # noqa: F401  (loads every traced module)
        from padicelim import verify

        mods = {name: sys.modules[f"padicelim.{name}"] for name in
                ("congruence", "fp_poly", "combinat", "lambda_solver",
                 "eliminator", "cli", "exactnum")}
        after = {"master_terms": self._after_master_terms,
                 "audit_good": self._after_audit,
                 "audit_bad": self._after_audit,
                 "audit_ugly": self._after_audit,
                 "emit_report": self._after_emit}
        for mod, names in SPANS.items():
            for fn_name in names:
                original = getattr(mods[mod], fn_name)
                wrapper = self._span(f"{mod}.{fn_name}", original, after.get(fn_name))
                self._patch_everywhere(original, wrapper)
        for mod, names in COUNTS.items():
            for fn_name in names:
                original = getattr(mods[mod], fn_name)
                self._patch_everywhere(original, self._count(f"{mod}.{fn_name}.calls", original))
        for mod, cls_name, meth, counter in METHOD_COUNTS:
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, self._count(counter, original))
        for lemma, original in list(verify.VERIFIERS.items()):
            def after_verify(args, result, lemma=lemma):
                self.checked[lemma] = self.checked.get(lemma, 0) + result.checked
            wrapper = self._span(f"verify.{lemma}", original, after_verify)
            self._patch_everywhere(original, wrapper)
            self._patched.append((verify.VERIFIERS, lemma, original))
            verify.VERIFIERS[lemma] = wrapper
        return self

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patched.clear()

    # ---------------------------------------------------------- output

    def summary(self) -> dict:
        """Counts, per-name span totals and extras, as plain JSON data."""
        return {
            "spans": span_totals(self.spans),
            "counts": self.counts,
            "terms": self.terms,
            "distinct_pn": len(self.pn),
            "audit_failed": self.audit_failed,
            "emit_bytes": self.emit_bytes,
            "checked": self.checked,
        }

    def write(self, path: str) -> None:
        """Write the raw spans and the summary."""
        with open(path, "w") as fh:
            json.dump({"summary": self.summary(), "spans": self.spans}, fh,
                      separators=(",", ":"))


def span_totals(spans) -> dict[str, list[float]]:
    """name -> [calls, inclusive seconds, self seconds] over a span list."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _item in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, list[float]] = {}
    for idx, (name, start, end, _parent, _item) in enumerate(spans):
        row = totals.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[idx]
    return totals


def layer_metrics(summaries: list[dict], passes: int, overhead_frac: float) -> dict:
    """Per-layer metrics per pass from the summaries of ``passes`` traced passes.

    Counts are summed over processes and divided by ``passes``; every traced
    pass runs the same items, so the quotient is exact.  ``distinct_pn`` is
    counted per process (a cache lives in one process) and summed.
    """
    counts: dict[str, float] = {}
    spans: dict[str, list[float]] = {}
    extra = {"terms": 0, "distinct_pn": 0, "audit_failed": 0, "emit_bytes": 0}
    checked: dict[str, int] = {}
    for snap in summaries:
        for name, n in snap["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, row in snap["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += row[k]
        for key in extra:
            extra[key] += snap[key]
        for lemma, n in snap["checked"].items():
            checked[lemma] = checked.get(lemma, 0) + n

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    values: dict[str, float] = {}
    for name, _unit, _better in LAYER_METRICS:
        head, _, stat = name.rpartition(".")
        if name in counts:
            values[name] = counts[name]
        elif stat == "calls":
            values[name] = calls(head)
        elif stat == "s":
            values[name] = spans.get(head, [0, 0.0, 0.0])[1]
        elif stat == "self_s":
            values[name] = spans.get(head, [0, 0.0, 0.0])[2]
        else:
            values[name] = 0
    mt_calls = calls("congruence.master_terms")
    values["congruence.master_terms.terms"] = extra["terms"]
    values["congruence.master_terms.distinct_pn"] = extra["distinct_pn"]
    values["congruence.master_terms.reuse_ratio"] = (
        1 - extra["distinct_pn"] / mt_calls if mt_calls else 0.0
    )
    values["congruence.audit.failed"] = extra["audit_failed"]
    values["cli.emit_report.bytes"] = extra["emit_bytes"]
    for lemma in LEMMAS:
        values[f"verify.{lemma}.checked"] = checked.get(lemma, 0)
    out = {}
    for name, unit, _better in LAYER_METRICS:
        value = values[name]
        if name != "congruence.master_terms.reuse_ratio":
            value = value / passes
        if unit in ("count", "B"):
            value = int(value) if value == int(value) else value
        out[name] = {"value": value, "unit": unit}
    out["trace.overhead_frac"] = {"value": overhead_frac, "unit": "ratio"}
    return out
