"""The benchmark's tracer still finds every name it wraps, and puts each one back.

``perfbench/tracer.py`` wraps library functions and methods by name; a
deleted or renamed one would break only a traced benchmark run.  This test
imports the tracer and only reads it.
"""

import importlib
import sys
from pathlib import Path

import padicelim.cli  # noqa: F401  (loads every traced module)
from padicelim import exactnum, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bindings(tracer) -> dict:
    """Every attribute of every padicelim module, each traced method and each verifier."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if modname == "padicelim" or modname.startswith("padicelim."):
            out.update(((modname, attr), value) for attr, value in vars(module).items())
    for mod, cls_name, meth, _counter in tracer.METHOD_COUNTS:
        cls = getattr(sys.modules[f"padicelim.{mod}"], cls_name)
        out[(cls_name, meth)] = cls.__dict__[meth]
    out.update((("VERIFIERS", lemma), fn) for lemma, fn in verify.VERIFIERS.items())
    return out


def _current(target, attr):
    return target[attr] if isinstance(target, dict) else getattr(target, attr)


def test_install_wraps_every_traced_name_and_uninstall_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # leave no bytecode beside the benchmark's sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracer = importlib.import_module("tracer")
    before = _bindings(tracer)
    t = tracer.Tracer()
    try:
        # a traced name that is gone makes install raise here
        t.install()
        patched = list(t._patched)
        for mod, names in [*tracer.SPANS.items(), *tracer.COUNTS.items()]:
            for name in names:
                home = f"padicelim.{mod}"
                assert getattr(sys.modules[home], name) is not before[(home, name)], (mod, name)
        assert all(_current(target, attr) is not original for target, attr, original in patched)
        exactnum.ValP(1)
        assert t.counts["exactnum.ValP.created"] == 1
    finally:
        t.uninstall()
    assert patched
    assert all(_current(target, attr) is original for target, attr, original in patched)
    after = _bindings(tracer)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
