"""The benchmark's correctness gate still accepts what the library emits.

``perfbench/gate.py`` reads predictions through ``trace_from_dict`` and
``to_dict`` and compares them with the digests in ``perfbench/reference.json``;
a change that breaks any of these would show only as a refused benchmark run.
This test imports the gate and only reads it.
"""

import importlib
import json
import sys
from pathlib import Path

from padicelim.cli import emit_report
from padicelim.eliminator import predict, theorem_r_values

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_gate_passes_its_self_check_and_every_prediction_at_p11_and_p13(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # leave no bytecode beside the benchmark's sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    gate = importlib.import_module("gate")
    ref = gate.load_reference()
    assert gate.self_check(ref) == []
    for p in (11, 13):
        for r in theorem_r_values(p):
            data = json.loads(emit_report(predict(p, r), "json"))
            assert gate.check_prediction(data, p, r, ref) == [], (p, r)
