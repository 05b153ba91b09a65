"""The JSON form of traces and predictions built as plain dicts: the tests' reference.

``eliminator.trace_json`` writes the JSON text directly and ``to_dict`` reads
it back, so both are compared with these dicts, built field by field as
``json.dumps`` would see them.
"""

import json

from padicelim.eliminator import ReductionResult


def slack_window(entry):
    """The slack pairs a row writes: its table's pairs inside r's window, ``slack_table[slack_start:]``."""
    return entry.slack_table[entry.slack_start:]


def reference_dict(obj):
    """The JSON form of a trace, a prediction or a sweep (a list of predictions)."""
    if isinstance(obj, list):
        return [reference_dict(res) for res in obj]
    if isinstance(obj, ReductionResult):
        data = reference_dict(obj.trace)
        data["prediction"] = {
            "label": obj.label,
            "exponent": obj.exponent,
            "irreducibility": {
                "residue": obj.irreducibility_residue,
                "excluded": list(obj.excluded_residues),
            },
        }
        return data
    return {
        "p": obj.p,
        "r": obj.r,
        "c": obj.c,
        "vL": str(obj.vL),
        "subquotients": [
            {
                "i": e.i,
                "j": obj.r - e.i,
                "status": "survivor" if e.method is None else "killed",
                "method": e.method,
                "witness_n": list(e.witness_n) if e.witness_n is not None else None,
                "slack_table": {str(j): s for j, s in slack_window(e)} if e.slack_table is not None else None,
            }
            for e in obj.entries
        ],
    }


def reference_json(obj) -> str:
    """The JSON text of a trace, a prediction or a sweep, as json.dumps writes the reference dicts."""
    return json.dumps(reference_dict(obj), indent=2, sort_keys=True)
