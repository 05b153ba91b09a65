"""Shared fixtures: a (p, n) term table with one term or column changed."""

import dataclasses

import pytest

from padicelim import congruence


def _replaced(terms, j, changes):
    return tuple(dataclasses.replace(t, **changes) if t.j == j else t for t in terms)


def _mutate_table(monkeypatch, n, key, **changes):
    """Give the degree-n term table ``changes`` in its (line, a, j) term, in a fresh table store.

    A line-1 term is its column j scaled by a p-unit a-factor, so a line-1
    key changes column j, and the term moves at every a with it.  The change
    reaches both ``master_terms`` and the audits.  Calls stack: each wraps
    the table builder that the one before it installed.
    """
    original = congruence._build_table
    line, _a, j = key
    if line == 1:
        assert set(changes) == {"slack"}, "a line-1 term is mutated through its column's slack"
    name = "columns" if line == 1 else "line2"

    def mutated(p, m):
        table = original(p, m)
        if m != n:
            return table
        return dataclasses.replace(table, **{name: _replaced(getattr(table, name), j, changes)})

    monkeypatch.setattr(congruence, "_build_table", mutated)
    monkeypatch.setattr(congruence, "_TABLES", {})


@pytest.fixture
def mutate_table():
    """``mutate_table(monkeypatch, n, (line, a, j), **changes)``: see :func:`_mutate_table`."""
    return _mutate_table
