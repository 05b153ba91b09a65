"""Shared fixtures: an empty per-prime holder, and a (p, n) term table with one term or column changed."""

import pytest

from padicelim import congruence, exactnum


def _forget_primes(monkeypatch):
    """Empty the per-prime holder; what it held before comes back after the test."""
    monkeypatch.setattr(exactnum, "_KEPT", {})


@pytest.fixture
def no_prime_held(monkeypatch):
    """Nothing held for any prime at the start of the test, and nothing the test holds kept after it."""
    _forget_primes(monkeypatch)


def _replaced(terms, j, changes):
    return tuple(t._replace(**changes) if t.j == j else t for t in terms)


def _mutate_table(monkeypatch, n, key, **changes):
    """Give the degree-n term table ``changes`` in its (line, a, j) term, in a fresh table store.

    A line-1 term is its column j scaled by a p-unit a-factor, so a line-1
    key changes column j, and the term moves at every a with it.  The
    tampered table is built by ``_Table.of``, as ``_build_table`` builds
    every table, so its slack pairs, candidates, misses and generator
    follow the change: a plain ``_replace`` of the table would leave them
    stale.  The change reaches both ``master_terms`` and the audits.  Calls
    stack: each wraps the table builder that the one before it installed,
    and empties the per-prime holder, so no table or slack line built
    before it is read.
    """
    original = congruence._build_table
    line, _a, j = key
    if line == 1:
        assert set(changes) == {"slack"}, "a line-1 term is mutated through its column's slack"

    def mutated(p, m):
        table = original(p, m)
        if m != n:
            return table
        columns, line2 = table.columns, table.line2
        if line == 1:
            columns = _replaced(columns, j, changes)
        else:
            line2 = _replaced(line2, j, changes)
        return congruence._Table.of(p, m, table.j0, columns, table.factors, line2)

    monkeypatch.setattr(congruence, "_build_table", mutated)
    _forget_primes(monkeypatch)


@pytest.fixture
def mutate_table():
    """``mutate_table(monkeypatch, n, (line, a, j), **changes)``: see :func:`_mutate_table`."""
    return _mutate_table
