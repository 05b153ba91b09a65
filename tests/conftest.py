"""Shared fixtures: an empty per-prime holder, and a (p, n) congruence with one slack changed."""

import pytest

from padicelim import congruence, exactnum


def _forget_primes(monkeypatch):
    """Empty the per-prime holder; what it held before comes back after the test."""
    monkeypatch.setattr(exactnum, "_KEPT", {})


@pytest.fixture
def no_prime_held(monkeypatch):
    """Nothing held for any prime at the start of the test, and nothing the test holds kept after it."""
    _forget_primes(monkeypatch)


def _mutate_table(monkeypatch, n, key, slack):
    """Give the degree-n congruence ``slack`` in its (line, a, j) term, in a fresh per-prime holder.

    The exact terms of n take the slack (their numerators are left as
    they are), so ``master_terms`` lists it, and the engine's table of n is
    built by ``_Table.of`` from the slacks of those terms, so its slack
    pairs, candidates, misses and generator follow the change: the audits
    and their reference walk of ``master_terms`` see the same congruence.
    A line-1 term is its column j scaled by a p-unit a-factor, so a line-1
    key changes column j, and the term moves at every a with it.  Calls
    stack: each wraps the builders that the one before it installed, and
    empties the per-prime holder, so no table or slack line built before
    it is read.
    """
    exact, build = congruence._exact_terms, congruence._build_table
    line, _a, j = key

    def mutated_terms(p, m):
        j0, columns, factors, line2 = exact(p, m)
        if m == n:
            columns, line2 = (
                tuple(t._replace(slack=slack) if (t.line, t.j) == (line, j) else t for t in terms)
                for terms in (columns, line2)
            )
        return j0, columns, factors, line2

    def mutated_table(p, m):
        if m != n:
            return build(p, m)
        j0, columns, _factors, line2 = congruence._exact_terms(p, m)
        return congruence._Table.of(p, m, j0, [t.slack for t in columns], [t.slack for t in line2])

    monkeypatch.setattr(congruence, "_exact_terms", mutated_terms)
    monkeypatch.setattr(congruence, "_build_table", mutated_table)
    _forget_primes(monkeypatch)


@pytest.fixture
def mutate_table():
    """``mutate_table(monkeypatch, n, (line, a, j), slack)``: see :func:`_mutate_table`."""
    return _mutate_table
