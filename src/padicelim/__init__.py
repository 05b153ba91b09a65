"""Exact p-adic computer algebra for sub-quotient elimination traces.

The package computes, verifies and replays the combinatorial content behind
a family of mod-p reduction results: Lucas-type congruences, Stirling
numbers, an interpolation coefficient family, homogeneous polynomial
computations over F_p, a master congruence with exact valuation bookkeeping,
and the elimination engine that combines them into a kill trace ending in a
reduction label ind omega2^(r+1).
"""
