"""Reference computations read only by the tests.

``total_with_tail`` sums a mass table with its tail bound, ``pmf_exact`` is
the exact rational table of a finite-support Panjer family,
``recompute_total`` rebuilds a bound report's total from its parts, and
``fraction_dp_masses`` is the exact DP law of a run automaton in ``Fraction``
arithmetic.  The package computes none of these for its own outputs.
"""

import math
from fractions import Fraction

from psdapprox.errors import InvalidFamilyError
from psdapprox.families import PMFTable


def total_with_tail(table: PMFTable):
    """The tabulated mass of ``table`` plus its tail bound: exact for a
    ``Fraction`` table, ``math.fsum`` of the floats otherwise."""
    if table.exact:
        return sum(table.masses) + table.tail_mass_bound
    return math.fsum(table.masses) + table.tail_mass_bound


def pmf_exact(spec) -> PMFTable:
    """The exact rational table of a Panjer family of finite support.

    Its parameters must be exactly representable as rationals of the stored
    floats (constructions like ``binomial_family`` with dyadic p qualify).
    """
    if spec.max_support is None:
        raise InvalidFamilyError("exact tables require finite support")
    a = Fraction(spec.a).limit_denominator(10**12)
    b = Fraction(spec.b).limit_denominator(10**12)
    if float(a) != spec.a or float(b) != spec.b:
        raise InvalidFamilyError("parameters are not exactly rational")
    u = [Fraction(1)]
    for k in range(spec.max_support):
        c = max(a + b * k, Fraction(0))
        u.append(u[-1] * c / (k + 1))
    total = sum(u)
    return PMFTable(0, tuple(x / total for x in u), 0.0)


def recompute_total(report) -> float:
    """The total of a ``BoundReport`` from its parts, by its ``variant``:
    ``crude`` is ``(2 |1-b| g_norm + delta_g) linear``, ``min`` the smaller
    operand, and every other variant ``delta_g (quadratic + linear + tau)``."""
    if report.variant == "crude":
        return (2 * abs(report.one_minus_b) * report.g_norm_factor
                + report.delta_g_factor) * report.term_linear
    if report.variant == "min":
        return min(report.operands["d1"], report.operands["d2"])
    return report.delta_g_factor * (report.term_quadratic + report.term_linear
                                    + report.term_tau)


def fraction_dp_masses(automaton, trial_probs) -> tuple:
    """The exact law of ``automaton``'s count over trials ``trial_probs``,
    each taken as a ``Fraction``: the forward DP over (state, count) on
    ``Fraction`` masses, every count ``0..T`` at every trial, summed over
    the states, with trailing zero masses trimmed (the mass at 0 stays)."""
    probs = [Fraction(p) for p in trial_probs]
    counts = len(probs) + 1
    layer = [[Fraction(0)] * counts for _ in automaton.transitions]
    layer[0][0] = Fraction(1)
    for p in probs:
        new = [[Fraction(0)] * counts for _ in automaton.transitions]
        for s, row in enumerate(automaton.transitions):
            for (nxt, inc), weight in zip(row, (1 - p, p)):
                for c in range(counts - inc):
                    new[nxt][c + inc] += layer[s][c] * weight
        layer = new
    masses = [sum(column) for column in zip(*layer)]
    while len(masses) > 1 and masses[-1] == 0:
        masses.pop()
    return tuple(masses)
