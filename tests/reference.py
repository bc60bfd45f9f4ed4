"""Reference computations read only by the tests.

``total_with_tail`` sums a mass table with its tail bound, ``pmf_exact`` is
the exact rational table of a finite-support Panjer family, and
``recompute_total`` rebuilds a bound report's total from its parts.  The
package computes none of these for its own outputs.
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
