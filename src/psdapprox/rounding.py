"""Rounding-error bounds of float64 arithmetic (Higham 2002, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., ch. 3), for the tolerances of
checks that compare two float engines."""

from __future__ import annotations

# Unit roundoff of float64, round to nearest.
UNIT_ROUNDOFF = 2.0**-53


def gamma(k: int) -> float:
    """``γ_k = k u / (1 - k u)``: a value reached through ``k`` roundings of
    sums and products of non-negative numbers is within ``γ_k`` of the
    exact value, relatively, barring underflow."""
    ku = k * UNIT_ROUNDOFF
    if ku >= 1:
        raise ValueError(f"gamma({k}) is unbounded")
    return ku / (1 - ku)
