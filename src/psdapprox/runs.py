"""Closed-form machinery for overlapping 2-runs and (k1,k2)-runs.

Both models are 1-dependent Bernoulli-block sequences over independent
trials: the 2-runs count sums ``X_i = trial_i * trial_{i+1}`` over ``n+1``
trials, and the (k1,k2)-runs count sums block variables built from
occurrences of ``k1`` failures followed by ``k2`` successes over
``(n+1)(k1+k2-1)`` trials.  Each model builds, once, the pattern automaton
that counts it and its block length ``m`` (1 for 2-runs).  Both are 0/1
summands, so one formula,
:func:`sequences.neighborhood_moment_set`, gives their neighborhood moments from the
per-index ``E X_i``, ``E X_i X_{i+1}`` and ``E X_i X_{i+1} X_{i+2}``
(certified against enumeration elsewhere); the (k1,k2) model's come from its
``window_probs``, the float64 array of its window occurrence probabilities,
built once, which the occurrence-probability precondition also reads.  Each
model's closed-form bound is ``bounds.bound_d1`` over that moment set with the
model's uncapped smoothing constants, which the model's
``closed_form_bound(spec)`` returns.  The module also supplies those
constants, each model's ``n`` of them as one read-only float64 array and a
tuple of their labels from ``smoothing_constants()``, each model's exact
theorem 3.1 terms from the shared ``conditional_terms()`` (the imbedding
engine of :mod:`psdapprox.imbedding` over the model's automaton, at any
``n``), moment-matched target fitting, and the published comparison table.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .bounds import BoundReport, SmoothingEstimate, bound_d1, build_smoothing, m_star
from .errors import NBFitError, PreconditionError
from .families import PanjerPSD, negative_binomial_family
from .imbedding import ImbeddedConditionalTerms, window_layers
from .oracle import RunAutomaton, k1k2_automaton, two_runs_automaton
from .sequences import (
    DependentSequence,
    MomentSet,
    model_args,
    neighborhood_moment_set,
    read_only,
    register_model,
)


# -- shared by both models: 1-dependent 0/1 summands -------------------------------


def _closed_form_bound(moments: MomentSet, c: np.ndarray, labels: tuple, spec, term_weights,
                       c_constant) -> BoundReport:
    """``bound_d1`` with a model's uncapped smoothing constants, as ``closed-form``.

    ``c`` and ``labels`` hold each index's constant and its method; the
    model's own validity replaces the generic ``n >= 6``.  ``moment_terms``
    holds the per-index quadratic and linear summands, one row per index,
    each times ``term_weights``, one weight or one per index.
    """
    d1 = bound_d1(moments, SmoothingEstimate(c, c, labels), spec, allow_small_n=True)
    half = abs(d1.one_minus_b) / 2
    quad, lin = moments.smoothing_weights()
    terms = read_only(np.column_stack((term_weights * half * quad, term_weights * lin)))
    return replace(d1, variant="closed-form", smoothing=None, moment_terms=terms,
                   c_constant=c_constant)


class _RunsModel(DependentSequence):
    """A runs count: occurrences of one pattern, counted by ``automaton`` over
    the trials, summed in blocks of ``m`` windows per index."""

    automaton: RunAutomaton
    m: int

    def conditional_terms(self) -> ImbeddedConditionalTerms:
        return ImbeddedConditionalTerms(self.automaton, self.trial_probs, self.n, self.m)


# -- 2-runs model -------------------------------------------------------------------


class TwoRunsModel(_RunsModel):
    """Overlapping success pairs in ``n+1`` independent Bernoulli trials.

    The standing assumption of the run bounds is ``p_i <= 1/2`` for every
    trial; violations are flagged on the instance, and the smoothing constants,
    and so ``d1``, ``min`` and the closed form, refuse them (the published
    constant is stated for those trials only).
    """

    def __init__(self, p: Sequence[float]):
        if len(p) < 2:
            raise ValueError("need at least two trials")
        super().__init__(p, n=len(p) - 1, kind="two-runs")
        self.assumption_ok = bool(np.all(self.trial_probs <= 0.5))
        self.automaton = two_runs_automaton()
        self.m = 1

    def x_columns(self, bits: np.ndarray) -> np.ndarray:
        return bits[:, :-1] * bits[:, 1:]

    def x_scalar(self, bits: tuple) -> tuple:
        return tuple(bits[i] * bits[i + 1] for i in range(self.n))

    def trial_span(self, i: int) -> range:
        return range(i - 1, i + 1)

    # closed forms, registered for the moment-provider interface
    def closed_form_moments(self) -> MomentSet:
        return self._cached("moments", lambda: two_runs_moment_set(self))

    def smoothing_constants(self) -> tuple:
        if not self.assumption_ok:
            raise PreconditionError("trial probabilities must satisfy p_i <= 1/2")
        cbar, label = two_runs_cbar_parts(self.n)  # the same at every index
        return read_only(np.full(self.n, cbar)), (label,) * self.n

    def closed_form_bound(self, spec: PanjerPSD) -> BoundReport:
        return two_runs_bound(self, spec)


register_model("two-runs", lambda obj: TwoRunsModel(*model_args(obj)))


def _trial_products(model: TwoRunsModel) -> list:
    """``E X_i``, ``E X_i X_{i+1}``, ``E X_i X_{i+1} X_{i+2}`` of the 2-runs
    summands: products of 2, 3 and 4 consecutive trials, zero past ``n``."""
    p = model.trial_probs
    out, prod = [], p
    for shift in (1, 2, 3):
        prod = prod[:-1] * p[shift:]
        out.append(np.pad(prod, (0, model.n - len(prod))))
    return out


def two_runs_moment_set(model: TwoRunsModel) -> MomentSet:
    """Full closed-form moment set (no enumeration)."""
    return neighborhood_moment_set(*_trial_products(model))


def two_runs_cbar_parts(n: int) -> tuple:
    """Smoothing constant with provenance: (value, winning-conditioning)."""
    if n < 8:
        raise PreconditionError(
            f"smoothing constant stated for n >= 8 (got n={n})"
        )
    even_arg = (m_star(n) - 3) ** -0.5
    odd_arg = (n // 2 - 3) ** -0.5
    if even_arg <= odd_arg:
        return 4 * even_arg, "roellin-even"
    return 4 * odd_arg, "roellin-odd"


def two_runs_cbar(n: int) -> float:
    """``4 min{(m*-3)^{-1/2}, (floor(n/2)-3)^{-1/2}}`` for ``n >= 8``."""
    return two_runs_cbar_parts(n)[0]


def two_runs_var(n: int, p: float) -> float:
    """Variance of the iid 2-runs count: ``np^2(1-p^2) + 2(n-1)(p^3-p^4)``."""
    return n * p**2 * (1 - p**2) + 2 * (n - 1) * (p**3 - p**4)


def nb_fit_from_moments(mean: float, var: float) -> PanjerPSD:
    """Negative binomial with the given first two moments (``var > mean``)."""
    if var <= mean or mean <= 0:
        raise NBFitError(f"need var > mean > 0, got mean={mean}, var={var}")
    pbar = mean / var
    alpha = mean * pbar / (1 - pbar)
    return negative_binomial_family(alpha, pbar)


def nb_moment_match_2runs(n: int, p: float) -> PanjerPSD:
    """Two-moment NB fit of the iid 2-runs count."""
    if not 0 < p <= 0.5:
        raise PreconditionError("fit stated for 0 < p <= 1/2")
    return nb_fit_from_moments(n * p**2, two_runs_var(n, p))


def two_runs_bound(model: TwoRunsModel, spec: PanjerPSD) -> BoundReport:
    """Model-specialized bound: ``|Dg| { cbar(n) sum_i [(|1-b|/2)(a1 abar1 +
    abar2) + abar3] + |tau(1-b)| }``; requires ``n >= 8``, trials <= 1/2, and
    matched first moments.  ``moment_terms`` holds the per-index summands
    before the factor ``cbar``."""
    cs, labels = model.smoothing_constants()  # enforces trials <= 1/2 and n >= 8
    return _closed_form_bound(model.closed_form_moments(), cs, labels, spec,
                              term_weights=1.0, c_constant=cs[0])


def nb_bound_closed_form(n: int, p: float) -> float:
    """Published closed form ``4p (floor(n/2)-3)^{-1/2} (4 + 11p + 4p^2 - p^3)``.

    Distance of the iid 2-runs count to its two-moment NB fit, for
    ``n >= 8`` and ``p <= 1/2``.  The denominator follows the published
    numeric table, whose odd-n cells use ``floor(n/2) - 3`` (for even n this
    coincides with the odd-index count minus three).
    """
    if n < 8:
        raise PreconditionError(f"closed form stated for n >= 8 (got n={n})")
    if not 0 <= p <= 0.5:
        raise PreconditionError("closed form stated for p <= 1/2")
    return 4 * p / math.sqrt(n // 2 - 3) * (4 + 11 * p + 4 * p**2 - p**3)


def brown_xia_bound(n: int, p: float) -> float:
    """Comparison bound ``32.2 p / sqrt((n-1)(1-p)^3)``, ``n >= 2, p < 2/3``."""
    if n < 2:
        raise PreconditionError(f"comparison bound stated for n >= 2 (got n={n})")
    if not 0 <= p < 2 / 3:
        raise PreconditionError("comparison bound stated for p < 2/3")
    return 32.2 * p / math.sqrt((n - 1) * (1 - p) ** 3)


# The published 18-cell comparison, as printed (6 decimals).  Keys are
# (n, p); values are (closed-form bound, comparison bound).
TABLE1_PRINTED = {
    (20, 0.05): ("0.344694", "0.398900"),
    (20, 0.07): ("0.506847", "0.576571"),
    (20, 0.09): ("0.683285", "0.765878"),
    (25, 0.05): ("0.303992", "0.354924"),
    (25, 0.07): ("0.446997", "0.513008"),
    (25, 0.09): ("0.602601", "0.681445"),
    (30, 0.05): ("0.263265", "0.322880"),
    (30, 0.07): ("0.387111", "0.466692"),
    (30, 0.09): ("0.521867", "0.619922"),
    (35, 0.11): ("0.618205", "0.723476"),
    (35, 0.13): ("0.763728", "0.884669"),
    (35, 0.15): ("0.919907", "1.057010"),
    (40, 0.11): ("0.561012", "0.675509"),
    (40, 0.13): ("0.693072", "0.826015"),
    (40, 0.15): ("0.834802", "0.986930"),
    (50, 0.11): ("0.493157", "0.602650"),
    (50, 0.13): ("0.609244", "0.736923"),
    (50, 0.15): ("0.733832", "0.880482"),
}


def table1() -> list:
    """Both bounds on the published grid: rows ``(n, p, ours, comparison)``."""
    return [
        (n, p, nb_bound_closed_form(n, p), brown_xia_bound(n, p)) for n, p in TABLE1_PRINTED
    ]


def table1_mismatches(rows: Optional[list] = None) -> list:
    """Rows whose 6-decimal rendering differs from the printed table."""
    if rows is None:
        rows = table1()
    bad = []
    for n, p, ours, cmp_val in rows:
        want = TABLE1_PRINTED[(n, p)]
        got = (f"{ours:.6f}", f"{cmp_val:.6f}")
        if got != want:
            bad.append((n, p, got, want))
    return bad


# -- (k1,k2)-runs model ------------------------------------------------------------


class K1K2Model(_RunsModel):
    """Blocks of (k1 failures, k2 successes) occurrences, 1-dependent by design.

    ``(n+1) m`` trials with ``m = k1+k2-1``; window ``j`` (of ``nm``) spans
    trials ``j..j+m``, and block ``i`` sums windows ``(i-1)m+1..im``.  Block
    variables are 0/1 because occurrences closer than ``m`` cannot coexist.
    ``window_probs`` holds the occurrence probability of window ``j`` at
    ``j-1``: :meth:`window` on the trial probabilities, for all ``nm``
    windows at once, built in the constructor and read-only.  Moments have
    closed forms over it and the smoothing constants a DP over at most
    ``4m`` trials per index, on ``imbedding.window_layers``, so no bound path
    enumerates the trial space and ``k1+k2`` is not limited.
    """

    def __init__(self, k1: int, k2: int, n: int, p: Sequence[float]):
        if k1 < 1 or k2 < 1:
            raise ValueError("k1 and k2 must be positive")
        if n < 1:
            raise ValueError("n must be positive")
        m = k1 + k2 - 1
        if len(p) != (n + 1) * m:
            raise ValueError(
                f"need (n+1)(k1+k2-1) = {(n + 1) * m} trial probabilities, got {len(p)}"
            )
        super().__init__(p, n=n, kind="k1k2-runs", params={"k1": k1, "k2": k2, "n": n})
        self.k1 = k1
        self.k2 = k2
        self.m = m
        self.automaton = k1k2_automaton(k1, k2)
        # Row r of the view holds trials r+1..r+nm, so window 1 of the view is
        # every window at once, by the float operations of window() itself.
        shifted = np.lib.stride_tricks.sliding_window_view(self.trial_probs, n * m)
        self.window_probs = read_only(self.window(shifted, 1))

    def window(self, trials, j: int):
        """``(1-t_j)...(1-t_{j+k1-1}) t_{j+k1}...t_{j+k1+k2-1}`` for window ``j``
        (1-based), multiplied in trial order.

        On a tuple of 0/1 trials this is the occurrence indicator of window
        ``j``; on the bit columns of many outcomes, the column of indicators;
        on the trial probabilities, the occurrence probability.
        """
        val = 1
        for off in range(self.k1 + self.k2):
            t = trials[j - 1 + off]
            val = val * (1 - t if off < self.k1 else t)
        return val

    def x_columns(self, bits: np.ndarray) -> np.ndarray:
        # As in the constructor, window 1 of the view is every window at once,
        # a (rows, nm) matrix of bits; block i adds its m windows.
        view = np.lib.stride_tricks.sliding_window_view(bits.T, self.n * self.m, axis=0)
        y = self.window(view, 1)
        return sum(y[:, q :: self.m] for q in range(self.m))

    def x_scalar(self, bits: tuple) -> tuple:
        return tuple(
            sum(self.window(bits, j) for j in range((i - 1) * self.m + 1, i * self.m + 1))
            for i in range(1, self.n + 1)
        )

    def trial_span(self, i: int) -> range:
        """Windows ``(i-1)m+1..im`` read trials ``(i-1)m..(i+1)m-1``, 0-based."""
        return range((i - 1) * self.m, (i + 1) * self.m)

    def closed_form_moments(self) -> MomentSet:
        return self._cached("moments", lambda: k1k2_moment_set(self))

    def smoothing_constants(self) -> tuple:
        return k1k2_ci_star_parts(self)

    def closed_form_bound(self, spec: PanjerPSD) -> BoundReport:
        return k1k2_bound(self, spec)


register_model("k1k2-runs", lambda obj: K1K2Model(*model_args(obj, "k1", "k2", "n")))


def window_probability(model: K1K2Model, j: int) -> float:
    """Occurrence probability ``a(p_j)`` of window ``j`` (1-based), 0 off-range."""
    if not 1 <= j <= model.n * model.m:
        return 0.0
    return float(model.window_probs[j - 1])


def _block_moments(model: K1K2Model) -> tuple:
    """``(mean, pair, triple)``: the per-block ``E X_i``, ``E(X_i X_{i+1})``
    and ``E(X_i X_{i+1} X_{i+2})``, zero where an index passes ``n``.

    All three read the model's ``window_probs``.  A block's mean is the
    ``fsum`` of its windows.  Windows closer than ``m+1`` cannot both fire,
    so a pair sums over ``l1`` in block ``i`` and ``l2 >= l1+m+1`` in block
    ``i+1``, each pair counted once, and a triple over windows with pairwise
    gap > m in the same way.  The innermost sum of each is one ``fsum``.
    """
    a = model.window_probs.tolist()  # window j at a[j - 1]
    n, m = model.n, model.m
    mean = [math.fsum(a[(i - 1) * m : i * m]) for i in range(1, n + 1)]
    pair, triple = [0.0] * n, [0.0] * n
    for i in range(1, n):
        total = 0.0
        for l1 in range((i - 1) * m + 1, i * m):
            total += a[l1 - 1] * math.fsum(a[l1 + m : (i + 1) * m])
        pair[i - 1] = total
    for i in range(1, n - 1):
        total = 0.0
        for l1 in range((i - 1) * m + 1, i * m):
            a1v = a[l1 - 1]
            if a1v == 0.0:
                continue
            for l2 in range(l1 + m + 1, (i + 1) * m):
                a2v = a[l2 - 1]
                if a2v == 0.0:
                    continue
                total += a1v * a2v * math.fsum(a[l2 + m : (i + 2) * m])
        triple[i - 1] = total
    return mean, pair, triple


def k1k2_moment_set(model: K1K2Model) -> MomentSet:
    """Closed-form moment set from the block means, pairs and triples."""
    return neighborhood_moment_set(*_block_moments(model))


def conditional_zero_max(model: K1K2Model, ell: int) -> float:
    """``max over neighbor-block values of P(X_ell = 0 | those values)``.

    Exact, by the forward DP of ``imbedding.window_layers`` (Markov-chain
    imbedding) over the radius-1 window, blocks ``ell-1..ell+1`` clipped at
    the ends, from state 0 ``m`` trials before it: at most ``4m`` trials.
    The state is the pattern automaton's match length and the 0/1 value of
    each block; an occurrence ending at trial ``t`` belongs to the block of
    window ``t-m``.  The max runs over attainable neighbor values.  The
    first call runs that DP for every index of the model, batched across
    the indices whose windows have the same shape, and caches all ``n``
    values; the cost is ``O(n m (k1+k2))`` per model, for any ``k1+k2``.
    """
    if not 1 <= ell <= model.n:
        raise ValueError(f"index {ell} outside 1..{model.n}")
    return model._cached("cond_zero", lambda: _conditional_zero_table(model))[ell]


def _conditional_zero_table(model: K1K2Model) -> dict:
    """:func:`conditional_zero_max` at every index, keyed by index."""
    start = np.eye(model.automaton.n_states)[0]  # state 0, m trials before the window
    out = {}
    for ells, blocks, pos, layer in window_layers(model.automaton, model.trial_probs,
                                                  model.n, model.m, 1, start, model.m):
        joint = layer.sum(axis=1)  # law of the block values, per index
        codes, ell_bit = np.arange(1 << blocks), 1 << pos
        others = codes[(codes & ell_bit) == 0]
        numer = joint[:, others]  # X_ell = 0, per neighbor values
        denom = numer + joint[:, others | ell_bit]
        ratio = np.divide(numer, denom, out=np.full_like(numer, -np.inf), where=denom > 0)
        out.update(zip(ells, ratio.max(axis=1).tolist()))
    return out


def _k1k2_check_conditions(model: K1K2Model):
    """Refuse instances outside the stated validity."""
    if model.n < 3 * model.m:
        raise PreconditionError(
            f"stated validity requires n >= 3m = {3 * model.m} (got n={model.n})"
        )
    worst = float(model.window_probs.max())
    if worst > 1 / 3 + 1e-12:
        raise PreconditionError(
            f"stated validity requires every occurrence probability <= 1/3 "
            f"(max is {worst:.6f})"
        )


def k1k2_ci_star_parts(model: K1K2Model) -> tuple:
    """Smoothing constants ``c*_i(n)`` at every index, with the winning
    conditioning labels: ``(values, labels)``.

    ``c*_i`` is the ``min`` of the even- and odd-conditioning values
    ``2 (min{1, sum_j (1 - cond-zero-max of the remaining summand)}/2)^{-1/2}``,
    where the sums run over summands whose index is farther than 2 from
    ``i``.  Degenerate smoothing information (empty or forced-zero sums)
    yields ``inf``.  The summands are exact integers over a common
    power-of-two denominator, so each parity's sum at ``i`` is its total
    less the at most three summands near ``i``, and rounds once (``int /
    int`` is correctly rounded) to the fsum of the rest, exactly to 0 when
    it is 0.  All ``n`` constants cost ``O(n)`` in total.
    """
    _k1k2_check_conditions(model)
    n = model.n
    ratios = [(1.0 - conditional_zero_max(model, ell)).as_integer_ratio()
              for ell in range(1, n + 1)]
    scale = max(den for _, den in ratios)  # a power of two
    nums = [0, 0] + [num * (scale // den) for num, den in ratios] + [0, 0]  # ell at ell + 1
    totals = {first: sum(nums[first + 1 :: 2]) for first in (1, 2)}

    def value(first: int, i: int) -> float:
        # The summands first, first + 2, ... remain, less those within 2 of i.
        near = nums[i - 1 + (i - first) % 2 : i + 4 : 2]
        s = min(1.0, (totals[first] - sum(near)) / scale)
        return math.inf if s <= 0 else 2.0 * (0.5 * s) ** -0.5

    values, labels = [], []
    for i in range(1, n + 1):
        v_even, v_odd = value(1, i), value(2, i)  # odd, even summands remain
        values.append(min(v_even, v_odd))
        labels.append("roellin-even" if v_even <= v_odd else "roellin-odd")
    return read_only(values), tuple(labels)


def k1k2_bound(
    model: K1K2Model,
    spec: PanjerPSD,
) -> BoundReport:
    """Model-specialized bound ``|Dg| { sum_i c*_i(n) [(|1-b|/2)(a* a1* + a2*)
    + a3*] + |tau(1-b)| }``; requires ``n >= 3m``, occurrence probabilities
    <= 1/3, matched first moments, and a finite ``c*_i`` at every index with
    nonzero weight (every (1,1) model with an occurrence fails the last)."""
    _k1k2_check_conditions(model)
    moments = model.closed_form_moments()
    quad, lin = moments.smoothing_weights()
    weighted = (quad != 0.0) | (lin != 0.0)
    values, labels = k1k2_ci_star_parts(model)
    # An index with nothing to weight gets c = 0 instead of its constant,
    # which may be inf on degenerate instances (and inf * 0 is NaN).
    cs = read_only(np.where(weighted, values, 0.0))
    labels = tuple(label if w else "zero-weight" for label, w in zip(labels, weighted.tolist()))
    infinite = np.flatnonzero(cs == math.inf)
    if len(infinite):
        vacuous = int(infinite[0]) + 1
        raise PreconditionError(
            f"c*_{vacuous} is infinite at index {vacuous} of nonzero weight: the model "
            "gives no smoothing information there, so the closed-form bound is vacuous")
    return _closed_form_bound(moments, cs, labels, spec, term_weights=cs, c_constant=cs)


# Former name of ``build_smoothing``, still bound by the benchmark's spans.
smoothing_from_runs_model = build_smoothing
