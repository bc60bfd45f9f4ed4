"""Closed-form machinery for overlapping 2-runs and (k1,k2)-runs.

Both models are 1-dependent Bernoulli-block sequences over independent
trials: the 2-runs count sums ``X_i = trial_i * trial_{i+1}`` over ``n+1``
trials, and the (k1,k2)-runs count sums block variables built from
occurrences of ``k1`` failures followed by ``k2`` successes over
``(n+1)(k1+k2-1)`` trials.  The module supplies their neighborhood moments in
closed form (certified against enumeration elsewhere), the model-specific
smoothing constants, the bound statements specialized to each model,
moment-matched target fitting, and the published comparison table.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .bounds import BoundReport, build_smoothing, default_delta_g as _default_delta_g, m_star
from .errors import MomentMatchError, NBFitError, PreconditionError
from .families import PanjerPSD, negative_binomial_family, poisson_family
from .oracle import k1k2_automaton
from .sequences import DependentSequence, MomentSet, register_model

MEAN_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class RunsBoundReport(BoundReport):
    """Bound report carrying the per-index moment terms and constants used."""

    moment_terms: tuple = ()
    c_constant: object = None
    comparison: Optional[float] = None

    def to_json(self) -> dict:
        out = super().to_json()
        out["moment_terms"] = list(self.moment_terms)
        out["c_constant"] = (
            list(self.c_constant)
            if isinstance(self.c_constant, tuple)
            else self.c_constant
        )
        if self.comparison is not None:
            out["comparison_brown_xia"] = self.comparison
        return out


# -- 2-runs model -------------------------------------------------------------------


class TwoRunsModel(DependentSequence):
    """Overlapping success pairs in ``n+1`` independent Bernoulli trials.

    The standing assumption of the run bounds is ``p_i <= 1/2`` for every
    trial; violations are flagged on the instance and the bound constructors
    refuse them (validity of the smoothing constants is not guaranteed).
    """

    def __init__(self, p: Sequence[float]):
        if len(p) < 2:
            raise ValueError("need at least two trials")
        super().__init__(p, n=len(p) - 1, dependence_radius=1, kind="two-runs")
        self.assumption_ok = all(pi <= 0.5 for pi in self.trial_probs)

    def x_columns(self, bits: np.ndarray) -> np.ndarray:
        return bits[:, :-1] * bits[:, 1:]

    def x_scalar(self, bits: tuple) -> tuple:
        return tuple(bits[i] * bits[i + 1] for i in range(self.n))

    # closed forms, registered for the moment-provider interface
    def closed_form_moments(self) -> MomentSet:
        return two_runs_moment_set(self)

    def roellin_smoothing(self, i: int):
        del i  # the 2-runs constant is index-free
        return two_runs_cbar_parts(self.n)


register_model("two-runs", lambda obj: TwoRunsModel([float(x) for x in obj["p"]]))


def _trial(model: TwoRunsModel, j: int) -> float:
    """Trial probability ``p_j`` (1-based), zero outside ``1..n+1``."""
    if 1 <= j <= model.n + 1:
        return model.trial_probs[j - 1]
    return 0.0


def _a1(model: TwoRunsModel, i: int) -> float:
    if not 1 <= i <= model.n:
        return 0.0
    return _trial(model, i) * _trial(model, i + 1)


def _a2(model: TwoRunsModel, i: int) -> float:
    if not 1 <= i <= model.n - 1:
        return 0.0
    return _trial(model, i) * _trial(model, i + 1) * _trial(model, i + 2)


def _a3(model: TwoRunsModel, i: int) -> float:
    if not 1 <= i <= model.n - 2:
        return 0.0
    return (
        _trial(model, i)
        * _trial(model, i + 1)
        * _trial(model, i + 2)
        * _trial(model, i + 3)
    )


def two_runs_moments(model: TwoRunsModel, i: int) -> tuple:
    """Closed-form ``(a1, a2, a3, abar1, abar2, abar3)`` at index ``i``.

    Terms whose summand indices leave ``1..n`` vanish, which keeps every
    value equal to the corresponding exact expectation at the boundary.
    """
    if not 1 <= i <= model.n:
        raise ValueError(f"index {i} outside 1..{model.n}")
    a1 = lambda j: _a1(model, j)  # noqa: E731
    a2 = lambda j: _a2(model, j)  # noqa: E731
    a3 = lambda j: _a3(model, j)  # noqa: E731

    abar1 = 2 * math.fsum(a2(j) for j in range(i - 2, i + 2)) + 2 * (
        a1(i - 1) * a1(i + 1)
        + a1(i - 2) * (a1(i) + a1(i + 1))
        + a1(i + 2) * (a1(i - 1) + a1(i))
    )
    abar2 = (
        2 * a1(i) * (a1(i - 2) + a1(i + 2))
        + 2 * a2(i - 1) * (1 + a1(i + 2))
        + 2 * a2(i) * (1 + a1(i - 2))
        + 2 * math.fsum(a3(j) for j in range(i - 2, i + 1))
    )
    abar3 = a1(i) * (a1(i - 2) + a1(i + 2)) + a2(i - 1) + a2(i)
    return a1(i), a2(i), a3(i), abar1, abar2, abar3


def two_runs_moment_set(model: TwoRunsModel) -> MomentSet:
    """Full closed-form moment set (no enumeration)."""
    n = model.n
    vals = [two_runs_moments(model, i) for i in range(1, n + 1)]
    e_x = tuple(v[0] for v in vals)
    e_xn1 = tuple(
        _a1(model, i - 1) + _a1(model, i) + _a1(model, i + 1) for i in range(1, n + 1)
    )
    e_x_xn1 = tuple(
        _a2(model, i - 1) + _a1(model, i) + _a2(model, i) for i in range(1, n + 1)
    )
    e_n1_bracket = tuple(v[3] for v in vals)
    e_x_n1_bracket = tuple(v[4] for v in vals)
    e_x_n2m1 = tuple(v[5] for v in vals)
    mean_w = math.fsum(e_x)
    var_w = math.fsum(
        e_x_xn1[i] - e_x[i] * e_xn1[i] for i in range(n)
    )
    return MomentSet(e_x, e_xn1, e_x_xn1, e_n1_bracket, e_x_n1_bracket,
                     e_x_n2m1, mean_w, var_w, certified=True)


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


def poisson_fit(mean: float) -> PanjerPSD:
    return poisson_family(mean)


def _check_mean(spec, mean_w: float):
    if abs(spec.mean - mean_w) > MEAN_MATCH_TOL * (1.0 + abs(mean_w)):
        raise MomentMatchError(spec.mean, mean_w)


def two_runs_bound(
    model: TwoRunsModel,
    spec: PanjerPSD,
    delta_g: Optional[float] = None,
    comparison: bool = False,
) -> RunsBoundReport:
    """Model-specialized bound: ``|Dg| { cbar(n) sum_i [(|1-b|/2)(a1 abar1 +
    abar2) + abar3] + |tau(1-b)| }``; requires ``n >= 8``, trials <= 1/2, and
    matched first moments."""
    n = model.n
    if not model.assumption_ok:
        raise PreconditionError("trial probabilities must satisfy p_i <= 1/2")
    cbar, _ = two_runs_cbar_parts(n)  # enforces n >= 8
    moments = two_runs_moment_set(model)
    _check_mean(spec, moments.mean_w)
    if delta_g is None:
        delta_g = _default_delta_g(spec)
    b = spec.b
    per_index = []
    for i in range(1, n + 1):
        a1, _, _, abar1, abar2, abar3 = two_runs_moments(model, i)
        per_index.append((abs(1 - b) / 2 * (a1 * abar1 + abar2), abar3))
    term_quadratic = cbar * math.fsum(t[0] for t in per_index)
    term_linear = cbar * math.fsum(t[1] for t in per_index)
    var_z = spec.a / (1 - b) ** 2
    term_tau = abs((moments.var_w - var_z) * (1 - b))
    total = delta_g * (term_quadratic + term_linear + term_tau)
    cmp_val = None
    if comparison:
        probs = set(model.trial_probs)
        if len(probs) == 1:
            cmp_val = brown_xia_bound(n, next(iter(probs)))
    return RunsBoundReport(
        variant="closed-form",
        delta_g_factor=delta_g,
        term_quadratic=term_quadratic,
        term_linear=term_linear,
        term_tau=term_tau,
        total=total,
        one_minus_b=1 - b,
        moment_terms=tuple(per_index),
        c_constant=cbar,
        comparison=cmp_val,
    )


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


def table1(cells: Optional[Sequence[tuple]] = None) -> list:
    """Both bounds on the published grid: rows ``(n, p, ours, comparison)``."""
    if cells is None:
        cells = list(TABLE1_PRINTED)
    return [
        (n, p, nb_bound_closed_form(n, p), brown_xia_bound(n, p)) for n, p in cells
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


class K1K2Model(DependentSequence):
    """Blocks of (k1 failures, k2 successes) occurrences, 1-dependent by design.

    ``(n+1) m`` trials with ``m = k1+k2-1``; window ``j`` (of ``nm``) spans
    trials ``j..j+m``, and block ``i`` sums windows ``(i-1)m+1..im``.  Block
    variables are 0/1 because occurrences closer than ``m`` cannot coexist.
    Moments have closed forms and the smoothing constants a DP over at most
    ``4m`` trials per index, so no bound path enumerates the trial space and
    ``k1+k2`` is not limited.
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
        super().__init__(p, n=n, dependence_radius=1, kind="k1k2-runs",
                         params={"k1": k1, "k2": k2, "n": n})
        self.k1 = k1
        self.k2 = k2
        self.m = m

    def _y_columns(self, bits: np.ndarray) -> np.ndarray:
        n_windows = self.n * self.m
        cols = np.ones((bits.shape[0], n_windows), dtype=bits.dtype)
        for j in range(n_windows):
            for off in range(self.k1):
                cols[:, j] = cols[:, j] * (1 - bits[:, j + off])
            for off in range(self.k1, self.k1 + self.k2):
                cols[:, j] = cols[:, j] * bits[:, j + off]
        return cols

    def x_columns(self, bits: np.ndarray) -> np.ndarray:
        y = self._y_columns(bits)
        return np.stack(
            [y[:, (i - 1) * self.m : i * self.m].sum(axis=1) for i in range(1, self.n + 1)],
            axis=1,
        )

    def x_scalar(self, bits: tuple) -> tuple:
        def y(j):  # 1-based window index
            val = 1
            for off in range(self.k1):
                val *= 1 - bits[j - 1 + off]
            for off in range(self.k1, self.k1 + self.k2):
                val *= bits[j - 1 + off]
            return val

        return tuple(
            sum(y(j) for j in range((i - 1) * self.m + 1, i * self.m + 1))
            for i in range(1, self.n + 1)
        )

    def closed_form_moments(self) -> MomentSet:
        return k1k2_moment_set(self)

    def roellin_smoothing(self, i: int):
        return k1k2_ci_star_parts(self, i)


register_model(
    "k1k2-runs",
    lambda obj: K1K2Model(
        int(obj["k1"]), int(obj["k2"]), int(obj["n"]), [float(x) for x in obj["p"]]
    ),
)


class K1K2WindowSequence(DependentSequence):
    """The raw window occurrences ``Y_1..Y_{nm}`` of a (k1,k2) model.

    This is the m-dependent sequence before blocking; grouping it into
    blocks of ``m`` recovers the 1-dependent block variables of
    :class:`K1K2Model` outcome by outcome.
    """

    def __init__(self, k1: int, k2: int, n: int, p: Sequence[float]):
        self._model = K1K2Model(k1, k2, n, p)
        m = self._model.m
        super().__init__(p, n=n * m, dependence_radius=m, kind="k1k2-windows",
                         params={"k1": k1, "k2": k2, "n": n})

    def x_columns(self, bits: np.ndarray) -> np.ndarray:
        return self._model._y_columns(bits)

    def x_scalar(self, bits: tuple) -> tuple:
        m, n = self._model.m, self._model.n

        def y(j):
            val = 1
            for off in range(self._model.k1):
                val *= 1 - bits[j - 1 + off]
            for off in range(self._model.k1, self._model.k1 + self._model.k2):
                val *= bits[j - 1 + off]
            return val

        return tuple(y(j) for j in range(1, n * m + 1))


def window_probability(model: K1K2Model, j: int) -> float:
    """Occurrence probability ``a(p_j)`` of window ``j`` (1-based), 0 off-range."""
    if not 1 <= j <= model.n * model.m:
        return 0.0
    val = 1.0
    for off in range(model.k1):
        val *= 1.0 - model.trial_probs[j - 1 + off]
    for off in range(model.k1, model.k1 + model.k2):
        val *= model.trial_probs[j - 1 + off]
    return val


def _block_mean(model: K1K2Model, i: int) -> float:
    if not 1 <= i <= model.n:
        return 0.0
    m = model.m
    return math.fsum(
        window_probability(model, j) for j in range((i - 1) * m + 1, i * m + 1)
    )


def _block_pair(model: K1K2Model, i: int) -> float:
    """``E(X_i X_{i+1})``: window pairs across adjacent blocks with gap > m.

    Windows closer than ``m+1`` cannot both fire, so the sum runs over
    ``l1`` in block ``i`` and ``l2 >= l1+m+1`` in block ``i+1``, each pair
    counted once.
    """
    if not 1 <= i <= model.n - 1:
        return 0.0
    m = model.m
    total = 0.0
    for l1 in range((i - 1) * m + 1, i * m):
        inner = math.fsum(
            window_probability(model, l2) for l2 in range(l1 + m + 1, (i + 1) * m + 1)
        )
        total += window_probability(model, l1) * inner
    return total


def _block_triple(model: K1K2Model, i: int) -> float:
    """``E(X_i X_{i+1} X_{i+2})`` over window triples with pairwise gap > m."""
    if not 1 <= i <= model.n - 2:
        return 0.0
    m = model.m
    total = 0.0
    for l1 in range((i - 1) * m + 1, i * m):
        a1v = window_probability(model, l1)
        if a1v == 0.0:
            continue
        for l2 in range(l1 + m + 1, (i + 1) * m):
            a2v = window_probability(model, l2)
            if a2v == 0.0:
                continue
            inner = math.fsum(
                window_probability(model, l3)
                for l3 in range(l2 + m + 1, (i + 2) * m + 1)
            )
            total += a1v * a2v * inner
    return total


def k1k2_moments(model: K1K2Model, i: int) -> tuple:
    """``(a*, pair, triple, a1*, a2*, a3*)`` at block index ``i``.

    The pair/triple sums count each admissible window tuple once, which keeps
    them equal to the exact cross moments of the 0/1 block variables; the
    starred bound terms then follow the same neighborhood expansion as the
    2-runs case.
    """
    if not 1 <= i <= model.n:
        raise ValueError(f"index {i} outside 1..{model.n}")
    astar = lambda j: _block_mean(model, j)  # noqa: E731
    pair = lambda j: _block_pair(model, j)  # noqa: E731
    triple = lambda j: _block_triple(model, j)  # noqa: E731

    a1_star = 2 * math.fsum(pair(j) for j in range(i - 2, i + 2)) + 2 * (
        astar(i - 1) * astar(i + 1)
        + astar(i - 2) * (astar(i) + astar(i + 1))
        + astar(i + 2) * (astar(i - 1) + astar(i))
    )
    a2_star = (
        2 * astar(i) * (astar(i - 2) + astar(i + 2))
        + 2 * pair(i - 1) * (1 + astar(i + 2))
        + 2 * pair(i) * (1 + astar(i - 2))
        + 2 * math.fsum(triple(j) for j in range(i - 2, i + 1))
    )
    a3_star = astar(i) * (astar(i - 2) + astar(i + 2)) + pair(i - 1) + pair(i)
    return astar(i), pair(i), triple(i), a1_star, a2_star, a3_star


def k1k2_moment_set(model: K1K2Model) -> MomentSet:
    n = model.n
    vals = [k1k2_moments(model, i) for i in range(1, n + 1)]
    e_x = tuple(v[0] for v in vals)
    e_xn1 = tuple(
        _block_mean(model, i - 1) + _block_mean(model, i) + _block_mean(model, i + 1)
        for i in range(1, n + 1)
    )
    e_x_xn1 = tuple(
        _block_pair(model, i - 1) + _block_mean(model, i) + _block_pair(model, i)
        for i in range(1, n + 1)
    )
    e_n1_bracket = tuple(v[3] for v in vals)
    e_x_n1_bracket = tuple(v[4] for v in vals)
    e_x_n2m1 = tuple(v[5] for v in vals)
    mean_w = math.fsum(e_x)
    var_w = math.fsum(e_x_xn1[i] - e_x[i] * e_xn1[i] for i in range(n))
    return MomentSet(e_x, e_xn1, e_x_xn1, e_n1_bracket, e_x_n1_bracket,
                     e_x_n2m1, mean_w, var_w, certified=True)


def conditional_zero_max(model: K1K2Model, ell: int) -> float:
    """``max over neighbor-block values of P(X_ell = 0 | those values)``.

    Exact, by a forward DP (Markov-chain imbedding) over the at most ``4m``
    trials under blocks ``ell-1..ell+1``, clipped at the ends.  The state is
    the pattern automaton's match length and the 0/1 value of each block;
    an occurrence ending at trial ``t`` belongs to the block of window
    ``t-m``.  The cost is ``O(m (k1+k2))`` per index, for any ``k1+k2``.
    The max runs over attainable neighbor values.
    """
    if not 1 <= ell <= model.n:
        raise ValueError(f"index {ell} outside 1..{model.n}")
    cache = model._cache.setdefault("cond_zero", {})
    if ell in cache:
        return cache[ell]
    m = model.m
    lo_block = max(1, ell - 1)
    hi_block = min(model.n, ell + 1)
    automaton = k1k2_automaton(model.k1, model.k2)
    codes = np.arange(1 << (hi_block - lo_block + 1))
    layer = np.zeros((automaton.n_states, len(codes)))
    layer[0, 0] = 1.0
    t_lo = (lo_block - 1) * m + 1
    for t in range(t_lo, (hi_block + 1) * m + 1):
        p = model.trial_probs[t - 1]
        # Block of window t - m (nothing completes before t_lo + m); a block
        # holds at most one occurrence, so codes with its bit set carry none.
        bit = 1 << ((max(t - m, t_lo) - 1) // m + 1 - lo_block)
        free = codes[(codes & bit) == 0]
        nxt = np.zeros_like(layer)
        for s, row in enumerate(automaton.transitions):
            for (s_next, inc), weight in zip(row, (1.0 - p, p)):
                if inc:
                    nxt[s_next, free | bit] += layer[s, free] * weight
                else:
                    nxt[s_next] += layer[s] * weight
        layer = nxt
    joint = layer.sum(axis=0)  # law of the block values
    ell_bit = 1 << (ell - lo_block)
    others = codes[(codes & ell_bit) == 0]
    numer = joint[others]  # X_ell = 0, per neighbor values
    denom = numer + joint[others | ell_bit]
    val = float((numer[denom > 0] / denom[denom > 0]).max())
    cache[ell] = val
    return val


def _k1k2_check_conditions(model: K1K2Model):
    """Refuse instances outside the stated validity; a pass is cached."""
    if model._cache.get("conditions_ok"):
        return
    if model.n < 3 * model.m:
        raise PreconditionError(
            f"stated validity requires n >= 3m = {3 * model.m} (got n={model.n})"
        )
    worst = max(
        window_probability(model, j) for j in range(1, model.n * model.m + 1)
    )
    if worst > 1 / 3 + 1e-12:
        raise PreconditionError(
            f"stated validity requires every occurrence probability <= 1/3 "
            f"(max is {worst:.6f})"
        )
    model._cache["conditions_ok"] = True


def k1k2_ci_star_parts(model: K1K2Model, i: int) -> tuple:
    """Smoothing constant ``c*_i(n)`` with the winning conditioning label.

    ``min`` of the even- and odd-conditioning values
    ``2 (min{1, sum_j (1 - cond-zero-max of the remaining summand)}/2)^{-1/2}``,
    where the sums run over summands whose index is farther than 2 from
    ``i``.  Degenerate smoothing information (empty or forced-zero sums)
    yields ``inf``.  Each parity's sum is formed once per model, so all
    ``n`` constants cost ``O(n)`` in total.
    """
    _k1k2_check_conditions(model)
    if not 1 <= i <= model.n:
        raise ValueError(f"index {i} outside 1..{model.n}")

    def v_value(first: int) -> float:
        # Exact prefix sums: dropping the summands near i by subtraction still
        # rounds once, to the fsum of the rest, and exactly to 0 when it is 0.
        ells = range(first, model.n + 1, 2)
        prefix = model._cache.get(("smoothing_sums", first))
        if prefix is None:
            terms = (Fraction(1.0 - conditional_zero_max(model, ell)) for ell in ells)
            prefix = model._cache[("smoothing_sums", first)] = list(
                accumulate(terms, initial=Fraction(0)))
        lo, hi = bisect_left(ells, i - 2), bisect_right(ells, i + 2)
        s = min(1.0, float(prefix[-1] - prefix[hi] + prefix[lo]))
        if s <= 0:
            return math.inf
        return 2.0 * (0.5 * s) ** -0.5

    v_even = v_value(1)  # odd summands remain
    v_odd = v_value(2)  # even summands remain
    if v_even <= v_odd:
        return v_even, "roellin-even"
    return v_odd, "roellin-odd"


def k1k2_ci_star(model: K1K2Model, i: int) -> float:
    return k1k2_ci_star_parts(model, i)[0]


def k1k2_bound(
    model: K1K2Model,
    spec: PanjerPSD,
    delta_g: Optional[float] = None,
) -> RunsBoundReport:
    """Model-specialized bound ``|Dg| { sum_i c*_i(n) [(|1-b|/2)(a* a1* + a2*)
    + a3*] + |tau(1-b)| }``; requires ``n >= 3m``, occurrence probabilities
    <= 1/3, and matched first moments."""
    _k1k2_check_conditions(model)
    moments = k1k2_moment_set(model)
    _check_mean(spec, moments.mean_w)
    if delta_g is None:
        delta_g = _default_delta_g(spec)
    b = spec.b
    cs = []
    per_index = []
    for i in range(1, model.n + 1):
        astar, _, _, a1s, a2s, a3s = k1k2_moments(model, i)
        quad = astar * a1s + a2s
        if quad == 0.0 and a3s == 0.0:
            # Nothing to weight; skip the smoothing constant (may be inf on
            # degenerate instances) so the vanishing term stays zero.
            cs.append(0.0)
            per_index.append((0.0, 0.0))
            continue
        c_i = k1k2_ci_star(model, i)
        cs.append(c_i)
        per_index.append(
            (c_i * abs(1 - b) / 2 * quad, c_i * a3s)
        )
    term_quadratic = math.fsum(t[0] for t in per_index)
    term_linear = math.fsum(t[1] for t in per_index)
    var_z = spec.a / (1 - b) ** 2
    term_tau = abs((moments.var_w - var_z) * (1 - b))
    total = delta_g * (term_quadratic + term_linear + term_tau)
    return RunsBoundReport(
        variant="closed-form",
        delta_g_factor=delta_g,
        term_quadratic=term_quadratic,
        term_linear=term_linear,
        term_tau=term_tau,
        total=total,
        one_minus_b=1 - b,
        moment_terms=tuple(per_index),
        c_constant=tuple(cs),
    )


# Former name of ``build_smoothing``, still bound by the benchmark's spans.
smoothing_from_runs_model = build_smoothing
